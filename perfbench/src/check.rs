//! Output checks. A failed check fails its operation and counts in
//! `failed`.
//!
//! The ground truth is the efficiency axiom (Livshits et al., *The Shapley
//! Value of Tuples in Query Answering*): an answer's exact values sum to
//! its value gap `v(D_n) − v(∅)`. On top of it, the JOB corpus has a known
//! top: its solo movies' lineages are one width-2 conjunct, so both facts
//! score exactly ½.

use shapdb::circuit::Dnf;
use shapdb::data::{FactId, Value};
use shapdb::num::{BigInt, BigUint, Rational, Sign};
use shapdb::workloads::JobConfig;
use shapdb::{TopKRanking, TupleExplanation};
use shapdb_cli::json::Json;
use std::collections::HashSet;

/// `v(D_n) − v(∅)` of a monotone endogenous lineage: 1 unless it is
/// unsatisfiable (no conjunct) or certain (an empty conjunct).
pub fn value_gap(lineage: &Dnf) -> Rational {
    let satisfiable = !lineage.is_empty();
    let certain = lineage.conjuncts().iter().any(|c| c.is_empty());
    Rational::from_int(i64::from(satisfiable && !certain))
}

/// True iff `values` sum exactly to `gap`.
pub fn efficient<'a>(values: impl IntoIterator<Item = &'a Rational>, gap: &Rational) -> bool {
    let mut sum = Rational::zero();
    for v in values {
        sum += v;
    }
    &sum == gap
}

fn half() -> Rational {
    Rational::from_ratio(1, 2)
}

/// The movie id heading a JOB answer tuple.
fn movie_of(tuple: &[Value]) -> Option<usize> {
    tuple
        .first()?
        .as_int()
        .and_then(|m| usize::try_from(m).ok())
}

/// Checks one `explain_batch` of the JOB corpus: one explanation per
/// movie, every answer efficient against its gap (0 for answers that hold
/// on exogenous facts alone, `exogenous`), and every solo answer exactly
/// two facts at ½.
pub fn explain(
    explanations: &[TupleExplanation],
    cfg: &JobConfig,
    exogenous: &HashSet<Vec<Value>>,
) -> Vec<String> {
    let mut errors = Vec::new();
    if explanations.len() != cfg.movies {
        errors.push(format!(
            "{} answers explained, expected {}",
            explanations.len(),
            cfg.movies
        ));
    }
    let mut solo_seen = 0;
    for e in explanations {
        let gap = Rational::from_int(i64::from(!exogenous.contains(&e.tuple)));
        if !efficient(e.attributions.iter().map(|(_, x)| x), &gap) {
            errors.push(format!("answer {:?}: values do not sum to {gap}", e.tuple));
        }
        if movie_of(&e.tuple).is_some_and(|m| m < cfg.solo_movies()) {
            solo_seen += 1;
            if e.attributions.len() != 2 || e.attributions.iter().any(|(_, x)| *x != half()) {
                errors.push(format!("solo answer {:?} does not score ½ twice", e.tuple));
            }
        }
    }
    if solo_seen != cfg.solo_movies() {
        errors.push(format!(
            "{solo_seen} solo answers, expected {}",
            cfg.solo_movies()
        ));
    }
    errors
}

/// One ranked answer: tuple, score, attributions.
pub type Ranked = (Vec<Value>, Rational, Vec<(FactId, Rational)>);

/// Checks a JOB top-`k` list: `k` answers, each a solo movie at exactly
/// ½ with efficient values.
pub fn top_answers(top: &[Ranked], k: usize, cfg: &JobConfig) -> Vec<String> {
    let mut errors = Vec::new();
    if top.len() != k {
        errors.push(format!("{} top answers, expected {k}", top.len()));
    }
    for (tuple, score, attributions) in top {
        let solo = movie_of(tuple).is_some_and(|m| m < cfg.solo_movies());
        if !solo || *score != half() {
            errors.push(format!(
                "top answer {tuple:?} scores {score}, expected a solo movie at 1/2"
            ));
        }
        if !efficient(attributions.iter().map(|(_, x)| x), &Rational::one()) {
            errors.push(format!("top answer {tuple:?}: values do not sum to 1"));
        }
    }
    errors
}

/// Checks one `rank_topk(q, k)` of the JOB corpus: [`top_answers`], and
/// at most a quarter of all answers solved.
pub fn topk(r: &TopKRanking, k: usize, cfg: &JobConfig) -> Vec<String> {
    let top: Vec<Ranked> = r
        .top
        .iter()
        .map(|a| (a.tuple.clone(), a.score.clone(), a.attributions.clone()))
        .collect();
    let mut errors = top_answers(&top, k, cfg);
    if r.solved_answers * 4 > r.answers {
        errors.push(format!(
            "solved {} of {} answers (more than 25 %)",
            r.solved_answers, r.answers
        ));
    }
    errors
}

/// Parses an exact value as the protocol prints it: `n`, `-n`, `n/d`.
pub fn parse_rational(s: &str) -> Option<Rational> {
    let (neg, body) = match s.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, s),
    };
    let (num, den) = match body.split_once('/') {
        Some((n, d)) => (BigUint::from_decimal(n)?, BigUint::from_decimal(d)?),
        None => (BigUint::from_decimal(body)?, BigUint::one()),
    };
    if den.is_zero() {
        return None;
    }
    let sign = if num.is_zero() {
        Sign::Zero
    } else if neg {
        Sign::Negative
    } else {
        Sign::Positive
    };
    Some(Rational::new(BigInt::from_sign_mag(sign, num), den))
}

/// Checks one protocol response: `ok`, the request's `id` echoed, exact
/// values that sum to `gap`. Returns the `(fact, value string)` pairs.
pub fn response(line: &str, id: u64, gap: &Rational) -> Result<Vec<(u32, String)>, String> {
    let json = Json::parse(line).map_err(|e| format!("response {id}: {e}"))?;
    if json.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!("response {id} not ok: {line}"));
    }
    if json.get("id").and_then(Json::as_u64) != Some(id) {
        return Err(format!("response does not echo id {id}: {line}"));
    }
    if json.get("exact") != Some(&Json::Bool(true)) {
        return Err(format!("response {id} is not exact"));
    }
    let mut pairs = Vec::new();
    let mut sum = Rational::zero();
    for v in json.get("values").and_then(Json::as_arr).unwrap_or(&[]) {
        let pair = v.as_arr().unwrap_or(&[]);
        let (Some(fact), Some(text)) = (
            pair.first().and_then(Json::as_u64),
            pair.get(1).and_then(Json::as_str),
        ) else {
            return Err(format!("response {id}: malformed value {}", v.render()));
        };
        let x = parse_rational(text).ok_or_else(|| format!("response {id}: bad value {text}"))?;
        sum += &x;
        pairs.push((fact as u32, text.to_string()));
    }
    if &sum != gap {
        return Err(format!(
            "response {id}: values sum to {sum}, expected {gap}"
        ));
    }
    Ok(pairs)
}

/// `(fact, value)` pairs of exact values, sorted by fact, as strings.
pub fn rendered(values: &[(FactId, Rational)]) -> Vec<(u32, String)> {
    let mut out: Vec<(u32, String)> = values.iter().map(|(f, x)| (f.0, x.to_string())).collect();
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use shapdb::circuit::VarId;

    #[test]
    fn rationals_round_trip() {
        for r in [
            Rational::from_ratio(43, 105),
            Rational::from_ratio(-3, 7),
            Rational::zero(),
            Rational::from_int(5),
        ] {
            assert_eq!(parse_rational(&r.to_string()), Some(r));
        }
        assert_eq!(parse_rational("1/0"), None);
        assert_eq!(parse_rational("x"), None);
    }

    #[test]
    fn gaps() {
        let mut d = Dnf::new();
        assert_eq!(value_gap(&d), Rational::zero());
        d.add_conjunct(vec![VarId(1), VarId(2)]);
        assert_eq!(value_gap(&d), Rational::one());
        d.add_conjunct(vec![]);
        assert_eq!(value_gap(&d), Rational::zero());
    }

    #[test]
    fn response_checks() {
        let good = r#"{"id":7,"ok":true,"engine":"readonce","measure":"shapley","exact":true,"values":[[0,"1/2"],[1,"1/2"]]}"#;
        assert_eq!(
            response(good, 7, &Rational::one()),
            Ok(vec![(0, "1/2".to_string()), (1, "1/2".to_string())])
        );
        assert!(response(good, 8, &Rational::one()).is_err(), "wrong id");
        let corrupted = good.replace("[1,\"1/2\"]", "[1,\"1/3\"]");
        assert!(
            response(&corrupted, 7, &Rational::one()).is_err(),
            "efficiency"
        );
        let failed = r#"{"id":7,"ok":false,"error":"boom"}"#;
        assert!(response(failed, 7, &Rational::one()).is_err());
    }
}
