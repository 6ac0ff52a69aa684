//! Bound-driven top-k early termination: rank answers by their best
//! fact's Shapley value while solving as few structures as possible.
//!
//! At JOB scale a ranking request wants the `k` best answers, yet the
//! batch executor solves **every** distinct structure. This module adds
//! the missing admission control:
//!
//! 1. **Bound pass** — every distinct canonical structure gets a cheap
//!    *upper bound* on any of its facts' Shapley values
//!    ([`shapley_bounds`]): per fact, a union bound over its conjuncts,
//!    each conjunct's term an exact inclusion–exclusion over at most
//!    three competing conjuncts, in exact rational arithmetic. No
//!    compilation, no sampling — `O(vars · conjuncts²)` set algebra.
//! 2. **Admission loop** — structures are solved in decreasing bound
//!    order. A min-heap of the exact scores solved so far tracks the
//!    `k`-th best; the moment the best remaining bound falls *strictly*
//!    below it, everything left is pruned unsolved
//!    ([`PlanReason::TopKPruned`]).
//!
//! Pruning is **lossless**: a pruned answer's true score is ≤ its
//! structure's bound, which is strictly below the `k`-th best exact score
//! at prune time — a threshold that never decreases afterwards — so the
//! returned list is bit-identical to the full ranking's length-`k`
//! prefix, index tie-breaks included. With `k ≥ answers` the loop never
//! prunes and degenerates to the ordinary solve-everything batch.

use super::stages::{self, SolveCounters};
use super::{
    translate_result, EngineError, EngineResult, EngineValues, Measure, PlanReason, Planner,
};
use crate::exact::ExactConfig;
use shapdb_circuit::{fingerprint, Dnf, Fingerprint};
use shapdb_kc::Budget;
use shapdb_metrics::counters::{
    CacheRunStats, DedupStats, TOPK_BOUND_PASSES, TOPK_PRUNED, TOPK_SOLVED,
};
use shapdb_num::Rational;
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashSet};
use std::time::{Duration, Instant};

/// Cheap a-priori bracket on a canonical structure's best Shapley value.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ScoreBounds {
    /// `max_f φ(f) ≥ lower`: by efficiency the values of a non-constant
    /// structure sum to 1, so the best fact scores at least `1/vars`.
    pub lower: Rational,
    /// `max_f φ(f) ≤ upper`: the inclusion–exclusion union bound below.
    pub upper: Rational,
}

/// Brackets the maximum Shapley value of any fact of the canonical
/// minimized structure `key` (a [`Fingerprint::key`]), without solving it.
///
/// The upper bound: a fact `f` is pivotal in a uniformly random
/// permutation only if some conjunct `C ∋ f` has `C \ {f}` entirely
/// before `f` while no conjunct avoiding `f` is entirely before `f`. Per
/// conjunct, relaxing "no conjunct" to "none of up to three chosen
/// competitors" (greedily those with the smallest union `|C ∪ D|`) keeps
/// the event a superset, and exact inclusion–exclusion over the chosen
/// set gives its probability: `Σ_{S ⊆ chosen} (−1)^{|S|} / |C ∪ ⋃S|`
/// (every listed element must precede `f` within the union). Summing over
/// `C ∋ f` (a union bound), capping at 1, and maximizing over `f` yields
/// a sound `upper` in exact rationals.
///
/// Constant structures (empty key, or an empty conjunct — `⊥`/`⊤`) have
/// no players: both bounds are 0.
pub fn shapley_bounds(key: &[Vec<u32>]) -> ScoreBounds {
    if key.is_empty() || key.iter().any(|c| c.is_empty()) {
        return ScoreBounds {
            lower: Rational::zero(),
            upper: Rational::zero(),
        };
    }
    let num_vars = key
        .iter()
        .flatten()
        .copied()
        .max()
        .map_or(0, |m| m as usize + 1);
    let mut by_var: Vec<Vec<usize>> = vec![Vec::new(); num_vars];
    for (ci, c) in key.iter().enumerate() {
        for &v in c {
            by_var[v as usize].push(ci);
        }
    }
    let one = Rational::one();
    let mut best = Rational::zero();
    for (v, conjs) in by_var.iter().enumerate() {
        let mut sum = Rational::zero();
        for &ci in conjs {
            sum += &conjunct_term(key, ci, v as u32);
            if sum >= one {
                break;
            }
        }
        let ub = if sum > one { one.clone() } else { sum };
        if ub > best {
            best = ub;
        }
        if best == one {
            break;
        }
    }
    ScoreBounds {
        lower: Rational::from_ratio(1, num_vars as u64),
        upper: best,
    }
}

/// One conjunct's contribution to the bound of `v ∈ key[ci]`: the exact
/// probability that `key[ci] \ {v}` precedes `v` while none of up to
/// three greedily chosen competitor conjuncts fully precedes `v`.
fn conjunct_term(key: &[Vec<u32>], ci: usize, v: u32) -> Rational {
    let c = &key[ci];
    // Competitors: conjuncts not containing v, closest-union first.
    let mut competitors: Vec<(usize, usize)> = key
        .iter()
        .enumerate()
        .filter(|(_, d)| !d.contains(&v))
        .map(|(j, d)| (union_size(c, d), j))
        .collect();
    competitors.sort_unstable();
    competitors.truncate(3);
    let mut term = Rational::zero();
    for mask in 0u32..(1 << competitors.len()) {
        let mut union: HashSet<u32> = c.iter().copied().collect();
        for (bit, &(_, j)) in competitors.iter().enumerate() {
            if mask & (1 << bit) != 0 {
                union.extend(key[j].iter().copied());
            }
        }
        let frac = Rational::from_ratio(1, union.len() as u64);
        term = if mask.count_ones() % 2 == 0 {
            term + frac
        } else {
            term - frac
        };
    }
    term
}

/// `|a ∪ b|` for two conjuncts.
fn union_size(a: &[u32], b: &[u32]) -> usize {
    let set: HashSet<u32> = a.iter().chain(b).copied().collect();
    set.len()
}

/// A structure awaiting admission, ordered for the max-heap: highest
/// upper bound first, ties broken toward the earliest first answer.
struct Candidate {
    ub: Rational,
    first: usize,
    group: usize,
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.ub
            .cmp(&other.ub)
            .then_with(|| other.first.cmp(&self.first))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Candidate {}

/// One answer that made the top-k list.
#[derive(Clone, Debug)]
pub struct TopKItem {
    /// Index into the submitted answer sequence.
    pub index: usize,
    /// The answer's score: its best fact's exact Shapley value.
    pub score: Rational,
    /// The full engine result, values translated onto this answer's own
    /// facts.
    pub result: EngineResult,
}

/// What one top-k ranking run produced.
#[derive(Clone, Debug)]
pub struct TopKReport {
    /// The `k` best answers — bit-identical to the full ranking's prefix
    /// under (score desc, index asc) order. Shorter than `k` only when
    /// fewer answers were submitted.
    pub top: Vec<TopKItem>,
    /// The requested `k`.
    pub k: usize,
    /// Answers submitted.
    pub answers: usize,
    /// Answers whose structure was actually solved.
    pub solved_answers: usize,
    /// Answers pruned unsolved by the bound threshold.
    pub pruned_answers: usize,
    /// Distinct structures solved.
    pub solved_structures: usize,
    /// Distinct structures pruned unsolved.
    pub pruned_structures: usize,
    /// Structure-level bound computations (= distinct structures).
    pub bound_passes: usize,
    /// Per-answer routing, in submission order: the plan's reason for
    /// solved answers, [`PlanReason::TopKPruned`] for pruned ones.
    pub reasons: Vec<PlanReason>,
    /// Structural dedup over the submitted answers.
    pub dedup: DedupStats,
    /// Cross-query result-cache involvement of the solves.
    pub cache: CacheRunStats,
    /// Actual engine invocations (cache hits and pruned structures run
    /// none).
    pub engine_runs: usize,
    /// Wall time of the whole ranking.
    pub total_time: Duration,
}

/// Ranks answers by their best fact's exact Shapley value, solving
/// structures in decreasing upper-bound order and pruning the tail (see
/// the module docs).
///
/// The planner must stay on exact routes: a forced or fallback sampling
/// engine would hand back estimates the threshold cannot soundly compare,
/// so the run fails with [`EngineError::Unsupported`] instead.
#[derive(Clone, Debug, Default)]
pub struct TopKExecutor {
    planner: Planner,
}

impl TopKExecutor {
    /// An executor solving through the given planner (and its caches).
    pub fn new(planner: Planner) -> TopKExecutor {
        TopKExecutor { planner }
    }

    /// The planner driving per-structure routing.
    pub fn planner(&self) -> &Planner {
        &self.planner
    }

    /// [`TopKExecutor::run`] over raw lineages, fingerprinting each one
    /// first.
    pub fn run_lineages(
        &self,
        lineages: &[Dnf],
        k: usize,
        n_endo: usize,
        budget: &Budget,
        exact: &ExactConfig,
    ) -> Result<TopKReport, EngineError> {
        self.run(lineages.iter().map(fingerprint), k, n_endo, budget, exact)
    }

    /// Ranks the fingerprinted answers, returning the top `k`. Answers
    /// stream in by fingerprint — the caller can drop each raw lineage as
    /// soon as it is fingerprinted (the streaming extraction path does),
    /// so peak memory holds canonical structures and renamings, never the
    /// full materialized provenance.
    ///
    /// Errors from the underlying solves propagate immediately (exact
    /// mode — a partial ranking would not be a ranking).
    pub fn run(
        &self,
        fingerprints: impl IntoIterator<Item = Fingerprint>,
        k: usize,
        n_endo: usize,
        budget: &Budget,
        exact: &ExactConfig,
    ) -> Result<TopKReport, EngineError> {
        let start = Instant::now();
        let fps: Vec<Fingerprint> = fingerprints.into_iter().collect();
        let answers = fps.len();
        stages::record_measure_requests(Measure::Shapley, answers as u64);
        let grouping = stages::group_by_structure(&fps);
        let distinct = grouping.distinct();

        // Bound pass: one cheap bracket per distinct structure.
        let mut heap: BinaryHeap<Candidate> = BinaryHeap::with_capacity(distinct);
        for (group, &first) in grouping.first_of_group.iter().enumerate() {
            let fp = &fps[first];
            TOPK_BOUND_PASSES.incr();
            heap.push(Candidate {
                ub: shapley_bounds(fp.key()).upper,
                first,
                group,
            });
        }

        // Admission loop: solve in decreasing bound order until the k-th
        // solved score dominates every remaining bound.
        let counters = SolveCounters::new();
        let mut reasons: Vec<PlanReason> = vec![PlanReason::TopKPruned; answers];
        let mut kth: BinaryHeap<Reverse<Rational>> = BinaryHeap::with_capacity(k.min(answers) + 1);
        let mut solved: Vec<(usize, Rational, EngineResult)> = Vec::new();
        let mut pruned_answers = 0usize;
        let mut pruned_structures = 0usize;
        while let Some(cand) = heap.pop() {
            let dominated = k == 0 || (kth.len() == k && cand.ub < kth.peek().expect("k scores").0);
            if dominated {
                // Heap order: everything left is bounded by cand.ub too.
                for c in std::iter::once(cand).chain(heap.drain()) {
                    pruned_structures += 1;
                    pruned_answers += grouping.members_of[c.group].len();
                }
                break;
            }
            let fp = &fps[cand.first];
            let plan = self.planner.plan_fp(fp, Measure::Shapley);
            let result = stages::solve_group(
                &self.planner,
                fp,
                &[plan],
                n_endo,
                budget,
                exact,
                cand.first as u64,
                1,
                &counters,
            )
            .pop()
            .expect("one plan, one result")?;
            let score =
                match &result.values {
                    // Engine values are sorted by decreasing value: the first
                    // entry is the structure's best fact. No players (a
                    // constant lineage) scores zero.
                    EngineValues::Exact(v) => v
                        .first()
                        .map(|(_, x)| x.clone())
                        .unwrap_or_else(Rational::zero),
                    EngineValues::Approx(_) => return Err(EngineError::Unsupported(
                        "top-k pruning needs exact scores; the planner routed to an inexact engine",
                    )),
                };
            let members = &grouping.members_of[cand.group];
            TOPK_SOLVED.add(members.len() as u64);
            for &m in members {
                reasons[m] = plan.reason;
                kth.push(Reverse(score.clone()));
                if kth.len() > k {
                    kth.pop();
                }
            }
            solved.push((cand.group, score, result));
        }
        TOPK_PRUNED.add(pruned_answers as u64);

        // Final selection: the solved answers under the full ranking's
        // order, translated through each answer's own renaming.
        let mut ranked: Vec<(usize, Rational, usize)> = Vec::new();
        for (slot, (group, score, _)) in solved.iter().enumerate() {
            for &m in &grouping.members_of[*group] {
                ranked.push((m, score.clone(), slot));
            }
        }
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(k);
        let top = ranked
            .into_iter()
            .map(|(m, score, slot)| TopKItem {
                index: m,
                score,
                result: translate_result(solved[slot].2.clone(), &fps[m]),
            })
            .collect();

        Ok(TopKReport {
            top,
            k,
            answers,
            solved_answers: answers - pruned_answers,
            pruned_answers,
            solved_structures: solved.len(),
            pruned_structures,
            bound_passes: distinct,
            reasons,
            dedup: DedupStats {
                tasks: answers,
                distinct,
                reused: answers - distinct,
            },
            cache: counters.cache_stats(),
            engine_runs: counters.engine_runs(),
            total_time: start.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{BatchExecutor, EngineKind, LineageTask, PlannerConfig};
    use proptest::prelude::*;
    use shapdb_circuit::VarId;

    fn dnf(conjs: &[&[u32]]) -> Dnf {
        let mut d = Dnf::new();
        for c in conjs {
            d.add_conjunct(c.iter().map(|&v| VarId(v)).collect());
        }
        d
    }

    /// `j` pairwise disjoint width-2 conjuncts starting at var `base`.
    fn disjoint_pairs(j: u32, base: u32) -> Dnf {
        let mut d = Dnf::new();
        for i in 0..j {
            d.add_conjunct(vec![VarId(base + 2 * i), VarId(base + 2 * i + 1)]);
        }
        d
    }

    fn max_exact(planner: &Planner, d: &Dnf, n_endo: usize) -> Rational {
        let r = planner.solve(&LineageTask::new(d, n_endo)).unwrap();
        match &r.values {
            EngineValues::Exact(v) => v
                .first()
                .map(|(_, x)| x.clone())
                .unwrap_or_else(Rational::zero),
            EngineValues::Approx(_) => panic!("exact expected"),
        }
    }

    #[test]
    fn bounds_are_exact_on_disjoint_pair_unions() {
        // j disjoint width-2 conjuncts: with ≤ 3 competitors the
        // inclusion–exclusion is the full one for j ≤ 4, so the bound
        // *equals* the exact best value: 1/2, 1/4, 1/6, 1/8.
        let planner = Planner::new(PlannerConfig::default());
        for (j, want) in [(1, (1, 2)), (2, (1, 4)), (3, (1, 6)), (4, (1, 8))] {
            let d = disjoint_pairs(j, 0);
            let b = shapley_bounds(fingerprint(&d).key());
            assert_eq!(b.upper, Rational::from_ratio(want.0, want.1), "j={j}");
            assert_eq!(b.lower, Rational::from_ratio(1, 2 * j as u64), "j={j}");
            assert_eq!(
                max_exact(&planner, &d, 2 * j as usize),
                b.upper,
                "j={j}: bound is tight here"
            );
        }
        // j = 5 keeps only 3 of the 4 competitors: the bound stays at 1/8
        // while the exact value drops to 1/10 — sound, not tight.
        let d = disjoint_pairs(5, 0);
        let b = shapley_bounds(fingerprint(&d).key());
        assert_eq!(b.upper, Rational::from_ratio(1, 8));
        assert_eq!(max_exact(&planner, &d, 10), Rational::from_ratio(1, 10));
    }

    #[test]
    fn constant_structures_have_zero_bounds() {
        let zero = ScoreBounds {
            lower: Rational::zero(),
            upper: Rational::zero(),
        };
        assert_eq!(shapley_bounds(&[]), zero, "⊥ has no players");
        assert_eq!(shapley_bounds(&[vec![]]), zero, "⊤ has no players");
        // A certain-true lineage scores zero for every fact, so the
        // zero bound keeps it prunable and sound.
        let mut top = Dnf::new();
        top.add_conjunct(vec![]);
        top.add_conjunct(vec![VarId(3)]);
        assert_eq!(shapley_bounds(fingerprint(&top).key()), zero);
    }

    #[test]
    fn singleton_conjuncts_hit_the_cap() {
        // ∨ of many singletons: per-var sums cap at 1, and var-rich
        // structures stay bounded by 1 exactly.
        let d = dnf(&[&[0]]);
        assert_eq!(shapley_bounds(fingerprint(&d).key()).upper, Rational::one());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// The bracket is sound on random monotone DNFs: the exact best
        /// Shapley value always lands inside [lower, upper].
        #[test]
        fn prop_bounds_bracket_the_exact_maximum(
            conjs in proptest::collection::vec(
                proptest::collection::vec(0u32..6, 1..4), 1..6),
        ) {
            let mut d = Dnf::new();
            for c in &conjs {
                d.add_conjunct(c.iter().map(|&v| VarId(v)).collect());
            }
            let fp = fingerprint(&d);
            let b = shapley_bounds(fp.key());
            let planner = Planner::new(PlannerConfig::default());
            let best = max_exact(&planner, &d, 6);
            prop_assert!(b.lower <= best, "lower {:?} > exact {:?}", b.lower, best);
            prop_assert!(best <= b.upper, "exact {:?} > upper {:?}", best, b.upper);
        }
    }

    /// A mixed corpus: scores 1, 1/2 (×2, isomorphic), 43/105, 1/3 (×2,
    /// isomorphic twins with distinct renamings), 1/4, 1/8.
    fn corpus() -> Vec<Dnf> {
        vec![
            dnf(&[&[0]]),
            dnf(&[&[1, 2]]),
            dnf(&[&[30, 40]]),
            dnf(&[&[0], &[1, 3], &[1, 4], &[2, 3], &[2, 4], &[5, 6]]),
            dnf(&[&[7, 8], &[8, 9], &[7, 9]]),
            dnf(&[&[17, 28], &[28, 39], &[17, 39]]),
            disjoint_pairs(2, 50),
            disjoint_pairs(4, 60),
        ]
    }

    /// The solve-everything baseline ranking: (index, score) under
    /// (score desc, index asc).
    fn full_ranking(planner: &Planner, lineages: &[Dnf], n_endo: usize) -> Vec<(usize, Rational)> {
        let report = BatchExecutor::new(planner.clone()).with_threads(1).run(
            lineages,
            n_endo,
            &Budget::unlimited(),
            &ExactConfig::default(),
        );
        let mut scored: Vec<(usize, Rational)> = report
            .items
            .iter()
            .map(|it| {
                let r = it.result.as_ref().unwrap();
                let s = match &r.values {
                    EngineValues::Exact(v) => v
                        .first()
                        .map(|(_, x)| x.clone())
                        .unwrap_or_else(Rational::zero),
                    EngineValues::Approx(_) => panic!("exact expected"),
                };
                (it.index, s)
            })
            .collect();
        scored.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        scored
    }

    #[test]
    fn top_k_equals_the_full_rankings_prefix() {
        let lineages = corpus();
        let n = lineages.len();
        let baseline = full_ranking(&Planner::new(PlannerConfig::default()), &lineages, 70);
        for k in [1, 2, 3, 5, n, n + 3] {
            let exec = TopKExecutor::new(Planner::new(PlannerConfig::default()));
            let report = exec
                .run_lineages(
                    &lineages,
                    k,
                    70,
                    &Budget::unlimited(),
                    &ExactConfig::default(),
                )
                .unwrap();
            let got: Vec<(usize, Rational)> = report
                .top
                .iter()
                .map(|i| (i.index, i.score.clone()))
                .collect();
            assert_eq!(
                got,
                baseline[..k.min(n)].to_vec(),
                "k={k}: prefix must be bit-identical, ties included"
            );
            // Every returned result is on the answer's own facts and its
            // top value is the reported score.
            for item in &report.top {
                let EngineValues::Exact(v) = &item.result.values else {
                    panic!("exact expected");
                };
                if let Some((_, best)) = v.first() {
                    assert_eq!(best, &item.score);
                }
            }
            assert_eq!(report.answers, n);
            assert_eq!(report.solved_answers + report.pruned_answers, n);
            if k >= n {
                assert_eq!(report.pruned_answers, 0, "k≥n never prunes");
            }
        }
    }

    #[test]
    fn pruning_engages_below_the_kth_score() {
        // Five isomorphic strong answers (score 1/2) ahead of six weak
        // ones (bounds 1/8): at k = 3 the strong structure solves once,
        // pins the threshold at 1/2, and both weak structures are pruned
        // without an engine run.
        let mut lineages: Vec<Dnf> = (0..5).map(|i| dnf(&[&[2 * i, 2 * i + 1]])).collect();
        for i in 0..3u32 {
            lineages.push(disjoint_pairs(4, 100 + 10 * i));
        }
        for i in 0..3u32 {
            lineages.push(disjoint_pairs(5, 200 + 12 * i));
        }
        let exec = TopKExecutor::new(Planner::new(PlannerConfig::default()));
        let report = exec
            .run_lineages(
                &lineages,
                3,
                64,
                &Budget::unlimited(),
                &ExactConfig::default(),
            )
            .unwrap();
        assert_eq!(report.solved_structures, 1, "only the strong structure");
        assert_eq!(report.pruned_structures, 2);
        assert_eq!(report.solved_answers, 5);
        assert_eq!(report.pruned_answers, 6);
        assert_eq!(report.engine_runs, 1);
        assert_eq!(report.bound_passes, 3);
        assert_eq!(report.dedup.distinct, 3);
        for (i, reason) in report.reasons.iter().enumerate() {
            if i < 5 {
                assert_ne!(*reason, PlanReason::TopKPruned, "answer {i} solved");
            } else {
                assert_eq!(*reason, PlanReason::TopKPruned, "answer {i} pruned");
            }
        }
        // The prefix is still exact: the three earliest strong answers.
        let got: Vec<usize> = report.top.iter().map(|i| i.index).collect();
        assert_eq!(got, vec![0, 1, 2]);
        for item in &report.top {
            assert_eq!(item.score, Rational::from_ratio(1, 2));
        }
    }

    #[test]
    fn k_zero_solves_nothing() {
        let lineages = corpus();
        let n = lineages.len();
        let exec = TopKExecutor::new(Planner::new(PlannerConfig::default()));
        let report = exec
            .run_lineages(
                &lineages,
                0,
                70,
                &Budget::unlimited(),
                &ExactConfig::default(),
            )
            .unwrap();
        assert!(report.top.is_empty());
        assert_eq!(report.pruned_answers, n);
        assert_eq!(report.engine_runs, 0);
        assert!(report.reasons.iter().all(|r| *r == PlanReason::TopKPruned));
    }

    #[test]
    fn empty_input_is_fine() {
        let exec = TopKExecutor::new(Planner::new(PlannerConfig::default()));
        let report = exec
            .run_lineages(&[], 5, 0, &Budget::unlimited(), &ExactConfig::default())
            .unwrap();
        assert!(report.top.is_empty());
        assert_eq!((report.answers, report.bound_passes), (0, 0));
    }

    #[test]
    fn inexact_planners_are_rejected() {
        // A forced sampling engine hands back estimates: the threshold
        // cannot soundly compare them, so the run errors out instead of
        // quietly mis-ranking.
        let exec = TopKExecutor::new(Planner::new(PlannerConfig {
            force: Some(EngineKind::Proxy),
            ..Default::default()
        }));
        let lineages = vec![dnf(&[&[0, 1], &[1, 2], &[0, 2]])];
        let err = exec
            .run_lineages(
                &lineages,
                1,
                3,
                &Budget::unlimited(),
                &ExactConfig::default(),
            )
            .unwrap_err();
        assert!(matches!(err, EngineError::Unsupported(_)));
    }

    #[test]
    fn a_result_cache_serves_repeat_rankings() {
        use crate::engine::ShapleyCache;
        use std::sync::Arc;
        let cache = Arc::new(ShapleyCache::new());
        let planner = Planner::new(PlannerConfig::default()).with_cache(cache.clone());
        let exec = TopKExecutor::new(planner);
        let lineages = corpus();
        let cold = exec
            .run_lineages(
                &lineages,
                3,
                70,
                &Budget::unlimited(),
                &ExactConfig::default(),
            )
            .unwrap();
        assert!(cold.cache.misses > 0);
        let warm = exec
            .run_lineages(
                &lineages,
                3,
                70,
                &Budget::unlimited(),
                &ExactConfig::default(),
            )
            .unwrap();
        assert_eq!(warm.engine_runs, 0, "all solved structures cached");
        assert_eq!(warm.cache.hits, cold.cache.misses);
        for (a, b) in cold.top.iter().zip(&warm.top) {
            assert_eq!((a.index, &a.score), (b.index, &b.score));
            assert_eq!(a.result.values, b.result.values);
        }
    }
}
