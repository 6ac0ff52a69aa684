//! One distinct lineage structure solved layer by layer through the
//! program's public calls, each call inside its own span: result-cache
//! lookup, planning, then the planned engine — read-once evaluation,
//! naive enumeration, or knowledge compilation followed by Algorithm 1 —
//! and the cache insert (with its log append when the cache persists).
//!
//! This mirrors what the batch executor, the top-k executor and the
//! service workers run per structure, so a traced run can say which layer
//! the time went to without any tracing inside the program.

use crate::trace::Tracer;
use shapdb::circuit::{Circuit, Fingerprint, VarId};
use shapdb::core::engine::{
    CacheKey, EngineKind, EngineResult, EngineValues, LineageTask, PlanReason, Planner,
    ReadOnceEngine, ShapleyCache,
};
use shapdb::core::exact::{shapley_all_facts, ExactConfig};
use shapdb::data::FactId;
use shapdb::kc::{compile_circuit, compile_circuit_topdown, Budget};
use shapdb::num::Rational;
use shapdb::Measure;
use std::time::Duration;

/// The per-structure pipeline: a planner and a result cache.
pub struct Layers {
    pub planner: Planner,
    pub cache: ShapleyCache,
    /// Whether `cache` writes through to a log: its inserts are then
    /// traced as `engine.persist/append` instead of `engine.cache/insert`.
    pub persistent: bool,
}

/// Exact values of one structure in canonical space.
pub type Values = Vec<(VarId, Rational)>;

impl Layers {
    /// Exact values of the canonical structure behind `fp`, keyed by
    /// canonical variable.
    pub fn solve(
        &self,
        tr: &mut Tracer,
        request: u64,
        fp: &Fingerprint,
        n_endo: usize,
    ) -> Result<Values, String> {
        let key = CacheKey {
            structure: fp.shared_key(),
            n_endo,
            config: 0,
        };
        if let Some(hit) = tr.leaf("engine.cache/get", request, || self.cache.get(&key)) {
            return exact_values(hit);
        }
        let canonical = tr.leaf("circuit/canonical", request, || fp.canonical_dnf());
        let plan = tr.leaf("engine.planner/plan", request, || {
            self.planner.plan(&canonical)
        });
        let mut task = LineageTask::new(&canonical, n_endo);
        task.minimized = true;
        let result = match (plan.engine, fp.tree()) {
            (EngineKind::ReadOnce, Some(tree)) => tr.leaf("engine.readonce/solve", request, || {
                ReadOnceEngine.solve_tree(tree, Duration::ZERO, &task)
            }),
            (EngineKind::Kc, _) => {
                let budget = Budget::unlimited();
                let compiled = tr
                    .leaf("kc/compile", request, || {
                        let mut circuit = Circuit::new();
                        let root = canonical.to_circuit(&mut circuit);
                        if plan.reason == PlanReason::KcWideTopDown {
                            compile_circuit_topdown(&circuit, root, &budget, None)
                        } else {
                            compile_circuit(&circuit, root, &budget)
                        }
                    })
                    .map_err(|e| format!("compile: {e}"))?;
                let values = tr
                    .leaf("exact/alg1", request, || {
                        shapley_all_facts(&compiled.ddnnf, n_endo, &ExactConfig::default())
                    })
                    .map_err(|e| format!("algorithm 1: {e}"))?;
                let mut pairs: Values = compiled.fact_vars.iter().copied().zip(values).collect();
                sort_values(&mut pairs);
                Ok(EngineResult {
                    engine: EngineKind::Kc,
                    measure: Measure::Shapley,
                    values: EngineValues::Exact(pairs),
                    prep_time: Duration::ZERO,
                    solve_time: Duration::ZERO,
                    num_facts: canonical.vars().len(),
                    cnf_clauses: compiled.tseytin.cnf.len(),
                    ddnnf_size: compiled.ddnnf.len(),
                    compile_stats: compiled.stats,
                })
            }
            (engine, _) => tr.leaf("engine.naive/solve", request, || {
                engine.engine().solve(&task)
            }),
        }
        .map_err(|e| format!("{} engine: {e}", plan.engine))?;
        let insert = if self.persistent {
            "engine.persist/append"
        } else {
            "engine.cache/insert"
        };
        tr.leaf(insert, request, || self.cache.insert(key, result.clone()));
        exact_values(result)
    }
}

fn exact_values(r: EngineResult) -> Result<Values, String> {
    match r.values {
        EngineValues::Exact(v) => Ok(v),
        EngineValues::Approx(_) => Err(format!("{} returned approximate values", r.engine)),
    }
}

/// Decreasing value, ties by ascending variable — the order every engine
/// returns.
fn sort_values(pairs: &mut [(VarId, Rational)]) {
    pairs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
}

/// Canonical-space values renamed onto the answer's own facts.
pub fn translate(fp: &Fingerprint, values: &Values) -> Vec<(FactId, Rational)> {
    let mut pairs: Values = values
        .iter()
        .map(|(v, x)| (fp.var_of(v.0), x.clone()))
        .collect();
    sort_values(&mut pairs);
    pairs.into_iter().map(|(v, x)| (FactId(v.0), x)).collect()
}
