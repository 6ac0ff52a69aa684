//! Pool-agnostic pipeline stages shared by every execution surface.
//!
//! The dedup-then-fan-out pipeline — fingerprint, group by canonical
//! structure, plan each distinct structure once per requested measure,
//! solve it (through the cross-query cache when one is attached),
//! translate the canonical values back onto each task's facts — is the
//! same whether it runs as a one-shot scoped-thread batch
//! ([`super::BatchExecutor`]), as a top-k ranking
//! ([`super::TopKExecutor`]), as a single sequential solve
//! ([`super::Planner::solve`]), or inside a resident
//! [`super::ShapleyService`] worker. This module holds that pipeline as
//! free functions over a [`super::Planner`], so the surfaces differ only in
//! *where the threads come from*, never in what they compute: batch ≡
//! sequential ≡ service ≡ top-k, bit-identical rational for rational on
//! the exact paths.
//!
//! There is **one structure-solve path**: [`solve_group`] solves one
//! distinct structure for a list of plans, one per measure. A
//! single-measure solve is a sweep over one plan — the same cache lookups,
//! the same shared compile, the same sampling budget and the same counters.
//!
//! Nothing here owns a thread pool. [`parallel_map`] is the one scoped
//! fan-out helper the one-shot surfaces use; the service brings its own
//! long-lived workers and calls [`solve_one`] per queued request.

use super::planner::CacheOutcome;
use super::{EngineError, EngineResult, LineageTask, Measure, Plan, Planner};
use crate::exact::ExactConfig;
use shapdb_circuit::{fingerprint, Dnf, Fingerprint, FingerprintKey};
use shapdb_kc::Budget;
use shapdb_metrics::counters::{
    CacheRunStats, MEASURE_BANZHAF, MEASURE_RESPONSIBILITY, MEASURE_SHAPLEY, MEASURE_SHAP_SCORE,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bumps the process-wide per-measure request counter by `n` — the
/// ops-style view of which attributions clients actually ask for. Every
/// surface counts once per task per measure (one batch = one atomic add).
pub(crate) fn record_measure_requests(measure: Measure, n: u64) {
    match measure {
        Measure::Shapley => MEASURE_SHAPLEY.add(n),
        Measure::Banzhaf => MEASURE_BANZHAF.add(n),
        Measure::Responsibility => MEASURE_RESPONSIBILITY.add(n),
        Measure::ShapScore => MEASURE_SHAP_SCORE.add(n),
    };
}

/// Worker stack size: the d-DNNF compiler recurses per CNF variable.
pub(crate) const WORKER_STACK: usize = 64 * 1024 * 1024;

/// Runs `f(0)..f(n-1)` across up to `threads` scoped workers (large
/// stacks), returning results in index order. With one thread (or one
/// item) it degenerates to an in-order sequential loop on the caller
/// thread, so single-threaded runs stay deterministic in execution order.
pub(crate) fn parallel_map<T: Send>(
    threads: usize,
    n: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let threads = threads.min(n).max(1);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let cursor_ref = &cursor;
    let f_ref = &f;
    let mut collected: Vec<Vec<(usize, T)>> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                std::thread::Builder::new()
                    .stack_size(WORKER_STACK)
                    .spawn_scoped(s, move || {
                        let mut local = Vec::new();
                        loop {
                            let i = cursor_ref.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                return local;
                            }
                            local.push((i, f_ref(i)));
                        }
                    })
                    .expect("spawn batch worker")
            })
            .collect();
        for h in handles {
            collected.push(h.join().expect("batch worker panicked"));
        }
    });
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (i, v) in collected.into_iter().flatten() {
        out[i] = Some(v);
    }
    out.into_iter().map(|v| v.expect("mapped index")).collect()
}

/// Stage 1 — canonicalize every lineage (the one minimize + factor pass
/// per task; the fingerprint carries both by-products so nothing
/// downstream repeats them). Embarrassingly parallel, so it fans out over
/// the same scoped workers the solves use.
pub(crate) fn fingerprint_lineages(threads: usize, lineages: &[Dnf]) -> Vec<Fingerprint> {
    parallel_map(threads, lineages.len(), |i| fingerprint(&lineages[i]))
}

/// Stage 2's output: tasks grouped by canonical structure.
pub(crate) struct Grouping {
    /// `group_of[i]` = the group task `i` belongs to.
    pub group_of: Vec<usize>,
    /// `first_of_group[g]` = the first task of group `g` (its
    /// representative: the group solves under this task's fingerprint).
    pub first_of_group: Vec<usize>,
    /// All member task indices of each group, in submission order.
    pub members_of: Vec<Vec<usize>>,
}

impl Grouping {
    /// Number of distinct structures.
    pub fn distinct(&self) -> usize {
        self.first_of_group.len()
    }
}

/// Stage 2 — intern tasks by canonical fingerprint key.
pub(crate) fn group_by_structure(fingerprints: &[Fingerprint]) -> Grouping {
    let mut group_of: Vec<usize> = Vec::with_capacity(fingerprints.len());
    let mut first_of_group: Vec<usize> = Vec::new();
    let mut members_of: Vec<Vec<usize>> = Vec::new();
    let mut seen: HashMap<&FingerprintKey, usize> = HashMap::new();
    for (i, fp) in fingerprints.iter().enumerate() {
        let next = first_of_group.len();
        let g = *seen.entry(fp.key()).or_insert(next);
        if g == next {
            first_of_group.push(i);
            members_of.push(Vec::new());
        }
        group_of.push(g);
        members_of[g].push(i);
    }
    Grouping {
        group_of,
        first_of_group,
        members_of,
    }
}

/// Stage 3 — plan each distinct structure once per measure (cheap: the
/// fingerprint already knows the factorization), so route counters move
/// once per (structure, measure). `plans[g][j]` is group `g`'s plan for
/// `measures[j]`.
pub(crate) fn plan_groups(
    planner: &Planner,
    grouping: &Grouping,
    fingerprints: &[Fingerprint],
    measures: &[Measure],
) -> Vec<Vec<Plan>> {
    grouping
        .first_of_group
        .iter()
        .map(|&first| {
            let fp = &fingerprints[first];
            measures.iter().map(|&m| planner.plan_fp(fp, m)).collect()
        })
        .collect()
}

/// Thread-safe per-run accounting shared by every surface: how many engine
/// invocations actually happened and how the cross-query cache was used.
/// Unlike the process-global counters these are race-free per run (or per
/// service window), which is what reports and tests assert on.
#[derive(Debug, Default)]
pub(crate) struct SolveCounters {
    engine_runs: AtomicUsize,
    hits: AtomicUsize,
    misses: AtomicUsize,
    bypasses: AtomicUsize,
}

impl SolveCounters {
    pub fn new() -> SolveCounters {
        SolveCounters::default()
    }

    /// Records one structure solve over one or more measures: per-measure
    /// cache outcomes count individually, but the engine run counts
    /// **once** if any measure actually solved — the measures share a
    /// single compiled/factorized structure, and `engine_runs` counts
    /// distinct structures solved, not evaluator passes over one.
    pub fn note<I: IntoIterator<Item = CacheOutcome>>(&self, outcomes: I) {
        let mut ran = false;
        for outcome in outcomes {
            match outcome {
                CacheOutcome::Hit => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                }
                CacheOutcome::Miss => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    ran = true;
                }
                CacheOutcome::Bypass => {
                    self.bypasses.fetch_add(1, Ordering::Relaxed);
                    ran = true;
                }
                CacheOutcome::Disabled => {
                    ran = true;
                }
            }
        }
        if ran {
            self.engine_runs.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a solve that never consulted the cache (no fingerprint):
    /// a bypass when a cache is attached, plus the engine run.
    pub fn note_uncached_run(&self, planner: &Planner) {
        if let Some(cache) = planner.cache() {
            cache.record_bypass();
            self.bypasses.fetch_add(1, Ordering::Relaxed);
        }
        self.engine_runs.fetch_add(1, Ordering::Relaxed);
    }

    /// Engine invocations recorded so far.
    pub fn engine_runs(&self) -> usize {
        self.engine_runs.load(Ordering::Relaxed)
    }

    /// Cache involvement recorded so far.
    pub fn cache_stats(&self) -> CacheRunStats {
        CacheRunStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            bypasses: self.bypasses.load(Ordering::Relaxed),
        }
    }
}

/// Stage 4 — solve one distinct structure under `plans` (one per measure)
/// in canonical space, through the cache when one is attached, salted with
/// the representative task's index and scaled to the group's total
/// sampling budget; records the outcomes in `counters`. Results come back
/// in `plans` order and translate back through each member's fingerprint.
#[allow(clippy::too_many_arguments)]
pub(crate) fn solve_group(
    planner: &Planner,
    fp: &Fingerprint,
    plans: &[Plan],
    n_endo: usize,
    budget: &Budget,
    exact: &ExactConfig,
    salt: u64,
    group_size: usize,
    counters: &SolveCounters,
) -> Vec<Result<EngineResult, EngineError>> {
    let solved = planner.solve_structure(fp, plans, n_endo, budget, exact, salt, group_size);
    counters.note(solved.iter().map(|(_, outcome)| *outcome));
    solved.into_iter().map(|(result, _)| result).collect()
}

/// The single-task path — the same stages as a batch of one, minus the
/// grouping: fingerprint, plan from the fingerprint, solve the canonical
/// structure through the cache, translate back. Used by sequential
/// [`Planner::solve`] calls and by every resident-service worker, so a
/// lineage solved through *any* surface lands in (and is served from) the
/// same cache with the same key.
///
/// Without a cache the fingerprint buys nothing for a single task, so the
/// lineage solves directly; forced inexact engines also skip
/// canonicalization (their estimates stay on the caller's own variables).
pub(crate) fn solve_one(
    planner: &Planner,
    task: &LineageTask,
    counters: &SolveCounters,
) -> Result<EngineResult, EngineError> {
    record_measure_requests(task.measure, 1);
    if planner.cache().is_none() || planner.cfg.force.is_some_and(|k| !k.is_exact()) {
        counters.note_uncached_run(planner);
        return planner.solve_direct(task);
    }
    let fp = fingerprint(task.lineage);
    let plan = planner.plan_fp(&fp, task.measure);
    solve_group(
        planner,
        &fp,
        &[plan],
        task.n_endo,
        &task.budget,
        &task.exact,
        task.seed_salt,
        task.sample_scale,
        counters,
    )
    .pop()
    .expect("one plan, one result")
    .map(|r| super::translate_result(r, &fp))
}
