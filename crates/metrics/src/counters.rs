//! Process-wide engine counters and per-run dedup statistics.
//!
//! The engine layer (planner + batch executor in `shapdb_core`) records its
//! operational behaviour here: how many lineage tasks were submitted, how
//! many distinct structures were actually solved, how often the structural
//! dedup hit, and whether the hierarchical-query classifier ever disagreed
//! with the read-once factorizer (it never should; the counter exists to
//! catch regressions in production).
//!
//! The static [`Counter`]s are cumulative across the whole process — the
//! ops-style view. Per-run, race-free numbers (what tests assert on) travel
//! in each batch report as a [`DedupStats`] snapshot.

use std::sync::atomic::{AtomicU64, Ordering};

/// A named monotonic counter (atomic, cheap, shareable from any thread).
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// A new counter starting at zero.
    pub const fn new(name: &'static str) -> Counter {
        Counter {
            name,
            value: AtomicU64::new(0),
        }
    }

    /// The counter's registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds 1; returns the new value.
    pub fn incr(&self) -> u64 {
        self.add(1)
    }

    /// Adds `n`; returns the new value.
    pub fn add(&self, n: u64) -> u64 {
        self.value.fetch_add(n, Ordering::Relaxed) + n
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets to zero (tests; production counters are monotonic).
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Lineage tasks submitted to batch executors.
pub static BATCH_TASKS: Counter = Counter::new("batch.tasks");
/// Distinct lineage structures actually solved by batch executors.
pub static BATCH_DISTINCT: Counter = Counter::new("batch.distinct_lineages");
/// Tasks answered from a structurally-identical lineage's result.
pub static BATCH_DEDUP_HITS: Counter = Counter::new("batch.dedup_hits");
/// Engine `solve` invocations (any engine, batch or direct).
pub static ENGINE_SOLVES: Counter = Counter::new("engine.solves");
/// Lineages the planner routed to knowledge compilation.
pub static PLANNER_KC_ROUTES: Counter = Counter::new("planner.kc_routes");
/// KC-routed lineages wide enough (over 48 minimized variables) to compile
/// against the planner's cross-lineage component cache (a subset of
/// `planner.kc_routes`).
pub static PLANNER_KC_TOPDOWN_ROUTES: Counter = Counter::new("planner.kc_topdown_routes");
/// Lineages the planner routed to the read-once fast path.
pub static PLANNER_READ_ONCE_ROUTES: Counter = Counter::new("planner.read_once_routes");
/// Tiny non-read-once lineages the planner routed to naive enumeration
/// (cheaper than factorization + compilation below the configured size).
pub static PLANNER_NAIVE_ROUTES: Counter = Counter::new("planner.naive_routes");
/// Hierarchical self-join-free queries whose lineage did *not* factor —
/// a theory violation that must stay at zero.
pub static PLANNER_HIERARCHICAL_DISAGREEMENTS: Counter =
    Counter::new("planner.hierarchical_disagreements");
/// Result-cache lookups answered from a stored canonical result.
pub static CACHE_HITS: Counter = Counter::new("cache.hits");
/// Result-cache lookups that found no entry (the structure was solved and,
/// when exact, stored).
pub static CACHE_MISSES: Counter = Counter::new("cache.misses");
/// Result-cache entries evicted to make room (LRU order).
pub static CACHE_EVICTIONS: Counter = Counter::new("cache.evictions");
/// Tasks that skipped the result cache entirely (inexact plan, a forced
/// inexact engine, or caching disabled).
pub static CACHE_BYPASSES: Counter = Counter::new("cache.bypasses");
/// Absorption-minimization passes over DNF lineages
/// (`shapdb_circuit::Dnf::minimize`).
pub static CIRCUIT_MINIMIZE_PASSES: Counter = Counter::new("circuit.minimize_passes");
/// Read-once factorization attempts (`shapdb_circuit::factor` and the
/// pre-minimized variant behind `fingerprint`).
pub static CIRCUIT_FACTOR_PASSES: Counter = Counter::new("circuit.factor_passes");
/// Tasks submitted to resident `ShapleyService` instances (accepted into
/// the queue; rejected submissions count in `service.rejected`).
pub static SERVICE_SUBMITTED: Counter = Counter::new("service.submitted");
/// Tasks a `ShapleyService` completed (fulfilled their ticket).
pub static SERVICE_COMPLETED: Counter = Counter::new("service.completed");
/// Submissions rejected with `SubmitError::Saturated` (backpressure).
pub static SERVICE_REJECTED: Counter = Counter::new("service.rejected");
/// Nanoseconds tasks spent queued before a worker picked them up.
pub static SERVICE_WAIT_NS: Counter = Counter::new("service.wait_ns");
/// Algorithm-1 DP passes that ran on a fixed-limb `Vli` tier (the per-gate
/// binomial cap proved every coefficient fits a stack integer).
pub static NUM_VLI_HITS: Counter = Counter::new("num.vli_hits");
/// Algorithm-1 DP passes that fell back to heap `BigUint` arithmetic
/// (coefficient cap past the widest fixed-limb tier).
pub static NUM_BIGNUM_FALLBACKS: Counter = Counter::new("num.bignum_fallbacks");
/// ∧-gate coefficient convolutions executed via the modular NTT/CRT path
/// instead of schoolbook multiplication.
pub static NUM_NTT_CONVOLUTIONS: Counter = Counter::new("num.ntt_convolutions");
/// Cross-lineage component-cache probes answered with a stored d-DNNF
/// fragment (the compiler skipped compiling that component).
pub static KC_COMP_CACHE_HITS: Counter = Counter::new("kc.comp_cache_hits");
/// Cross-lineage component-cache probes that found no entry (the component
/// was compiled and, when small enough, stored).
pub static KC_COMP_CACHE_MISSES: Counter = Counter::new("kc.comp_cache_misses");
/// Cross-lineage component-cache entries evicted to stay under the node
/// capacity (least-recently-used order).
pub static KC_COMP_CACHE_EVICTIONS: Counter = Counter::new("kc.comp_cache_evictions");
/// Lineage tasks asking for the Shapley measure (any surface).
pub static MEASURE_SHAPLEY: Counter = Counter::new("measure.shapley");
/// Lineage tasks asking for the Banzhaf measure.
pub static MEASURE_BANZHAF: Counter = Counter::new("measure.banzhaf");
/// Lineage tasks asking for the responsibility measure.
pub static MEASURE_RESPONSIBILITY: Counter = Counter::new("measure.responsibility");
/// Lineage tasks asking for the SHAP-score measure.
pub static MEASURE_SHAP_SCORE: Counter = Counter::new("measure.shap_score");
/// Answers the top-k admission loop fully solved (their structure group was
/// compiled and evaluated).
pub static TOPK_SOLVED: Counter = Counter::new("topk.solved");
/// Answers the top-k admission loop pruned: their Shapley upper bound fell
/// strictly below the k-th solved score, so no compile was spent on them.
pub static TOPK_PRUNED: Counter = Counter::new("topk.pruned");
/// Structure-level bound computations performed by the top-k path (one per
/// distinct lineage structure per ranking call).
pub static TOPK_BOUND_PASSES: Counter = Counter::new("topk.bound_passes");

/// The full counter registry, in a fixed order (the [`snapshot`] /
/// [`CounterSnapshot`] row order).
fn registry() -> [&'static Counter; 32] {
    [
        &BATCH_TASKS,
        &BATCH_DISTINCT,
        &BATCH_DEDUP_HITS,
        &ENGINE_SOLVES,
        &PLANNER_KC_ROUTES,
        &PLANNER_KC_TOPDOWN_ROUTES,
        &PLANNER_READ_ONCE_ROUTES,
        &PLANNER_NAIVE_ROUTES,
        &PLANNER_HIERARCHICAL_DISAGREEMENTS,
        &CACHE_HITS,
        &CACHE_MISSES,
        &CACHE_EVICTIONS,
        &CACHE_BYPASSES,
        &CIRCUIT_MINIMIZE_PASSES,
        &CIRCUIT_FACTOR_PASSES,
        &SERVICE_SUBMITTED,
        &SERVICE_COMPLETED,
        &SERVICE_REJECTED,
        &SERVICE_WAIT_NS,
        &NUM_VLI_HITS,
        &NUM_BIGNUM_FALLBACKS,
        &NUM_NTT_CONVOLUTIONS,
        &KC_COMP_CACHE_HITS,
        &KC_COMP_CACHE_MISSES,
        &KC_COMP_CACHE_EVICTIONS,
        &MEASURE_SHAPLEY,
        &MEASURE_BANZHAF,
        &MEASURE_RESPONSIBILITY,
        &MEASURE_SHAP_SCORE,
        &TOPK_SOLVED,
        &TOPK_PRUNED,
        &TOPK_BOUND_PASSES,
    ]
}

/// Snapshot of every registered counter, for reports and debugging.
pub fn snapshot() -> Vec<(&'static str, u64)> {
    registry().iter().map(|c| (c.name(), c.get())).collect()
}

/// A point-in-time capture of the whole counter registry, for *scoped*
/// readings of the process-global counters.
///
/// The static [`Counter`]s are cumulative across the process: two
/// concurrent services (or parallel tests) both increment the same cells,
/// so absolute values mix every actor's activity. A snapshot taken at a
/// scope's start turns the cumulative cells into a delta — the activity
/// since *this* scope began. Deltas still include any concurrent actor's
/// increments during the window (the cells are shared); for race-free
/// per-run numbers use the per-run stats structs ([`DedupStats`],
/// [`CacheRunStats`], the service's own stats), which never touch the
/// globals.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterSnapshot {
    values: Vec<(&'static str, u64)>,
}

impl CounterSnapshot {
    /// Captures the current value of every registered counter.
    pub fn take() -> CounterSnapshot {
        CounterSnapshot { values: snapshot() }
    }

    /// The captured value of one counter (0 for unknown names).
    pub fn get(&self, name: &str) -> u64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Per-counter increments between `earlier` and `self` (saturating:
    /// a counter reset inside the window reads as 0, not a wraparound).
    pub fn delta_since(&self, earlier: &CounterSnapshot) -> Vec<(&'static str, u64)> {
        self.values
            .iter()
            .map(|&(name, v)| (name, v.saturating_sub(earlier.get(name))))
            .collect()
    }

    /// [`CounterSnapshot::delta_since`] for a single counter.
    pub fn delta_of(&self, earlier: &CounterSnapshot, name: &str) -> u64 {
        self.get(name).saturating_sub(earlier.get(name))
    }
}

/// A named process-wide level (unlike the monotonic [`Counter`]s): queue
/// depths, in-flight task counts. Signed so a racy dec-before-inc
/// interleaving can never wrap.
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    value: std::sync::atomic::AtomicI64,
}

impl Gauge {
    /// A new gauge at zero.
    pub const fn new(name: &'static str) -> Gauge {
        Gauge {
            name,
            value: std::sync::atomic::AtomicI64::new(0),
        }
    }

    /// The gauge's registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n` (negative to decrease); returns the new level.
    pub fn add(&self, n: i64) -> i64 {
        self.value.fetch_add(n, Ordering::Relaxed) + n
    }

    /// Increments by one; returns the new level.
    pub fn incr(&self) -> i64 {
        self.add(1)
    }

    /// Decrements by one; returns the new level.
    pub fn decr(&self) -> i64 {
        self.add(-1)
    }

    /// Sets an absolute level.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Tasks currently waiting in `ShapleyService` queues, process-wide.
pub static SERVICE_QUEUE_DEPTH: Gauge = Gauge::new("service.queue_depth");
/// Tasks currently being solved by `ShapleyService` workers, process-wide.
pub static SERVICE_IN_FLIGHT: Gauge = Gauge::new("service.in_flight");
/// The autotuned NTT crossover: the smallest convolution output length (at
/// the 8-limb reference coefficient width) the calibrated cost model routes
/// to the NTT/CRT path. Set once per process at first wide convolution.
pub static NUM_NTT_CROSSOVER_LEN: Gauge = Gauge::new("num.ntt_crossover_len");

/// Snapshot of every registered gauge.
pub fn gauges() -> Vec<(&'static str, i64)> {
    [
        &SERVICE_QUEUE_DEPTH,
        &SERVICE_IN_FLIGHT,
        &NUM_NTT_CROSSOVER_LEN,
    ]
    .iter()
    .map(|g| (g.name(), g.get()))
    .collect()
}

/// Arithmetic-substrate activity of one run (a [`CounterSnapshot`] delta of
/// the `num.*` counters — see the snapshot caveats: concurrent actors in
/// the same process bleed into the window).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NumRunStats {
    /// DP passes that ran on a fixed-limb `Vli` tier.
    pub vli_hits: u64,
    /// DP passes that fell back to heap `BigUint` arithmetic.
    pub bignum_fallbacks: u64,
    /// ∧-gate convolutions executed via the NTT/CRT path.
    pub ntt_convolutions: u64,
}

impl NumRunStats {
    /// The `num.*` increments between two registry snapshots.
    pub fn delta(after: &CounterSnapshot, before: &CounterSnapshot) -> NumRunStats {
        NumRunStats {
            vli_hits: after.delta_of(before, "num.vli_hits"),
            bignum_fallbacks: after.delta_of(before, "num.bignum_fallbacks"),
            ntt_convolutions: after.delta_of(before, "num.ntt_convolutions"),
        }
    }
}

/// Dedup statistics of one batch run (race-free, unlike the globals).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DedupStats {
    /// Lineage tasks submitted.
    pub tasks: usize,
    /// Distinct lineage structures (by canonical fingerprint).
    pub distinct: usize,
    /// Tasks that reused another task's computation (`tasks - distinct`):
    /// exact results translate bit-identically through the renaming, and
    /// sampling groups share one estimate drawn with the group's total
    /// sample budget.
    pub reused: usize,
}

impl DedupStats {
    /// Tasks answered by reusing another task's computation.
    pub fn hits(&self) -> usize {
        self.reused
    }

    /// Fraction of tasks answered by reuse (0.0 when the batch is empty).
    pub fn hit_rate(&self) -> f64 {
        if self.tasks == 0 {
            return 0.0;
        }
        self.hits() as f64 / self.tasks as f64
    }
}

/// Component-cache activity of one run (a [`CounterSnapshot`] delta of the
/// `kc.comp_cache_*` counters — same caveats as [`NumRunStats`]: concurrent
/// actors in the same process bleed into the window).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KcCacheRunStats {
    /// Component probes answered with a stored d-DNNF fragment.
    pub hits: u64,
    /// Component probes that found no entry.
    pub misses: u64,
    /// Entries evicted to stay under the node capacity.
    pub evictions: u64,
}

impl KcCacheRunStats {
    /// The `kc.comp_cache_*` increments between two registry snapshots.
    pub fn delta(after: &CounterSnapshot, before: &CounterSnapshot) -> KcCacheRunStats {
        KcCacheRunStats {
            hits: after.delta_of(before, "kc.comp_cache_hits"),
            misses: after.delta_of(before, "kc.comp_cache_misses"),
            evictions: after.delta_of(before, "kc.comp_cache_evictions"),
        }
    }

    /// Fraction of probes answered from the cache (0.0 when none).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            return 0.0;
        }
        self.hits as f64 / lookups as f64
    }
}

/// Cache involvement of one batch run (race-free, unlike the globals):
/// how many distinct structures were answered from the cross-query result
/// cache, how many were solved and stored, and how many skipped the cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheRunStats {
    /// Distinct structures answered from the cache without an engine run.
    pub hits: usize,
    /// Distinct structures looked up, not found, and solved.
    pub misses: usize,
    /// Distinct structures (or single tasks under a forced inexact engine)
    /// that skipped the cache: inexact plans, or caching disabled.
    pub bypasses: usize,
}

impl CacheRunStats {
    /// Fraction of cache-eligible structures answered from the cache
    /// (0.0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            return 0.0;
        }
        self.hits as f64 / lookups as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        static C: Counter = Counter::new("test.counter");
        assert_eq!(C.get(), 0);
        assert_eq!(C.incr(), 1);
        assert_eq!(C.add(4), 5);
        assert_eq!(C.name(), "test.counter");
        C.reset();
        assert_eq!(C.get(), 0);
    }

    #[test]
    fn snapshot_lists_registered_counters() {
        let names: Vec<&str> = snapshot().iter().map(|(n, _)| *n).collect();
        assert!(names.contains(&"batch.dedup_hits"));
        assert!(names.contains(&"planner.hierarchical_disagreements"));
        assert!(names.contains(&"cache.hits"));
        assert!(names.contains(&"cache.evictions"));
        assert!(names.contains(&"circuit.factor_passes"));
        assert!(names.contains(&"service.submitted"));
        assert!(names.contains(&"service.wait_ns"));
        assert!(names.contains(&"measure.shapley"));
        assert!(names.contains(&"measure.banzhaf"));
        assert!(names.contains(&"measure.responsibility"));
        assert!(names.contains(&"measure.shap_score"));
        assert!(names.contains(&"topk.solved"));
        assert!(names.contains(&"topk.pruned"));
        assert!(names.contains(&"topk.bound_passes"));
    }

    #[test]
    fn counter_snapshot_deltas_are_scoped() {
        let before = CounterSnapshot::take();
        SERVICE_SUBMITTED.add(3);
        SERVICE_COMPLETED.add(2);
        let after = CounterSnapshot::take();
        assert!(after.delta_of(&before, "service.submitted") >= 3);
        assert!(after.delta_of(&before, "service.completed") >= 2);
        assert_eq!(after.delta_of(&before, "service.unknown"), 0);
        let deltas = after.delta_since(&before);
        let of = |name: &str| deltas.iter().find(|(n, _)| *n == name).unwrap().1;
        assert!(of("service.submitted") >= 3);
        // Deltas never go negative (saturating), even after a reset.
        assert_eq!(before.delta_of(&after, "service.submitted"), 0);
    }

    #[test]
    fn gauge_levels_move_both_ways() {
        static G: Gauge = Gauge::new("test.gauge");
        assert_eq!(G.get(), 0);
        assert_eq!(G.incr(), 1);
        assert_eq!(G.add(4), 5);
        assert_eq!(G.decr(), 4);
        G.set(-2);
        assert_eq!(G.get(), -2);
        assert_eq!(G.name(), "test.gauge");
        G.set(0);
        let names: Vec<&str> = gauges().iter().map(|(n, _)| *n).collect();
        assert!(names.contains(&"service.queue_depth"));
        assert!(names.contains(&"service.in_flight"));
    }

    #[test]
    fn cache_run_stats_hit_rate() {
        let s = CacheRunStats {
            hits: 3,
            misses: 1,
            bypasses: 2,
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheRunStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn dedup_stats_rates() {
        let s = DedupStats {
            tasks: 8,
            distinct: 2,
            reused: 6,
        };
        assert_eq!(s.hits(), 6);
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(DedupStats::default().hit_rate(), 0.0);
    }
}
