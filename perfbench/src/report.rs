//! The metric catalogue and the result line.
//!
//! Every run prints, as its last stdout line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. An untraced run carries
//! every [`END_TO_END`] metric, a traced run every [`PER_LAYER`] metric;
//! a per-layer metric whose layer is not on a workload's path reads 0.

use crate::stats::{json_escape, ratio};
use crate::trace::Trace;
use shapdb::metrics::counters::CounterSnapshot;
use std::path::Path;

/// `(name, unit)` of every end-to-end metric, in print order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("answers_per_s", "answers/s"),
    ("peak_rss_mb", "MB"),
    ("req_per_s", "req/s"),
    ("req_p50_ms", "ms"),
    ("req_p99_ms", "ms"),
];

/// `(name, unit)` of every per-layer metric of the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("query.extract_s", "s"),
    ("query.lineage_literals", "count"),
    ("query.peak_in_flight_literals", "count"),
    ("circuit.fingerprint_s", "s"),
    ("circuit.distinct_structures", "count"),
    ("circuit.dedup_ratio", "ratio"),
    ("circuit.minimize_passes", "count"),
    ("engine.plan_s", "s"),
    ("planner.kc_routes", "count"),
    ("planner.kc_topdown_routes", "count"),
    ("planner.read_once_routes", "count"),
    ("planner.naive_routes", "count"),
    ("engine.topk.bound_s", "s"),
    ("engine.topk.bound_passes", "count"),
    ("engine.topk.solved_ratio", "ratio"),
    ("kc.compile_s", "s"),
    ("kc.comp_cache_hit_ratio", "ratio"),
    ("kc.comp_cache_evictions", "count"),
    ("exact.alg1_s", "s"),
    ("num.vli_hits", "count"),
    ("num.bignum_fallbacks", "count"),
    ("num.ntt_convolutions", "count"),
    ("engine.readonce_s", "s"),
    ("engine.cache_s", "s"),
    ("engine.cache.hit_ratio", "ratio"),
    ("engine.cache.evictions", "count"),
    ("engine.persist_s", "s"),
    ("engine.persist.log_bytes", "bytes"),
    ("engine.persist.records_per_key", "records/key"),
    ("engine.service.queue_wait_s", "s"),
    ("cli.protocol_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// What one run measured and checked.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted: public calls on the `job-*` workloads,
    /// requests on `serve-mixed`.
    pub attempted: u64,
    /// Operations that failed or whose output failed a check.
    pub failed: u64,
    /// What each failed check said (printed to stderr, at most a few).
    pub errors: Vec<String>,
    /// `name → value`; units come from the catalogue.
    pub metrics: Vec<(&'static str, f64)>,
    /// Extra JSON fields for the information line (sample counts, shares).
    pub info: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Records `value` under the catalogue metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    /// Counts one attempted operation, failed when `errors` is non-empty.
    pub fn record(&mut self, errors: Vec<String>) {
        self.attempted += 1;
        if !errors.is_empty() {
            self.failed += 1;
            self.errors.extend(errors.into_iter().take(8));
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line over `catalogue`: every catalogue metric in order,
    /// 0 for any this run did not set.
    pub fn result_line(&self, catalogue: &[(&'static str, &'static str)]) -> String {
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|&(name, unit)| {
                let value = self
                    .metrics
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |&(_, v)| v);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The information line printed before the result line: host, run
    /// parameters and this run's extra fields.
    pub fn info_line(&self, workload: &str, seed: u64, trace: bool, host: &str) -> String {
        let mut fields = vec![
            format!("\"workload\": \"{}\"", json_escape(workload)),
            format!("\"seed\": {seed}"),
            format!("\"trace\": {trace}"),
            format!("\"host\": {host}"),
        ];
        fields.extend(self.info.iter().map(|(k, v)| format!("\"{k}\": {v}")));
        format!("{{\"info\": {{{}}}}}", fields.join(", "))
    }
}

/// A finite JSON number (non-finite values, which no metric should
/// produce, print as 0).
fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// Counter increments between two snapshots.
pub struct Counts(CounterSnapshot, CounterSnapshot);

impl Counts {
    fn of(&self, name: &str) -> f64 {
        self.1.delta_of(&self.0, name) as f64
    }

    /// Sets the counter-derived per-layer metrics shared by every workload.
    pub fn apply(&self, out: &mut Outcome) {
        for (metric, counter) in [
            ("circuit.minimize_passes", "circuit.minimize_passes"),
            ("planner.kc_routes", "planner.kc_routes"),
            ("planner.kc_topdown_routes", "planner.kc_topdown_routes"),
            ("planner.read_once_routes", "planner.read_once_routes"),
            ("planner.naive_routes", "planner.naive_routes"),
            ("engine.topk.bound_passes", "topk.bound_passes"),
            ("kc.comp_cache_evictions", "kc.comp_cache_evictions"),
            ("num.vli_hits", "num.vli_hits"),
            ("num.bignum_fallbacks", "num.bignum_fallbacks"),
            ("num.ntt_convolutions", "num.ntt_convolutions"),
            ("engine.cache.evictions", "cache.evictions"),
        ] {
            out.set(metric, self.of(counter));
        }
        let (hits, misses) = (
            self.of("kc.comp_cache_hits"),
            self.of("kc.comp_cache_misses"),
        );
        out.set("kc.comp_cache_hit_ratio", ratio(hits, hits + misses));
    }
}

/// Runs `f` between two counter snapshots.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, Counts) {
    let before = CounterSnapshot::take();
    let r = f();
    (r, Counts(before, CounterSnapshot::take()))
}

/// Sets the span-derived per-layer metrics shared by every workload.
/// `traced_s` and `untraced_s` time the same work with and without spans
/// at the same thread count; their ratio is the tracing overhead.
pub fn span_metrics(out: &mut Outcome, trace: &Trace, traced_s: f64, untraced_s: f64) {
    out.set("query.extract_s", trace.self_s("query/extract"));
    out.set("circuit.fingerprint_s", trace.self_s("circuit/fingerprint"));
    out.set("engine.plan_s", trace.self_s("engine.planner/plan"));
    out.set("engine.topk.bound_s", trace.self_s("engine.topk/bound"));
    out.set("kc.compile_s", trace.self_s("kc/compile"));
    out.set("exact.alg1_s", trace.self_s("exact/alg1"));
    out.set("engine.readonce_s", trace.self_s("engine.readonce/solve"));
    out.set("engine.cache_s", trace.layer_self_s("engine.cache"));
    out.set("engine.persist_s", trace.layer_self_s("engine.persist"));
    out.set("trace.wall_s", trace.wall_s());
    out.set("trace.coverage", trace.coverage());
    out.set("trace.overhead", ratio(traced_s, untraced_s) - 1.0);
    out.info.push(("untraced_s", untraced_s.to_string()));
}

/// Writes the spans when a path is given; a write failure fails the run.
pub fn write_trace(trace: &Trace, path: Option<&Path>, out: &mut Outcome) {
    if let Some(path) = path {
        if let Err(e) = trace.write_jsonl(path) {
            out.record(vec![format!("write trace {}: {e}", path.display())]);
        }
    }
}
