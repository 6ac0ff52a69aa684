//! The JOB workloads: `job-explain` (`explain_batch` of every answer) and
//! `job-topk` (`rank_topk(q, 10)`), both through `ShapleyAnalyzer` on the
//! JOB corpus with a cold analyzer per call and one caller.

use crate::check;
use crate::corpus::{exogenous_answers, job_config};
use crate::layers::{translate, Layers, Values};
use crate::report::{counted, span_metrics, write_trace, Outcome};
use crate::stats::{median, peak_rss_mb, percentile, ratio};
use crate::trace::{Trace, Tracer};
use shapdb::circuit::{fingerprint, Fingerprint, FingerprintKey};
use shapdb::core::engine::{shapley_bounds, Planner, PlannerConfig, ShapleyCache};
use shapdb::data::{Database, Value};
use shapdb::num::Rational;
use shapdb::query::{evaluate, with_streamed_lineages, Ucq};
use shapdb::workloads::{job_database, job_ranking_query, JobConfig};
use shapdb::{ShapleyAnalyzer, TupleExplanation};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The `k` of `job-topk`.
pub const TOP_K: usize = 10;
/// Worker threads of `job-explain`'s analyzer.
pub const EXPLAIN_THREADS: usize = 2;
/// Answers per streamed-extraction chunk (the facade's own chunk).
const STREAM_CHUNK: usize = 256;

/// The generated database and what the checks need to know about it.
pub struct JobInputs {
    pub cfg: JobConfig,
    pub db: Database,
    pub query: Ucq,
    /// Answers that hold on exogenous facts alone (value gap 0).
    pub exogenous: HashSet<Vec<Value>>,
    /// Median time to generate the database.
    pub setup_s: f64,
}

/// Generates the JOB database `reps` times (timing each) for `seed`.
pub fn setup(base: &JobConfig, seed: u64, reps: usize) -> JobInputs {
    let cfg = job_config(base, seed);
    let mut times = Vec::new();
    let mut db = None;
    for _ in 0..reps.max(1) {
        drop(db.take());
        let t = Instant::now();
        db = Some(job_database(&cfg));
        times.push(t.elapsed().as_secs_f64());
    }
    let db = db.expect("at least one repetition");
    let query = job_ranking_query();
    let exogenous = exogenous_answers(&query, &db);
    JobInputs {
        cfg,
        db,
        query,
        exogenous,
        setup_s: median(&times),
    }
}

/// Repeats `call` (one timed public call plus its check) for about
/// `seconds` — at least once, and another time only while at least half of
/// a typical call still fits — and reports the end-to-end metrics.
fn timed_calls(
    inp: &JobInputs,
    seconds: f64,
    mut call: impl FnMut() -> (f64, Vec<String>),
) -> Outcome {
    let mut out = Outcome::default();
    let mut latencies = Vec::new();
    let start = Instant::now();
    while latencies.is_empty() || start.elapsed().as_secs_f64() + median(&latencies) / 2.0 < seconds
    {
        let (dt, errors) = call();
        latencies.push(dt);
        out.record(errors);
    }
    // Throughput over all calls: with three or four calls a run, the mean
    // moves less from run to run than the median does.
    let calls_per_s = latencies.len() as f64 / latencies.iter().sum::<f64>();
    out.set("setup_s", inp.setup_s);
    out.set("answers_per_s", inp.cfg.movies as f64 * calls_per_s);
    out.set("peak_rss_mb", peak_rss_mb());
    out.set("req_per_s", calls_per_s);
    out.set("req_p50_ms", median(&latencies) * 1e3);
    out.set("req_p99_ms", percentile(&latencies, 0.99) * 1e3);
    out.info.push(("samples", latencies.len().to_string()));
    out
}

/// `job-explain`, untraced.
pub fn explain(inp: &JobInputs, seconds: f64) -> Outcome {
    timed_calls(inp, seconds, || {
        let analyzer = ShapleyAnalyzer::new(&inp.db).with_threads(EXPLAIN_THREADS);
        let t = Instant::now();
        let batch = analyzer.explain_batch(&inp.query);
        let dt = t.elapsed().as_secs_f64();
        let errors = match batch {
            Ok(b) => check::explain(&b.explanations, &inp.cfg, &inp.exogenous),
            Err(e) => vec![format!("explain_batch: {e}")],
        };
        (dt, errors)
    })
}

/// `job-topk`, untraced.
pub fn topk(inp: &JobInputs, seconds: f64) -> Outcome {
    timed_calls(inp, seconds, || {
        let analyzer = ShapleyAnalyzer::new(&inp.db);
        let t = Instant::now();
        let ranking = analyzer.rank_topk(&inp.query, TOP_K);
        let dt = t.elapsed().as_secs_f64();
        let errors = match ranking {
            Ok(r) => check::topk(&r, TOP_K, &inp.cfg),
            Err(e) => vec![format!("rank_topk: {e}")],
        };
        (dt, errors)
    })
}

/// The JOB layers: the facade's planner and a result cache of its
/// default capacity.
fn job_layers(query: &Ucq) -> Layers {
    Layers {
        planner: Planner::for_query(PlannerConfig::default(), query),
        cache: ShapleyCache::new(),
        persistent: false,
    }
}

/// Answers grouped by canonical structure, in first-seen order.
#[derive(Default)]
struct Groups {
    index: HashMap<Arc<FingerprintKey>, usize>,
    /// First answer of each group.
    first: Vec<usize>,
    /// Group of each answer.
    of: Vec<usize>,
    /// Answers per group.
    size: Vec<usize>,
}

impl Groups {
    fn add(&mut self, answer: usize, fp: &Fingerprint) {
        let next = self.first.len();
        let g = *self.index.entry(fp.shared_key()).or_insert(next);
        if g == next {
            self.first.push(answer);
            self.size.push(0);
        }
        self.size[g] += 1;
        self.of.push(g);
    }
}

/// `job-explain` traced: an untraced single-threaded `explain_batch` for
/// the counts and the overhead base, then the same work decomposed layer
/// by layer on one thread.
pub fn explain_traced(inp: &JobInputs, trace_path: Option<&Path>) -> Outcome {
    let mut out = Outcome::default();
    let ((batch, untraced_s), counts) = counted(|| {
        let analyzer = ShapleyAnalyzer::new(&inp.db).with_threads(1);
        let t = Instant::now();
        let batch = analyzer.explain_batch(&inp.query);
        (batch, t.elapsed().as_secs_f64())
    });
    match batch {
        Ok(b) => {
            out.record(check::explain(&b.explanations, &inp.cfg, &inp.exogenous));
            out.set("circuit.distinct_structures", b.dedup.distinct as f64);
            out.set("circuit.dedup_ratio", b.dedup.hit_rate());
            out.set("engine.cache.hit_ratio", b.cache.hit_rate());
        }
        Err(e) => out.record(vec![format!("explain_batch: {e}")]),
    }
    counts.apply(&mut out);

    let layers = job_layers(&inp.query);
    let n_endo = inp.db.num_endogenous();
    let mut tr = Tracer::new(Instant::now(), 0);
    let mut literals = 0usize;
    let explained = tr.span("bench/job-explain", 0, |tr| {
        let res = tr.leaf("query/extract", 0, || evaluate(&inp.query, &inp.db));
        let mut fps = Vec::with_capacity(res.len());
        let mut groups = Groups::default();
        for (i, answer) in res.outputs.iter().enumerate() {
            literals += answer
                .lineage
                .conjuncts()
                .iter()
                .map(Vec::len)
                .sum::<usize>();
            let lineage = tr.leaf("query/extract", i as u64, || answer.endo_lineage(&inp.db));
            let fp = tr.leaf("circuit/fingerprint", i as u64, || {
                let fp = fingerprint(&lineage);
                groups.add(i, &fp);
                fp
            });
            fps.push(fp);
        }
        let mut solved: Vec<Values> = Vec::with_capacity(groups.first.len());
        for (g, &first) in groups.first.iter().enumerate() {
            solved.push(layers.solve(tr, g as u64, &fps[first], n_endo)?);
        }
        Ok::<_, String>(
            res.outputs
                .into_iter()
                .enumerate()
                .map(|(i, answer)| TupleExplanation {
                    tuple: answer.tuple,
                    attributions: tr.leaf("circuit/translate", i as u64, || {
                        translate(&fps[i], &solved[groups.of[i]])
                    }),
                })
                .collect::<Vec<_>>(),
        )
    });
    let mut trace = Trace::default();
    trace.absorb(tr);
    out.record(match explained {
        Ok(e) => check::explain(&e, &inp.cfg, &inp.exogenous),
        Err(e) => vec![e],
    });
    out.set("query.lineage_literals", literals as f64);
    // `evaluate` materializes every answer's lineage at once.
    out.set("query.peak_in_flight_literals", literals as f64);
    span_metrics(&mut out, &trace, trace.wall_s(), untraced_s);
    write_trace(&trace, trace_path, &mut out);
    out
}

/// `job-topk` traced: an untraced `rank_topk` for the counts and the
/// overhead base, then streamed extraction, fingerprinting, the bound
/// pass and the admission loop decomposed layer by layer.
pub fn topk_traced(inp: &JobInputs, trace_path: Option<&Path>) -> Outcome {
    let mut out = Outcome::default();
    let ((ranking, untraced_s), counts) = counted(|| {
        let analyzer = ShapleyAnalyzer::new(&inp.db);
        let t = Instant::now();
        let ranking = analyzer.rank_topk(&inp.query, TOP_K);
        (ranking, t.elapsed().as_secs_f64())
    });
    match ranking {
        Ok(r) => {
            out.record(check::topk(&r, TOP_K, &inp.cfg));
            out.set("query.lineage_literals", r.stream.total_literals as f64);
            out.set(
                "query.peak_in_flight_literals",
                r.stream.peak_in_flight_literals as f64,
            );
            out.set("circuit.distinct_structures", r.dedup.distinct as f64);
            out.set("circuit.dedup_ratio", r.dedup.hit_rate());
            out.set(
                "engine.topk.solved_ratio",
                ratio(r.solved_answers as f64, r.answers as f64),
            );
            out.set("engine.cache.hit_ratio", r.cache.hit_rate());
        }
        Err(e) => out.record(vec![format!("rank_topk: {e}")]),
    }
    counts.apply(&mut out);

    let layers = job_layers(&inp.query);
    let n_endo = inp.db.num_endogenous();
    let mut tr = Tracer::new(Instant::now(), 0);
    let ranked = tr.span("bench/job-topk", 0, |tr| {
        let ((tuples, fps), _) =
            with_streamed_lineages(&inp.query, &inp.db, STREAM_CHUNK, |answers| {
                let (mut tuples, mut fps) = (Vec::new(), Vec::new());
                loop {
                    let i = fps.len() as u64;
                    let Some(answer) = tr.leaf("query/extract", i, || answers.next()) else {
                        break;
                    };
                    let lineage = tr.leaf("query/extract", i, || answer.endo_lineage(&inp.db));
                    fps.push(tr.leaf("circuit/fingerprint", i, || fingerprint(&lineage)));
                    tuples.push(answer.tuple);
                }
                (tuples, fps)
            });
        let groups = tr.leaf("circuit/dedup", 0, || {
            let mut groups = Groups::default();
            for (i, fp) in fps.iter().enumerate() {
                groups.add(i, fp);
            }
            groups
        });
        // Bound pass, then admission in decreasing bound order until the
        // k-th solved score dominates every remaining bound.
        let mut heap = BinaryHeap::new();
        for (g, &first) in groups.first.iter().enumerate() {
            let ub = tr.leaf("engine.topk/bound", g as u64, || {
                shapley_bounds(fps[first].key()).upper
            });
            heap.push((ub, Reverse(first), g));
        }
        let mut kth: BinaryHeap<Reverse<Rational>> = BinaryHeap::new();
        let mut solved: Vec<(usize, Rational, Values)> = Vec::new();
        while let Some((ub, Reverse(first), g)) = heap.pop() {
            if kth.len() == TOP_K && kth.peek().is_some_and(|Reverse(k)| ub < *k) {
                break;
            }
            let values = layers.solve(tr, g as u64, &fps[first], n_endo)?;
            let score = values
                .first()
                .map_or_else(Rational::zero, |(_, x)| x.clone());
            for _ in 0..groups.size[g] {
                kth.push(Reverse(score.clone()));
                if kth.len() > TOP_K {
                    kth.pop();
                }
            }
            solved.push((g, score, values));
        }
        let mut ranked: Vec<(usize, Rational, usize)> = (0..fps.len())
            .filter_map(|i| {
                let slot = solved.iter().position(|(g, _, _)| *g == groups.of[i])?;
                Some((i, solved[slot].1.clone(), slot))
            })
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(TOP_K);
        Ok::<_, String>(
            ranked
                .into_iter()
                .map(|(i, score, slot)| {
                    let attributions = tr.leaf("circuit/translate", i as u64, || {
                        translate(&fps[i], &solved[slot].2)
                    });
                    (tuples[i].clone(), score, attributions)
                })
                .collect::<Vec<_>>(),
        )
    });
    let mut trace = Trace::default();
    trace.absorb(tr);
    out.record(match ranked {
        Ok(top) => check::top_answers(&top, TOP_K, &inp.cfg),
        Err(e) => vec![e],
    });
    span_metrics(&mut out, &trace, trace.wall_s(), untraced_s);
    out.info.push((
        "query_share",
        ratio(trace.self_s("query/extract"), trace.wall_s()).to_string(),
    ));
    write_trace(&trace, trace_path, &mut out);
    out
}
