//! `perfbench` — the benchmark every performance claim in shapdb is
//! measured with.
//!
//! Three workloads run through the public entry points (`ShapleyAnalyzer`
//! and `SocketServer`), check their outputs, and print every metric by
//! name with its unit. A traced run re-runs a workload decomposed into
//! the public calls of each layer, with spans recorded here around those
//! calls, and prints per-layer metrics. See `README.md` in this directory.

pub mod check;
pub mod corpus;
pub mod job;
pub mod layers;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;

use report::{Outcome, END_TO_END, PER_LAYER};
use shapdb::workloads::JobConfig;
use std::path::PathBuf;

/// The workloads, by their command-line names.
pub const WORKLOADS: [&str; 3] = ["job-explain", "job-topk", "serve-mixed"];

/// How many times a run sets up; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// One run's parameters.
#[derive(Clone, Debug)]
pub struct Settings {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The JOB corpus before the seed is applied.
    pub job: JobConfig,
    /// Directory for sockets, logs and span files, created on demand and
    /// emptied of sockets and logs at the end.
    pub work_dir: PathBuf,
}

impl Settings {
    /// Benchmark scale: the reference JOB corpus.
    pub fn new(workload: &str, seed: u64, seconds: f64, trace: bool) -> Settings {
        Settings {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            job: JobConfig::default(),
            work_dir: PathBuf::from(".perfbench"),
        }
    }

    /// Smoke scale for the benchmark's own tests.
    pub fn smoke(workload: &str, seed: u64, seconds: f64, trace: bool) -> Settings {
        Settings {
            // Enough solo movies to fill the top 10.
            job: JobConfig {
                solo_per_mille: 40,
                ..JobConfig::smoke()
            },
            ..Settings::new(workload, seed, seconds, trace)
        }
    }

    /// Where a traced run writes its spans.
    pub fn trace_path(&self) -> PathBuf {
        self.work_dir.join(format!("trace-{}.jsonl", self.workload))
    }
}

/// Runs one workload; `Err` for an unknown workload or a set-up failure.
pub fn run(s: &Settings) -> Result<Outcome, String> {
    let trace_path = s.trace_path();
    let trace_path = s.trace.then_some(trace_path.as_path());
    match s.workload.as_str() {
        "job-explain" | "job-topk" => {
            let inp = job::setup(&s.job, s.seed, SETUP_REPS);
            Ok(match (s.workload.as_str(), s.trace) {
                ("job-explain", false) => job::explain(&inp, s.seconds),
                ("job-explain", true) => job::explain_traced(&inp, trace_path),
                (_, false) => job::topk(&inp, s.seconds),
                (_, true) => job::topk_traced(&inp, trace_path),
            })
        }
        "serve-mixed" => serve::run(s, trace_path),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// The catalogue a run prints.
pub fn catalogue(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}
