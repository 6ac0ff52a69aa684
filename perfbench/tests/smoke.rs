//! The benchmark's own checks, on smoke-scale inputs: the metric
//! catalogue matches `BENCHMARK.json`, every run prints every metric with
//! its unit, corrupted outputs trip the checks, and a traced run emits
//! every per-layer metric.

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::{catalogue, check, job, run, Settings, WORKLOADS};
use shapdb::num::Rational;
use shapdb::ShapleyAnalyzer;
use shapdb_cli::json::Json;
use std::path::PathBuf;

fn settings(workload: &str, trace: bool) -> Settings {
    let mut s = Settings::smoke(workload, 7, 0.5, trace);
    s.work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "smoke-{workload}-{}",
        if trace { "traced" } else { "plain" }
    ));
    s
}

/// Runs a smoke workload and parses its result line.
fn result(workload: &str, trace: bool) -> Json {
    let s = settings(workload, trace);
    let outcome = run(&s).unwrap_or_else(|e| panic!("{workload}: {e}"));
    assert!(
        outcome.correct(),
        "{workload} (trace {trace}) failed its checks: {:?}",
        outcome.errors
    );
    Json::parse(&outcome.result_line(catalogue(trace))).expect("result line is JSON")
}

fn metric(result: &Json, name: &str) -> (f64, String) {
    let m = result
        .get("metrics")
        .and_then(|m| m.get(name))
        .unwrap_or_else(|| panic!("metric {name} missing"));
    let value = match m.get("value") {
        Some(Json::Num(x)) => *x,
        other => panic!("{name}: value {other:?}"),
    };
    (
        value,
        m.get("unit")
            .and_then(Json::as_str)
            .expect("unit")
            .to_string(),
    )
}

#[test]
fn catalogue_matches_benchmark_json() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    let spec = Json::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        spec.get(key)
            .and_then(Json::as_arr)
            .expect(key)
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
        c.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), own(END_TO_END));
    assert_eq!(listed("per_layer"), own(PER_LAYER));
    let workloads: Vec<String> = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn every_end_to_end_metric_is_printed_with_its_unit() {
    for workload in WORKLOADS {
        let r = result(workload, false);
        for &(name, unit) in END_TO_END {
            let (value, printed_unit) = metric(&r, name);
            assert_eq!(printed_unit, unit, "{workload} {name}");
            assert!(value > 0.0, "{workload} {name} = {value}");
        }
    }
}

#[test]
fn traced_runs_emit_every_per_layer_metric() {
    // Metrics that must be non-zero where their layer is on the path.
    let applies: [(&str, &[&str]); 3] = [
        (
            "job-explain",
            &[
                "query.extract_s",
                "query.lineage_literals",
                "circuit.fingerprint_s",
                "circuit.distinct_structures",
                "engine.plan_s",
                "planner.kc_routes",
                "kc.compile_s",
                "exact.alg1_s",
                "num.vli_hits",
                "engine.cache_s",
            ],
        ),
        (
            "job-topk",
            &[
                "query.extract_s",
                "query.peak_in_flight_literals",
                "circuit.fingerprint_s",
                "engine.topk.bound_s",
                "engine.topk.bound_passes",
                "engine.topk.solved_ratio",
                "engine.readonce_s",
            ],
        ),
        (
            "serve-mixed",
            &[
                "circuit.fingerprint_s",
                "circuit.minimize_passes",
                "kc.compile_s",
                "exact.alg1_s",
                "engine.readonce_s",
                "engine.cache.hit_ratio",
                "engine.persist_s",
                "engine.persist.log_bytes",
                "engine.persist.records_per_key",
                "engine.service.queue_wait_s",
            ],
        ),
    ];
    for (workload, nonzero) in applies {
        let r = result(workload, true);
        for &(name, unit) in PER_LAYER {
            let (value, printed_unit) = metric(&r, name);
            assert_eq!(printed_unit, unit, "{workload} {name}");
            assert!(value.is_finite(), "{workload} {name}");
        }
        for name in nonzero.iter().chain(&["trace.wall_s", "trace.coverage"]) {
            assert!(metric(&r, name).0 > 0.0, "{workload}: {name} is 0");
        }
        let coverage = metric(&r, "trace.coverage").0;
        assert!(coverage <= 1.0 + 1e-9, "{workload}: coverage {coverage}");
        let spans = settings(workload, true).trace_path();
        assert!(
            spans.exists(),
            "{workload}: no span file at {}",
            spans.display()
        );
    }
}

#[test]
fn corrupted_values_trip_the_checks() {
    let inp = job::setup(&settings("job-explain", false).job, 7, 1);
    let analyzer = ShapleyAnalyzer::new(&inp.db).with_threads(1);

    let mut explained = analyzer
        .explain_batch(&inp.query)
        .expect("explain_batch")
        .explanations;
    assert!(check::explain(&explained, &inp.cfg, &inp.exogenous).is_empty());
    // Efficiency: one value nudged on a non-solo answer.
    let last = explained.last_mut().expect("answers");
    last.attributions[0].1 = last.attributions[0].1.clone() + Rational::from_ratio(1, 1000);
    assert_eq!(
        check::explain(&explained, &inp.cfg, &inp.exogenous).len(),
        1
    );
    // A solo answer that no longer scores ½.
    let mut explained = analyzer
        .explain_batch(&inp.query)
        .expect("explain_batch")
        .explanations;
    explained[0].attributions[0].1 = Rational::from_ratio(1, 3);
    explained[0].attributions[1].1 = Rational::from_ratio(2, 3);
    assert_eq!(
        check::explain(&explained, &inp.cfg, &inp.exogenous).len(),
        1
    );
    // A dropped answer.
    explained.pop();
    assert!(!check::explain(&explained, &inp.cfg, &inp.exogenous).is_empty());

    let mut ranking = analyzer
        .rank_topk(&inp.query, job::TOP_K)
        .expect("rank_topk");
    assert!(check::topk(&ranking, job::TOP_K, &inp.cfg).is_empty());
    ranking.top[3].score = Rational::from_ratio(1, 3);
    assert!(!check::topk(&ranking, job::TOP_K, &inp.cfg).is_empty());
    let mut ranking = analyzer
        .rank_topk(&inp.query, job::TOP_K)
        .expect("rank_topk");
    ranking.solved_answers = ranking.answers;
    assert!(!check::topk(&ranking, job::TOP_K, &inp.cfg).is_empty());
}
