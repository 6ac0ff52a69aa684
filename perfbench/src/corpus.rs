//! Seeded inputs. Every generator takes the workload seed; seed 0
//! reproduces the repository's reference corpora (`JobConfig::default()`,
//! the 521-lineage TPC-H-lite + IMDB-lite replay corpus at seed 42).

use shapdb::circuit::Dnf;
use shapdb::data::{Database, Value};
use shapdb::query::{evaluate, Ucq};
use shapdb::workloads::{
    imdb_database, imdb_queries, job_database, tpch_database, tpch_queries, ImdbConfig, JobConfig,
    TpchConfig,
};
use std::collections::HashSet;

/// Answer lineages per replay query (the reference corpus cap).
pub const PER_QUERY_CAP: usize = 100;

/// `base` with its seed moved by the workload seed.
pub fn job_config(base: &JobConfig, seed: u64) -> JobConfig {
    JobConfig {
        seed: base.seed ^ seed,
        ..*base
    }
}

/// The TPC-H-lite configuration of the replay corpus.
pub fn tpch_config(seed: u64) -> TpchConfig {
    TpchConfig {
        scale: 0.5,
        seed: 42 ^ seed,
    }
}

/// The IMDB-lite configuration of the replay corpus.
pub fn imdb_config(seed: u64) -> ImdbConfig {
    ImdbConfig {
        movies: 600,
        companies: 60,
        people: 300,
        keywords: 50,
        seed: 42 ^ seed,
    }
}

/// One set of lineages sent as requests, with the `n_endo` they carry.
pub struct LineageSet {
    pub lineages: Vec<Dnf>,
    pub n_endo: usize,
}

/// The replay corpus: every answer lineage of every TPC-H-lite and
/// IMDB-lite workload query, capped per query. Seed 0 is the reference
/// 521-lineage corpus (83 distinct structures).
pub fn replay_lineages(seed: u64) -> LineageSet {
    let tpch = tpch_database(&tpch_config(seed));
    let imdb = imdb_database(&imdb_config(seed));
    let mut lineages = Vec::new();
    let mut n_endo = 0usize;
    for (db, queries) in [(&tpch, tpch_queries()), (&imdb, imdb_queries())] {
        n_endo = n_endo.max(db.num_endogenous());
        for q in queries {
            let res = evaluate(&q.ucq, db);
            for out in res.outputs.iter().take(PER_QUERY_CAP) {
                lineages.push(out.endo_lineage(db));
            }
        }
    }
    LineageSet { lineages, n_endo }
}

/// Every answer lineage of the JOB ranking query over a JOB database.
pub fn job_lineages(cfg: &JobConfig) -> LineageSet {
    let db = job_database(cfg);
    let res = evaluate(&shapdb::workloads::job_ranking_query(), &db);
    LineageSet {
        lineages: res.outputs.iter().map(|o| o.endo_lineage(&db)).collect(),
        n_endo: db.num_endogenous(),
    }
}

/// The request line body after the id: `"lineage":[[…]],"n_endo":N}`.
pub fn request_body(lineage: &Dnf, n_endo: usize) -> String {
    let conjuncts: Vec<String> = lineage
        .conjuncts()
        .iter()
        .map(|c| {
            let vars: Vec<String> = c.iter().map(|v| v.0.to_string()).collect();
            format!("[{}]", vars.join(","))
        })
        .collect();
    format!(
        "\"lineage\":[{}],\"n_endo\":{n_endo}}}",
        conjuncts.join(",")
    )
}

/// The answers `q` has on the exogenous facts of `db` alone — the answers
/// whose value gap `v(D_n) − v(∅)` is 0 rather than 1.
pub fn exogenous_answers(q: &Ucq, db: &Database) -> HashSet<Vec<Value>> {
    let mut exo = Database::new();
    for rel in db.relations() {
        let columns: Vec<&str> = rel.schema().columns().iter().map(String::as_str).collect();
        exo.create_relation(rel.schema().name(), &columns);
        for fact in rel.facts().iter().filter(|f| !f.endogenous) {
            exo.insert_exo(rel.schema().name(), fact.values.to_vec());
        }
    }
    evaluate(q, &exo)
        .outputs
        .into_iter()
        .map(|o| o.tuple)
        .collect()
}
