//! # shapdb-bench — experiment harness
//!
//! Shared machinery behind the `repro` binary (which regenerates every table
//! and figure of the paper's §6) and the Criterion micro-benchmarks:
//!
//! * [`runner`] — runs a workload end-to-end: evaluate each query with
//!   provenance, then push every output tuple through the exact pipeline
//!   (Tseytin → compile → project → Algorithm 1) under a per-tuple timeout,
//!   in parallel across output tuples, recording per-stage timings, sizes
//!   and failure modes;
//! * [`experiments`] — the per-table/per-figure drivers that aggregate
//!   [`runner`] records into the paper's rows and series (Table 1, Table 2,
//!   Figures 4–8) as plain-text tables;
//! * [`corpus`] — the shared 521-lineage replay corpus every criterion
//!   bench measures, built in exactly one place;
//! * [`report`] — the sample median and the `results/` writer shared by
//!   every bench that records a JSON summary.

pub mod corpus;
pub mod experiments;
pub mod report;
pub mod runner;
