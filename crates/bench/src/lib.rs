//! Benchmark harness for SimProf.
//!
//! Regenerates every table and figure of the paper's evaluation (§IV),
//! plus the extension experiments and ablations: the [`figures`] module
//! computes each one as plain data (so the computations are
//! unit-testable), `src/bin/all_figures` runs them all and writes the
//! paper-vs-measured record `EXPERIMENTS.md`, `benches/` holds the
//! Criterion micro/ablation benchmarks, and [`records`] types the JSON
//! records `bench_pipeline` writes and `perf_gate` gates.

pub mod figures;
pub mod harness;
pub mod records;
pub mod report;
pub mod svg;

pub use harness::{apply_thread_flag, run_all_workloads, EvalConfig, WorkloadRun};
