//! Execution-engine substrate for SimProf.
//!
//! This crate is the stand-in for the JVM + Apache Spark / Apache Hadoop
//! stack the paper profiles. It executes *jobs* — staged collections of
//! tasks — on the [`simprof_sim`] machine model while maintaining an explicit
//! per-thread call stack of interned method names, which is what the paper
//! obtains through JVMTI.
//!
//! The key design split: **functional execution happens at job-construction
//! time on real data** (real tokenization, real hash aggregation, real
//! quicksort recursion, real graph traversals), producing a precise cost
//! trace of [`work::WorkItem`]s; **timing execution happens in the
//! scheduler**, which interleaves executor threads in instruction quanta,
//! drives the cache hierarchy with each item's access pattern, and reports
//! progress to a profiler through [`sched::ExecListener`]. This mirrors
//! trace-driven architectural simulation and keeps the whole pipeline
//! deterministic.
//!
//! * [`methods`] — interned method names with operation classes (map /
//!   reduce / sort / IO / framework).
//! * [`work`] — work items, tasks, stages, jobs.
//! * [`sched`] — the quantum scheduler: round-robin executor threads pinned
//!   to cores, migration-noise polling, listener hooks, runtime fault
//!   recovery (crash re-queue, speculative twins, lost-fetch re-charging).
//! * [`faults`] — seeded runtime fault injection: the [`faults::FaultPlan`]
//!   the scheduler consults and the [`faults::FaultLog`] it returns.
//! * [`ops`] — instrumented kernels (hash combine, quicksort, k-way merge)
//!   that run real algorithms and emit cost items, plus the cost items of
//!   text scans (tokenize, grep) whose counts the builders compute.
//! * [`hdfs`] — block-granularity distributed-filesystem cost model.
//! * [`spark`] — Spark-flavoured job assembly: long-lived executor threads,
//!   map-side combine, shuffle stages, realistic method naming.
//! * [`hadoop`] — Hadoop-flavoured job assembly: per-task executors, map →
//!   sort/spill → combine pipeline, reduce with k-way merge.

pub mod faults;
pub mod hadoop;
pub mod hdfs;
pub mod methods;
pub mod net;
pub mod ops;
pub mod sched;
pub mod spark;
pub mod work;

pub use faults::{FaultEvent, FaultLog, FaultPlan};
pub use hdfs::Hdfs;
pub use methods::{MethodId, MethodRegistry, OpClass};
pub use net::Network;
pub use sched::{ExecListener, SchedConfig, Scheduler};
pub use work::{Job, Stage, Task, WorkItem};
