//! Concurrent multi-job profiling service (DESIGN.md §17).
//!
//! The batch CLI profiles one workload per process: one
//! [`ObsContext`](simprof_obs::ObsContext), one trace file, one memory
//! budget. This crate generalizes that to a *service*: a [`JobRunner`]
//! accepts many [`JobSpec`]s and runs them concurrently, each job getting
//!
//! * its own observability context (spans, metrics, event sink) — the
//!   job-scoped handle the obs layer was de-globalized for,
//! * its own allocation budget slot
//!   ([`AllocSlot`](simprof_obs::AllocSlot)), so `mem_cap_mb` verdicts
//!   are per job even while neighbors allocate,
//! * its own shard in a [`TraceStore`] — one `.sptrc` file per job under
//!   `<root>/shards/`, stored raw or per-frame-compressed (see
//!   [`simprof_trace::codec`]), recorded in a deterministic
//!   `<root>/index.json`.
//!
//! The determinism contract carries over from the batch path: a job's
//! shard bytes are a pure function of its spec (workload, scale, seed,
//! codec) — bit-identical whether the job runs alone, beside 31
//! neighbors, or through `simprof profile`. Tenant byte caps bound what
//! any one tenant's shards may occupy; admission is checked when a
//! finished shard is committed to the index, and a rejected shard is
//! deleted rather than left dangling.
//!
//! The fleet is observable while and after it runs (DESIGN.md §18): the
//! runner stamps `job_queued`/`job_started`/`job_finished`/`job_failed`
//! lifecycle events through an injectable [`Clock`] into a service-level
//! [`simprof_obs::EventSink`], [`FleetProgress`] folds them into a live
//! status line, and [`fleet_report`] merges every job's telemetry into a
//! per-tenant [`simprof_obs::FleetReport`] — byte-deterministic under a
//! [`ScriptedClock`] at any concurrency.

pub mod clock;
pub mod fleet;
pub mod runner;
pub mod spec;
pub mod store;

pub use clock::{Clock, MonotonicClock, ScriptedClock};
pub use fleet::{fleet_report, fleet_slices, shard_payload_bytes, FleetProgress};
pub use runner::{JobOutcome, JobRunner};
pub use spec::{load_jobs, JobSpec};
pub use store::{ShardRecord, StoreCheck, StoreIndex, TraceStore, INDEX_FILE};
