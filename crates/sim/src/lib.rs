//! Machine-model substrate for SimProf.
//!
//! The paper profiles jobs natively on an Intel i7-4820K and reads hardware
//! counters through `perf_event`. This crate is the substitution for that
//! hardware: a deterministic machine model that executes *cost descriptions*
//! emitted by the execution engine and exposes the same counters the paper
//! consumes (instructions, cycles, cache misses → CPI/IPC).
//!
//! The model is deliberately simple but mechanistic: every phenomenon the
//! paper attributes to the memory system (quicksort partitions that fit or
//! miss in cache, random-access reduce operations, streaming map operations,
//! IO stalls) arises here from an actual set-associative LRU cache hierarchy
//! walked address by address — not from hard-coded CPI values.
//!
//! * [`cache`] — one set-associative LRU cache level.
//! * [`hierarchy`] — the L1D → L2 → LLC walk with per-level miss counting.
//! * [`cost`] — the cycle cost model (base CPI + per-level miss penalties).
//! * [`access`] — resumable deterministic address-pattern generators.
//! * [`counters`] — per-thread hardware-counter state and deltas.
//! * [`machine`] — the whole machine: per-core private caches, shared LLC,
//!   per-core counters, address-space allocation.
//! * [`perturb`] — OS-noise models (thread migration flushes, LLC contention).

pub mod access;
pub mod cache;
pub mod cost;
pub mod counters;
pub mod hierarchy;
pub mod machine;
pub mod perturb;

pub use access::{AccessCursor, AccessPattern, Region};
pub use cache::{Cache, CacheConfig};
pub use cost::CostModel;
pub use counters::Counters;
pub use hierarchy::AccessOutcome;
pub use machine::{CoreId, Machine, MachineConfig};
pub use perturb::Perturbations;

/// Cache-line size in bytes used across the model (64 B, as on the i7-4820K).
pub const LINE_BYTES: u64 = 64;
