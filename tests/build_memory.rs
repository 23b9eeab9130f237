//! Heap bound of job construction: a builder holds what its job reads and
//! nothing more. The Hadoop builders cost their shuffle merges from run
//! lengths (no key is copied, sorted or merged for them) and build each
//! graph superstep as soon as its propagation step ends, holding one
//! step's `u32` message targets. The sort builders read each record's key
//! from the per-vocabulary hash table (no per-record key array), size each
//! reducer's key vector from its count, and drop their corpus after its
//! last reader.
//!
//! Heap is measured with `TrackingAllocator` as this binary's global
//! allocator, so the file holds a single test (peaks are process-wide).
//! Each bound is the build's measured peak (paper scale, seed 1) plus
//! about 0.2 MiB; every build below peaked 0.3–6.7 MiB higher when its merges
//! still held the shuffled keys, and the sort builds another 0.8 (sort_hp)
//! and 2.0 MiB (sort_sp) higher when they held a key per record.

use simprof::engine::MethodRegistry;
use simprof::obs::{current_alloc_bytes, peak_alloc_bytes, reset_peak, TrackingAllocator};
use simprof::sim::Machine;
use simprof::workloads::{WorkloadConfig, WorkloadId};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

const MIB: f64 = (1 << 20) as f64;

#[test]
fn paper_scale_builds_stay_under_their_heap_bounds() {
    let cfg = WorkloadConfig::paper(1);
    let bounds_mib = [("cc_hp", 5.70), ("rank_hp", 3.10), ("sort_hp", 5.05), ("sort_sp", 5.85)];
    let mut over = Vec::new();
    for (label, bound) in bounds_mib {
        let w = WorkloadId::all()
            .into_iter()
            .find(|w| w.label() == label)
            .expect("workload is in the catalog");
        let base = current_alloc_bytes();
        reset_peak();
        let mut machine = Machine::new(cfg.machine);
        let mut registry = MethodRegistry::new();
        let job = w.benchmark.build(w.framework, &cfg, &mut machine, &mut registry);
        let peak = peak_alloc_bytes().saturating_sub(base) as f64 / MIB;
        assert!(!job.stages.is_empty(), "{label} builds a job");
        drop(job);
        println!("{label}: build peak {peak:.3} MiB (bound {bound} MiB)");
        if peak > bound {
            over.push(format!("{label} {peak:.3} MiB > {bound} MiB"));
        }
    }
    assert!(over.is_empty(), "build peaks over their bounds: {over:?}");
}
