//! Regression test: starting a job with [`reset_peak`] re-bases the
//! peak-allocation high-water mark, so the job's reported peak covers only
//! its own allocations, not a previous run's.
//!
//! This binary installs [`TrackingAllocator`] globally (it is the only
//! test in the file, so nothing else perturbs the counters).

use simprof_obs::{
    current_alloc_bytes, peak_alloc_bytes, reset_peak, ObsContext, TrackingAllocator,
};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

#[test]
fn reset_peak_rebaselines_a_new_context() {
    const SPIKE: usize = 8 << 20;

    // Leave a large high-water mark from "the previous run".
    let spike = std::hint::black_box(vec![0u8; SPIKE]);
    drop(spike);
    assert!(
        peak_alloc_bytes() >= current_alloc_bytes() + SPIKE,
        "spike must register as the peak before the context starts"
    );

    let ctx = ObsContext::new();
    reset_peak();
    let installed = ctx.install();
    let baseline = current_alloc_bytes();
    assert!(
        peak_alloc_bytes() < baseline + SPIKE / 2,
        "reset_peak() must re-base the peak: got {} over a baseline of {}",
        peak_alloc_bytes(),
        baseline
    );

    // The context's own allocations still raise the peak normally.
    let work = std::hint::black_box(vec![0u8; SPIKE / 4]);
    assert!(peak_alloc_bytes() >= baseline + SPIKE / 4);
    drop(work);
    drop(installed);
    drop(ctx.finish_report());
}
