//! Per-job allocation peaks in the fleet report do not depend on how many
//! workers served the fleet.
//!
//! This binary installs the [`TrackingAllocator`] globally, so every served
//! job's report carries its real `peak_alloc_bytes` (without it they read
//! 0, as in `service_isolation.rs`). A job must be charged only for its own
//! allocations: work it hands to a thread shared with other jobs (a pool
//! worker's one-time set-up, say) must not land in whichever job reaches
//! that thread first. The whole Table I matrix, served under a scripted
//! clock, must then serialize its fleet report to the same bytes on one
//! worker as on eight.
//!
//! Store roots have equal lengths on purpose: shard paths are allocated
//! under the job's slot, so a longer root is a (legitimately) larger peak.

use std::sync::Arc;

use simprof::obs::TrackingAllocator;
use simprof::service::{fleet_report, JobRunner, JobSpec, ScriptedClock, TraceStore};
use simprof::workloads::WorkloadId;

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

/// Serves every Table I workload once (tiny scale, every third job
/// compressed, three tenants) under a scripted clock on `workers` workers
/// and returns the serialized fleet report.
fn scripted_matrix_report(name: &str, workers: usize) -> String {
    let root = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&root);
    let specs: Vec<JobSpec> = WorkloadId::all()
        .into_iter()
        .enumerate()
        .map(|(i, w)| {
            let mut s = JobSpec::new(&format!("matrix-{i:02}"), &w.label());
            s.seed = Some(40 + i as u64);
            s.scale = Some("tiny".into());
            s.codec = (i % 3 == 0).then(|| "lz".to_owned());
            s.tenant = Some(format!("tenant-{}", i % 3));
            s
        })
        .collect();
    let runner = JobRunner::new(TraceStore::create(root.to_str().unwrap()).unwrap())
        .with_max_concurrent(workers)
        .with_clock(Arc::new(ScriptedClock::fixed(0)));
    let results = runner.run(&specs);
    assert!(results.iter().all(Result::is_ok), "{results:?}");
    let report = fleet_report(runner.store(), &specs, &results).unwrap().to_json_pretty();
    let _ = std::fs::remove_dir_all(&root);
    report
}

#[test]
fn full_matrix_fleet_report_is_identical_on_one_and_eight_workers() {
    let solo = scripted_matrix_report("simprof_svc_matrix_1", 1);
    assert!(solo.contains("\"peak_alloc_bytes\": "), "report lists per-job peaks");
    assert!(!solo.contains("\"peak_alloc_bytes\": 0,"), "peaks are really tracked");
    let wide = scripted_matrix_report("simprof_svc_matrix_8", 8);
    assert_eq!(solo, wide, "fleet report differs between 1 and 8 workers");
    let again = scripted_matrix_report("simprof_svc_matrix_r", 8);
    assert_eq!(wide, again, "fleet report differs across identical 8-worker runs");
}
