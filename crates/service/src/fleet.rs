//! Fleet-report assembly and live progress for the service layer.
//!
//! [`fleet_report`] turns one service run — the specs, the per-job
//! results, and the store's tenant accounting — into a
//! [`FleetReport`]: it re-opens every admitted shard to count stored vs
//! decoded payload bytes (which doubles as a readability check) and
//! hands the merged facts to [`FleetReport::assemble`], whose output is
//! a pure function of its inputs. Under a scripted clock the serialized
//! report is byte-identical at any worker count.
//!
//! [`FleetProgress`] is the live half: an [`EventSink`] folding the
//! runner's lifecycle events into queued/running/done/failed counts, so
//! `simprof serve --progress` can render a one-line fleet status while
//! jobs run.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

use simprof_obs::{Event, EventKind, EventSink, FleetJob, FleetReport, JobSlice};
use simprof_trace::TraceReader;

use crate::runner::JobOutcome;
use crate::spec::JobSpec;
use crate::store::TraceStore;

/// Streams `job`'s shard end to end and returns its `(stored, raw)`
/// payload byte totals (header + unit chunks + footer).
pub fn shard_payload_bytes(store: &TraceStore, job: &str) -> Result<(u64, u64), String> {
    let path = store.shard_path(job);
    let path_str = path.to_string_lossy().into_owned();
    let mut reader = TraceReader::open(&path_str)?;
    reader.footer()?;
    while reader.next_unit()?.is_some() {}
    Ok(reader.payload_bytes())
}

/// Builds the fleet report for one service run. `specs` and `results`
/// are the runner's input and output, index-aligned; the store supplies
/// per-tenant byte usage and the shards to scan for compression.
pub fn fleet_report(
    store: &TraceStore,
    specs: &[JobSpec],
    results: &[Result<JobOutcome, String>],
) -> Result<FleetReport, String> {
    if specs.len() != results.len() {
        return Err(format!("fleet report: {} specs but {} results", specs.len(), results.len()));
    }
    let mut jobs = Vec::with_capacity(specs.len());
    for (spec, result) in specs.iter().zip(results) {
        let job = match result {
            Ok(o) => {
                let (stored, raw) = shard_payload_bytes(store, &o.id)
                    .map_err(|e| format!("fleet report: job `{}`: {e}", o.id))?;
                FleetJob {
                    id: o.id.clone(),
                    tenant: o.tenant.clone(),
                    workload: o.workload.clone(),
                    ok: true,
                    error: None,
                    units: o.units,
                    trace_bytes: o.trace_bytes,
                    peak_alloc_bytes: o.peak_bytes,
                    queue_us: o.queue_us,
                    run_us: o.run_us,
                    stored_payload_bytes: stored,
                    raw_payload_bytes: raw,
                    compression: 0.0,
                }
            }
            Err(e) => FleetJob {
                id: spec.id.clone(),
                tenant: spec.tenant().to_owned(),
                workload: spec.workload.clone(),
                ok: false,
                error: Some(e.clone()),
                units: 0,
                trace_bytes: 0,
                peak_alloc_bytes: 0,
                queue_us: 0,
                run_us: 0,
                stored_payload_bytes: 0,
                raw_payload_bytes: 0,
                compression: 0.0,
            },
        };
        jobs.push(job);
    }
    Ok(FleetReport::assemble(jobs, store.tenant_bytes_map()))
}

/// Lays successful jobs out on per-worker timeline tracks (the input to
/// [`simprof_obs::fleet_chrome_trace`]).
pub fn fleet_slices(results: &[Result<JobOutcome, String>]) -> Vec<JobSlice> {
    results
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .map(|o| JobSlice {
            name: o.id.clone(),
            worker: o.worker,
            start_us: o.started_us,
            end_us: o.finished_us,
        })
        .collect()
}

/// Mutable fleet status counts.
#[derive(Debug, Default, Clone)]
struct ProgressCounts {
    queued: usize,
    running: usize,
    done: usize,
    failed: usize,
    /// `(done, failed)` per tenant.
    tenants: BTreeMap<String, (usize, usize)>,
}

/// A shared live view of the fleet's lifecycle events. Clone the handle
/// freely; [`FleetProgress::sink`] yields the [`EventSink`] to install
/// on the runner and [`FleetProgress::line`] renders the current
/// one-line status.
#[derive(Debug, Clone, Default)]
pub struct FleetProgress {
    counts: Arc<Mutex<ProgressCounts>>,
}

impl FleetProgress {
    /// A progress view with all counts at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The sink to install on the [`crate::JobRunner`] (tee it with a
    /// JSONL writer to keep a durable log too).
    pub fn sink(&self) -> Box<dyn EventSink> {
        Box::new(ProgressSink { counts: Arc::clone(&self.counts) })
    }

    /// One-line fleet status: totals plus per-tenant `done/failed`.
    pub fn line(&self) -> String {
        let c = self.counts.lock().unwrap_or_else(PoisonError::into_inner);
        let mut line = format!(
            "fleet: {} queued, {} running, {} done, {} failed",
            c.queued, c.running, c.done, c.failed
        );
        if !c.tenants.is_empty() {
            let tenants: Vec<String> = c
                .tenants
                .iter()
                .map(|(t, (done, failed))| format!("{t} {done}/{failed}"))
                .collect();
            line.push_str(&format!(" | {}", tenants.join(", ")));
        }
        line
    }

    /// `(queued, running, done, failed)` snapshot.
    pub fn counts(&self) -> (usize, usize, usize, usize) {
        let c = self.counts.lock().unwrap_or_else(PoisonError::into_inner);
        (c.queued, c.running, c.done, c.failed)
    }
}

struct ProgressSink {
    counts: Arc<Mutex<ProgressCounts>>,
}

impl EventSink for ProgressSink {
    fn emit(&mut self, event: &Event) {
        let mut c = self.counts.lock().unwrap_or_else(PoisonError::into_inner);
        match &event.kind {
            EventKind::JobQueued { .. } => c.queued += 1,
            EventKind::JobStarted { .. } => {
                c.queued = c.queued.saturating_sub(1);
                c.running += 1;
            }
            EventKind::JobFinished { tenant, .. } => {
                c.running = c.running.saturating_sub(1);
                c.done += 1;
                c.tenants.entry(tenant.clone()).or_default().0 += 1;
            }
            EventKind::JobFailed { tenant, .. } => {
                c.running = c.running.saturating_sub(1);
                c.failed += 1;
                c.tenants.entry(tenant.clone()).or_default().1 += 1;
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::JobRunner;
    use crate::ScriptedClock;

    fn tmp_root(name: &str) -> String {
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir.to_str().unwrap().to_owned()
    }

    fn spec(id: &str, workload: &str, seed: u64, tenant: &str, codec: Option<&str>) -> JobSpec {
        let mut s = JobSpec::new(id, workload);
        s.seed = Some(seed);
        s.scale = Some("tiny".into());
        s.tenant = Some(tenant.into());
        s.codec = codec.map(str::to_owned);
        s
    }

    #[test]
    fn fleet_report_folds_outcomes_store_bytes_and_compression() {
        let root = tmp_root("simprof_fleet_report");
        let runner = JobRunner::new(TraceStore::create(&root).unwrap())
            .with_clock(Arc::new(ScriptedClock::fixed(0)));
        let specs = vec![
            spec("a", "wc_sp", 1, "t0", Some("lz")),
            spec("b", "grep_hp", 2, "t1", None),
            spec("bad", "no_such", 3, "t1", None),
        ];
        let results = runner.run(&specs);
        let report = fleet_report(runner.store(), &specs, &results).unwrap();

        assert_eq!(report.totals.jobs, 3);
        assert_eq!(report.totals.ok, 2);
        assert_eq!(report.totals.failed, 1);
        assert_eq!(report.jobs.len(), 3);

        let a = report.jobs.iter().find(|j| j.id == "a").unwrap();
        assert!(a.ok);
        assert!(a.raw_payload_bytes > 0);
        assert!(
            a.stored_payload_bytes < a.raw_payload_bytes,
            "lz shard stores fewer payload bytes than raw"
        );
        assert!(a.compression > 0.0 && a.compression < 1.0);
        let b = report.jobs.iter().find(|j| j.id == "b").unwrap();
        assert_eq!(b.stored_payload_bytes, b.raw_payload_bytes, "a raw shard stores raw");
        assert_eq!(b.compression, 1.0);
        let bad = report.jobs.iter().find(|j| j.id == "bad").unwrap();
        assert!(!bad.ok);
        assert!(bad.error.as_deref().unwrap().contains("no_such"));

        // Report tenant bytes equal the store's accounting.
        for (tenant, stats) in &report.tenants {
            assert_eq!(stats.store_bytes, runner.store().tenant_bytes(tenant));
        }
        assert_eq!(report.tenants["t1"].failed, 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn progress_counts_follow_the_lifecycle() {
        let root = tmp_root("simprof_fleet_progress");
        let progress = FleetProgress::new();
        let runner =
            JobRunner::new(TraceStore::create(&root).unwrap()).with_event_sink(progress.sink());
        let results =
            runner.run(&[spec("a", "wc_sp", 1, "t0", None), spec("bad", "no_such", 2, "t0", None)]);
        assert_eq!(results.len(), 2);
        assert_eq!(progress.counts(), (0, 0, 1, 1), "all jobs accounted for at the end");
        let line = progress.line();
        assert!(line.contains("1 done"), "{line}");
        assert!(line.contains("1 failed"), "{line}");
        assert!(line.contains("t0 1/1"), "{line}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn fleet_slices_skip_failed_jobs() {
        let root = tmp_root("simprof_fleet_slices");
        let runner = JobRunner::new(TraceStore::create(&root).unwrap());
        let results =
            runner.run(&[spec("a", "wc_sp", 1, "t0", None), spec("bad", "no_such", 2, "t0", None)]);
        let slices = fleet_slices(&results);
        assert_eq!(slices.len(), 1);
        assert_eq!(slices[0].name, "a");
        assert!(slices[0].end_us >= slices[0].start_us);
        let _ = std::fs::remove_dir_all(&root);
    }
}
