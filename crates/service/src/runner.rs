//! The concurrent job runner: N profiling jobs over a small worker pool,
//! each with its own observability context, allocation slot, and shard.
//!
//! Each worker thread pulls the next unstarted [`JobSpec`] off a shared
//! counter and runs it end-to-end on that thread: claim an
//! [`AllocSlot`], install a fresh [`ObsContext`], stream sampling units
//! into the job's shard, seal it, and [admit](TraceStore::admit) it into
//! the store. Nothing a job touches outlives it or leaks into a
//! neighbor, which is what makes the per-job determinism and memory
//! verdicts meaningful.
//!
//! The trace-writing sequence deliberately mirrors `simprof profile`
//! byte for byte (same [`TraceMeta`] fields, same default chunk size,
//! same writer wiring), so a job served here produces a shard
//! bit-identical to the batch CLI's output for the same spec.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use simprof_obs::{
    AllocSlot, Event, EventKind, EventSink, ObsContext, RunReport, ALLOC_SLOTS,
    EVENT_SCHEMA_VERSION,
};
use simprof_profiler::sink::{SharedSink, UnitSink};
use simprof_trace::{Codec, TraceMeta, TraceWriter, FORMAT_VERSION};

use crate::clock::{Clock, MonotonicClock};
use crate::spec::JobSpec;
use crate::store::{ShardRecord, TraceStore};

/// How one finished job went.
#[derive(Debug)]
pub struct JobOutcome {
    /// The job's id (shard file stem).
    pub id: String,
    /// Tenant the shard was accounted to.
    pub tenant: String,
    /// Workload label that ran.
    pub workload: String,
    /// Sampling units in the sealed shard.
    pub units: u64,
    /// Sealed shard size in bytes.
    pub trace_bytes: u64,
    /// Shard path relative to the store root.
    pub shard: String,
    /// Peak bytes charged to the job's allocation slot.
    pub peak_bytes: u64,
    /// The job's memory budget, when one was set.
    pub mem_cap_bytes: Option<u64>,
    /// Whether `peak_bytes` stayed within the budget (vacuously true
    /// without one).
    pub within_cap: bool,
    /// Wall-clock milliseconds from spec validation to admission.
    pub wall_ms: u64,
    /// 0-based index of the worker thread that ran the job.
    pub worker: usize,
    /// Runner-clock reading when the job left the queue.
    pub started_us: u64,
    /// Runner-clock reading when the job finished.
    pub finished_us: u64,
    /// Microseconds the job waited between queueing and start
    /// (runner-clock; scripted clocks make this deterministic).
    pub queue_us: u64,
    /// Microseconds the job ran for (runner-clock).
    pub run_us: u64,
    /// The job's own span tree and metrics.
    pub report: RunReport,
}

/// The runner's installed lifecycle sink plus its own `seq` counter
/// (mirrors the per-context `SinkSlot` stamping contract: `seq` and
/// `ts_us` assigned under one lock, so file order is monotone).
struct EventState {
    sink: Box<dyn EventSink>,
    seq: u64,
}

/// Runs batches of [`JobSpec`]s concurrently against one [`TraceStore`].
pub struct JobRunner {
    store: TraceStore,
    default_codec: Codec,
    max_concurrent: usize,
    clock: Arc<dyn Clock>,
    events: Mutex<Option<EventState>>,
}

impl JobRunner {
    /// A runner writing into `store`, with up to 4 concurrent jobs, the
    /// raw codec for jobs that do not choose one, the real monotonic
    /// clock, and no lifecycle sink.
    pub fn new(store: TraceStore) -> Self {
        Self {
            store,
            default_codec: Codec::Raw,
            max_concurrent: 4,
            clock: Arc::new(MonotonicClock::new()),
            events: Mutex::new(None),
        }
    }

    /// Sets the codec applied to jobs whose spec does not choose one.
    pub fn with_default_codec(mut self, codec: Codec) -> Self {
        self.default_codec = codec;
        self
    }

    /// Sets how many jobs may run at once (clamped to at least 1).
    pub fn with_max_concurrent(mut self, n: usize) -> Self {
        self.max_concurrent = n.max(1);
        self
    }

    /// Replaces the clock that stamps job lifecycle transitions. Inject a
    /// [`crate::ScriptedClock`] to make queue/run durations — and any
    /// [`simprof_obs::FleetReport`] built from them — byte-deterministic.
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Installs a service-level sink receiving one event per job
    /// lifecycle transition (`job_queued`/`job_started`/`job_finished`/
    /// `job_failed`). Flushed after every [`run`](JobRunner::run).
    pub fn with_event_sink(mut self, sink: Box<dyn EventSink>) -> Self {
        self.events = Mutex::new(Some(EventState { sink, seq: 0 }));
        self
    }

    /// The store this runner admits shards into.
    pub fn store(&self) -> &TraceStore {
        &self.store
    }

    /// Stamps and delivers one lifecycle event, returning the clock
    /// reading used. With no sink installed this is just a clock read.
    fn emit_event(&self, kind: EventKind) -> u64 {
        let mut state = self.events.lock().unwrap_or_else(PoisonError::into_inner);
        match state.as_mut() {
            Some(s) => {
                s.seq += 1;
                let event =
                    Event { v: EVENT_SCHEMA_VERSION, seq: s.seq, ts_us: self.clock.now_us(), kind };
                s.sink.emit(&event);
                event.ts_us
            }
            None => self.clock.now_us(),
        }
    }

    fn flush_events(&self) {
        let mut state = self.events.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(s) = state.as_mut() {
            s.sink.flush();
        }
    }

    /// Runs every spec, up to `max_concurrent` at a time, and returns one
    /// result per spec in input order. A failed job never takes a
    /// neighbor down — its error is returned in its own slot and any
    /// partial shard file is deleted.
    pub fn run(&self, specs: &[JobSpec]) -> Vec<Result<JobOutcome, String>> {
        self.run_with(specs, |_, _| {})
    }

    /// Like [`run`](JobRunner::run), invoking `on_done(index, result)` on
    /// the worker thread as each job completes (completion order, not
    /// input order) — the hook behind `simprof serve`'s streamed outcome
    /// lines. The returned vector is still in input order.
    pub fn run_with<F>(&self, specs: &[JobSpec], on_done: F) -> Vec<Result<JobOutcome, String>>
    where
        F: Fn(usize, &Result<JobOutcome, String>) + Sync,
    {
        if specs.is_empty() {
            return Vec::new();
        }
        // Queue stamps happen on this thread, in input order, before any
        // worker starts: the queued prefix of the event log is
        // deterministic and every queue wait is measured from here.
        let queued_us: Vec<u64> = specs
            .iter()
            .map(|s| {
                self.emit_event(EventKind::JobQueued {
                    job: s.id.clone(),
                    tenant: s.tenant().to_owned(),
                })
            })
            .collect();

        let next = AtomicUsize::new(0);
        let results: Vec<Mutex<Option<Result<JobOutcome, String>>>> =
            specs.iter().map(|_| Mutex::new(None)).collect();
        let workers = self.max_concurrent.min(specs.len());
        std::thread::scope(|scope| {
            for worker in 0..workers {
                let queued_us = &queued_us;
                let results = &results;
                let next = &next;
                let on_done = &on_done;
                scope.spawn(move || {
                    warm_worker_thread();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= specs.len() {
                            break;
                        }
                        let spec = &specs[i];
                        let started_us = self.emit_event(EventKind::JobStarted {
                            job: spec.id.clone(),
                            tenant: spec.tenant().to_owned(),
                            worker: worker as u64,
                        });
                        let mut outcome = self.run_one(spec);
                        let finished_us = self.clock.now_us().max(started_us);
                        let queue_us = started_us.saturating_sub(queued_us[i]);
                        let run_us = finished_us - started_us;
                        match &mut outcome {
                            Ok(o) => {
                                o.worker = worker;
                                o.started_us = started_us;
                                o.finished_us = finished_us;
                                o.queue_us = queue_us;
                                o.run_us = run_us;
                                self.emit_event(EventKind::JobFinished {
                                    job: o.id.clone(),
                                    tenant: o.tenant.clone(),
                                    units: o.units,
                                    bytes: o.trace_bytes,
                                    peak_bytes: o.peak_bytes,
                                    queue_us,
                                    run_us,
                                });
                            }
                            Err(e) => {
                                self.emit_event(EventKind::JobFailed {
                                    job: spec.id.clone(),
                                    tenant: spec.tenant().to_owned(),
                                    error: e.clone(),
                                });
                            }
                        }
                        on_done(i, &outcome);
                        *results[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(outcome);
                    }
                });
            }
        });
        self.flush_events();
        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .unwrap_or_else(|| Err("job worker panicked before reporting".into()))
            })
            .collect()
    }

    /// Runs one job end-to-end on the calling thread. Lifecycle timing
    /// fields (`worker`, `started_us`, …) are zero here; the worker loop
    /// in [`run_with`](JobRunner::run_with) fills them in.
    fn run_one(&self, spec: &JobSpec) -> Result<JobOutcome, String> {
        let started = Instant::now();
        spec.validate_id().map_err(|e| format!("job `{}`: {e}", spec.id))?;
        let workload = spec.resolve_workload()?;
        let cfg = spec.workload_config()?;
        let codec = spec.resolve_codec()?.unwrap_or(self.default_codec);

        let slot = AllocSlot::claim().ok_or_else(|| {
            format!("job `{}`: all {ALLOC_SLOTS} allocation slots are in use", spec.id)
        })?;
        let ctx = ObsContext::new();
        ctx.set_alloc_slot(&slot);
        let guard = ctx.install();

        // From here the meta/writer/sink sequence must stay in lockstep
        // with `simprof profile` — it is what makes a served job's shard
        // bit-identical to the batch CLI's trace.
        let meta = TraceMeta {
            label: spec.workload.clone(),
            seed: spec.seed(),
            scale: spec.scale_name().to_owned(),
            unit_instrs: cfg.profiler.unit_instrs,
            snapshot_instrs: cfg.profiler.snapshot_instrs,
            core: cfg.profiler.core,
        };
        let shard_path = self.store.shard_path(&spec.id);
        let path_str = shard_path.to_string_lossy().into_owned();
        let writer = match TraceWriter::create_compressed(&path_str, &meta, codec) {
            Ok(w) => w,
            Err(e) => {
                drop(guard);
                return Err(format!("job `{}`: open shard: {e}", spec.id));
            }
        };
        let shared = SharedSink::new(writer);
        let sinks: Vec<Box<dyn UnitSink>> = vec![Box::new(shared.clone())];

        let out = {
            let _span = simprof_obs::span!("service.job");
            workload.run_full_with_sinks(&cfg, sinks)
        };
        let sealed = shared.lock().finish(&out.registry);
        drop(guard);
        let report = ctx.finish_report();
        let peak_bytes = slot.peak_bytes() as u64;
        drop(slot);

        let footer = match sealed {
            Ok(f) => f,
            Err(e) => {
                let _ = std::fs::remove_file(&shard_path);
                return Err(format!("job `{}`: seal shard: {e}", spec.id));
            }
        };
        let trace_bytes = std::fs::metadata(&shard_path)
            .map_err(|e| format!("job `{}`: stat shard: {e}", spec.id))?
            .len();
        let record = ShardRecord {
            job: spec.id.clone(),
            tenant: spec.tenant().to_owned(),
            file: self.store.shard_rel(&spec.id),
            bytes: trace_bytes,
            units: footer.unit_count,
            layout_version: FORMAT_VERSION,
            codec: codec.name().to_owned(),
        };
        if let Err(e) = self.store.admit(record) {
            let _ = std::fs::remove_file(&shard_path);
            return Err(format!("job `{}`: {e}", spec.id));
        }

        let mem_cap_bytes = spec.mem_cap_bytes();
        let within_cap = mem_cap_bytes.is_none_or(|cap| peak_bytes <= cap);
        Ok(JobOutcome {
            id: spec.id.clone(),
            tenant: spec.tenant().to_owned(),
            workload: spec.workload.clone(),
            units: footer.unit_count,
            trace_bytes,
            shard: self.store.shard_rel(&spec.id),
            peak_bytes,
            mem_cap_bytes,
            within_cap,
            wall_ms: started.elapsed().as_millis() as u64,
            worker: 0,
            started_us: 0,
            finished_us: 0,
            queue_us: 0,
            run_us: 0,
            report,
        })
    }
}

/// Pays a worker thread's one-time lazy-init costs (thread-local span
/// and context stacks, thread registration) *before* any job's
/// allocation slot is tagged on the thread. Without this, whichever job
/// lands on a fresh thread first is charged those allocations, making
/// per-job peaks depend on worker count and scheduling.
fn warm_worker_thread() {
    let ctx = ObsContext::new();
    {
        let _installed = ctx.install();
        let _span = simprof_obs::span!("service.worker_warmup");
    }
    ctx.stop();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::JobSpec;

    fn tmp_root(name: &str) -> String {
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir.to_str().unwrap().to_owned()
    }

    fn spec(id: &str, workload: &str, seed: u64) -> JobSpec {
        let mut s = JobSpec::new(id, workload);
        s.seed = Some(seed);
        s
    }

    #[test]
    fn concurrent_jobs_match_solo_runs_bit_for_bit() {
        let root_pair = tmp_root("simprof_runner_pair");
        let runner = JobRunner::new(TraceStore::create(&root_pair).unwrap()).with_max_concurrent(2);
        let specs = vec![spec("a", "wc_sp", 7), spec("b", "grep_hp", 11)];
        let results = runner.run(&specs);
        for r in &results {
            assert!(r.is_ok(), "{r:?}");
        }
        runner.store().write_index().unwrap();
        let check = TraceStore::validate(&root_pair).unwrap();
        assert!(check.clean(), "problems: {:?}", check.problems);

        // Each job solo, in its own store, must produce the same bytes.
        for s in &specs {
            let root_solo = tmp_root(&format!("simprof_runner_solo_{}", s.id));
            let solo = JobRunner::new(TraceStore::create(&root_solo).unwrap());
            let res = solo.run(std::slice::from_ref(s));
            assert!(res[0].is_ok(), "{:?}", res[0]);
            let pair_bytes = std::fs::read(runner.store().shard_path(&s.id)).unwrap();
            let solo_bytes = std::fs::read(solo.store().shard_path(&s.id)).unwrap();
            assert_eq!(pair_bytes, solo_bytes, "job `{}` diverged under concurrency", s.id);
            let _ = std::fs::remove_dir_all(&root_solo);
        }
        let _ = std::fs::remove_dir_all(&root_pair);
    }

    #[test]
    fn compressed_jobs_write_v3_shards_that_read_back() {
        let root = tmp_root("simprof_runner_lz");
        let runner = JobRunner::new(TraceStore::create(&root).unwrap());
        let mut s = spec("z", "wc_sp", 3);
        s.codec = Some("lz".into());
        let results = runner.run(&[s]);
        let outcome = results[0].as_ref().unwrap();
        runner.store().write_index().unwrap();

        let path = runner.store().shard_path("z");
        let mut reader = simprof_trace::TraceReader::open(path.to_str().unwrap()).unwrap();
        assert_eq!(reader.layout_version(), 3);
        let footer = reader.footer().unwrap();
        assert_eq!(footer.unit_count, outcome.units);
        assert!(TraceStore::validate(&root).unwrap().clean());

        // The compressed shard holds the same units as an uncompressed
        // run of the same spec, in fewer or equal bytes.
        let root_raw = tmp_root("simprof_runner_raw");
        let raw = JobRunner::new(TraceStore::create(&root_raw).unwrap());
        let raw_outcome = &raw.run(&[spec("z", "wc_sp", 3)])[0];
        let raw_outcome = raw_outcome.as_ref().unwrap();
        assert_eq!(raw_outcome.units, outcome.units);
        assert!(outcome.trace_bytes <= raw_outcome.trace_bytes);
        let _ = std::fs::remove_dir_all(&root);
        let _ = std::fs::remove_dir_all(&root_raw);
    }

    #[test]
    fn a_failed_job_reports_in_place_and_leaves_no_shard() {
        let root = tmp_root("simprof_runner_fail");
        let runner = JobRunner::new(TraceStore::create(&root).unwrap());
        let results = runner.run(&[spec("bad", "no_such", 1), spec("ok", "wc_sp", 1)]);
        assert!(results[0].as_ref().unwrap_err().contains("no_such"));
        assert!(results[1].is_ok(), "{:?}", results[1]);
        assert!(!runner.store().shard_path("bad").exists());
        runner.store().write_index().unwrap();
        assert!(TraceStore::validate(&root).unwrap().clean());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn lifecycle_events_stream_in_order_under_a_scripted_clock() {
        use simprof_obs::events::CollectSink;

        let root = tmp_root("simprof_runner_events");
        let events = std::sync::Arc::new(Mutex::new(Vec::new()));
        let runner = JobRunner::new(TraceStore::create(&root).unwrap())
            .with_max_concurrent(1)
            .with_clock(Arc::new(crate::ScriptedClock::fixed(5)))
            .with_event_sink(Box::new(CollectSink(Arc::clone(&events))));
        let results = runner.run(&[spec("a", "wc_sp", 1), spec("bad", "no_such", 1)]);
        assert!(results[0].is_ok());
        assert!(results[1].is_err());

        let events = events.lock().unwrap();
        let kinds: Vec<&str> = events.iter().map(|e| e.kind.label()).collect();
        assert_eq!(
            kinds,
            [
                "job_queued",
                "job_queued",
                "job_started",
                "job_finished",
                "job_started",
                "job_failed"
            ]
        );
        for w in events.windows(2) {
            assert!(w[1].seq > w[0].seq, "seq strictly increasing");
            assert!(w[1].ts_us >= w[0].ts_us, "ts non-decreasing");
        }
        assert!(events.iter().all(|e| e.ts_us == 5), "every stamp reads the scripted clock");

        let outcome = results[0].as_ref().unwrap();
        assert_eq!(outcome.queue_us, 0, "fixed clock makes every duration zero");
        assert_eq!(outcome.run_us, 0);
        assert_eq!(outcome.started_us, 5);
        assert_eq!(outcome.finished_us, 5);
        assert_eq!(outcome.worker, 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn outcomes_carry_their_worker_index_and_clock_stamps() {
        let root = tmp_root("simprof_runner_workers");
        let runner = JobRunner::new(TraceStore::create(&root).unwrap()).with_max_concurrent(2);
        let results = runner.run(&[spec("a", "wc_sp", 1), spec("b", "grep_hp", 2)]);
        for r in &results {
            let o = r.as_ref().unwrap();
            assert!(o.worker < 2);
            assert!(o.finished_us >= o.started_us);
            assert_eq!(o.run_us, o.finished_us - o.started_us);
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn on_done_fires_once_per_job_with_its_index() {
        let root = tmp_root("simprof_runner_on_done");
        let runner = JobRunner::new(TraceStore::create(&root).unwrap()).with_max_concurrent(2);
        let seen = Mutex::new(Vec::new());
        let results = runner.run_with(&[spec("a", "wc_sp", 1), spec("b", "grep_hp", 2)], |i, r| {
            seen.lock().unwrap().push((i, r.is_ok()));
        });
        assert_eq!(results.len(), 2);
        let mut seen = seen.into_inner().unwrap();
        seen.sort();
        assert_eq!(seen, vec![(0, true), (1, true)]);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_cap_rejected_shard_is_deleted_not_left_stray() {
        let root = tmp_root("simprof_runner_cap");
        let store = TraceStore::create(&root).unwrap().with_default_tenant_cap(1);
        let runner = JobRunner::new(store);
        let results = runner.run(&[spec("a", "wc_sp", 1)]);
        assert!(results[0].as_ref().unwrap_err().contains("byte cap"));
        assert!(!runner.store().shard_path("a").exists());
        let _ = std::fs::remove_dir_all(&root);
    }
}
