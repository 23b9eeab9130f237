//! The streaming event log: a live, ordered record of what a session did.
//!
//! Where the [`crate::report`] module assembles one post-hoc snapshot, an
//! [`EventSink`] receives every span open/close, counter delta, gauge
//! write, histogram observation, fault, and closed sampling unit *as it
//! happens*. The stock sink is [`JsonlEventWriter`], which appends one
//! compact JSON object per line (JSONL) so a run can be tailed while it
//! executes.
//!
//! # Schema (version [`EVENT_SCHEMA_VERSION`])
//!
//! Every line is an object with four required keys:
//!
//! * `v` — schema version (bumped on any breaking change; new optional
//!   payload fields do **not** bump it),
//! * `seq` — strictly increasing per context, assigned under the sink
//!   lock so file order equals `seq` order,
//! * `ts_us` — microseconds since the process span epoch, stamped under
//!   the same lock so it is non-decreasing in file order even when
//!   multiple threads race to emit,
//! * `kind` — the discriminator (`meta`, `span_open`, `span_close`,
//!   `counter`, `gauge`, `hist`, `fault`, `unit_closed`, `salvage`,
//!   `sink_retry`, `sink_degraded`, `phase_reformed`, `early_stop`,
//!   `job_queued`, `job_started`, `job_finished`, `job_failed`),
//!
//! plus kind-specific payload fields (see [`EventKind`]). The first line
//! of a [`JsonlEventWriter`] log is a `meta` record carrying the
//! generator name.
//!
//! # Determinism contract
//!
//! Streaming follows the same rules as the rest of this crate: with no
//! sink installed every emission site is one relaxed atomic load, sinks
//! are write-only (nothing downstream reads events back), and
//! `tests/obs_determinism.rs` pins that enabling the event log leaves
//! pipeline output bit-identical.
//!
//! Sink state lives in the owning [`crate::ObsContext`] (one `SinkSlot`
//! per context), so concurrent jobs stream to independent logs with
//! independent `seq` counters. The free functions here operate on the
//! calling thread's current context.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use serde::Serialize;
use serde_json::Value;

use crate::context;
use crate::span;

/// Version of the event-log schema emitted by this build.
pub const EVENT_SCHEMA_VERSION: u32 = 1;

/// Receives events as they are emitted. Implementations must be cheap:
/// the emitter holds its context's sink lock while calling [`emit`].
///
/// [`emit`]: EventSink::emit
pub trait EventSink: Send {
    /// Handles one event. Called in strictly increasing `seq` order.
    fn emit(&mut self, event: &Event);
    /// Flushes buffered output; called when the sink is uninstalled.
    fn flush(&mut self) {}
}

struct SinkState {
    sink: Box<dyn EventSink>,
    seq: u64,
}

/// One context's event-sink slot: the installed sink (if any) plus its
/// `seq` counter, guarded by a flag so emission sites pay one relaxed
/// load when nothing is streaming.
pub(crate) struct SinkSlot {
    streaming: AtomicBool,
    state: Mutex<Option<SinkState>>,
}

impl SinkSlot {
    pub(crate) fn new() -> Self {
        Self { streaming: AtomicBool::new(false), state: Mutex::new(None) }
    }

    fn state_lock(&self) -> MutexGuard<'_, Option<SinkState>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn streaming(&self) -> bool {
        self.streaming.load(Ordering::Relaxed)
    }

    pub(crate) fn install(&self, sink: Box<dyn EventSink>) {
        let mut state = self.state_lock();
        if let Some(mut old) = state.take() {
            old.sink.flush();
        }
        *state = Some(SinkState { sink, seq: 0 });
        self.streaming.store(true, Ordering::SeqCst);
    }

    pub(crate) fn uninstall(&self) -> bool {
        let mut state = self.state_lock();
        self.streaming.store(false, Ordering::SeqCst);
        match state.take() {
            Some(mut s) => {
                s.sink.flush();
                true
            }
            None => false,
        }
    }

    /// Stamps and delivers one event. `seq` and `ts_us` are both assigned
    /// under the sink lock, so file order, `seq` order and `ts_us` order
    /// all agree.
    pub(crate) fn emit(&self, kind: EventKind) {
        if !self.streaming() {
            return;
        }
        let mut state = self.state_lock();
        let Some(s) = state.as_mut() else { return };
        s.seq += 1;
        let event = Event { v: EVENT_SCHEMA_VERSION, seq: s.seq, ts_us: span::now_us(), kind };
        s.sink.emit(&event);
    }
}

/// True while the calling thread's current context has an [`EventSink`]
/// installed and receiving events.
#[inline]
pub fn streaming() -> bool {
    context::streaming_ctx().is_some()
}

/// Installs `sink` on the calling thread's current context, replacing
/// (and flushing) any previous one. With no current context the sink is
/// dropped. The context's `finish_report`/`stop` uninstalls
/// automatically.
pub fn install(sink: Box<dyn EventSink>) {
    if let Some(ctx) = context::current_recording() {
        ctx.install_sink(sink);
    }
}

/// Removes and flushes the current context's sink, if any. Returns
/// whether a sink was installed.
pub fn uninstall() -> bool {
    context::current_recording().is_some_and(|ctx| ctx.uninstall_sink())
}

/// One event-log record.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Schema version ([`EVENT_SCHEMA_VERSION`] for records this build
    /// emits).
    pub v: u32,
    /// Strictly increasing per session; file order equals `seq` order.
    pub seq: u64,
    /// Microseconds since the process span epoch; non-decreasing in file
    /// order.
    pub ts_us: u64,
    /// The event payload.
    pub kind: EventKind,
}

/// The kind-specific payload of an [`Event`].
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A span opened ([`crate::SpanGuard::enter`]).
    SpanOpen {
        /// Entry-ordered span id.
        id: u64,
        /// Enclosing span on the same thread, if any.
        parent: Option<u64>,
        /// The span's label.
        name: String,
        /// Small sequential thread id.
        thread: usize,
    },
    /// A span closed (guard dropped).
    SpanClose {
        /// Entry-ordered span id (matches the `SpanOpen`).
        id: u64,
        /// The span's label.
        name: String,
        /// Small sequential thread id.
        thread: usize,
        /// Microseconds the span covered.
        elapsed_us: u64,
    },
    /// A counter was bumped ([`crate::counter_add`]).
    Counter {
        /// Metric name.
        name: String,
        /// The increment.
        delta: u64,
        /// Running total after the increment.
        total: u64,
    },
    /// A gauge was written ([`crate::gauge_set`]).
    Gauge {
        /// Metric name.
        name: String,
        /// The new level.
        value: f64,
    },
    /// A histogram observation ([`crate::histogram_observe`]).
    Hist {
        /// Metric name.
        name: String,
        /// The observed value.
        value: f64,
    },
    /// A runtime fault was injected (engine fault hooks).
    Fault {
        /// The fault's metric name (e.g. `engine.faults.crash`).
        name: String,
        /// Structured fault detail, as serialized by the engine.
        detail: Value,
    },
    /// A sampling unit closed on the profiler path (`UnitSink`).
    UnitClosed {
        /// The unit's id.
        unit: u64,
        /// Instructions retired in the unit.
        instrs: u64,
        /// Cycles spent in the unit.
        cycles: u64,
        /// Snapshots captured for the unit.
        snapshots: u64,
        /// Whether fault degradation truncated the unit.
        truncated: bool,
    },
    /// A damaged trace was salvaged (`simprof-trace` recovery path).
    Salvage {
        /// The salvaged file (or stream label).
        path: String,
        /// Units recovered from intact chunk frames.
        recovered_units: u64,
        /// Frames that failed validation.
        bad_frames: u64,
        /// Bytes skipped while resynchronizing.
        skipped_bytes: u64,
        /// Successful resynchronizations onto a later valid frame.
        resyncs: u64,
    },
    /// A trace sink retried a transient I/O error.
    SinkRetry {
        /// The sink's target (file path or stream label).
        target: String,
        /// 1-based retry attempt number.
        attempt: u64,
        /// The transient error being retried.
        error: String,
    },
    /// A trace sink exhausted its retries and degraded to memory-only
    /// collection.
    SinkDegraded {
        /// The sink's target (file path or stream label).
        target: String,
        /// Retries performed before giving up.
        retries: u64,
        /// The final, fatal error.
        error: String,
    },
    /// The live analyzer re-formed phases after drift exceeded its
    /// threshold (DESIGN.md §16).
    PhaseReformed {
        /// Units profiled when the re-formation fired.
        units: u64,
        /// Phase count before re-formation.
        old_k: u64,
        /// Phase count after re-formation.
        new_k: u64,
        /// The drift statistic that triggered it.
        drift: f64,
    },
    /// The live analyzer's stopping rule fired: the live CI half-width met
    /// its target and profiling stops collecting.
    EarlyStop {
        /// Units profiled when the stop was requested.
        units: u64,
        /// The live CI half-width at stop.
        half_width: f64,
        /// The (absolute) half-width target that was met.
        target: f64,
    },
    /// A service job entered the runner's queue (`simprof-service`
    /// lifecycle; stamped by the runner's own clock, not a context).
    JobQueued {
        /// The job's id (shard file stem).
        job: String,
        /// Tenant the job is accounted to.
        tenant: String,
    },
    /// A worker thread picked a queued service job up and started it.
    JobStarted {
        /// The job's id.
        job: String,
        /// Tenant the job is accounted to.
        tenant: String,
        /// 0-based worker-thread index running the job.
        worker: u64,
    },
    /// A service job sealed its shard and was admitted into the store.
    JobFinished {
        /// The job's id.
        job: String,
        /// Tenant the shard was accounted to.
        tenant: String,
        /// Sampling units in the sealed shard.
        units: u64,
        /// Sealed shard size in bytes.
        bytes: u64,
        /// Peak bytes charged to the job's allocation slot.
        peak_bytes: u64,
        /// Microseconds the job waited between queueing and start.
        queue_us: u64,
        /// Microseconds the job ran for.
        run_us: u64,
    },
    /// A service job failed; its error and any partial shard stayed with
    /// the job (the runner deletes stray files).
    JobFailed {
        /// The job's id.
        job: String,
        /// Tenant the job was accounted to.
        tenant: String,
        /// The job's error, verbatim.
        error: String,
    },
}

impl EventKind {
    /// The schema discriminator string for this kind.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::SpanOpen { .. } => "span_open",
            EventKind::SpanClose { .. } => "span_close",
            EventKind::Counter { .. } => "counter",
            EventKind::Gauge { .. } => "gauge",
            EventKind::Hist { .. } => "hist",
            EventKind::Fault { .. } => "fault",
            EventKind::UnitClosed { .. } => "unit_closed",
            EventKind::Salvage { .. } => "salvage",
            EventKind::SinkRetry { .. } => "sink_retry",
            EventKind::SinkDegraded { .. } => "sink_degraded",
            EventKind::PhaseReformed { .. } => "phase_reformed",
            EventKind::EarlyStop { .. } => "early_stop",
            EventKind::JobQueued { .. } => "job_queued",
            EventKind::JobStarted { .. } => "job_started",
            EventKind::JobFinished { .. } => "job_finished",
            EventKind::JobFailed { .. } => "job_failed",
        }
    }
}

/// Appends `,"key":value` to a flat JSON object; `key` is a plain
/// identifier and needs no escaping.
fn field(out: &mut String, key: &str, value: &(impl Serialize + ?Sized)) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    value.write_json(out);
}

impl Event {
    /// Appends the event as one flat JSON object (the on-disk JSONL
    /// schema, without the newline): the four envelope keys, then the
    /// kind's payload fields in declaration order.
    pub fn write_json_line(&self, out: &mut String) {
        let (v, seq, ts_us, kind) = (self.v, self.seq, self.ts_us, self.kind.label());
        let _ = write!(out, "{{\"v\":{v},\"seq\":{seq},\"ts_us\":{ts_us},\"kind\":\"{kind}\"");
        match &self.kind {
            EventKind::SpanOpen { id, parent, name, thread } => {
                field(out, "id", id);
                if let Some(p) = parent {
                    field(out, "parent", p);
                }
                field(out, "name", name);
                field(out, "thread", thread);
            }
            EventKind::SpanClose { id, name, thread, elapsed_us } => {
                field(out, "id", id);
                field(out, "name", name);
                field(out, "thread", thread);
                field(out, "elapsed_us", elapsed_us);
            }
            EventKind::Counter { name, delta, total } => {
                field(out, "name", name);
                field(out, "delta", delta);
                field(out, "total", total);
            }
            EventKind::Gauge { name, value } | EventKind::Hist { name, value } => {
                field(out, "name", name);
                field(out, "value", value);
            }
            EventKind::Fault { name, detail } => {
                field(out, "name", name);
                field(out, "detail", detail);
            }
            EventKind::UnitClosed { unit, instrs, cycles, snapshots, truncated } => {
                field(out, "unit", unit);
                field(out, "instrs", instrs);
                field(out, "cycles", cycles);
                field(out, "snapshots", snapshots);
                field(out, "truncated", truncated);
            }
            EventKind::Salvage { path, recovered_units, bad_frames, skipped_bytes, resyncs } => {
                field(out, "path", path);
                field(out, "recovered_units", recovered_units);
                field(out, "bad_frames", bad_frames);
                field(out, "skipped_bytes", skipped_bytes);
                field(out, "resyncs", resyncs);
            }
            EventKind::SinkRetry { target, attempt, error } => {
                field(out, "target", target);
                field(out, "attempt", attempt);
                field(out, "error", error);
            }
            EventKind::SinkDegraded { target, retries, error } => {
                field(out, "target", target);
                field(out, "retries", retries);
                field(out, "error", error);
            }
            EventKind::PhaseReformed { units, old_k, new_k, drift } => {
                field(out, "units", units);
                field(out, "old_k", old_k);
                field(out, "new_k", new_k);
                field(out, "drift", drift);
            }
            EventKind::EarlyStop { units, half_width, target } => {
                field(out, "units", units);
                field(out, "half_width", half_width);
                field(out, "target", target);
            }
            EventKind::JobQueued { job, tenant } => {
                field(out, "job", job);
                field(out, "tenant", tenant);
            }
            EventKind::JobStarted { job, tenant, worker } => {
                field(out, "job", job);
                field(out, "tenant", tenant);
                field(out, "worker", worker);
            }
            EventKind::JobFinished { job, tenant, units, bytes, peak_bytes, queue_us, run_us } => {
                field(out, "job", job);
                field(out, "tenant", tenant);
                field(out, "units", units);
                field(out, "bytes", bytes);
                field(out, "peak_bytes", peak_bytes);
                field(out, "queue_us", queue_us);
                field(out, "run_us", run_us);
            }
            EventKind::JobFailed { job, tenant, error } => {
                field(out, "job", job);
                field(out, "tenant", tenant);
                field(out, "error", error);
            }
        }
        out.push('}');
    }
}

/// Writes events as JSON Lines: one compact object per line, prefixed by
/// a `meta` header line. I/O errors after creation are swallowed (the log
/// is best-effort telemetry and must never fail the run).
pub struct JsonlEventWriter {
    out: BufWriter<File>,
    /// The line being written, reused across events.
    line: String,
}

impl JsonlEventWriter {
    /// Creates (truncating) the log file at `path` and writes the `meta`
    /// header line.
    pub fn create(path: &Path) -> Result<Self, String> {
        let file = File::create(path)
            .map_err(|e| format!("cannot create event log {}: {e}", path.display()))?;
        let mut out = BufWriter::new(file);
        let _ = writeln!(
            out,
            "{{\"v\":{EVENT_SCHEMA_VERSION},\"seq\":0,\"ts_us\":0,\"kind\":\"meta\",\"generator\":\"simprof-obs\"}}"
        );
        Ok(Self { out, line: String::new() })
    }
}

impl EventSink for JsonlEventWriter {
    fn emit(&mut self, event: &Event) {
        self.line.clear();
        event.write_json_line(&mut self.line);
        self.line.push('\n');
        let _ = self.out.write_all(self.line.as_bytes());
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

/// Collects events into a shared `Vec` — for tests that need to inspect
/// what was emitted after the session uninstalls the sink.
pub struct CollectSink(pub Arc<Mutex<Vec<Event>>>);

impl EventSink for CollectSink {
    fn emit(&mut self, event: &Event) {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).push(event.clone());
    }
}

/// Fans every event out to several sinks, in order. Lets one emitter
/// feed a durable JSONL log and a live progress view at the same time.
pub struct TeeSink(pub Vec<Box<dyn EventSink>>);

impl EventSink for TeeSink {
    fn emit(&mut self, event: &Event) {
        for sink in &mut self.0 {
            sink.emit(event);
        }
    }

    fn flush(&mut self) {
        for sink in &mut self.0 {
            sink.flush();
        }
    }
}

/// Emission hook for engine fault injection: records the fault's metric
/// name plus its serialized detail. No-op unless [`streaming`].
pub fn fault_event(name: &str, detail: Value) {
    let Some(ctx) = context::streaming_ctx() else {
        return;
    };
    ctx.emit(EventKind::Fault { name: name.to_owned(), detail });
}

/// Emission hook for the profiler's unit-closed path. No-op unless
/// [`streaming`].
pub fn unit_closed(unit: u64, instrs: u64, cycles: u64, snapshots: u64, truncated: bool) {
    let Some(ctx) = context::streaming_ctx() else {
        return;
    };
    ctx.emit(EventKind::UnitClosed { unit, instrs, cycles, snapshots, truncated });
}

/// Emission hook for trace salvage recovery: records what a salvage pass
/// recovered and what it skipped. No-op unless [`streaming`].
pub fn salvage_event(
    path: &str,
    recovered_units: u64,
    bad_frames: u64,
    skipped_bytes: u64,
    resyncs: u64,
) {
    let Some(ctx) = context::streaming_ctx() else {
        return;
    };
    ctx.emit(EventKind::Salvage {
        path: path.to_owned(),
        recovered_units,
        bad_frames,
        skipped_bytes,
        resyncs,
    });
}

/// Emission hook for a trace sink retrying a transient I/O error. No-op
/// unless [`streaming`].
pub fn sink_retry(target: &str, attempt: u64, error: &str) {
    let Some(ctx) = context::streaming_ctx() else {
        return;
    };
    ctx.emit(EventKind::SinkRetry { target: target.to_owned(), attempt, error: error.to_owned() });
}

/// Emission hook for a trace sink exhausting its retries and degrading.
/// No-op unless [`streaming`].
pub fn sink_degraded(target: &str, retries: u64, error: &str) {
    let Some(ctx) = context::streaming_ctx() else {
        return;
    };
    ctx.emit(EventKind::SinkDegraded {
        target: target.to_owned(),
        retries,
        error: error.to_owned(),
    });
}

/// Emission hook for a live phase re-formation. No-op unless
/// [`streaming`].
pub fn phase_reformed(units: u64, old_k: u64, new_k: u64, drift: f64) {
    let Some(ctx) = context::streaming_ctx() else {
        return;
    };
    ctx.emit(EventKind::PhaseReformed { units, old_k, new_k, drift });
}

/// Emission hook for the live analyzer's early stop. No-op unless
/// [`streaming`].
pub fn early_stop(units: u64, half_width: f64, target: f64) {
    let Some(ctx) = context::streaming_ctx() else {
        return;
    };
    ctx.emit(EventKind::EarlyStop { units, half_width, target });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_carry_increasing_seq_and_flat_schema() {
        let ctx = crate::ObsContext::new();
        let _installed = ctx.install();
        let store = Arc::new(Mutex::new(Vec::new()));
        install(Box::new(CollectSink(Arc::clone(&store))));
        {
            let _s = crate::span!("evt.outer");
            crate::counter_add("evt.count", 3);
        }
        assert!(uninstall());
        ctx.stop();

        let events = store.lock().unwrap();
        assert!(events.len() >= 3, "open + counter + close");
        for w in events.windows(2) {
            assert!(w[1].seq > w[0].seq, "seq strictly increasing");
            assert!(w[1].ts_us >= w[0].ts_us, "ts non-decreasing");
        }
        let kinds: Vec<&str> = events.iter().map(|e| e.kind.label()).collect();
        assert!(kinds.contains(&"span_open"));
        assert!(kinds.contains(&"span_close"));
        assert!(kinds.contains(&"counter"));

        let mut line = String::new();
        events[0].write_json_line(&mut line);
        let flat: Value = serde_json::from_str(&line).expect("a line is one JSON object");
        let obj = flat.as_object().expect("flat object");
        for key in ["v", "seq", "ts_us", "kind"] {
            assert!(obj.iter().any(|(k, _)| k == key), "missing envelope key {key}");
        }
    }

    #[test]
    fn no_sink_means_no_streaming() {
        // A recording context with no sink: hooks are no-ops.
        let ctx = crate::ObsContext::new();
        let _installed = ctx.install();
        assert!(!streaming());
        fault_event("engine.faults.crash", Value::Null);
        unit_closed(1, 2, 3, 4, false);
        assert!(!uninstall(), "nothing was installed");
    }

    #[test]
    fn jsonl_writer_produces_parseable_lines() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("simprof_events_test_{}.jsonl", std::process::id()));
        let ctx = crate::ObsContext::new();
        let _installed = ctx.install();
        install(Box::new(JsonlEventWriter::create(&path).expect("create log")));
        {
            let _s = crate::span!("evt.jsonl");
        }
        ctx.stop();

        let text = std::fs::read_to_string(&path).expect("read log");
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 3, "meta + open + close, got {}", lines.len());
        let first: Value = serde_json::from_str(lines[0]).unwrap();
        let obj = first.as_object().unwrap();
        assert!(obj.iter().any(|(k, v)| k == "kind" && v.as_str() == Some("meta")));
        for line in &lines {
            let v: Value = serde_json::from_str(line).expect("valid JSON line");
            assert!(v.as_object().is_some());
        }
    }
}
