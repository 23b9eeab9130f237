//! Chrome-trace / Perfetto timeline export.
//!
//! [`chrome_trace`] converts a [`RunReport`] into the Trace Event JSON
//! format that `chrome://tracing` and [Perfetto](https://ui.perfetto.dev)
//! load directly:
//!
//! * every span becomes a `ph: "B"` / `ph: "E"` slice pair on its
//!   thread's track (`tid` = the obs thread id, so rayon-shim worker
//!   spans land on their own rows instead of vanishing),
//! * every thread gets a `ph: "M"` `thread_name` metadata record
//!   (`main` for thread 0, `worker-N` otherwise),
//! * every time series in the metrics snapshot becomes a `ph: "C"`
//!   counter track (quanta, cumulative units, live heap bytes…).
//!
//! Timestamps are microseconds (the format's native unit) re-based to the
//! session's first span. Emission walks each thread's spans in entry
//! order, closing every slice before its next sibling opens, so B/E pairs
//! are balanced and properly nested per `tid` by construction —
//! `report_check` re-validates this on every CI run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use serde::json::{write_f64, write_str};

use crate::report::{RunReport, SpanNode};

/// The fixed `pid` for the whole (single-process) run.
const PID: u64 = 1;

/// Starts the next object of the `traceEvents` array:
/// `{"name":…[,"cat":…],"ph":…,"ts":…,"pid":1[,"tid":…]`, left open for
/// the caller's `args` and closing brace.
fn event(out: &mut String, name: &str, cat: Option<&str>, ph: &str, ts: u64, tid: Option<usize>) {
    if !out.ends_with('[') {
        out.push(',');
    }
    out.push_str("{\"name\":");
    write_str(out, name);
    if let Some(cat) = cat {
        out.push_str(",\"cat\":");
        write_str(out, cat);
    }
    let _ = write!(out, ",\"ph\":\"{ph}\",\"ts\":{ts},\"pid\":{PID}");
    if let Some(tid) = tid {
        let _ = write!(out, ",\"tid\":{tid}");
    }
}

/// A `ph: "M"` `thread_name` record labelling track `tid`.
fn thread_name(out: &mut String, tid: usize, label: &str) {
    event(out, "thread_name", None, "M", 0, Some(tid));
    out.push_str(",\"args\":{\"name\":");
    write_str(out, label);
    out.push_str("}}");
}

/// Opens a Trace Event document at its `traceEvents` array.
fn open_doc() -> String {
    String::from("{\"traceEvents\":[")
}

/// Closes the `traceEvents` array and the document, whose `otherData`
/// carries `generator` plus `more` (pre-rendered `,"key":value` text).
fn close_doc(mut out: String, more: &str) -> String {
    let _ = write!(
        out,
        "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"generator\":\"simprof-obs\"{more}}}}}"
    );
    out
}

/// Emits the `B`/`E` pair for `node` and, between them, its children.
///
/// `cursor` is the thread's emission clock: every emitted timestamp is
/// clamped to be ≥ the previous one on the same `tid`, so clock-granularity
/// artifacts (a child's recorded end landing a microsecond past its
/// parent's) can never produce an out-of-order or mis-nested stream.
fn emit_span(node: &SpanNode, cursor: &mut u64, out: &mut String) {
    let start = node.start_us.max(*cursor);
    *cursor = start;
    event(out, &node.name, Some("span"), "B", start, Some(node.thread));
    out.push('}');
    for child in &node.children {
        emit_span(child, cursor, out);
    }
    let end = (node.start_us + node.elapsed_us).max(*cursor);
    *cursor = end;
    event(out, &node.name, None, "E", end, Some(node.thread));
    out.push('}');
}

/// Renders a run report as a Trace Event JSON document
/// (`{"traceEvents": [...]}`).
pub fn chrome_trace(report: &RunReport) -> String {
    let mut out = open_doc();

    // Group root spans by thread, preserving entry order within each.
    let mut roots_by_thread: BTreeMap<usize, Vec<&SpanNode>> = BTreeMap::new();
    for root in &report.spans {
        roots_by_thread.entry(root.thread).or_default().push(root);
    }

    // Thread-name metadata first, one per track.
    for &thread in roots_by_thread.keys() {
        let label = if thread == 0 { "main".to_owned() } else { format!("worker-{thread}") };
        thread_name(&mut out, thread, &label);
    }

    // Slices: per thread, roots in entry order. Sibling roots are emitted
    // open-to-close sequentially, so each tid's B/E stream stays nested.
    for roots in roots_by_thread.values() {
        let mut cursor = 0u64;
        for root in roots {
            emit_span(root, &mut cursor, &mut out);
        }
    }

    // Counter tracks from the time-series snapshot.
    for (name, series) in &report.metrics.timeseries {
        for sample in &series.samples {
            event(&mut out, name, None, "C", sample.ts_us, None);
            out.push_str(",\"args\":{\"value\":");
            write_f64(&mut out, sample.value);
            out.push_str("}}");
        }
    }

    close_doc(out, &format!(",\"report_version\":{}", report.version))
}

/// Writes [`chrome_trace`] to a file.
pub fn write_chrome_trace(report: &RunReport, path: &Path) -> Result<(), String> {
    write_timeline_doc(chrome_trace(report), path)
}

/// One job laid out on a worker's track of a fleet timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSlice {
    /// Slice label (the job id).
    pub name: String,
    /// 0-based worker-thread index the job ran on (the `tid`).
    pub worker: usize,
    /// Microseconds from the service clock's epoch to job start.
    pub start_us: u64,
    /// Microseconds from the epoch to job end (clamped up to
    /// `start_us` if a scripted clock makes them equal or inverted).
    pub end_us: u64,
}

/// Renders a fleet's job slices as a Trace Event JSON document: one
/// track per worker thread, one `B`/`E` slice pair per job. Jobs on the
/// same worker ran sequentially, so sorting each track by start time
/// yields balanced, non-overlapping slices; the same cursor clamp as
/// [`chrome_trace`] absorbs any clock-granularity overlap.
pub fn fleet_chrome_trace(slices: &[JobSlice]) -> String {
    let mut by_worker: BTreeMap<usize, Vec<&JobSlice>> = BTreeMap::new();
    for slice in slices {
        by_worker.entry(slice.worker).or_default().push(slice);
    }
    let mut out = open_doc();
    for &worker in by_worker.keys() {
        thread_name(&mut out, worker, &format!("worker-{worker}"));
    }
    for track in by_worker.values_mut() {
        track.sort_by_key(|s| s.start_us);
        let mut cursor = 0u64;
        for job in track.iter() {
            let start = job.start_us.max(cursor);
            let end = job.end_us.max(start);
            cursor = end;
            event(&mut out, &job.name, Some("job"), "B", start, Some(job.worker));
            out.push('}');
            event(&mut out, &job.name, None, "E", end, Some(job.worker));
            out.push('}');
        }
    }
    close_doc(out, "")
}

/// Writes [`fleet_chrome_trace`] to a file.
pub fn write_fleet_timeline(slices: &[JobSlice], path: &Path) -> Result<(), String> {
    write_timeline_doc(fleet_chrome_trace(slices), path)
}

fn write_timeline_doc(doc: String, path: &Path) -> Result<(), String> {
    std::fs::write(path, doc + "\n")
        .map_err(|e| format!("cannot write timeline {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    use crate::metrics::{MetricsSnapshot, TimePoint, TimeSeries};
    use crate::span::SpanRecord;

    fn record(
        id: u64,
        parent: Option<u64>,
        name: &str,
        thread: usize,
        start_us: u64,
    ) -> SpanRecord {
        SpanRecord { id, parent, name: name.to_owned(), thread, start_us, elapsed_us: 10 }
    }

    fn field<'a>(event: &'a Value, key: &str) -> &'a Value {
        event.get(key).unwrap_or_else(|| panic!("event missing key {key}"))
    }

    #[test]
    fn spans_become_balanced_nested_slices_per_tid() {
        let records = vec![
            record(1, None, "root", 0, 100),
            record(2, Some(1), "child", 0, 103),
            record(3, None, "worker_task", 1, 105),
        ];
        let mut metrics = MetricsSnapshot::default();
        metrics.timeseries.insert(
            "profiler.units_total".into(),
            TimeSeries {
                total: 2,
                samples: vec![
                    TimePoint { ts_us: 4, value: 1.0 },
                    TimePoint { ts_us: 8, value: 2.0 },
                ],
            },
        );
        let report = RunReport::assemble(records, metrics);
        let doc: Value = serde_json::from_str(&chrome_trace(&report)).unwrap();
        let events = doc.get("traceEvents").and_then(Value::as_array).expect("traceEvents");

        // Per-tid B/E balance with LIFO nesting.
        let mut stacks: BTreeMap<u64, Vec<String>> = BTreeMap::new();
        let mut counters = 0usize;
        let mut metas = 0usize;
        for e in events {
            let ph = field(e, "ph").as_str().unwrap();
            match ph {
                "B" => {
                    let tid = field(e, "tid").as_u64().unwrap();
                    let name = field(e, "name").as_str().unwrap().to_owned();
                    stacks.entry(tid).or_default().push(name);
                }
                "E" => {
                    let tid = field(e, "tid").as_u64().unwrap();
                    let name = field(e, "name").as_str().unwrap();
                    assert_eq!(stacks.get_mut(&tid).and_then(Vec::pop).as_deref(), Some(name));
                }
                "C" => counters += 1,
                "M" => metas += 1,
                other => panic!("unexpected ph {other}"),
            }
        }
        assert!(stacks.values().all(Vec::is_empty), "balanced B/E per tid");
        assert_eq!(counters, 2, "one C event per time-series sample");
        assert_eq!(metas, 2, "thread_name metadata for both tids");

        // Worker slice present on its own tid.
        assert!(events.iter().any(|e| {
            field(e, "ph").as_str() == Some("B")
                && field(e, "name").as_str() == Some("worker_task")
                && field(e, "tid").as_u64() == Some(1)
        }));
    }

    #[test]
    fn fleet_slices_land_on_worker_tracks_balanced() {
        let slices = vec![
            JobSlice { name: "job-b".into(), worker: 1, start_us: 5, end_us: 9 },
            JobSlice { name: "job-a".into(), worker: 0, start_us: 0, end_us: 7 },
            // Scripted clocks can collapse start == end; still balanced.
            JobSlice { name: "job-c".into(), worker: 0, start_us: 7, end_us: 7 },
        ];
        let doc: Value = serde_json::from_str(&fleet_chrome_trace(&slices)).unwrap();
        let events = doc.get("traceEvents").and_then(Value::as_array).expect("traceEvents");
        let mut stacks: BTreeMap<u64, Vec<String>> = BTreeMap::new();
        let mut metas = 0usize;
        for e in events {
            match field(e, "ph").as_str().unwrap() {
                "M" => metas += 1,
                "B" => stacks
                    .entry(field(e, "tid").as_u64().unwrap())
                    .or_default()
                    .push(field(e, "name").as_str().unwrap().to_owned()),
                "E" => {
                    let tid = field(e, "tid").as_u64().unwrap();
                    let name = field(e, "name").as_str().unwrap();
                    assert_eq!(stacks.get_mut(&tid).and_then(Vec::pop).as_deref(), Some(name));
                }
                other => panic!("unexpected ph {other}"),
            }
        }
        assert_eq!(metas, 2, "one thread_name per worker track");
        assert!(stacks.values().all(Vec::is_empty), "balanced B/E per worker");
    }

    #[test]
    fn child_end_never_exceeds_parent_slice() {
        // Clock granularity can make a child's recorded end land past its
        // parent's; the parent's E must still close after the child's.
        let mut parent = record(1, None, "p", 0, 0);
        parent.elapsed_us = 5;
        let mut child = record(2, Some(1), "c", 0, 2);
        child.elapsed_us = 9; // ends at 11 > parent's own 5
        let report = RunReport::assemble(vec![parent, child], MetricsSnapshot::default());
        let doc: Value = serde_json::from_str(&chrome_trace(&report)).unwrap();
        let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
        let ends: Vec<(String, u64)> = events
            .iter()
            .filter(|e| field(e, "ph").as_str() == Some("E"))
            .map(|e| {
                (field(e, "name").as_str().unwrap().to_owned(), field(e, "ts").as_u64().unwrap())
            })
            .collect();
        assert_eq!(ends, vec![("c".to_owned(), 11), ("p".to_owned(), 11)]);
    }
}
