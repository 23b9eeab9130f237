//! The traced run's in-memory span store, its self-time fold, and the
//! Chrome-trace export.
//!
//! Spans come from two places. The benchmark's own stage spans bracket
//! each call it makes into a layer (`profile`, `trace.open`,
//! `core.analyze`, …). Where a layer sits *inside* one public call — the
//! engine inside `run_full_with_sinks`, stats inside `analyze_stream` —
//! the program's existing spans are folded in from the op's
//! [`simprof_obs::RunReport`]. Two spans are aggregates of many short
//! calls made through the benchmark's timing wrappers (`trace.write` sums
//! every `accept`, `trace.read` every `rewind`/`next_unit`); they carry a
//! call count and are drawn from their first call.

use std::time::Instant;

use serde_json::{json, Value};
use simprof_obs::{RunReport, SpanNode};

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index in the store.
    pub id: usize,
    /// Enclosing span, if any.
    pub parent: Option<usize>,
    /// Id shared by every span of one op.
    pub op: u64,
    /// Layer-qualified name.
    pub name: String,
    /// Start, microseconds since the store's epoch.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Calls folded into the span (1 unless it is an aggregate).
    pub calls: u64,
    /// Timeline track (0 = the benchmark's thread, 1 = aggregates,
    /// 2 + w = service worker `w`).
    pub track: usize,
}

/// Every span of a traced run, kept in memory until the run ends.
#[derive(Debug, Clone)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    next_op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self { epoch: Instant::now(), spans: Vec::new(), next_op: 0 }
    }
}

/// Track holding aggregate spans.
pub const AGGREGATE_TRACK: usize = 1;

impl Tracer {
    /// A fresh op id.
    pub fn new_op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    /// Microseconds from the epoch to `t`.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Records a span and returns its id.
    #[allow(clippy::too_many_arguments)]
    pub fn push(
        &mut self,
        op: u64,
        parent: Option<usize>,
        name: &str,
        start_us: f64,
        dur_us: f64,
        calls: u64,
        track: usize,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            op,
            name: name.to_owned(),
            start_us,
            dur_us,
            calls,
            track,
        });
        id
    }

    /// Records the interval `[start, end]` on the benchmark's track.
    pub fn interval(
        &mut self,
        op: u64,
        parent: Option<usize>,
        name: &str,
        start: Instant,
        end: Instant,
    ) -> usize {
        let start_us = self.at(start);
        let dur_us = end.saturating_duration_since(start).as_secs_f64() * 1e6;
        self.push(op, parent, name, start_us, dur_us, 1, 0)
    }

    /// Folds the report's spans named in `wanted` under `parent`. `base_us`
    /// is where the report's time origin (its earliest span) sits on this
    /// store's clock; `track` is the timeline track to draw them on.
    /// Returns `(name, id)` for every folded span, in report order.
    pub fn fold_report(
        &mut self,
        op: u64,
        parent: usize,
        report: &RunReport,
        base_us: f64,
        wanted: &[&str],
        track: usize,
    ) -> Vec<(String, usize)> {
        fn walk(nodes: &[SpanNode], out: &mut Vec<(String, u64, u64)>, wanted: &[&str]) {
            for n in nodes {
                if wanted.contains(&n.name.as_str()) {
                    out.push((n.name.clone(), n.start_us, n.elapsed_us));
                }
                walk(&n.children, out, wanted);
            }
        }
        let mut found = Vec::new();
        walk(&report.spans, &mut found, wanted);
        found
            .into_iter()
            .map(|(name, start, elapsed)| {
                let id = self.push(
                    op,
                    Some(parent),
                    &name,
                    base_us + start as f64,
                    elapsed as f64,
                    1,
                    track,
                );
                (name, id)
            })
            .collect()
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the time its children
    /// cover (clamped at zero), indexed like [`Tracer::spans`].
    pub fn self_times(&self) -> Vec<f64> {
        let mut child_sum = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_sum[p] += s.dur_us;
            }
        }
        self.spans.iter().map(|s| (s.dur_us - child_sum[s.id]).max(0.0)).collect()
    }

    /// Sum of the self times of every span below `root` (the root's own
    /// self time excluded), in microseconds: the op time the layer spans
    /// account for.
    pub fn attributed_us(&self, root: usize, self_times: &[f64]) -> f64 {
        let mut below = vec![false; self.spans.len()];
        let mut total = 0.0;
        // Parents are always recorded before their children.
        for s in &self.spans[root + 1..] {
            if let Some(p) = s.parent {
                if p == root || below[p] {
                    below[s.id] = true;
                    total += self_times[s.id];
                }
            }
        }
        total
    }

    /// The spans as Chrome-trace (`chrome://tracing`, Perfetto) events on
    /// process row `pid`, named `process`: one complete (`X`) event per
    /// span, `args` carrying the op id, span id, parent and call count.
    pub fn chrome_events(&self, pid: usize, process: &str) -> Vec<Value> {
        let mut events = vec![
            metadata("process_name", pid, 0, process),
            metadata("thread_name", pid, 0, "benchmark"),
            metadata("thread_name", pid, AGGREGATE_TRACK, "aggregated calls"),
        ];
        let mut workers: Vec<usize> =
            self.spans.iter().map(|s| s.track).filter(|&t| t > AGGREGATE_TRACK).collect();
        workers.sort_unstable();
        workers.dedup();
        for t in workers {
            events.push(metadata("thread_name", pid, t, &format!("service worker {}", t - 2)));
        }
        for s in &self.spans {
            events.push(json!({
                "name": s.name,
                "ph": "X",
                "ts": s.start_us,
                "dur": s.dur_us,
                "pid": pid,
                "tid": s.track,
                "args": json!({
                    "op": s.op,
                    "span": s.id,
                    "parent": s.parent.map(|p| p as u64),
                    "calls": s.calls,
                }),
            }));
        }
        events
    }
}

fn metadata(kind: &str, pid: usize, tid: usize, name: &str) -> Value {
    json!({"name": kind, "ph": "M", "pid": pid, "tid": tid, "args": json!({"name": name})})
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_attribution_skips_the_root() {
        let mut t = Tracer::default();
        let op = t.new_op();
        let root = t.push(op, None, "op", 0.0, 100.0, 1, 0);
        let a = t.push(op, Some(root), "a", 0.0, 60.0, 1, 0);
        t.push(op, Some(a), "a.child", 10.0, 25.0, 1, 0);
        t.push(op, Some(root), "b", 60.0, 35.0, 1, 0);
        let op2 = t.new_op();
        let other = t.push(op2, None, "op", 100.0, 50.0, 1, 0);
        t.push(op2, Some(other), "c", 100.0, 50.0, 1, 0);

        let selfs = t.self_times();
        assert_eq!(selfs, vec![5.0, 35.0, 25.0, 35.0, 0.0, 50.0]);
        assert_eq!(t.attributed_us(root, &selfs), 95.0, "a + a.child + b, not the other op");
    }

    #[test]
    fn chrome_trace_emits_one_complete_event_per_span() {
        let mut t = Tracer::default();
        let op = t.new_op();
        let root = t.push(op, None, "op", 0.0, 10.0, 1, 0);
        t.push(op, Some(root), "trace.write", 1.0, 2.0, 40, AGGREGATE_TRACK);
        t.push(op, Some(root), "service.job", 1.0, 2.0, 1, 3);
        let events = t.chrome_events(7, "serve_fleet");
        let complete: Vec<&Value> =
            events.iter().filter(|e| e.get("ph").and_then(Value::as_str) == Some("X")).collect();
        assert_eq!(complete.len(), 3);
        let agg = complete[1].get("args").unwrap();
        assert_eq!(agg.get("calls").and_then(Value::as_u64), Some(40));
        assert_eq!(agg.get("parent").and_then(Value::as_u64), Some(root as u64));
        assert!(events.iter().all(|e| e.get("pid").and_then(Value::as_u64) == Some(7)));
        assert_eq!(events.len(), 3 + 4, "process name, two fixed tracks and one worker track");
    }
}
