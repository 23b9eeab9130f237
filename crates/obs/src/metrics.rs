//! The metrics registry: named counters, gauges, histograms, and
//! ring-buffer time series.
//!
//! Metrics are write-only from the pipeline's point of view: hot paths
//! record (`counter_add`, `gauge_set`, `histogram_observe`,
//! `timeseries_push`) and only the context-ending report ever reads.
//! Nothing in the sampling pipeline consults a metric, which is what keeps
//! the determinism contract intact (DESIGN.md §11).
//!
//! Each [`crate::ObsContext`] owns its own `MetricsStore`; the free
//! functions here resolve the calling thread's current context, so two
//! concurrent jobs tally into disjoint registries.
//!
//! Histograms are [`Log2Histogram`]s, so snapshots carry p50/p95/p99
//! quantile estimates (within one log2 bucket width of exact). Time
//! series are bounded ring buffers ([`RING_CAP`] samples): pushes past
//! the cap overwrite the oldest sample, so a long run keeps its most
//! recent trajectory at fixed memory cost.
//!
//! With no recording context every call is a single relaxed atomic load.
//! When an event sink is installed on the resolved context,
//! counter/gauge/histogram writes also stream [`crate::events::EventKind`]
//! records.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

use serde::{Deserialize, Serialize};

use crate::context;
use crate::events::EventKind;
use crate::hist::Log2Histogram;
use crate::span;

enum Metric {
    Counter(u64),
    Gauge(f64),
    Histogram(Log2Histogram),
}

/// Capacity of each time-series ring buffer. Once a series has this many
/// samples, each push drops the oldest.
pub const RING_CAP: usize = 512;

/// A time-series ring buffer: most recent [`RING_CAP`] samples plus the
/// total number of pushes ever made.
struct Ring {
    total: u64,
    /// Physical buffer; once full, `next` is the logical start.
    buf: Vec<TimePoint>,
    next: usize,
}

impl Ring {
    fn push(&mut self, sample: TimePoint) {
        self.total += 1;
        if self.buf.len() < RING_CAP {
            self.buf.push(sample);
        } else {
            self.buf[self.next] = sample;
            self.next = (self.next + 1) % RING_CAP;
        }
    }

    fn snapshot(&self) -> TimeSeries {
        let mut samples = Vec::with_capacity(self.buf.len());
        samples.extend_from_slice(&self.buf[self.next..]);
        samples.extend_from_slice(&self.buf[..self.next]);
        TimeSeries { total: self.total, samples }
    }
}

/// One context's metric state: the registry (counters, gauges,
/// histograms) plus its time-series rings.
pub(crate) struct MetricsStore {
    registry: Mutex<BTreeMap<String, Metric>>,
    series: Mutex<BTreeMap<String, Ring>>,
}

impl MetricsStore {
    pub(crate) fn new() -> Self {
        Self { registry: Mutex::new(BTreeMap::new()), series: Mutex::new(BTreeMap::new()) }
    }

    fn registry_lock(&self) -> MutexGuard<'_, BTreeMap<String, Metric>> {
        self.registry.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn series_lock(&self) -> MutexGuard<'_, BTreeMap<String, Ring>> {
        self.series.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Adds `delta` to the named counter, returning the running total.
    fn counter_add(&self, name: &str, delta: u64) -> u64 {
        let mut reg = self.registry_lock();
        match reg.get_mut(name) {
            Some(Metric::Counter(v)) => {
                *v += delta;
                *v
            }
            _ => {
                reg.insert(name.to_owned(), Metric::Counter(delta));
                delta
            }
        }
    }

    fn gauge_set(&self, name: &str, value: f64) {
        self.registry_lock().insert(name.to_owned(), Metric::Gauge(value));
    }

    fn histogram_observe(&self, name: &str, value: f64) {
        let mut reg = self.registry_lock();
        match reg.get_mut(name) {
            Some(Metric::Histogram(h)) => h.observe(value),
            _ => {
                let mut h = Log2Histogram::new();
                h.observe(value);
                reg.insert(name.to_owned(), Metric::Histogram(h));
            }
        }
    }

    fn timeseries_push(&self, name: &str, value: f64) {
        let mut series = self.series_lock();
        // Stamp under the lock so each series' timestamps are
        // non-decreasing even when threads race to push.
        let sample = TimePoint { ts_us: span::now_us(), value };
        match series.get_mut(name) {
            Some(ring) => ring.push(sample),
            None => {
                let mut ring = Ring { total: 0, buf: Vec::new(), next: 0 };
                ring.push(sample);
                series.insert(name.to_owned(), ring);
            }
        }
    }

    /// Copies the store into a serializable snapshot.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let reg = self.registry_lock();
        let mut snap = MetricsSnapshot::default();
        for (name, metric) in reg.iter() {
            match metric {
                Metric::Counter(v) => {
                    snap.counters.insert(name.clone(), *v);
                }
                Metric::Gauge(v) => {
                    snap.gauges.insert(name.clone(), *v);
                }
                Metric::Histogram(h) => {
                    snap.histograms.insert(name.clone(), HistogramSummary::of(h));
                }
            }
        }
        drop(reg);
        for (name, ring) in self.series_lock().iter() {
            snap.timeseries.insert(name.clone(), ring.snapshot());
        }
        snap
    }
}

/// Adds `delta` to the named counter (creating it at zero first) in the
/// calling thread's current context. Counters are monotone event tallies:
/// units profiled, faults injected….
pub fn counter_add(name: &str, delta: u64) {
    let Some(ctx) = context::current_recording() else {
        return;
    };
    let total = ctx.inner().metrics.counter_add(name, delta);
    if ctx.streaming() {
        ctx.emit(EventKind::Counter { name: name.to_owned(), delta, total });
    }
}

/// Sets the named gauge to `value` (last write wins) in the current
/// context. Gauges are point-in-time levels: chosen k, worker count,
/// trace size….
pub fn gauge_set(name: &str, value: f64) {
    let Some(ctx) = context::current_recording() else {
        return;
    };
    ctx.inner().metrics.gauge_set(name, value);
    if ctx.streaming() {
        ctx.emit(EventKind::Gauge { name: name.to_owned(), value });
    }
}

/// Folds `value` into the named [`Log2Histogram`] of the current context.
/// Histograms summarize per-event magnitudes: iterations per k-means run,
/// instructions per task….
pub fn histogram_observe(name: &str, value: f64) {
    let Some(ctx) = context::current_recording() else {
        return;
    };
    ctx.inner().metrics.histogram_observe(name, value);
    if ctx.streaming() {
        ctx.emit(EventKind::Hist { name: name.to_owned(), value });
    }
}

/// Appends a `(now, value)` sample to the named time series of the
/// current context, dropping the oldest sample once the ring holds
/// [`RING_CAP`]. Series trace levels over time: cumulative units closed,
/// live heap bytes….
pub fn timeseries_push(name: &str, value: f64) {
    let Some(ctx) = context::current_recording() else {
        return;
    };
    ctx.inner().metrics.timeseries_push(name, value);
}

/// Aggregated view of one histogram in a [`MetricsSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Number of observations folded in.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: f64,
    /// Smallest observed value.
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
    /// `sum / count`.
    pub mean: f64,
    /// Estimated median (within one log2 bucket width of exact).
    #[serde(default)]
    pub p50: f64,
    /// Estimated 95th percentile (same error bound).
    #[serde(default)]
    pub p95: f64,
    /// Estimated 99th percentile (same error bound).
    #[serde(default)]
    pub p99: f64,
}

impl HistogramSummary {
    /// Summarizes a [`Log2Histogram`].
    pub fn of(h: &Log2Histogram) -> Self {
        Self {
            count: h.count(),
            sum: h.sum(),
            min: h.min(),
            max: h.max(),
            mean: h.mean(),
            p50: h.quantile(0.50),
            p95: h.quantile(0.95),
            p99: h.quantile(0.99),
        }
    }
}

/// One `(timestamp, value)` sample of a time series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimePoint {
    /// Microseconds since the process span epoch.
    pub ts_us: u64,
    /// The sampled level.
    pub value: f64,
}

/// Snapshot of one time-series ring buffer: chronological samples plus
/// the total push count (which exceeds `samples.len()` once the ring has
/// wrapped).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    /// Samples ever pushed (including overwritten ones).
    pub total: u64,
    /// The most recent samples, oldest first.
    pub samples: Vec<TimePoint>,
}

/// A point-in-time copy of one context's whole registry, grouped by
/// metric kind.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// All counters, by name.
    pub counters: BTreeMap<String, u64>,
    /// All gauges, by name.
    pub gauges: BTreeMap<String, f64>,
    /// All histograms, by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
    /// All time series, by name (absent in version-1 reports).
    #[serde(default)]
    pub timeseries: BTreeMap<String, TimeSeries>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_serde_roundtrip() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("a.count".into(), 42);
        snap.gauges.insert("b.level".into(), 1.5);
        snap.histograms.insert(
            "c.sizes".into(),
            HistogramSummary {
                count: 3,
                sum: 6.0,
                min: 1.0,
                max: 3.0,
                mean: 2.0,
                p50: 2.0,
                p95: 3.0,
                p99: 3.0,
            },
        );
        snap.timeseries.insert(
            "d.series".into(),
            TimeSeries { total: 2, samples: vec![TimePoint { ts_us: 1, value: 0.5 }] },
        );
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn version1_snapshot_without_new_fields_still_parses() {
        // A report written before quantiles/time series existed must load.
        let json = r#"{"counters":{"a":1},"gauges":{},"histograms":{"h":{"count":1,"sum":2.0,"min":2.0,"max":2.0,"mean":2.0}}}"#;
        let snap: MetricsSnapshot = serde_json::from_str(json).unwrap();
        assert_eq!(snap.counters["a"], 1);
        assert_eq!(snap.histograms["h"].p50, 0.0, "absent quantiles default");
        assert!(snap.timeseries.is_empty());
    }

    #[test]
    fn metric_kind_change_replaces_cleanly() {
        // A name reused with a different kind must not corrupt the
        // registry (last kind wins). Run inside a private context.
        let ctx = crate::ObsContext::new();
        let _installed = ctx.install();
        counter_add("shape.shift", 2);
        gauge_set("shape.shift", 9.0);
        let snap = ctx.finish_report();
        assert!(!snap.metrics.counters.contains_key("shape.shift"));
        assert_eq!(snap.metrics.gauges["shape.shift"], 9.0);
    }

    #[test]
    fn histogram_snapshot_carries_quantiles() {
        let ctx = crate::ObsContext::new();
        let _installed = ctx.install();
        for v in [1.0, 1.5, 3.0, 9.0, 40.0] {
            histogram_observe("q.sizes", v);
        }
        let snap = ctx.finish_report();
        let h = &snap.metrics.histograms["q.sizes"];
        assert_eq!(h.count, 5);
        // p50 targets the 3rd smallest (3.0, bucket [2,4)): upper edge 4.
        assert_eq!(h.p50, 4.0);
        // p99 targets the 5th (40.0, bucket [32,64)): 64 clamps to max.
        assert_eq!(h.p99, 40.0);
    }

    #[test]
    fn timeseries_ring_keeps_most_recent_samples() {
        let ctx = crate::ObsContext::new();
        let _installed = ctx.install();
        let n = RING_CAP + 7;
        for i in 0..n {
            timeseries_push("ring.series", i as f64);
        }
        let snap = ctx.finish_report();
        let ts = &snap.metrics.timeseries["ring.series"];
        assert_eq!(ts.total, n as u64);
        assert_eq!(ts.samples.len(), RING_CAP);
        assert_eq!(ts.samples[0].value, 7.0, "oldest 7 samples dropped");
        assert_eq!(ts.samples[RING_CAP - 1].value, (n - 1) as f64);
        for w in ts.samples.windows(2) {
            assert!(w[1].ts_us >= w[0].ts_us, "chronological order");
        }
    }
}
