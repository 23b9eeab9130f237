//! Shared measurement plumbing: op timelines, the timing wrappers the
//! traced run puts around layer calls, the per-op observability scope, and
//! the folds that turn per-op samples into reported metrics.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

use simprof_core::{coverage, relative_error, Analysis};
use simprof_engine::MethodRegistry;
use simprof_obs::{ContextGuard, ObsContext, RunReport, SpanGuard, SpanNode};
use simprof_profiler::{SamplingUnit, UnitSink, UnitStream};
use simprof_sim::Machine;
use simprof_stats::split_seed;
use simprof_trace::TraceReader;
use simprof_workloads::{WorkloadConfig, WorkloadId};

use crate::spans::{Tracer, AGGREGATE_TRACK};
use crate::stats;

/// Simulation points selected per op (`simprof select`'s default `-n`).
pub const POINTS: usize = 20;
/// z-score of the op's own estimate (`simprof select`'s default `--z`).
pub const SELECT_Z: f64 = 3.0;
/// Salt `simprof select` derives its point-selection seed with.
pub const SELECT_SALT: u64 = 0x5E1E;
/// Replays per op behind the interval metrics (`ci_*`).
pub const COVERAGE_REPS: usize = 50;
/// z-score of the replayed intervals.
pub const COVERAGE_Z: f64 = 1.96;

const MIB: f64 = (1u64 << 20) as f64;

/// One reported value with the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    /// The value, in the unit `BENCHMARK.json` declares for the metric.
    pub value: f64,
    /// Samples the value summarizes.
    pub samples: usize,
}

/// Reported metrics by name.
pub type Metrics = BTreeMap<String, Measured>;

/// Contiguous stages of one op: each [`Timeline::mark`] closes the stage
/// that began at the previous mark, so the stages partition the op.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// When the op began.
    pub start: Instant,
    /// `(stage name, end)` in order.
    pub marks: Vec<(&'static str, Instant)>,
}

impl Timeline {
    /// Starts the clock.
    pub fn start() -> Self {
        Self { start: Instant::now(), marks: Vec::with_capacity(8) }
    }

    /// Closes the current stage under `name`.
    pub fn mark(&mut self, name: &'static str) {
        self.marks.push((name, Instant::now()));
    }

    /// When the last stage closed.
    pub fn end(&self) -> Instant {
        self.marks.last().map_or(self.start, |&(_, t)| t)
    }

    /// The op's latency in milliseconds.
    pub fn ms(&self) -> f64 {
        ms(self.end() - self.start)
    }

    /// `(name, start, end)` per stage.
    pub fn stages(&self) -> impl Iterator<Item = (&'static str, Instant, Instant)> + '_ {
        let starts = std::iter::once(self.start).chain(self.marks.iter().map(|&(_, t)| t));
        self.marks.iter().zip(starts).map(|(&(name, end), start)| (name, start, end))
    }

    /// Duration of the stage named `name` in milliseconds (0 if absent).
    pub fn stage_ms(&self, name: &str) -> f64 {
        self.stages().filter(|s| s.0 == name).map(|(_, a, b)| ms(b - a)).sum()
    }

    /// Records the op root over `[outer_start, outer_end]` — the whole
    /// call, measured outside the stages — and every stage below it;
    /// returns `(root id, stage name → span id)`.
    pub fn record(
        &self,
        tracer: &mut Tracer,
        op: u64,
        name: &str,
        outer: (Instant, Instant),
    ) -> (usize, BTreeMap<&'static str, usize>) {
        let root = tracer.interval(op, None, name, outer.0, outer.1);
        let ids =
            self.stages().map(|(n, a, b)| (n, tracer.interval(op, Some(root), n, a, b))).collect();
        (root, ids)
    }
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Time accumulated over many short calls, with their count.
#[derive(Debug, Clone, Default)]
pub struct Accum {
    total: Rc<Cell<Duration>>,
    calls: Rc<Cell<u64>>,
    first: Rc<Cell<Option<Instant>>>,
}

impl Accum {
    fn add(&self, started: Instant) {
        self.total.set(self.total.get() + started.elapsed());
        self.calls.set(self.calls.get() + 1);
        if self.first.get().is_none() {
            self.first.set(Some(started));
        }
    }

    /// Total time in milliseconds.
    pub fn ms(&self) -> f64 {
        ms(self.total.get())
    }

    /// Records the aggregate as one span under `parent` (drawn from the
    /// first call) if any call was made.
    pub fn record(&self, tracer: &mut Tracer, op: u64, parent: usize, name: &str) {
        if let Some(first) = self.first.get() {
            let start = tracer.at(first);
            let dur = self.total.get().as_secs_f64() * 1e6;
            tracer.push(op, Some(parent), name, start, dur, self.calls.get(), AGGREGATE_TRACK);
        }
    }
}

/// A [`UnitSink`] that forwards to `inner` and times every call.
#[derive(Debug)]
pub struct TimedSink<S> {
    inner: S,
    acc: Accum,
}

impl<S> TimedSink<S> {
    /// Wraps `inner`, adding call time to `acc`.
    pub fn new(inner: S, acc: Accum) -> Self {
        Self { inner, acc }
    }
}

impl<S: UnitSink> UnitSink for TimedSink<S> {
    fn accept(&mut self, unit: &SamplingUnit) {
        let t = Instant::now();
        self.inner.accept(unit);
        self.acc.add(t);
    }

    fn finish(&mut self) {
        let t = Instant::now();
        self.inner.finish();
        self.acc.add(t);
    }

    fn healthy(&self) -> bool {
        self.inner.healthy()
    }
}

/// A [`UnitStream`] that forwards to `inner` and times `rewind` and
/// `next_unit`.
pub struct TimedStream<'a, S> {
    inner: &'a mut S,
    acc: Accum,
}

impl<'a, S> TimedStream<'a, S> {
    /// Wraps `inner`, adding call time to `acc`.
    pub fn new(inner: &'a mut S, acc: Accum) -> Self {
        Self { inner, acc }
    }
}

impl<S: UnitStream> UnitStream for TimedStream<'_, S> {
    fn unit_instrs(&self) -> u64 {
        self.inner.unit_instrs()
    }

    fn snapshot_instrs(&self) -> u64 {
        self.inner.snapshot_instrs()
    }

    fn core(&self) -> usize {
        self.inner.core()
    }

    fn rewind(&mut self) -> Result<(), String> {
        let t = Instant::now();
        let r = self.inner.rewind();
        self.acc.add(t);
        r
    }

    fn next_unit(&mut self) -> Result<Option<&SamplingUnit>, String> {
        let t = Instant::now();
        let r = self.inner.next_unit();
        self.acc.add(t);
        r
    }
}

/// A traced op's observability window: a fresh [`ObsContext`] installed on
/// the calling thread plus a benchmark span marking where the report's
/// time origin sits on the benchmark's clock.
pub struct ObsScope {
    ctx: ObsContext,
    installed: Option<ContextGuard>,
    marker: Option<SpanGuard>,
    origin: Instant,
}

impl ObsScope {
    /// Installs a context and opens the marker span.
    pub fn begin() -> Self {
        let ctx = ObsContext::new();
        let installed = Some(ctx.install());
        let origin = Instant::now();
        let marker = Some(simprof_obs::span!("bench.op"));
        Self { ctx, installed, marker, origin }
    }

    /// Closes the window: the op's report and the instant its time origin
    /// corresponds to.
    pub fn finish(mut self) -> (RunReport, Instant) {
        self.marker.take();
        self.installed.take();
        (self.ctx.finish_report(), self.origin)
    }
}

/// Total milliseconds of every report span named `name`.
pub fn span_ms(report: &RunReport, name: &str) -> f64 {
    fn walk(nodes: &[SpanNode], name: &str) -> u64 {
        nodes
            .iter()
            .map(|n| if n.name == name { n.elapsed_us } else { 0 } + walk(&n.children, name))
            .sum()
    }
    walk(&report.spans, name) as f64 / 1e3
}

/// A counter from the report (0 when never incremented).
pub fn counter(report: &RunReport, name: &str) -> u64 {
    report.metrics.counters.get(name).copied().unwrap_or(0)
}

/// The sum of a histogram's observations (0 when never observed).
pub fn histogram_sum(report: &RunReport, name: &str) -> f64 {
    report.metrics.histograms.get(name).map_or(0.0, |h| h.sum)
}

/// Times input synthesis and job construction (`Benchmark::build` on a
/// fresh machine) as a call of its own: `(ms, instructions the job
/// describes)`.
pub fn build_ms(workload: WorkloadId, cfg: &WorkloadConfig) -> (f64, u64) {
    let started = Instant::now();
    let job = workload.benchmark.build(
        workload.framework,
        cfg,
        &mut Machine::new(cfg.machine),
        &mut MethodRegistry::new(),
    );
    (ms(started.elapsed()), job.total_instrs())
}

/// `(stored, raw)` payload bytes of a sealed trace, by streaming it once.
pub fn payload_bytes(path: &str) -> Result<(u64, u64), String> {
    let mut reader = TraceReader::open(path)?;
    reader.footer()?;
    while reader.next_unit()?.is_some() {}
    Ok(reader.payload_bytes())
}

/// Bytes of a pairwise-distance cache over `n` rows (`n² · 8`), in MiB;
/// zero below the size `choose_k` builds one for.
pub fn dist_cache_mb(n: usize) -> f64 {
    if n < 3 {
        0.0
    } else {
        (n * n * 8) as f64 / MIB
    }
}

/// Bytes as MiB.
pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / MIB
}

/// The timed loop's record for one workload.
#[derive(Debug, Clone, Default)]
pub struct OpLog {
    /// Latency of every completed op, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Wall seconds the ops (or fleets) took.
    pub busy_s: f64,
    /// Highest heap peak seen inside one op (or fleet).
    pub peak_bytes: usize,
}

impl OpLog {
    /// Records one completed op of a closed loop and the heap peak inside
    /// it.
    pub fn record(&mut self, latency_ms: f64, peak_bytes: usize) {
        self.latencies_ms.push(latency_ms);
        self.busy_s += latency_ms / 1e3;
        self.peak_bytes = self.peak_bytes.max(peak_bytes);
    }
}

/// Estimate-quality accumulators, filled outside the timed region.
#[derive(Debug, Clone, Default)]
pub struct Quality {
    err_pct: Vec<f64>,
    halfwidth_pct: Vec<f64>,
    coverage: Vec<f64>,
    points: Vec<f64>,
}

impl Quality {
    /// Adds one analyzed trace: the mean estimate error and the interval
    /// replays over the same 50 seeded selections of `n = 20` points
    /// (`z = 1.96`), and the Fig. 8 sample size for ±5 % at z = 3. Averaging
    /// the error over the replays keeps one lucky or unlucky draw from
    /// moving it.
    pub fn add(&mut self, analysis: &Analysis, seed: u64) {
        let oracle = analysis.oracle_cpi();
        let err: f64 = (0..COVERAGE_REPS as u64)
            .map(|rep| {
                let points = analysis.select_points(POINTS, split_seed(seed, rep));
                relative_error(analysis.estimate(&points, COVERAGE_Z).mean_cpi, oracle)
            })
            .sum();
        self.err_pct.push(err / COVERAGE_REPS as f64 * 100.0);
        let cov =
            coverage(analysis, POINTS, COVERAGE_Z, COVERAGE_REPS, seed, simprof_core::FLAG_BELOW);
        self.halfwidth_pct.push(cov.mean_half_width / oracle * 100.0);
        self.coverage.push(cov.overall_coverage);
        self.points.push(analysis.required_size(3.0, 0.05) as f64);
    }

    /// Mean of each accumulator as the four quality metrics.
    pub fn metrics(&self, out: &mut Metrics) {
        for (name, v) in [
            ("est_err_pct", &self.err_pct),
            ("ci_halfwidth_pct", &self.halfwidth_pct),
            ("ci_coverage", &self.coverage),
            ("points_5pct", &self.points),
        ] {
            if !v.is_empty() {
                let mean = v.iter().sum::<f64>() / v.len() as f64;
                out.insert(name.to_owned(), Measured { value: mean, samples: v.len() });
            }
        }
    }
}

/// Folds a timed loop, its set-up repetitions and its quality
/// accumulators into the end-to-end metrics. A percentile the tail rule
/// refuses is left out and its reason returned in `refused`.
pub fn end_to_end(
    log: &OpLog,
    setup_s: &[f64],
    quality: &Quality,
    refused: &mut BTreeMap<String, String>,
) -> Metrics {
    let mut out = Metrics::new();
    let n = log.latencies_ms.len();
    if log.busy_s > 0.0 {
        out.insert("ops_per_s".into(), Measured { value: n as f64 / log.busy_s, samples: n });
    }
    let sorted = stats::sorted(&log.latencies_ms);
    if let Some(p50) = stats::percentile(&sorted, 50) {
        out.insert("op_p50_ms".into(), Measured { value: p50, samples: n });
    }
    match stats::tail_percentile(&sorted, 90) {
        Ok(p90) => {
            out.insert("op_p90_ms".into(), Measured { value: p90, samples: n });
        }
        Err(why) => {
            refused.insert("op_p90_ms".into(), why);
        }
    }
    out.insert("peak_heap_mb".into(), Measured { value: mib(log.peak_bytes as u64), samples: n });
    if let Some(setup) = stats::median(setup_s) {
        out.insert("setup_s".into(), Measured { value: setup, samples: setup_s.len() });
    }
    quality.metrics(&mut out);
    out
}

/// Per-op samples of the per-layer metrics, folded to medians.
#[derive(Debug, Clone, Default)]
pub struct LayerSamples(BTreeMap<&'static str, Vec<f64>>);

impl LayerSamples {
    /// Adds one op's value of `name`.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// The samples recorded under `name`.
    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median of each metric's samples.
    pub fn medians(&self) -> Metrics {
        self.0
            .iter()
            .filter_map(|(&name, v)| {
                let sorted = stats::sorted(v);
                stats::percentile(&sorted, 50)
                    .map(|value| (name.to_owned(), Measured { value, samples: v.len() }))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_stages_partition_the_op() {
        let mut t = Timeline::start();
        t.mark("a");
        t.mark("b");
        let stages: Vec<_> = t.stages().collect();
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[0].1, t.start);
        assert_eq!(stages[1].1, stages[0].2, "each stage starts where the previous ended");
        assert_eq!(stages[1].2, t.end());
        let sum: f64 = stages.iter().map(|(_, a, b)| ms(*b - *a)).sum();
        assert!((sum - t.ms()).abs() < 1e-9);
    }

    #[test]
    fn end_to_end_refuses_p90_without_a_tail() {
        let log = OpLog { latencies_ms: vec![1.0, 2.0, 3.0], busy_s: 0.006, peak_bytes: 3 << 20 };
        let mut refused = BTreeMap::new();
        let m = end_to_end(&log, &[0.5, 0.7, 0.6], &Quality::default(), &mut refused);
        assert_eq!(m["ops_per_s"].value, 500.0);
        assert_eq!(m["op_p50_ms"].value, 2.0);
        assert_eq!(m["peak_heap_mb"].value, 3.0);
        assert_eq!(m["setup_s"], Measured { value: 0.6, samples: 3 });
        assert!(!m.contains_key("op_p90_ms"));
        assert!(refused["op_p90_ms"].contains("3 samples"));
    }
}
