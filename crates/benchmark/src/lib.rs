//! The repository benchmark: SimProf's user flows, timed end to end and
//! broken down by layer.
//!
//! Three workloads drive the public library API from one process
//! (see `README.md` for why each exists):
//!
//! * [`catalog`] — `catalog_run`: profile → trace file → analyze → select
//!   over the twelve Table I workloads;
//! * [`fine`] — `analyze_fine`: analysis of stored LZ traces with
//!   thousands of units;
//! * [`fleet`] — `serve_fleet`: 48-job service fleets.
//!
//! An untraced run reports the end-to-end metrics of `BENCHMARK.json`; a
//! traced run (`--trace 1`) reports the per-layer metrics, from spans the
//! benchmark records around its own calls plus the program's existing
//! spans, and writes `layers.json` and a Chrome-trace `trace.json`.
//! [`compare`] judges two sets of `results.json` by the bounds in
//! `BENCHMARK.json`.

pub mod catalog;
pub mod compare;
pub mod fine;
pub mod fleet;
pub mod measure;
pub mod spans;
pub mod spec;
pub mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use serde_json::{json, Value};
use simprof_core::{Analysis, Estimate, SimulationPoints};
use simprof_workloads::WorkloadConfig;

use crate::measure::{end_to_end, LayerSamples, Measured, Metrics, OpLog, Quality};
use crate::spans::Tracer;
use crate::spec::Spec;

/// Worker threads for the parallel substrate and for the service pool.
pub const THREADS: usize = 2;

/// Input scale of every workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// `WorkloadConfig::paper` — the benchmark proper.
    Paper,
    /// `WorkloadConfig::tiny` — the `--quick` smoke.
    Tiny,
}

impl Scale {
    /// The workload configuration for `seed`.
    pub fn config(self, seed: u64) -> WorkloadConfig {
        match self {
            Scale::Paper => WorkloadConfig::paper(seed),
            Scale::Tiny => WorkloadConfig::tiny(seed),
        }
    }

    /// The preset name (`paper` / `tiny`), as trace headers and job specs
    /// spell it.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Paper => "paper",
            Scale::Tiny => "tiny",
        }
    }
}

/// Settings shared by every workload of one invocation.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The workload seed; every input but the `analyze_fine` corpus
    /// derives from it.
    pub seed: u64,
    /// Tiny scale and the smallest op counts.
    pub quick: bool,
    /// Per-layer run instead of end-to-end.
    pub traced: bool,
    /// Keep measuring whole passes/rounds/fleets until this many seconds
    /// have passed (0: the minimum counts only).
    pub seconds: f64,
    /// Scratch directory for trace files and stores.
    pub work: PathBuf,
}

impl Ctx {
    /// The input scale.
    pub fn scale(&self) -> Scale {
        if self.quick {
            Scale::Tiny
        } else {
            Scale::Paper
        }
    }

    /// How many times set-up is repeated (`setup_s` reports the median).
    pub fn setup_reps(&self) -> usize {
        if self.quick || self.traced {
            1
        } else {
            3
        }
    }

    /// The minimum number of timed units: `full` for an end-to-end run,
    /// one untraced/traced pair for a traced run.
    pub fn min_units(&self, full: u64) -> u64 {
        if self.traced {
            1
        } else {
            full
        }
    }

    /// Whether to start another unit after `done` of them.
    pub fn keep_going(&self, done: u64, min: u64, started: Instant) -> bool {
        done < min || started.elapsed().as_secs_f64() < self.seconds
    }
}

/// The traced half of a workload's loop.
#[derive(Debug, Default)]
pub struct TracedLoop {
    /// Every span recorded.
    pub tracer: Tracer,
    /// Per-op samples of the per-layer metrics.
    pub layers: LayerSamples,
    /// `(untraced, traced)` latency of each op run both ways (ms).
    pub pairs: Vec<(f64, f64)>,
    /// Root span of every traced op whose stages must cover it.
    pub roots: Vec<usize>,
}

/// What one workload run produced.
#[derive(Debug)]
pub struct WorkloadRun {
    /// Workload name.
    pub name: &'static str,
    /// Timed ops attempted.
    pub attempted: u64,
    /// Failed ops and failed checks.
    pub failed: u64,
    /// One message per failure.
    pub failures: Vec<String>,
    /// The reported metrics.
    pub metrics: Metrics,
    /// Metrics the tail rule refused, with the reason.
    pub refused: BTreeMap<String, String>,
    /// Digest over the minimum units' op outputs.
    digest: stats::Fnv,
    /// Workload-specific provenance.
    pub details: BTreeMap<String, Value>,
    /// The traced run's self-time and blocking-path summary.
    pub layers: Option<Value>,
    /// The traced run's spans.
    pub tracer: Option<Tracer>,
}

impl WorkloadRun {
    /// An empty record for `name`.
    pub fn new(name: &'static str) -> Self {
        Self {
            name,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: Metrics::new(),
            refused: BTreeMap::new(),
            digest: stats::Fnv::default(),
            details: BTreeMap::new(),
            layers: None,
            tracer: None,
        }
    }

    /// Records a failed op or check.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.failures.push(msg);
    }

    /// Records a check's outcome.
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            self.fail(e);
        }
    }

    /// Folds one op's [`fingerprint`] into the output digest.
    pub fn digest_op(&mut self, fingerprint: u64) {
        self.digest.write_u64(fingerprint);
    }

    /// The output digest (16 hex digits).
    pub fn digest(&self) -> String {
        self.digest.hex()
    }

    /// Failed ops and checks over attempted ops.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Turns the loop's record into the reported metrics: end-to-end for
    /// an untraced run; per-layer medians, the tracing overhead and the
    /// span summary for a traced one.
    pub fn finish(
        &mut self,
        cx: &Ctx,
        log: &OpLog,
        setup_s: &[f64],
        quality: &Quality,
        traced: TracedLoop,
    ) {
        if !cx.traced {
            self.metrics = end_to_end(log, setup_s, quality, &mut self.refused);
            return;
        }
        let mut metrics = traced.layers.medians();
        // The median of per-op ratios: a mixture's p50 can sit on the gap
        // between two workloads' latencies, where a small shift moves it.
        let ratios: Vec<f64> =
            traced.pairs.iter().map(|&(off, on)| (on / off - 1.0) * 100.0).collect();
        if let Some(value) = stats::percentile(&stats::sorted(&ratios), 50) {
            metrics.insert("obs.overhead_pct".into(), Measured { value, samples: ratios.len() });
        }
        for m in &Spec::get().per_layer {
            metrics.entry(m.name.clone()).or_insert(Measured { value: 0.0, samples: 0 });
        }
        self.metrics = metrics;
        self.layers = Some(layer_summary(&traced.tracer, &traced.roots));
        self.details.insert("traced_pairs".into(), traced.pairs.len().into());
        self.tracer = Some(traced.tracer);
    }
}

/// Hash of one op's output: workload, seed, unit count, phase count and
/// assignments, estimate bits and point ids. Two analyses with equal
/// fingerprints are bit-identical for every purpose the benchmark checks.
pub fn fingerprint(
    label: &str,
    seed: u64,
    units: usize,
    analysis: &Analysis,
    estimate: &Estimate,
    points: &SimulationPoints,
) -> u64 {
    let mut h = stats::Fnv::default();
    h.write_str(label);
    h.write_u64(seed);
    h.write_u64(units as u64);
    h.write_u64(analysis.k() as u64);
    for &a in &analysis.model.assignments {
        h.write_u64(a as u64);
    }
    h.write_u64(estimate.mean_cpi.to_bits());
    h.write_u64(estimate.se.to_bits());
    for &p in &points.points {
        h.write_u64(p);
    }
    h.value()
}

/// Per-layer self time (median per op, ms) and how much of each op the
/// layer spans account for.
fn layer_summary(tracer: &Tracer, roots: &[usize]) -> Value {
    let spans = tracer.spans();
    let self_us = tracer.self_times();
    let mut per_op: BTreeMap<(u64, &str), f64> = BTreeMap::new();
    for s in spans {
        *per_op.entry((s.op, s.name.as_str())).or_default() += self_us[s.id];
    }
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (&(_, name), &us) in &per_op {
        by_name.entry(name).or_default().push(us / 1e3);
    }
    let self_ms: serde_json::Map = by_name
        .into_iter()
        .map(|(name, v)| (name.to_owned(), json!(stats::percentile(&stats::sorted(&v), 50))))
        .collect();
    let fracs: Vec<f64> = roots
        .iter()
        .map(|&r| tracer.attributed_us(r, &self_us) / spans[r].dur_us.max(1e-9))
        .collect();
    let sorted = stats::sorted(&fracs);
    json!({
        "ops": roots.len(),
        "self_ms_p50": Value::Object(self_ms),
        "blocking_path": json!({
            "attributed_frac_min": sorted.first().copied(),
            "attributed_frac_p50": stats::percentile(&sorted, 50),
            "attributed_frac_max": sorted.last().copied(),
            "within_10pct": sorted.iter().all(|f| (0.9..=1.1).contains(f)),
        }),
    })
}

/// Parsed command line of a benchmark run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workloads to run, in order.
    pub workloads: Vec<String>,
    /// Shared settings.
    pub ctx: Ctx,
    /// Where to write `results.json` (and the traced run's files).
    pub out: Option<PathBuf>,
}

const USAGE: &str = "usage: simprof-benchmark [--workload NAME]... [--seed N] [--seconds S] \
                     [--trace 0|1 | --traced] [--quick] [--out DIR] [--work DIR]\n       \
                     simprof-benchmark compare BASE_DIR... -- HEAD_DIR...";

impl Args {
    /// Parses the run flags (everything but `compare`).
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut args = Args {
            workloads: Vec::new(),
            ctx: Ctx {
                seed: 42,
                quick: false,
                traced: false,
                seconds: 0.0,
                work: PathBuf::from(format!(
                    "target/simprof-benchmark-work-{}",
                    std::process::id()
                )),
            },
            out: None,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} requires a value\n{USAGE}"));
            match flag.as_str() {
                "--workload" => args.workloads.push(value()?.clone()),
                "--seed" => args.ctx.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(0.0..=3600.0).contains(&s) {
                        return Err(format!("--seconds {s} is outside 0..=3600"));
                    }
                    args.ctx.seconds = s;
                }
                "--trace" => {
                    args.ctx.traced = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                    }
                }
                "--traced" => args.ctx.traced = true,
                "--quick" => args.ctx.quick = true,
                "--out" => args.out = Some(PathBuf::from(value()?)),
                "--work" => args.ctx.work = PathBuf::from(value()?),
                "-h" | "--help" => return Err(USAGE.to_owned()),
                other => return Err(format!("unknown option `{other}`\n{USAGE}")),
            }
        }
        let known = &Spec::get().workloads;
        if args.workloads.is_empty() {
            args.workloads = known.clone();
        }
        for w in &args.workloads {
            if !known.contains(w) {
                return Err(format!("unknown workload `{w}`; known: {}", known.join(", ")));
            }
        }
        Ok(args)
    }
}

/// Everything an invocation produced.
#[derive(Debug)]
pub struct Report {
    /// Shared settings of the run.
    pub ctx: Ctx,
    /// One record per workload, in run order.
    pub runs: Vec<WorkloadRun>,
}

impl Report {
    /// True when no op or check failed.
    pub fn correct(&self) -> bool {
        self.runs.iter().all(|r| r.failed == 0)
    }

    /// The `results.json` document.
    pub fn results_json(&self) -> Value {
        let spec = Spec::get();
        let workloads: serde_json::Map = self
            .runs
            .iter()
            .map(|r| {
                let metrics: serde_json::Map = r
                    .metrics
                    .iter()
                    .map(|(name, m)| {
                        let unit = spec.unit(name);
                        (
                            name.clone(),
                            json!({"value": m.value, "unit": unit, "samples": m.samples}),
                        )
                    })
                    .collect();
                let refused: serde_json::Map =
                    r.refused.iter().map(|(k, v)| (k.clone(), json!(v))).collect();
                let details: serde_json::Map =
                    r.details.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
                let entry = json!({
                    "attempted": r.attempted,
                    "failed": r.failed,
                    "failed_frac": r.failed_frac(),
                    "failures": r.failures,
                    "output_digest": r.digest(),
                    "metrics": Value::Object(metrics),
                    "refused": Value::Object(refused),
                    "details": Value::Object(details),
                });
                (r.name.to_owned(), entry)
            })
            .collect();
        json!({
            "schema": 1,
            "provenance": json!({
                "nproc": std::thread::available_parallelism().map_or(1, |n| n.get()),
                "threads": rayon::current_threads(),
                "service_workers": threads(),
                "seed": self.ctx.seed,
                "quick": self.ctx.quick,
                "traced": self.ctx.traced,
                "seconds": self.ctx.seconds,
            }),
            "correct": self.correct(),
            "workloads": Value::Object(workloads),
        })
    }

    /// The driver-facing summary: `correct`, `attempted`, `failed` and the
    /// metrics as `{value, unit}`. With several workloads, metric names are
    /// prefixed `workload/`.
    pub fn summary_line(&self) -> Value {
        let spec = Spec::get();
        let prefix = self.runs.len() > 1;
        let mut metrics = serde_json::Map::new();
        for r in &self.runs {
            for (name, m) in &r.metrics {
                let unit = spec.unit(name);
                let key = if prefix { format!("{}/{name}", r.name) } else { name.clone() };
                metrics.push((key, json!({"value": m.value, "unit": unit})));
            }
        }
        json!({
            "correct": self.correct(),
            "attempted": self.runs.iter().map(|r| r.attempted).sum::<u64>(),
            "failed": self.runs.iter().map(|r| r.failed).sum::<u64>(),
            "metrics": Value::Object(metrics),
        })
    }

    /// Human-readable metric lines, one block per workload.
    pub fn render(&self) -> String {
        let spec = Spec::get();
        let mut out = String::new();
        for r in &self.runs {
            out.push_str(&format!(
                "{} ({} run, seed {}): {} ops attempted, {} failed, output_digest {}\n",
                r.name,
                if self.ctx.traced { "traced" } else { "end-to-end" },
                self.ctx.seed,
                r.attempted,
                r.failed,
                r.digest()
            ));
            for (name, m) in &r.metrics {
                let unit = spec.unit(name);
                out.push_str(&format!(
                    "  {name:<28} {:>14.4} {unit:<9} n={}\n",
                    m.value, m.samples
                ));
            }
            for (name, why) in &r.refused {
                out.push_str(&format!("  {name:<28} not reported: {why}\n"));
            }
            for f in &r.failures {
                out.push_str(&format!("  FAILED: {f}\n"));
            }
        }
        out
    }

    /// Writes `results.json` (and, for a traced run, `layers.json` and
    /// `trace.json`) into `dir`.
    pub fn write(&self, dir: &Path) -> Result<(), String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let write = |name: &str, value: &Value| {
            let path = dir.join(name);
            let text =
                serde_json::to_string_pretty(value).map_err(|e| format!("encode {name}: {e}"))?;
            std::fs::write(&path, text + "\n").map_err(|e| format!("write {}: {e}", path.display()))
        };
        write("results.json", &self.results_json())?;
        if self.ctx.traced {
            let layers: serde_json::Map = self
                .runs
                .iter()
                .map(|r| (r.name.to_owned(), r.layers.clone().unwrap_or(Value::Null)))
                .collect();
            write("layers.json", &Value::Object(layers))?;
            // One timeline, each workload's spans on its own process row.
            let events: Vec<Value> = self
                .runs
                .iter()
                .enumerate()
                .filter_map(|(i, r)| Some(r.tracer.as_ref()?.chrome_events(i + 1, r.name)))
                .flatten()
                .collect();
            write(
                "trace.json",
                &json!({"traceEvents": Value::Array(events), "displayTimeUnit": "ms"}),
            )?;
        }
        Ok(())
    }
}

/// Removes the scratch directory when the run ends, however it ends.
struct WorkDir<'a>(&'a Path);

impl Drop for WorkDir<'_> {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(self.0);
    }
}

/// Threads the load may use: [`THREADS`], or fewer on a smaller machine.
pub fn threads() -> usize {
    THREADS.min(std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Runs every requested workload with the parallel substrate at
/// [`threads`].
pub fn run(args: &Args) -> Result<Report, String> {
    rayon::set_threads(threads());
    std::fs::create_dir_all(&args.ctx.work)
        .map_err(|e| format!("create {}: {e}", args.ctx.work.display()))?;
    let _cleanup = WorkDir(&args.ctx.work);
    let mut runs = Vec::new();
    for w in &args.workloads {
        let run = match w.as_str() {
            "catalog_run" => catalog::run(&args.ctx)?,
            "analyze_fine" => fine::run(&args.ctx)?,
            "serve_fleet" => fleet::run(&args.ctx)?,
            other => return Err(format!("unknown workload `{other}`")),
        };
        runs.push(run);
    }
    Ok(Report { ctx: args.ctx.clone(), runs })
}
