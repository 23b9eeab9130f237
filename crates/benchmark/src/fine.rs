//! `analyze_fine`: `simprof select` on stored traces with thousands of
//! units.
//!
//! Set-up profiles seven workloads once at 10 000-instruction units and
//! writes each as a v3 `Codec::Lz` shard, the layout `serve` stores. One
//! op opens a shard, analyzes it in two streaming passes, and selects and
//! estimates 20 points; the engine never runs. At these sizes the
//! silhouette sweep's `n²` distance cache (4–54 MiB) no longer fits the
//! last-level cache, which the paper-scale catalog never reaches.

use std::time::Instant;

use simprof_core::{Analysis, Estimate, SimProf, SimProfConfig, SimulationPoints};
use simprof_profiler::{ProfilerConfig, SharedSink};
use simprof_stats::split_seed;
use simprof_trace::{Codec, TraceMeta, TraceReader, TraceWriter};
use simprof_workloads::WorkloadId;

use crate::measure::{
    dist_cache_mb, histogram_sum, payload_bytes, span_ms, Accum, LayerSamples, ObsScope, OpLog,
    Quality, TimedStream, Timeline, POINTS, SELECT_SALT, SELECT_Z,
};
use crate::spans::Tracer;
use crate::{fingerprint, Ctx, Scale, TracedLoop, WorkloadRun};

/// The stored traces: a mix of Hadoop and Spark, text and graph. An odd
/// count puts the median op inside one trace's cluster of latencies rather
/// than on the gap between two.
const SHARDS: [&str; 7] = ["wc_hp", "cc_hp", "bayes_hp", "rank_hp", "grep_sp", "sort_sp", "wc_sp"];
/// Sampling-unit size of the stored traces.
const UNIT_INSTRS: u64 = 10_000;
/// Seed the stored traces are profiled from. They are this workload's data
/// set and stay the same for every `--seed`: profiled from the run's seed,
/// their unit counts — and the distance cache's `n²` working set, the
/// reason this workload exists — moved by over 10 % from seed to seed.
/// `--seed` picks the analysis seeds, which change every round.
const CORPUS_SEED: u64 = 0xF1E0;
/// Timed rounds over the seven shards (105 ops, enough for a p90 with ten
/// samples beyond it).
const MIN_ROUNDS: u64 = 15;

/// Program spans folded into a traced op.
const PROGRAM_SPANS: [&str; 3] = ["core.feature_fit", "stats.dist_cache", "stats.choose_k"];

/// One stored trace and what set-up learned about it.
struct Shard {
    label: String,
    path: String,
    units: u64,
    snapshots: u64,
    stored: u64,
    raw: u64,
    /// Round 0's expected output, from in-memory analysis.
    expected: u64,
}

struct OpOut {
    analysis: Analysis,
    points: SimulationPoints,
    estimate: Estimate,
    footer_units: u64,
    timeline: Timeline,
    outer: (Instant, Instant),
    traced: Option<(simprof_obs::RunReport, Instant, Accum)>,
}

/// The analysis seed of round `r`.
fn round_seed(seed: u64, round: u64) -> u64 {
    split_seed(seed, 0xA11A_0000 + round)
}

fn select(analysis: &Analysis, seed: u64) -> (SimulationPoints, Estimate) {
    let points = analysis.select_points(POINTS, split_seed(seed, SELECT_SALT));
    let estimate = analysis.estimate(&points, SELECT_Z);
    (points, estimate)
}

/// Profiles `label` into an LZ shard at `path` and returns the profiler's
/// in-memory trace.
fn profile(
    label: &str,
    seed: u64,
    scale: Scale,
    path: &str,
) -> Result<simprof_profiler::ProfileTrace, String> {
    let workload = WorkloadId::all()
        .into_iter()
        .find(|w| w.label() == label)
        .ok_or_else(|| format!("unknown workload {label}"))?;
    let mut cfg = scale.config(seed);
    cfg.profiler = ProfilerConfig::with_unit(UNIT_INSTRS);
    let meta = TraceMeta {
        label: label.to_owned(),
        seed,
        scale: scale.name().to_owned(),
        unit_instrs: cfg.profiler.unit_instrs,
        snapshot_instrs: cfg.profiler.snapshot_instrs,
        core: cfg.profiler.core,
    };
    let writer = SharedSink::new(TraceWriter::create_compressed(path, &meta, Codec::Lz)?);
    let out = workload.run_full_with_sinks(&cfg, vec![Box::new(writer.clone())]);
    let footer = writer.lock().finish(&out.registry).map_err(|e| format!("{label}: seal: {e}"))?;
    if footer.unit_count != out.trace.units.len() as u64 {
        return Err(format!("{label}: footer records {} units", footer.unit_count));
    }
    Ok(out.trace)
}

fn run_op(shard: &Shard, seed: u64, traced: bool) -> Result<OpOut, String> {
    let outer_start = Instant::now();
    let obs = traced.then(ObsScope::begin);
    let read = Accum::default();
    let mut timeline = Timeline::start();
    let mut reader = TraceReader::open(&shard.path)?;
    timeline.mark("trace.open");
    let pipeline = SimProf::new(SimProfConfig { seed, ..Default::default() });
    let analysis = if traced {
        pipeline.analyze_stream(&mut TimedStream::new(&mut reader, read.clone()))
    } else {
        pipeline.analyze_stream(&mut reader)
    }
    .map_err(|e| format!("{}: analyze: {e}", shard.label))?;
    timeline.mark("core.analyze");
    let (points, estimate) = select(&analysis, seed);
    timeline.mark("core.select");
    let outer = (outer_start, Instant::now());
    let traced = obs.map(|scope| {
        let (report, origin) = scope.finish();
        (report, origin, read)
    });
    let footer_units = reader.footer()?.unit_count;
    Ok(OpOut { analysis, points, estimate, footer_units, timeline, outer, traced })
}

impl OpOut {
    fn fingerprint(&self, label: &str, seed: u64) -> u64 {
        let units = self.analysis.cpis.len();
        fingerprint(label, seed, units, &self.analysis, &self.estimate, &self.points)
    }

    fn trace_into(&self, tracer: &mut Tracer, layers: &mut LayerSamples, shard: &Shard) -> usize {
        let id = tracer.new_op();
        let (root, stage) = self.timeline.record(tracer, id, "analyze_fine.op", self.outer);
        if let Some((report, origin, read)) = &self.traced {
            let base = tracer.at(*origin);
            let folded =
                tracer.fold_report(id, stage["core.analyze"], report, base, &PROGRAM_SPANS, 0);
            if let Some(&(_, fit)) = folded.iter().find(|(n, _)| n == "core.feature_fit") {
                read.record(tracer, id, fit, "trace.read");
            }
            layers.push("trace.read_ms", read.ms());
            layers.push("core.feature_fit_ms", span_ms(report, "core.feature_fit"));
            layers.push("stats.dist_cache_ms", span_ms(report, "stats.dist_cache"));
            layers.push("stats.choose_k_ms", span_ms(report, "stats.choose_k"));
            layers
                .push("stats.kmeans_iterations", histogram_sum(report, "stats.kmeans.iterations"));
        }
        layers.push("profiler.units", shard.units as f64);
        layers.push("profiler.snapshots", shard.snapshots as f64);
        layers.push("trace.stored_bytes", shard.stored as f64);
        layers.push("trace.raw_bytes", shard.raw as f64);
        layers.push("trace.ratio", shard.stored as f64 / shard.raw as f64);
        layers.push("core.analyze_ms", self.timeline.stage_ms("core.analyze"));
        layers.push("core.select_ms", self.timeline.stage_ms("core.select"));
        layers.push("stats.dist_cache_mb", dist_cache_mb(shard.units as usize));
        root
    }
}

/// Runs the workload.
pub fn run(cx: &Ctx) -> Result<WorkloadRun, String> {
    let labels: &[&str] = if cx.quick { &SHARDS[..2] } else { &SHARDS };
    let dir = cx.work.join("analyze_fine");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut run = WorkloadRun::new("analyze_fine");

    // Set-up: profile and store every shard. The first repetition also
    // records each shard's facts and round 0's in-memory analysis.
    let mut setup_s = Vec::new();
    let mut shards: Vec<Shard> = Vec::new();
    for rep in 0..cx.setup_reps() {
        let mut busy = 0.0;
        for (i, label) in labels.iter().enumerate() {
            let path = dir.join(format!("{label}.sptrc")).to_string_lossy().into_owned();
            let seed = split_seed(CORPUS_SEED, i as u64);
            let started = Instant::now();
            let trace = profile(label, seed, cx.scale(), &path)?;
            busy += started.elapsed().as_secs_f64();
            if rep > 0 {
                continue;
            }
            let round0 = round_seed(cx.seed, 0);
            let analysis = SimProf::new(SimProfConfig { seed: round0, ..Default::default() })
                .analyze(&trace)
                .map_err(|e| format!("{label}: in-memory analyze: {e}"))?;
            let (points, estimate) = select(&analysis, round0);
            let (stored, raw) = payload_bytes(&path)?;
            shards.push(Shard {
                label: (*label).to_owned(),
                units: trace.units.len() as u64,
                snapshots: trace.units.iter().map(|u| u64::from(u.snapshots)).sum(),
                expected: fingerprint(
                    label,
                    round0,
                    trace.units.len(),
                    &analysis,
                    &estimate,
                    &points,
                ),
                path,
                stored,
                raw,
            });
        }
        setup_s.push(busy);
    }

    let min_rounds = cx.min_units(if cx.quick { 1 } else { MIN_ROUNDS });
    let mut log = OpLog::default();
    let mut quality = Quality::default();
    let mut traced = TracedLoop::default();
    let started = Instant::now();
    let mut round = 0;
    while cx.keep_going(round, min_rounds, started) {
        let seed = round_seed(cx.seed, round);
        for shard in &shards {
            // A traced run times each op both ways, alternating which goes
            // first.
            let traced_first = cx.traced && run.attempted % 2 == 1;
            run.attempted += 1;
            let mut traced_out = traced_first.then(|| run_op(shard, seed, true));
            simprof_obs::reset_peak();
            let res = run_op(shard, seed, false);
            let peak = simprof_obs::peak_alloc_bytes();
            let out = match res {
                Ok(out) => out,
                Err(e) => {
                    run.fail(e);
                    continue;
                }
            };
            log.record(out.timeline.ms(), peak);
            let units = out.analysis.cpis.len();
            if out.footer_units != shard.units || units as u64 != shard.units {
                run.fail(format!(
                    "{}: footer {} / analyzed {units} units, profiled {}",
                    shard.label, out.footer_units, shard.units
                ));
            }
            let print = out.fingerprint(&shard.label, seed);
            if round == 0 && print != shard.expected {
                run.fail(format!("{}: streamed analysis differs from in-memory", shard.label));
            }
            if round < min_rounds {
                run.digest_op(print);
            }
            if cx.traced {
                match traced_out.take().unwrap_or_else(|| run_op(shard, seed, true)) {
                    Ok(t) => {
                        let root = t.trace_into(&mut traced.tracer, &mut traced.layers, shard);
                        traced.roots.push(root);
                        if t.fingerprint(&shard.label, seed) == print {
                            traced.pairs.push((out.timeline.ms(), t.timeline.ms()));
                        } else {
                            run.fail(format!("{}: tracing changed the analysis", shard.label));
                        }
                    }
                    Err(e) => run.fail(format!("traced: {e}")),
                }
            } else if round < min_rounds {
                quality.add(&out.analysis, seed);
            }
        }
        round += 1;
    }

    run.details.insert("rounds".into(), round.into());
    run.details.insert("digest_rounds".into(), min_rounds.into());
    run.details.insert(
        "shard_units".into(),
        serde_json::Value::Object(
            shards.iter().map(|s| (s.label.clone(), serde_json::json!(s.units))).collect(),
        ),
    );
    run.finish(cx, &log, &setup_s, &quality, traced);
    Ok(run)
}
