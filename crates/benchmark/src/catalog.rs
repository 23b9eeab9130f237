//! `catalog_run`: the offline user flow, `simprof profile -o t.sptrc` then
//! `simprof select -i t.sptrc`, over all twelve Table I workloads.
//!
//! One op profiles a workload while streaming its units into a trace file,
//! seals the file, re-opens it, analyzes it in two streaming passes, and
//! selects and estimates 20 simulation points. Pass `p` runs every
//! workload with seed `split_seed(S, p)`.

use std::time::Instant;

use simprof_core::{Analysis, Estimate, SimProf, SimProfConfig, SimulationPoints};
use simprof_profiler::{ProfileTrace, SharedSink, UnitSink};
use simprof_stats::split_seed;
use simprof_trace::{TraceMeta, TraceReader, TraceWriter};
use simprof_workloads::{RunOutput, WorkloadId};

use crate::measure::{
    build_ms, counter, dist_cache_mb, histogram_sum, payload_bytes, span_ms, Accum, LayerSamples,
    ObsScope, OpLog, Quality, TimedSink, TimedStream, Timeline, POINTS, SELECT_SALT, SELECT_Z,
};
use crate::spans::Tracer;
use crate::{fingerprint, Ctx, Scale, TracedLoop, WorkloadRun};

/// Timed passes over the twelve workloads (120 ops, enough for a p90 with
/// ten samples beyond it).
const MIN_PASSES: u64 = 10;

/// Program spans folded into a traced op.
const PROGRAM_SPANS: [&str; 4] =
    ["engine.run", "core.feature_fit", "stats.dist_cache", "stats.choose_k"];

struct Op {
    workload: WorkloadId,
    seed: u64,
}

/// Everything one op produced that checks, digests and metrics need.
struct OpOut {
    label: String,
    seed: u64,
    units: usize,
    analysis: Analysis,
    points: SimulationPoints,
    estimate: Estimate,
    /// The profiler's in-memory trace, kept only when asked for.
    trace: Option<ProfileTrace>,
    timeline: Timeline,
    /// The whole call, outside the stages.
    outer: (Instant, Instant),
    traced: Option<Traced>,
}

struct Traced {
    report: simprof_obs::RunReport,
    origin: Instant,
    write: Accum,
    read: Accum,
}

fn ops(workloads: &[WorkloadId], seed: u64, pass: u64) -> Vec<Op> {
    let seed = split_seed(seed, pass);
    workloads.iter().map(|&workload| Op { workload, seed }).collect()
}

fn run_op(
    op: &Op,
    scale: Scale,
    path: &str,
    keep_trace: bool,
    traced: bool,
) -> Result<OpOut, String> {
    let outer_start = Instant::now();
    let obs = traced.then(ObsScope::begin);
    let (write, read) = (Accum::default(), Accum::default());
    let label = op.workload.label();
    let cfg = scale.config(op.seed);

    let mut timeline = Timeline::start();
    let meta = TraceMeta {
        label: label.clone(),
        seed: op.seed,
        scale: scale.name().to_owned(),
        unit_instrs: cfg.profiler.unit_instrs,
        snapshot_instrs: cfg.profiler.snapshot_instrs,
        core: cfg.profiler.core,
    };
    let writer = SharedSink::new(TraceWriter::create(path, &meta)?);
    let sink: Box<dyn UnitSink> = if traced {
        Box::new(TimedSink::new(writer.clone(), write.clone()))
    } else {
        Box::new(writer.clone())
    };
    let RunOutput { trace, registry, .. } = op.workload.run_full_with_sinks(&cfg, vec![sink]);
    timeline.mark("profile");
    let footer = writer.lock().finish(&registry);
    timeline.mark("trace.finish");
    let footer = footer.map_err(|e| format!("{label}: seal trace: {e}"))?;
    let units = trace.units.len();
    if footer.unit_count != units as u64 {
        return Err(format!(
            "{label}: footer records {} units, the profiler closed {units}",
            footer.unit_count
        ));
    }
    let trace = keep_trace.then_some(trace);
    drop(registry);

    let mut reader = TraceReader::open(path)?;
    timeline.mark("trace.open");
    let pipeline = SimProf::new(SimProfConfig { seed: op.seed, ..Default::default() });
    let analysis = if traced {
        pipeline.analyze_stream(&mut TimedStream::new(&mut reader, read.clone()))
    } else {
        pipeline.analyze_stream(&mut reader)
    }
    .map_err(|e| format!("{label}: analyze: {e}"))?;
    timeline.mark("core.analyze");
    let points = analysis.select_points(POINTS, split_seed(op.seed, SELECT_SALT));
    let estimate = analysis.estimate(&points, SELECT_Z);
    timeline.mark("core.select");
    drop(reader);
    let outer = (outer_start, Instant::now());

    let traced = obs.map(|scope| {
        let (report, origin) = scope.finish();
        Traced { report, origin, write, read }
    });
    Ok(OpOut {
        label,
        seed: op.seed,
        units,
        analysis,
        points,
        estimate,
        trace,
        timeline,
        outer,
        traced,
    })
}

impl OpOut {
    fn fingerprint(&self) -> u64 {
        fingerprint(
            &self.label,
            self.seed,
            self.units,
            &self.analysis,
            &self.estimate,
            &self.points,
        )
    }

    /// Streamed analysis must be bit-identical to analyzing the
    /// profiler's in-memory trace.
    fn check_in_memory(&self) -> Result<(), String> {
        let trace = self.trace.as_ref().ok_or("in-memory trace was not kept")?;
        let mem = SimProf::new(SimProfConfig { seed: self.seed, ..Default::default() })
            .analyze(trace)
            .map_err(|e| format!("{}: in-memory analyze: {e}", self.label))?;
        let points = mem.select_points(POINTS, split_seed(self.seed, SELECT_SALT));
        let estimate = mem.estimate(&points, SELECT_Z);
        if fingerprint(&self.label, self.seed, self.units, &mem, &estimate, &points)
            != self.fingerprint()
        {
            return Err(format!("{}: streamed analysis differs from in-memory", self.label));
        }
        Ok(())
    }

    /// Records the op's spans and per-layer samples.
    fn trace_into(
        &self,
        tracer: &mut Tracer,
        layers: &mut LayerSamples,
        path: &str,
        op: &Op,
        scale: Scale,
    ) -> Result<usize, String> {
        let t = self.traced.as_ref().ok_or("op was not traced")?;
        let id = tracer.new_op();
        let (root, stage) = self.timeline.record(tracer, id, "catalog_run.op", self.outer);
        let base = tracer.at(t.origin);
        let mut folded = Vec::new();
        for (parent, names) in
            [("profile", &PROGRAM_SPANS[..1]), ("core.analyze", &PROGRAM_SPANS[1..])]
        {
            folded.extend(tracer.fold_report(id, stage[parent], &t.report, base, names, 0));
        }
        let find = |name: &str| folded.iter().find(|(n, _)| n == name).map(|&(_, i)| i);
        if let Some(engine) = find("engine.run") {
            t.write.record(tracer, id, engine, "trace.write");
        }
        if let Some(fit) = find("core.feature_fit") {
            t.read.record(tracer, id, fit, "trace.read");
        }

        let (build, instrs) = build_ms(op.workload, &scale.config(op.seed));
        layers.push("workloads.build_ms", build);
        let r = &t.report;
        let engine_ms = span_ms(r, "engine.run");
        let quanta = counter(r, "engine.quanta");
        layers.push("engine.run_ms", engine_ms);
        layers.push("engine.quanta", quanta as f64);
        if quanta > 0 {
            layers.push("engine.ns_per_quantum", engine_ms * 1e6 / quanta as f64);
        }
        if engine_ms > 0.0 {
            layers.push("sim.minstr_per_s", instrs as f64 / 1e3 / engine_ms);
        }
        layers.push("profiler.units", self.units as f64);
        layers.push("profiler.snapshots", counter(r, "profiler.snapshots") as f64);
        let write_ms = t.write.ms();
        let finish_ms = self.timeline.stage_ms("trace.finish");
        layers.push("trace.write_ms", write_ms);
        layers.push("trace.finish_ms", finish_ms);
        let (stored, raw) = payload_bytes(path)?;
        layers.push("trace.write_us_per_mb.raw", (write_ms + finish_ms) * 1e3 / (raw as f64 / 1e6));
        layers.push("trace.read_ms", t.read.ms());
        layers.push("trace.stored_bytes", stored as f64);
        layers.push("trace.raw_bytes", raw as f64);
        layers.push("trace.ratio", stored as f64 / raw as f64);
        layers.push("core.analyze_ms", self.timeline.stage_ms("core.analyze"));
        layers.push("core.feature_fit_ms", span_ms(r, "core.feature_fit"));
        layers.push("core.select_ms", self.timeline.stage_ms("core.select"));
        layers.push("stats.dist_cache_ms", span_ms(r, "stats.dist_cache"));
        layers.push("stats.choose_k_ms", span_ms(r, "stats.choose_k"));
        layers.push("stats.kmeans_iterations", histogram_sum(r, "stats.kmeans.iterations"));
        layers.push("stats.dist_cache_mb", dist_cache_mb(self.units));
        Ok(root)
    }
}

/// Runs `op` traced, records its spans and per-layer samples, and returns
/// its latency and output fingerprint.
fn traced_op(
    op: &Op,
    scale: Scale,
    file: &str,
    traced: &mut TracedLoop,
) -> Result<(f64, u64), String> {
    let out = run_op(op, scale, file, false, true).map_err(|e| format!("traced: {e}"))?;
    let root = out.trace_into(&mut traced.tracer, &mut traced.layers, file, op, scale)?;
    traced.roots.push(root);
    Ok((out.timeline.ms(), out.fingerprint()))
}

/// Runs the workload.
pub fn run(cx: &Ctx) -> Result<WorkloadRun, String> {
    let workloads: Vec<WorkloadId> = if cx.quick {
        WorkloadId::all()
            .into_iter()
            .filter(|w| ["wc_sp", "grep_hp"].contains(&&*w.label()))
            .collect()
    } else {
        WorkloadId::all()
    };
    let min_passes = if cx.quick { 1 } else { MIN_PASSES };
    let scale = cx.scale();
    let dir = cx.work.join("catalog_run");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path =
        |w: WorkloadId| dir.join(format!("{}.sptrc", w.label())).to_string_lossy().into_owned();
    let mut run = WorkloadRun::new("catalog_run");

    // Set-up: warm-up passes over pass 0's inputs. The first also pins
    // pass 0's outputs and checks them against in-memory analysis.
    let mut setup_s = Vec::new();
    let mut expected = Vec::new();
    for rep in 0..cx.setup_reps() {
        let mut busy = 0.0;
        for op in ops(&workloads, cx.seed, 0) {
            match run_op(&op, scale, &path(op.workload), rep == 0, false) {
                Ok(out) => {
                    busy += out.timeline.ms() / 1e3;
                    if rep == 0 {
                        run.check(out.check_in_memory());
                        expected.push(out.fingerprint());
                    }
                }
                Err(e) => run.fail(format!("warm-up: {e}")),
            }
        }
        setup_s.push(busy);
    }

    let min_passes = cx.min_units(min_passes);
    let mut log = OpLog::default();
    let mut quality = Quality::default();
    let mut traced = TracedLoop::default();
    let started = Instant::now();
    let mut pass = 0;
    while cx.keep_going(pass, min_passes, started) {
        for (i, op) in ops(&workloads, cx.seed, pass).iter().enumerate() {
            let file = path(op.workload);
            // A traced run times each op both ways, alternating which goes
            // first.
            let traced_first = cx.traced && run.attempted % 2 == 1;
            run.attempted += 1;
            let traced_out = traced_first.then(|| traced_op(op, scale, &file, &mut traced));
            simprof_obs::reset_peak();
            let res = run_op(op, scale, &file, false, false);
            let peak = simprof_obs::peak_alloc_bytes();
            let out = match res {
                Ok(out) => out,
                Err(e) => {
                    run.fail(e);
                    continue;
                }
            };
            log.record(out.timeline.ms(), peak);
            if pass == 0 && expected.get(i) != Some(&out.fingerprint()) {
                run.fail(format!("{}: pass 0 differs from its warm-up run", out.label));
            }
            if pass < min_passes {
                run.digest_op(out.fingerprint());
            }
            if cx.traced {
                match traced_out.unwrap_or_else(|| traced_op(op, scale, &file, &mut traced)) {
                    Ok((ms, print)) if print == out.fingerprint() => {
                        traced.pairs.push((out.timeline.ms(), ms));
                    }
                    Ok(_) => run.fail(format!("{}: tracing changed the analysis", out.label)),
                    Err(e) => run.fail(e),
                }
            } else if pass < min_passes {
                quality.add(&out.analysis, out.seed);
            }
        }
        pass += 1;
    }
    for w in &workloads {
        let _ = std::fs::remove_file(path(*w));
    }

    run.details.insert("passes".into(), pass.into());
    run.details.insert("workloads_per_pass".into(), workloads.len().into());
    run.details.insert("digest_passes".into(), min_passes.into());
    run.finish(cx, &log, &setup_s, &quality, traced);
    Ok(run)
}
