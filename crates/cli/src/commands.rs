//! The CLI subcommands.

use simprof_core::{input_sensitivity, LiveAnalyzer, LiveConfig, SimProf, SimProfConfig};
use simprof_engine::MethodId;
use simprof_profiler::{SharedSink, UnitSink};
use simprof_stats::split_seed;
use simprof_trace::{TraceMeta, TraceReader, TraceWriter};
use simprof_workloads::{GraphInput, Kronecker, WorkloadConfig, WorkloadId};

use crate::args::{Options, Scale};
use crate::bundle::FORMAT_VERSION;
use crate::input::TraceInput;

fn workload_config(opts: &Options) -> WorkloadConfig {
    match opts.scale {
        Scale::Paper => WorkloadConfig::paper(opts.seed),
        Scale::Tiny => WorkloadConfig::tiny(opts.seed),
    }
}

fn find_workload(label: &str) -> Result<WorkloadId, String> {
    WorkloadId::all().into_iter().find(|w| w.label() == label).ok_or_else(|| {
        let labels: Vec<String> = WorkloadId::all().iter().map(|w| w.label()).collect();
        format!("unknown workload `{label}`; available: {}", labels.join(", "))
    })
}

fn pipeline(opts: &Options) -> SimProf {
    SimProf::new(SimProfConfig { seed: opts.seed, ..Default::default() })
}

/// A per-command observability window: a job-scoped
/// [`simprof_obs::ObsContext`] installed on the calling thread (the
/// parallel substrate propagates it to pool workers), so concurrent
/// commands — including the service layer's jobs — record independently.
pub(crate) struct ObsWindow {
    ctx: simprof_obs::ObsContext,
    installed: simprof_obs::ContextGuard,
}

impl ObsWindow {
    /// Stops collecting and assembles the report skeleton.
    pub(crate) fn finish(self) -> simprof_obs::RunReport {
        let ObsWindow { ctx, installed } = self;
        drop(installed);
        ctx.finish_report()
    }
}

/// Opens an observability window when any obs output (`--report`,
/// `--events`, `--timeline`) was requested, installing the streaming JSONL
/// event sink when `--events` names a path. Returns `None` — and leaves
/// every instrumentation hook a single relaxed atomic load — when no obs
/// output was asked for.
fn obs_session(opts: &Options) -> Result<Option<ObsWindow>, String> {
    if opts.report.is_none() && opts.events.is_none() && opts.timeline.is_none() {
        return Ok(None);
    }
    let ctx = simprof_obs::ObsContext::new();
    if let Some(path) = &opts.events {
        let sink = simprof_obs::JsonlEventWriter::create(std::path::Path::new(path))?;
        ctx.install_sink(Box::new(sink));
    }
    let installed = ctx.install();
    Ok(Some(ObsWindow { ctx, installed }))
}

/// Writes the requested obs outputs from a finished report: `--report`
/// (versioned run-report JSON) and `--timeline` (Chrome-trace JSON). The
/// `--events` log was already streamed to disk during the run; this only
/// confirms it.
fn write_obs_outputs(opts: &Options, report: &simprof_obs::RunReport) -> Result<(), String> {
    if let Some(path) = &opts.report {
        std::fs::write(path, report.to_json_pretty()).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote run report {path}");
    }
    if let Some(path) = &opts.timeline {
        simprof_obs::write_chrome_trace(report, std::path::Path::new(path))?;
        println!("wrote timeline {path} (chrome://tracing / Perfetto JSON)");
    }
    if let Some(path) = &opts.events {
        println!("wrote event log {path} (JSONL, schema v{})", simprof_obs::EVENT_SCHEMA_VERSION);
    }
    Ok(())
}

/// `simprof list` — the Table I matrix.
pub fn list(_opts: &Options) -> Result<(), String> {
    println!("{:<10} {:<20} framework", "label", "benchmark");
    for w in WorkloadId::all() {
        println!("{:<10} {:<20} {:?}", w.label(), w.benchmark.abbrev(), w.framework);
    }
    Ok(())
}

fn scale_name(opts: &Options) -> String {
    match opts.scale {
        Scale::Paper => "paper".into(),
        Scale::Tiny => "tiny".into(),
    }
}

/// `simprof profile -w <label> [-o trace.sptrc] [--codec raw|lz]
/// [--report r.json] [--events e.jsonl] [--timeline t.json]`.
///
/// `-o` streams the chunked `.sptrc` format: the trace writer is attached
/// to the profiler as a [`UnitSink`], so units hit the disk while the
/// engine is still running instead of being serialized in one blob
/// afterwards. A `.json` output is refused — the legacy
/// [`TraceBundle`](crate::bundle::TraceBundle) is read-only now.
///
/// Any of `--report`/`--events`/`--timeline` runs the profile inside an
/// observability session: `--events` streams the JSONL event log while the
/// engine runs, `--timeline` converts the finished span tree (including
/// `parallel.worker` slices from the thread pool) to Chrome-trace JSON.
///
/// `--codec lz` compresses each frame (see `simprof_trace::codec`); the
/// default `raw` stores frames verbatim.
pub fn profile(opts: &Options) -> Result<(), String> {
    let label = opts.require_workload("profile")?;
    let id = find_workload(label)?;
    let cfg = workload_config(opts);
    if let Some(path) = opts.output.as_deref().filter(|p| p.ends_with(".json")) {
        return Err(format!(
            "-o {path}: `profile` writes the chunked trace format; name the output \
             <file>.sptrc (JSON bundles are read-only)"
        ));
    }
    let session = obs_session(opts)?;

    let streaming_out = match &opts.output {
        Some(path) => {
            let meta = TraceMeta {
                label: label.to_owned(),
                seed: opts.seed,
                scale: scale_name(opts),
                unit_instrs: cfg.profiler.unit_instrs,
                snapshot_instrs: cfg.profiler.snapshot_instrs,
                core: cfg.profiler.core,
            };
            let writer = TraceWriter::create_compressed(path, &meta, opts.codec)?;
            Some((path.clone(), SharedSink::new(writer)))
        }
        None => None,
    };
    let sinks: Vec<Box<dyn UnitSink>> = match &streaming_out {
        Some((_, writer)) => vec![Box::new(writer.clone())],
        None => Vec::new(),
    };

    let out = {
        let _span = simprof_obs::span!("cli.profile");
        id.run_full_with_sinks(&cfg, sinks)
    };
    println!(
        "profiled {label}: {} sampling units × {} instructions ({} methods, {} tasks)",
        out.trace.units.len(),
        out.trace.unit_instrs,
        out.registry.len(),
        out.total_tasks
    );
    println!("oracle CPI {:.4}", out.trace.oracle_cpi());

    match streaming_out {
        Some((path, writer)) => {
            // Graceful degradation: a trace sink that latched an I/O error
            // (or fails while sealing the footer) must not take the profile
            // run down with it — the units also live in the manager's
            // in-memory collector, so the numeric output above is complete
            // either way. Warn, point at salvage, and exit successfully.
            let sealed = writer.lock().finish(&out.registry);
            match sealed {
                Ok(footer) => println!(
                    "wrote {path} ({} units, chunked v{}, {} codec)",
                    footer.unit_count,
                    footer.version,
                    opts.codec.name()
                ),
                Err(e) => {
                    let retries = writer.lock().retries();
                    eprintln!(
                        "warning: trace sink degraded after {retries} retries ({e}); \
                         results above come from the in-memory trace. {path} may be \
                         unsealed — recover it with `simprof trace-repair -i {path} -o <out>`"
                    );
                }
            }
        }
        None => println!("(no -o/--output given; trace not saved)"),
    }

    if let Some(session) = session {
        let report = session.finish().with_section(
            "config",
            serde_json::json!({
                "workload": label,
                "scale": scale_name(opts),
                "seed": opts.seed,
            }),
        );
        write_obs_outputs(opts, &report)?;
    }
    Ok(())
}

/// `simprof analyze -i trace.sptrc|trace.json` (format auto-detected; a
/// chunked trace streams through the analysis without being materialized).
pub fn analyze(opts: &Options) -> Result<(), String> {
    let input = TraceInput::open(opts.require_input("analyze")?)?;
    let analysis = input.analyze(&pipeline(opts))?;
    println!(
        "{}: {} units, oracle CPI {:.4}, {} phases",
        input.label,
        analysis.cpis.len(),
        analysis.oracle_cpi(),
        analysis.k()
    );
    println!(
        "homogeneity: population CoV {:.3}, weighted {:.3}, max {:.3}",
        analysis.cov.population, analysis.cov.weighted, analysis.cov.max
    );
    for h in 0..analysis.k() {
        let s = &analysis.stats[h];
        println!(
            "  phase {h}: {:>5.1}% of units | CPI {:.3} ± {:.3} (CoV {:.3})",
            analysis.weights[h] * 100.0,
            s.mean,
            s.stddev,
            s.cov
        );
    }
    Ok(())
}

/// `simprof select -i trace.sptrc|trace.json -n 20 [-o points.json]
/// [--report run.json]` — with `--report` (or `--events`/`--timeline`) the
/// read, analysis and selection run inside an observability session, whose
/// span tree splits the trace scan into `trace.decompress` and
/// `trace.parse`.
pub fn select(opts: &Options) -> Result<(), String> {
    let session = obs_session(opts)?;
    let input = TraceInput::open(opts.require_input("select")?)?;
    let analysis = input.analyze(&pipeline(opts))?;
    let points = analysis.select_points(opts.points, split_seed(opts.seed, 0x5E1E));
    let est = analysis.estimate(&points, opts.z);
    if let Some(session) = session {
        write_obs_outputs(opts, &session.finish())?;
    }
    let oracle = analysis.oracle_cpi();
    println!(
        "selected {} simulation points across {} phases (allocation {:?})",
        points.len(),
        analysis.k(),
        points.allocation
    );
    println!("unit ids: {:?}", points.points);
    println!(
        "estimated CPI {:.4} ± {:.4} (z = {}), oracle {:.4}, error {:.2}%",
        est.mean_cpi,
        opts.z * est.se,
        opts.z,
        oracle,
        (est.mean_cpi - oracle).abs() / oracle * 100.0
    );
    if let Some(path) = &opts.output {
        let json = serde_json::json!({
            "label": input.label,
            "points": points.points,
            "per_phase": points.per_phase,
            "allocation": points.allocation,
            "estimate": est,
        });
        let text =
            serde_json::to_string_pretty(&json).map_err(|e| format!("encode points: {e}"))?;
        std::fs::write(path, text).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

/// `simprof run -w <label> [-n 20] [--live [--target-rel-err 0.05]]
/// [--report run.json] [-o points.json]` — the whole pipeline end to end:
/// profile the workload on the simulated substrate, form phases, select
/// simulation points, and estimate.
///
/// With `--live`, phases are formed *online* while the profiler runs
/// (DESIGN.md §16): a [`LiveAnalyzer`] sink seeds centers from a warmup
/// window, classifies each unit as it closes, re-forms on drift, and —
/// with `--target-rel-err` — tracks the live stratified CI so profiling
/// stops as soon as the target half-width is met. With stopping disabled
/// the printed analysis is bit-identical to the offline path.
///
/// With `--report` (or `--events`/`--timeline`), the pipeline executes
/// inside an observability session: the versioned JSON run report (span
/// tree, metrics, phase summary, Eq. 1 allocation table, estimate) goes to
/// `--report`, the streaming JSONL event log to `--events`, and the
/// Chrome-trace timeline to `--timeline`. Without any of them, no session
/// starts and every instrumentation hook stays a single relaxed atomic
/// load; either way the numeric output is identical — reports carry
/// timings out, nothing feeds back in.
pub fn run_workload(opts: &Options) -> Result<(), String> {
    let label = opts.require_workload("run")?;
    let id = find_workload(label)?;
    let cfg = workload_config(opts);

    let session = obs_session(opts)?;

    let mut live_report = None;
    let (units_profiled, analysis) = if opts.live {
        let sp_cfg = SimProfConfig {
            seed: opts.seed,
            live: Some(LiveConfig {
                target_rel_err: opts.target_rel_err.unwrap_or(0.0),
                z: opts.z,
                ..Default::default()
            }),
            ..Default::default()
        };
        let shared = SharedSink::new(LiveAnalyzer::new(sp_cfg, cfg.profiler));
        let out = {
            let _span = simprof_obs::span!("cli.profile");
            id.run_full_with_sinks(&cfg, vec![Box::new(shared.clone())])
        };
        let (analysis, report) = {
            let _span = simprof_obs::span!("cli.phase_formation");
            shared.lock().finalize().map_err(|e| format!("analyze: {e}"))?
        };
        live_report = Some(report);
        ((out.trace.units.len(), out.trace.unit_instrs), analysis)
    } else {
        let out = {
            let _span = simprof_obs::span!("cli.profile");
            id.run_full(&cfg)
        };
        let analysis = {
            let _span = simprof_obs::span!("cli.phase_formation");
            pipeline(opts).analyze(&out.trace).map_err(|e| format!("analyze: {e}"))?
        };
        ((out.trace.units.len(), out.trace.unit_instrs), analysis)
    };
    println!(
        "profiled {label}: {} sampling units × {} instructions",
        units_profiled.0, units_profiled.1
    );
    if let Some(r) = &live_report {
        if r.stopped_early {
            println!(
                "live: stopped early at unit {} ({} units profiled); half-width {:.5} met \
                 target {:.1}% of mean CPI",
                r.stop_unit.unwrap_or(0),
                r.units_profiled,
                r.live_half_width.unwrap_or(0.0),
                opts.target_rel_err.unwrap_or(0.0) * 100.0
            );
        } else {
            println!(
                "live: profiled to completion ({} units); {} phases tracked online, \
                 {} re-formation(s), drift {:.3}",
                r.units_profiled, r.live_k, r.reformations, r.drift
            );
        }
    }
    let points = {
        let _span = simprof_obs::span!("cli.sampling");
        analysis.select_points(opts.points, split_seed(opts.seed, 0x5E1E))
    };
    let est = analysis.estimate(&points, opts.z);
    let oracle = analysis.oracle_cpi();
    println!(
        "{} phases; selected {} points (allocation {:?})",
        analysis.k(),
        points.len(),
        points.allocation
    );
    println!(
        "estimated CPI {:.4} ± {:.4} (z = {}), oracle {:.4}, error {:.2}%",
        est.mean_cpi,
        opts.z * est.se,
        opts.z,
        oracle,
        simprof_core::relative_error(est.mean_cpi, oracle) * 100.0
    );

    if let Some(path) = &opts.output {
        let json = serde_json::json!({
            "label": label,
            "points": points.points,
            "per_phase": points.per_phase,
            "allocation": points.allocation,
            "estimate": est,
        });
        let text =
            serde_json::to_string_pretty(&json).map_err(|e| format!("encode points: {e}"))?;
        std::fs::write(path, text).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path}");
    }

    if let Some(session) = session {
        let report = session
            .finish()
            .with_section(
                "config",
                serde_json::json!({
                    "workload": label,
                    "scale": match opts.scale { Scale::Paper => "paper", Scale::Tiny => "tiny" },
                    "seed": opts.seed,
                    "points": opts.points,
                    "z": opts.z,
                }),
            )
            .with_section(
                "phases",
                serde_json::json!({
                    "stats": serde_json::to_value(&analysis.stats),
                    "homogeneity": serde_json::to_value(&analysis.cov),
                    "k_scores": serde_json::to_value(&analysis.model.k_scores),
                }),
            )
            .with_section("allocation", serde_json::to_value(&analysis.allocation_table(&points)))
            .with_section("estimate", serde_json::to_value(&est));
        let report = match &live_report {
            Some(live) => report.with_section("live", serde_json::to_value(live)),
            None => report,
        };
        write_obs_outputs(opts, &report)?;
    }
    Ok(())
}

/// `simprof size -i trace.sptrc|trace.json --error 0.05 [--z 3]`.
pub fn size(opts: &Options) -> Result<(), String> {
    let input = TraceInput::open(opts.require_input("size")?)?;
    let analysis = input.analyze(&pipeline(opts))?;
    let n = analysis.required_size(opts.z, opts.error);
    println!(
        "{}: {} of {} units needed for {:.1}% relative error at z = {}",
        input.label,
        n,
        input.unit_count(),
        opts.error * 100.0,
        opts.z
    );
    Ok(())
}

/// `simprof report -i trace.sptrc|trace.json` — phases with their
/// characteristic methods.
pub fn report(opts: &Options) -> Result<(), String> {
    let input = TraceInput::open(opts.require_input("report")?)?;
    let analysis = input.analyze(&pipeline(opts))?;
    println!("{}: {} phases", input.label, analysis.k());
    for h in 0..analysis.k() {
        let s = &analysis.stats[h];
        println!(
            "phase {h}: weight {:.1}%, CPI {:.3} (CoV {:.3})",
            analysis.weights[h] * 100.0,
            s.mean,
            s.cov
        );
        for (m, w) in analysis.model.top_methods(h, 3) {
            println!("    {:.2}  {}", w, input.registry.name(MethodId(m as u32)));
        }
    }
    Ok(())
}

/// `simprof validate -i trace.json -n 6` — replay each selected simulation
/// point in isolation (fast-forward, cold caches, one-unit warm-up) and
/// compare replayed CPIs against the profile — the end-to-end check that
/// the selected points are actually simulatable.
pub fn validate(opts: &Options) -> Result<(), String> {
    let bundle = TraceInput::open(opts.require_input("validate")?)?.into_bundle()?;
    let id = find_workload(&bundle.label)?;
    let cfg = match bundle.scale.as_str() {
        "tiny" => WorkloadConfig::tiny(bundle.seed),
        _ => WorkloadConfig::paper(bundle.seed),
    };
    let analysis = pipeline(opts).analyze(&bundle.trace).map_err(|e| format!("analyze: {e}"))?;
    let n = opts.points.min(8); // each replay re-runs the job
    let points = analysis.select_points(n, split_seed(opts.seed, 0x5E1E));
    let unit_instrs = bundle.trace.unit_instrs;
    let warmup = unit_instrs;
    println!(
        "{}: replaying {} points (cold restart, {} instruction warm-up)",
        bundle.label,
        points.len(),
        warmup
    );
    println!("{:>7} {:>10} {:>10} {:>8}", "unit", "profiled", "replayed", "delta");
    let mut total = 0.0;
    let mut count = 0.0;
    for &unit in &points.points {
        let profiled = analysis.cpis[unit as usize];
        match id.replay_unit(&cfg, unit, unit_instrs, warmup) {
            Some(replayed) => {
                let delta = (replayed - profiled).abs() / profiled;
                total += delta;
                count += 1.0;
                println!("{unit:>7} {profiled:>10.4} {replayed:>10.4} {:>7.1}%", delta * 100.0);
            }
            None => println!("{unit:>7} {profiled:>10.4} {:>10} {:>8}", "-", "n/a"),
        }
    }
    if count > 0.0 {
        println!("mean per-point replay deviation: {:.1}%", total / count * 100.0);
    }
    Ok(())
}

/// `simprof export -i trace.json -n 20 -o manifest.json` — write the
/// simulation manifest a detailed simulator consumes (instruction
/// intervals, warm-up, phase weights for re-aggregation).
pub fn export(opts: &Options) -> Result<(), String> {
    let bundle = TraceInput::open(opts.require_input("export")?)?.into_bundle()?;
    let analysis = pipeline(opts).analyze(&bundle.trace).map_err(|e| format!("analyze: {e}"))?;
    let points = analysis.select_points(opts.points, split_seed(opts.seed, 0x5E1E));
    let manifest = simprof_core::SimulationManifest::build(&analysis, &bundle.trace, &points)
        .map_err(|e| format!("export: {e}"))?;
    println!(
        "{}: {} points → {} instructions of detailed simulation ({:.1}% of the job)",
        bundle.label,
        manifest.points.len(),
        manifest.simulated_instrs(),
        manifest.simulated_instrs() as f64 / bundle.trace.total_instrs() as f64 * 100.0
    );
    for p in manifest.points.iter().take(5) {
        let method = p
            .dominant_method
            .map(|m| bundle.registry.name(MethodId(m)).to_owned())
            .unwrap_or_else(|| "?".into());
        println!(
            "  unit {:>5}: instrs [{}, {}) warmup {} | phase {} (w {:.2}) | {}",
            p.unit, p.start_instr, p.end_instr, p.warmup_instrs, p.phase, p.phase_weight, method
        );
    }
    if manifest.points.len() > 5 {
        println!("  ... and {} more", manifest.points.len() - 5);
    }
    if let Some(path) = &opts.output {
        let text =
            serde_json::to_string_pretty(&manifest).map_err(|e| format!("encode manifest: {e}"))?;
        std::fs::write(path, text).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

/// `simprof compare -i trace.json -n 20` — all sampling approaches on one
/// trace (a single-workload Fig. 7 row).
pub fn compare(opts: &Options) -> Result<(), String> {
    use simprof_core::{
        baselines, relative_error, second_points_by_cycles, srs_points, systematic_points,
    };
    let bundle = TraceInput::open(opts.require_input("compare")?)?.into_bundle()?;
    let analysis = pipeline(opts).analyze(&bundle.trace).map_err(|e| format!("analyze: {e}"))?;
    let oracle = analysis.oracle_cpi();
    let n = opts.points;
    println!(
        "{}: oracle CPI {:.4}, {} units, {} phases",
        bundle.label,
        oracle,
        bundle.trace.units.len(),
        analysis.k()
    );
    println!("{:<12} {:>8} {:>10} {:>8}", "approach", "points", "CPI", "error");

    let budget = bundle.trace.total_cycles() / 5;
    let second = second_points_by_cycles(&bundle.trace, budget);
    let reps = 20u64;
    let mut rows: Vec<(&str, usize, f64)> =
        vec![("SECOND", second.points.len(), second.predicted_cpi)];
    let sys = systematic_points(&bundle.trace, n, 0);
    rows.push(("SYSTEMATIC", sys.points.len(), sys.predicted_cpi));
    let mut srs_cpi = 0.0;
    let mut sp_cpi = 0.0;
    for rep in 0..reps {
        let seed = split_seed(opts.seed, 0xC0 + rep);
        srs_cpi += srs_points(&bundle.trace, n, seed).predicted_cpi;
        sp_cpi += baselines::simprof_points(&analysis.model, &bundle.trace, n, seed).predicted_cpi;
    }
    rows.push(("SRS (avg)", n, srs_cpi / reps as f64));
    let code = baselines::code_points(&analysis.model, &bundle.trace);
    rows.push(("CODE", code.points.len(), code.predicted_cpi));
    rows.push(("SimProf (avg)", n, sp_cpi / reps as f64));
    for (name, pts, cpi) in rows {
        println!(
            "{:<12} {:>8} {:>10.4} {:>7.2}%",
            name,
            pts,
            cpi,
            relative_error(cpi, oracle) * 100.0
        );
    }
    Ok(())
}

/// `simprof hybrid -i trace.json -n 20` — the SimProf × systematic
/// estimator at strides 1/2/5/10, with the detailed-simulation budget each
/// stride needs.
pub fn hybrid(opts: &Options) -> Result<(), String> {
    let bundle = TraceInput::open(opts.require_input("hybrid")?)?.into_bundle()?;
    let analysis = pipeline(opts).analyze(&bundle.trace).map_err(|e| format!("analyze: {e}"))?;
    let oracle = analysis.oracle_cpi();
    let points = analysis.select_points(opts.points, split_seed(opts.seed, 0x5E1E));
    println!(
        "{}: {} points over {} phases; oracle CPI {:.4}",
        bundle.label,
        points.len(),
        analysis.k(),
        oracle
    );
    println!(
        "{:>7} {:>10} {:>10} {:>14} {:>12}",
        "stride", "CPI", "error", "sim instrs", "reduction"
    );
    for stride in [1usize, 2, 5, 10] {
        let h = simprof_core::estimate_hybrid(
            &bundle.trace,
            &analysis.model.assignments,
            &points,
            stride,
            opts.z,
        );
        println!(
            "{:>7} {:>10.4} {:>9.2}% {:>14} {:>11.1}%",
            stride,
            h.mean_cpi,
            (h.mean_cpi - oracle).abs() / oracle * 100.0,
            h.simulated_instrs,
            h.slice_reduction() * 100.0
        );
    }
    Ok(())
}

/// `simprof trace-info -i trace.sptrc|trace.json` — trace metadata without
/// an analysis pass.
///
/// For a chunked trace the summary is O(1) in trace size: the header frame
/// is read from the front and the footer is located through the 12-byte
/// trailer at the end. One streaming pass over the chunk frames then adds
/// the codecs seen and the stored-vs-raw compression ratio. Legacy bundles
/// must be parsed whole (the format has no summary section).
pub fn trace_info(opts: &Options) -> Result<(), String> {
    let path = opts.require_input("trace-info")?;
    if opts.salvage {
        return trace_info_salvage(path);
    }
    let input = TraceInput::open(path)?;
    match input.footer() {
        Some(footer) => {
            println!("{path}: chunked trace (schema v{})", footer.version);
            // The stored-vs-raw ratio needs every chunk frame's length
            // fields, so this streams the trace once (payloads are decoded,
            // units are discarded). Frames without a codec byte count as
            // raw.
            let mut reader = TraceReader::open(path)?;
            reader.footer()?;
            while reader.next_unit()?.is_some() {}
            println!("  frame codecs    {}", reader.codecs_seen().join(", "));
            let (stored, raw) = reader.payload_bytes();
            let ratio = if raw == 0 { 1.0 } else { stored as f64 / raw as f64 };
            println!(
                "  payload bytes   {stored} stored / {raw} raw ({:.1}% of raw)",
                ratio * 100.0
            );
            println!("  workload        {}", input.label);
            println!("  seed            {}", input.seed);
            println!("  scale           {}", input.scale);
            println!("  units           {}", footer.unit_count);
            println!("  unit size       {} instructions", input.unit_instrs());
            println!("  method universe {}", footer.method_universe);
            println!("  methods interned {}", footer.registry.len());
            println!("  total instrs    {}", footer.total_instrs);
            println!("  total cycles    {}", footer.total_cycles);
            if footer.total_instrs > 0 {
                println!(
                    "  aggregate CPI   {:.4}",
                    footer.total_cycles as f64 / footer.total_instrs as f64
                );
            }
            println!("  truncated units {}", footer.truncated_units);
            println!("  dropped snaps   {}", footer.dropped_snapshots);
        }
        None => {
            println!("{path}: legacy JSON bundle (v{FORMAT_VERSION})");
            println!("  workload        {}", input.label);
            println!("  seed            {}", input.seed);
            println!("  scale           {}", input.scale);
            println!("  units           {}", input.unit_count());
            println!("  unit size       {} instructions", input.unit_instrs());
            println!("  methods interned {}", input.registry.len());
        }
    }
    Ok(())
}

/// `simprof trace-info --salvage -i damaged.sptrc` — forward-scan a damaged
/// chunked trace (missing trailer, truncated tail, flipped bytes) instead of
/// trusting the footer, and report exactly what survives: every frame whose
/// checksum verifies is decoded, everything else is resynced past.
fn trace_info_salvage(path: &str) -> Result<(), String> {
    let s = TraceReader::open_salvage(path)?;
    let r = &s.report;
    println!("{path}: salvage scan (schema v{}, {} bytes)", r.layout_version, r.file_bytes);
    println!("  state           {}", if r.clean { "clean" } else { "damaged" });
    println!(
        "  header          {}",
        if r.header_recovered { "recovered" } else { "lost (metadata reconstructed)" }
    );
    println!(
        "  footer          {}",
        if r.footer_found { "found" } else { "missing (synthesized from recovered units)" }
    );
    println!("  units recovered {} (in {} chunks)", r.recovered_units, r.recovered_chunks);
    println!("  bad frames      {}", r.bad_frames);
    println!("  resyncs         {}", r.resyncs);
    println!("  bytes skipped   {}", r.skipped_bytes);
    println!("  workload        {}", s.meta.label);
    println!("  seed            {}", s.meta.seed);
    println!("  scale           {}", s.meta.scale);
    println!("  total instrs    {}", s.footer.total_instrs);
    println!("  total cycles    {}", s.footer.total_cycles);
    if !r.clean {
        println!("rewrite into a sealed file with `simprof trace-repair -i {path} -o <out>`");
    }
    Ok(())
}

/// `simprof trace-repair -i damaged.sptrc -o repaired.sptrc [--codec lz]`
/// — salvage a damaged chunked trace (any layout) and rewrite every
/// recovered unit into a fresh, footer-sealed file that the ordinary
/// reader accepts, in the current layout under `--codec` (default raw).
///
/// Repair is lossless over what survived: units from intact chunk frames
/// round-trip bit-identically; units whose frames failed their checksum are
/// gone (they are unrecoverable by construction) and are accounted for in
/// the printed report rather than silently absorbed.
pub fn trace_repair(opts: &Options) -> Result<(), String> {
    let input = opts.require_input("trace-repair")?;
    let out_path = opts
        .output
        .as_deref()
        .ok_or_else(|| "`trace-repair` requires -o/--output <repaired.sptrc>".to_string())?;
    let s = TraceReader::open_salvage(input)?;
    let r = &s.report;
    println!(
        "{input}: recovered {} units in {} chunks from {} bytes \
         ({} bad frames, {} resyncs, {} bytes skipped)",
        r.recovered_units,
        r.recovered_chunks,
        r.file_bytes,
        r.bad_frames,
        r.resyncs,
        r.skipped_bytes
    );
    if r.clean {
        println!("  input was already clean; rewriting it anyway");
    }
    if !r.header_recovered {
        println!("  header frame lost; metadata reconstructed from the recovered units");
    }
    let mut writer = TraceWriter::create_compressed(out_path, &s.meta, opts.codec)?;
    for unit in &s.units {
        writer.push(unit);
    }
    let footer = writer.finish(&s.footer.registry)?;
    println!("wrote {out_path} ({} units, sealed schema v{})", footer.unit_count, footer.version);
    Ok(())
}

/// Renders one job outcome as the line `serve` prints for it.
fn serve_outcome_line(
    spec: &simprof_service::JobSpec,
    result: &Result<simprof_service::JobOutcome, String>,
) -> String {
    match result {
        Ok(o) => {
            let mem = match o.mem_cap_bytes {
                Some(cap) => format!(
                    "peak {} of {} budget bytes{}",
                    o.peak_bytes,
                    cap,
                    if o.within_cap { "" } else { " — OVER BUDGET" }
                ),
                None => format!("peak {} bytes", o.peak_bytes),
            };
            format!(
                "  job {:<16} ok: {} units, {} bytes -> {} [tenant {}] ({} ms, {mem})",
                o.id, o.units, o.trace_bytes, o.shard, o.tenant, o.wall_ms
            )
        }
        Err(e) => format!("  job {:<16} FAILED: {e}", spec.id),
    }
}

/// `simprof serve --jobs jobs.json --store DIR [--codec lz] [--threads N]
/// [--events FILE] [--progress] [--fleet-report FILE] [--fleet-timeline FILE]`
/// — run a batch of profiling jobs concurrently, one shard per job.
///
/// Each job gets its own observability context, allocation-budget slot,
/// and `.sptrc` shard under `DIR/shards/`; finished shards are admitted
/// against their tenant's byte cap and recorded in `DIR/index.json`
/// (sorted by job id, so the index bytes are independent of completion
/// order). A job's shard is bit-identical to what `simprof profile` writes
/// for the same workload/scale/seed/codec, no matter how many neighbors
/// ran beside it. Exits nonzero when any job fails or exceeds its
/// `mem_cap_mb` budget.
///
/// Each job's outcome line is streamed (and flushed) the moment it
/// completes, so a watching terminal or pipe sees progress live; the
/// final summary then repeats every verdict in input order, which is the
/// deterministic record. `--events` appends the fleet's
/// `job_queued`/`job_started`/`job_finished`/`job_failed` lifecycle
/// events to a JSONL log, `--progress` paints a periodic one-line fleet
/// status on stderr, and `--fleet-report`/`--fleet-timeline` write the
/// per-tenant [`simprof_obs::FleetReport`] and the per-worker Chrome
/// timeline after the run (DESIGN.md §18).
pub fn serve(opts: &Options) -> Result<(), String> {
    use std::io::Write as _;

    let jobs_path = opts
        .jobs
        .as_deref()
        .ok_or_else(|| "`serve` requires --jobs <FILE> (a JSON array of job specs)".to_string())?;
    let store_root = opts
        .store
        .as_deref()
        .ok_or_else(|| "`serve` requires --store <DIR> (the trace store root)".to_string())?;
    let specs = simprof_service::load_jobs(jobs_path)?;
    let store = simprof_service::TraceStore::create(store_root)?;
    let concurrency = opts.threads.unwrap_or(4).min(specs.len()).max(1);
    let mut runner = simprof_service::JobRunner::new(store)
        .with_default_codec(opts.codec)
        .with_max_concurrent(concurrency);

    // Lifecycle sinks: a durable JSONL log (--events), a live progress
    // view (--progress), or both teed together.
    let progress = opts.progress.then(simprof_service::FleetProgress::new);
    let mut sinks: Vec<Box<dyn simprof_obs::EventSink>> = Vec::new();
    if let Some(path) = &opts.events {
        sinks.push(Box::new(simprof_obs::JsonlEventWriter::create(std::path::Path::new(path))?));
    }
    if let Some(p) = &progress {
        sinks.push(p.sink());
    }
    match sinks.len() {
        0 => {}
        1 => runner = runner.with_event_sink(sinks.pop().unwrap()),
        _ => runner = runner.with_event_sink(Box::new(simprof_obs::TeeSink(sinks))),
    }

    println!("serving {} jobs ({concurrency} concurrent) into {store_root}", specs.len());
    let ticker = progress.as_ref().map(|p| {
        let view = p.clone();
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = std::sync::Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            while !flag.load(std::sync::atomic::Ordering::Relaxed) {
                eprintln!("{}", view.line());
                std::thread::sleep(std::time::Duration::from_millis(500));
            }
        });
        (stop, handle)
    });

    let results = runner.run_with(&specs, |i, result| {
        let line = serve_outcome_line(&specs[i], result);
        let mut out = std::io::stdout().lock();
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    });

    if let Some((stop, handle)) = ticker {
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let _ = handle.join();
    }
    if let Some(p) = &progress {
        eprintln!("{}", p.line());
    }

    let mut failed = 0usize;
    let mut over_cap = 0usize;
    println!("summary ({} jobs, input order):", specs.len());
    for (spec, result) in specs.iter().zip(&results) {
        match result {
            Ok(o) => {
                if !o.within_cap {
                    over_cap += 1;
                }
            }
            Err(_) => failed += 1,
        }
        println!("{}", serve_outcome_line(spec, result));
    }
    let index_path = runner.store().write_index()?;
    println!("wrote {index_path} ({} shards)", results.iter().filter(|r| r.is_ok()).count());

    if let Some(path) = &opts.fleet_report {
        let report = simprof_service::fleet_report(runner.store(), &specs, &results)?;
        std::fs::write(path, report.to_json_pretty())
            .map_err(|e| format!("write fleet report {path}: {e}"))?;
        println!("wrote fleet report {path}");
    }
    if let Some(path) = &opts.fleet_timeline {
        let slices = simprof_service::fleet_slices(&results);
        simprof_obs::write_fleet_timeline(&slices, std::path::Path::new(path))?;
        println!("wrote fleet timeline {path} ({} job slices)", slices.len());
    }

    if failed > 0 || over_cap > 0 {
        return Err(format!(
            "{failed} of {} jobs failed, {over_cap} exceeded their memory budget",
            specs.len()
        ));
    }
    Ok(())
}

/// `simprof sensitivity -w cc_sp [--threshold 0.10]` — Algorithm 1 over the
/// Table II inputs (graph benchmarks only).
pub fn sensitivity(opts: &Options) -> Result<(), String> {
    let label = opts.require_workload("sensitivity")?;
    let id = find_workload(label)?;
    if !id.benchmark.is_graph() {
        return Err(format!(
            "`sensitivity` needs a graph workload (cc_hp, cc_sp, rank_hp, rank_sp), got {label}"
        ));
    }
    let mut cfg = workload_config(opts);
    // Same scale bump as the Fig. 12/13 harness (see DESIGN.md).
    cfg.graph_scale += 1;
    cfg.graph_degree += 2;

    let train = id.run_full(&cfg);
    let analysis = pipeline(opts).analyze(&train.trace).map_err(|e| format!("analyze: {e}"))?;
    println!("training input Google: {} units, {} phases", train.trace.units.len(), analysis.k());

    let mut references = Vec::new();
    let mut names = Vec::new();
    for &input in GraphInput::ALL.iter().filter(|&&i| i != GraphInput::Google) {
        let g = Kronecker::for_input(input, cfg.graph_scale, cfg.graph_degree)
            .generate(split_seed(cfg.seed, 0x6120 + input as u64));
        let out = id.benchmark.run_on_graph(id.framework, &cfg, &g);
        println!("  profiled reference {:<10} ({} units)", input.label(), out.trace.units.len());
        references.push(out.trace);
        names.push(input.label());
    }
    let refs: Vec<&_> = references.iter().collect();
    let rep = input_sensitivity(&analysis.model, &train.trace, &refs, opts.threshold);

    for h in 0..analysis.k() {
        let movers: Vec<&str> =
            rep.per_reference.iter().zip(&names).filter(|(p, _)| p[h]).map(|(_, &n)| n).collect();
        println!(
            "phase {h} (weight {:.1}%): {}",
            analysis.weights[h] * 100.0,
            if movers.is_empty() {
                "input INSENSITIVE".into()
            } else {
                format!("sensitive — moved by {movers:?}")
            }
        );
    }
    // §III-D-2: name the methods behind the input-sensitive phases.
    let methods = rep.sensitive_methods(&analysis.model, 1);
    if !methods.is_empty() {
        println!("input-sensitive methods:");
        for (h, m, w) in methods {
            println!("  phase {h}: {:.2}  {}", w, train.registry.name(MethodId(m as u32)));
        }
    }
    let points = analysis.select_points(opts.points, split_seed(opts.seed, 0x5E1E));
    let frac = rep.sensitive_point_fraction(&points);
    println!(
        "{}/{} phases sensitive; reference inputs need {:.0}% of the {}-point budget \
         ({:.0}% reduction)",
        rep.sensitive_count(),
        analysis.k(),
        frac * 100.0,
        points.len(),
        (1.0 - frac) * 100.0
    );
    Ok(())
}

/// `simprof diagnose (-w <label> | -i trace) [-n 20] [--reps 50] [--z 3]
/// [-o diag.json]` — estimator diagnostics: the convergence curve (overall
/// and per-phase CI half-widths across a budget sweep) and the empirical
/// CI coverage experiment (replay `--reps` seeded selections of `-n`
/// points each, count how often the stated intervals cover the full-trace
/// oracle, flag phases covering below the 90 % threshold).
pub fn diagnose(opts: &Options) -> Result<(), String> {
    let (label, analysis) = if let Some(path) = &opts.input {
        let input = TraceInput::open(path)?;
        let analysis = input.analyze(&pipeline(opts))?;
        (input.label.clone(), analysis)
    } else if let Some(label) = &opts.workload {
        let id = find_workload(label)?;
        let out = id.run_full(&workload_config(opts));
        let analysis = pipeline(opts).analyze(&out.trace).map_err(|e| format!("analyze: {e}"))?;
        (label.clone(), analysis)
    } else {
        return Err("`diagnose` requires -w/--workload or -i/--input".into());
    };

    let units = analysis.cpis.len();
    println!(
        "{label}: {} units, {} phases, oracle CPI {:.4}",
        units,
        analysis.k(),
        analysis.oracle_cpi()
    );

    let budgets = simprof_core::default_budgets(analysis.k(), opts.points, units);
    let curve =
        simprof_core::convergence_curve(&analysis, &budgets, opts.z, split_seed(opts.seed, 0xD1A6));
    println!("convergence (z = {}; independent seeded selection per budget):", opts.z);
    println!("{:>8} {:>12} {:>12}  per-phase half-widths", "budget", "se", "half-width");
    for p in &curve {
        let widths: Vec<String> =
            p.per_phase.iter().map(|w| format!("{}:{:.4}", w.phase, w.half_width)).collect();
        println!("{:>8} {:>12.6} {:>12.6}  {}", p.budget, p.se, p.half_width, widths.join(" "));
    }

    let cov = simprof_core::coverage(
        &analysis,
        opts.points,
        opts.z,
        opts.reps,
        split_seed(opts.seed, 0xC0FE),
        simprof_core::FLAG_BELOW,
    );
    println!(
        "coverage over {} replications of n = {}: overall {:.1}% (mean half-width {:.4})",
        cov.reps,
        cov.n,
        cov.overall_coverage * 100.0,
        cov.mean_half_width
    );
    println!(
        "{:>6} {:>7} {:>8} {:>10} {:>6} {:>9} {:>12} {:>6}",
        "phase", "units", "weight", "true CPI", "reps", "coverage", "half-width", "flag"
    );
    for p in &cov.per_phase {
        println!(
            "{:>6} {:>7} {:>7.1}% {:>10.4} {:>6} {:>8.1}% {:>12.4} {:>6}",
            p.phase,
            p.units,
            p.weight * 100.0,
            p.true_mean,
            p.reps,
            p.coverage * 100.0,
            p.mean_half_width,
            if p.flagged { "LOW" } else { "ok" }
        );
    }
    let flagged = cov.flagged_phases();
    if flagged.is_empty() {
        println!("all phases at or above {:.0}% empirical coverage", cov.flag_below * 100.0);
    } else {
        println!("flagged phases (coverage below {:.0}%): {flagged:?}", cov.flag_below * 100.0);
    }

    if let Some(path) = &opts.output {
        let json = serde_json::json!({
            "label": label,
            "units": units,
            "convergence": serde_json::to_value(&curve),
            "coverage": serde_json::to_value(&cov),
        });
        let text =
            serde_json::to_string_pretty(&json).map_err(|e| format!("encode diagnostics: {e}"))?;
        std::fs::write(path, text).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

/// `simprof timeline -i run_report.json -o timeline.json` — convert a
/// previously written run report into Chrome-trace/Perfetto timeline JSON
/// (load it at `chrome://tracing` or <https://ui.perfetto.dev>).
pub fn timeline(opts: &Options) -> Result<(), String> {
    let input = opts.require_input("timeline")?;
    let text = std::fs::read_to_string(input).map_err(|e| format!("read {input}: {e}"))?;
    let report: simprof_obs::RunReport = serde_json::from_str(text.trim())
        .map_err(|e| format!("parse {input} as a run report: {e}"))?;
    let out = opts
        .output
        .as_deref()
        .ok_or_else(|| "`timeline` requires -o/--output <timeline.json>".to_string())?;
    simprof_obs::write_chrome_trace(&report, std::path::Path::new(out))?;
    println!("wrote {out} ({} root spans, chrome://tracing / Perfetto JSON)", report.spans.len());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(s: &str) -> Options {
        let argv: Vec<String> = s.split_whitespace().map(str::to_owned).collect();
        Options::parse(&argv).unwrap()
    }

    #[test]
    fn find_workload_resolves_labels() {
        assert!(find_workload("wc_sp").is_ok());
        assert!(find_workload("rank_hp").is_ok());
        let err = find_workload("nope").unwrap_err();
        assert!(err.contains("available"), "{err}");
    }

    #[test]
    fn chunked_profile_feeds_every_trace_command() {
        let dir = std::env::temp_dir().join("simprof_cli_chunked_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("grep.sptrc");
        let path = path.to_str().unwrap();

        // `-o` streams the chunked format while profiling.
        profile(&opts(&format!("-w grep_sp --scale tiny --seed 5 -o {path}"))).unwrap();
        assert!(simprof_trace::is_chunked(path), "profile wrote the chunked format");
        assert_eq!(&std::fs::read(path).unwrap()[..8], simprof_trace::MAGIC);
        trace_info(&opts(&format!("-i {path}"))).unwrap();
        analyze(&opts(&format!("-i {path}"))).unwrap();
        select(&opts(&format!("-i {path} -n 5"))).unwrap();
        size(&opts(&format!("-i {path} --error 0.10"))).unwrap();
        report(&opts(&format!("-i {path}"))).unwrap();
        hybrid(&opts(&format!("-i {path} -n 5"))).unwrap();
        compare(&opts(&format!("-i {path} -n 5"))).unwrap();
        let manifest_path = dir.join("manifest.json");
        let manifest_path = manifest_path.to_str().unwrap();
        export(&opts(&format!("-i {path} -n 5 -o {manifest_path}"))).unwrap();
        assert!(std::fs::read_to_string(manifest_path).unwrap().contains("warmup_instrs"));
        validate(&opts(&format!("-i {path} -n 2"))).unwrap();
        let _ = std::fs::remove_file(manifest_path);
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn profile_refuses_a_json_output_and_names_sptrc() {
        let path = std::env::temp_dir().join("simprof_cli_refused.json");
        let path = path.to_str().unwrap();
        let err =
            profile(&opts(&format!("-w grep_sp --scale tiny --seed 5 -o {path}"))).unwrap_err();
        assert!(err.contains(".sptrc"), "{err}");
        assert!(!std::path::Path::new(path).exists(), "nothing was written");
    }

    #[test]
    fn codec_raw_flag_and_no_flag_write_identical_bytes() {
        let dir = std::env::temp_dir().join("simprof_cli_codec_test");
        std::fs::create_dir_all(&dir).unwrap();
        let default = dir.join("default.sptrc");
        let raw = dir.join("raw.sptrc");
        let (default, raw) = (default.to_str().unwrap(), raw.to_str().unwrap());
        profile(&opts(&format!("-w grep_sp --scale tiny --seed 5 -o {default}"))).unwrap();
        profile(&opts(&format!("-w grep_sp --scale tiny --seed 5 --codec raw -o {raw}"))).unwrap();
        assert!(std::fs::read(default).unwrap() == std::fs::read(raw).unwrap());
        let _ = std::fs::remove_file(default);
        let _ = std::fs::remove_file(raw);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn run_emits_versioned_report_with_required_sections() {
        let dir = std::env::temp_dir().join("simprof_cli_run_test");
        std::fs::create_dir_all(&dir).unwrap();
        let report_path = dir.join("run_report.json");
        let report_path = report_path.to_str().unwrap();

        run_workload(&opts(&format!(
            "-w grep_sp --scale tiny --seed 5 -n 5 --report {report_path}"
        )))
        .unwrap();
        let text = std::fs::read_to_string(report_path).unwrap();
        let report: simprof_obs::RunReport = serde_json::from_str(text.trim_end()).unwrap();
        assert_eq!(report.version, simprof_obs::REPORT_VERSION);
        // The span tree covers the three pipeline stages, with the engine
        // and phase-formation internals nested beneath them.
        for stage in ["cli.profile", "cli.phase_formation", "cli.sampling"] {
            assert!(report.find_span(stage).is_some(), "missing span {stage}");
        }
        assert!(report.find_span("cli.profile").unwrap().find("engine.run").is_some());
        assert!(report
            .find_span("cli.phase_formation")
            .unwrap()
            .find("core.form_phases")
            .is_some());
        assert!(report.find_span("cli.sampling").unwrap().find("core.select_points").is_some());
        // Metrics and the caller-attached sections made it through.
        assert!(report.metrics.counters.contains_key("profiler.units"));
        for section in ["config", "phases", "allocation", "estimate"] {
            assert!(report.sections.contains_key(section), "missing section {section}");
        }
        let _ = std::fs::remove_file(report_path);

        // Without --report, the same invocation runs sessionless.
        run_workload(&opts("-w grep_sp --scale tiny --seed 5 -n 5")).unwrap();
    }

    #[test]
    fn profile_streams_events_and_timeline_with_worker_slices() {
        let dir = std::env::temp_dir().join("simprof_cli_obs_test");
        std::fs::create_dir_all(&dir).unwrap();
        let events = dir.join("events.jsonl");
        let timeline_path = dir.join("timeline.json");
        let report_path = dir.join("obs_report.json");
        let run_timeline = dir.join("run_timeline.json");
        let run_report = dir.join("run_obs_report.json");
        // Force a real pool: on a single-core host the parallel regions
        // would otherwise run inline and never spawn worker threads.
        rayon::set_threads(2);
        let profiled = profile(&opts(&format!(
            "-w grep_sp --scale tiny --seed 5 --events {} --timeline {} --report {}",
            events.display(),
            timeline_path.display(),
            report_path.display()
        )));
        // Profiling itself is single-threaded (job builds and the engine
        // turn loop never enter the pool); `run` adds the analysis, whose
        // parallel regions put slices on worker rows. (wc_sp: grep_sp's
        // tiny analysis is small enough to stay off the pool entirely.)
        let ran = run_workload(&opts(&format!(
            "-w wc_sp --scale tiny --seed 5 -n 5 --timeline {} --report {}",
            run_timeline.display(),
            run_report.display()
        )));
        rayon::set_threads(0);
        profiled.unwrap();
        ran.unwrap();

        // Event log: meta header first, then span and unit-closed records.
        let log = std::fs::read_to_string(&events).unwrap();
        let first: serde_json::Value = serde_json::from_str(log.lines().next().unwrap()).unwrap();
        assert_eq!(first.get("kind").and_then(|v| v.as_str()), Some("meta"));
        assert_eq!(first.get("seq").and_then(|v| v.as_u64()), Some(0));
        assert!(log.contains("span_open"), "event log records span opens");
        assert!(log.contains("unit_closed"), "event log records closed units");

        // Timeline: Chrome-trace JSON with begin slices; the run's timeline
        // has slices on at least one worker tid.
        let tl = std::fs::read_to_string(&timeline_path).unwrap();
        assert!(tl.contains("traceEvents"));
        assert!(tl.contains("\"B\""), "timeline has begin slices");
        assert!(std::fs::read_to_string(&report_path).unwrap().contains("engine.run"));
        let tl = std::fs::read_to_string(&run_timeline).unwrap();
        assert!(tl.contains("worker-"), "timeline names a worker thread");

        // The run report carries the worker span off the driver thread.
        let report: simprof_obs::RunReport =
            serde_json::from_str(std::fs::read_to_string(&run_report).unwrap().trim()).unwrap();
        let worker = report.find_span("parallel.worker").expect("worker span recorded");
        assert_ne!(worker.thread, 0, "worker span attributed to a pool thread");

        for p in [&events, &timeline_path, &report_path, &run_timeline, &run_report] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn run_accepts_events_and_timeline_without_report() {
        let dir = std::env::temp_dir().join("simprof_cli_run_obs_test");
        std::fs::create_dir_all(&dir).unwrap();
        let events = dir.join("run_events.jsonl");
        let timeline_path = dir.join("run_timeline.json");
        run_workload(&opts(&format!(
            "-w grep_sp --scale tiny --seed 5 -n 5 --events {} --timeline {}",
            events.display(),
            timeline_path.display()
        )))
        .unwrap();
        assert!(std::fs::read_to_string(&events).unwrap().contains("span_close"));
        assert!(std::fs::read_to_string(&timeline_path).unwrap().contains("traceEvents"));
        let _ = std::fs::remove_file(&events);
        let _ = std::fs::remove_file(&timeline_path);
    }

    #[test]
    fn diagnose_reports_coverage_and_writes_json() {
        let dir = std::env::temp_dir().join("simprof_cli_diag_test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("diag.json");
        diagnose(&opts(&format!(
            "-w grep_sp --scale tiny --seed 5 -n 5 --reps 8 -o {}",
            out.display()
        )))
        .unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        let json: serde_json::Value = serde_json::from_str(text.trim()).unwrap();
        assert!(json.get("convergence").is_some());
        let cov = json.get("coverage").expect("coverage section");
        assert_eq!(cov.get("reps").and_then(|v| v.as_u64()), Some(8));
        assert!(cov.get("overall_coverage").is_some());
        let _ = std::fs::remove_file(&out);

        // Without -w or -i, diagnose refuses.
        assert!(diagnose(&opts("--reps 3")).is_err());
    }

    #[test]
    fn timeline_command_converts_a_run_report() {
        let dir = std::env::temp_dir().join("simprof_cli_timeline_test");
        std::fs::create_dir_all(&dir).unwrap();
        let report_path = dir.join("tl_report.json");
        let out = dir.join("tl_out.json");
        run_workload(&opts(&format!(
            "-w grep_sp --scale tiny --seed 5 -n 5 --report {}",
            report_path.display()
        )))
        .unwrap();
        timeline(&opts(&format!("-i {} -o {}", report_path.display(), out.display()))).unwrap();
        let tl = std::fs::read_to_string(&out).unwrap();
        assert!(tl.contains("traceEvents"));
        assert!(tl.contains("thread_name"));
        // Missing -o is an explicit error, not a silent no-op.
        assert!(timeline(&opts(&format!("-i {}", report_path.display()))).is_err());
        let _ = std::fs::remove_file(&report_path);
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn trace_repair_revives_a_truncated_trace() {
        let dir = std::env::temp_dir().join("simprof_cli_repair_test");
        std::fs::create_dir_all(&dir).unwrap();
        let whole = dir.join("whole.sptrc");
        let whole = whole.to_str().unwrap();
        let cut = dir.join("cut.sptrc");
        let cut_s = cut.to_str().unwrap();
        let fixed = dir.join("fixed.sptrc");
        let fixed_s = fixed.to_str().unwrap();

        profile(&opts(&format!("-w grep_sp --scale tiny --seed 5 -o {whole}"))).unwrap();
        // Re-chunk the trace into small unit frames: the tiny profile fits
        // inside one default-sized chunk, and a single torn frame would
        // leave salvage nothing intact to recover.
        let (trace, footer) = simprof_trace::read_trace(whole).unwrap();
        let meta = TraceMeta {
            label: "grep_sp".into(),
            seed: 5,
            scale: "tiny".into(),
            unit_instrs: trace.unit_instrs,
            snapshot_instrs: trace.snapshot_instrs,
            core: trace.core,
        };
        let mut rechunk = TraceWriter::create(whole, &meta).unwrap().with_chunk_units(8);
        for u in &trace.units {
            rechunk.push(u);
        }
        rechunk.finish(&footer.registry).unwrap();
        // Chop the tail off — trailer and footer gone, as after a crash.
        let bytes = std::fs::read(whole).unwrap();
        std::fs::write(&cut, &bytes[..bytes.len() - bytes.len() / 3]).unwrap();

        // The strict reader refuses the torn file and names the way out.
        let err = trace_info(&opts(&format!("-i {cut_s}"))).unwrap_err();
        assert!(err.contains("trace-repair") || err.contains("--salvage"), "{err}");
        // Salvage-mode info reads it without error.
        trace_info(&opts(&format!("--salvage -i {cut_s}"))).unwrap();
        // trace-repair needs an output path.
        assert!(trace_repair(&opts(&format!("-i {cut_s}"))).is_err());

        trace_repair(&opts(&format!("-i {cut_s} -o {fixed_s}"))).unwrap();
        // The repaired file is a first-class sealed trace again: every
        // downstream command takes it without salvage.
        trace_info(&opts(&format!("-i {fixed_s}"))).unwrap();
        analyze(&opts(&format!("-i {fixed_s}"))).unwrap();

        // The recovered prefix matches the original unit-for-unit.
        let original = simprof_trace::read_trace(whole).unwrap();
        let repaired = simprof_trace::read_trace(fixed_s).unwrap();
        assert!(!repaired.0.units.is_empty(), "truncation left recoverable chunks");
        assert!(repaired.0.units.len() < original.0.units.len());
        assert_eq!(repaired.0.units[..], original.0.units[..repaired.0.units.len()]);

        for p in [whole, cut_s, fixed_s] {
            let _ = std::fs::remove_file(p);
        }
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn sensitivity_rejects_text_workloads() {
        let err = sensitivity(&opts("-w wc_sp --scale tiny")).unwrap_err();
        assert!(err.contains("graph workload"), "{err}");
    }

    #[test]
    fn profile_requires_known_workload() {
        assert!(profile(&opts("-w bogus --scale tiny")).is_err());
    }
}
