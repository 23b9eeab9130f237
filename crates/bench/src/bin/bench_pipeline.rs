//! Pipeline-throughput benchmark: writes the two records `perf_gate`
//! compares against `canonical/`.
//!
//! ```text
//! cargo run --release -p simprof-bench --bin bench_pipeline -- \
//!     [--quick] [--threads N] [-o BENCH_pipeline.json] \
//!     [--report REPORT.json] [--events EVENTS.jsonl] [--timeline TIMELINE.json] \
//!     [--trace-stream BENCH_trace_stream.json] [--mem-cap-mb N]
//! ```
//!
//! **The pipeline record** ([`PipelineRecord`], `-o`). A run that asks for
//! the record, for an observability artifact, or for no output at all
//! times the simulate→analyze hot path in four phases — **synthesize** (a
//! 2000 × 100 synthetic feature matrix, 400 × 40 with `--quick`),
//! **simulate** (the best of three real engine runs, each with the same
//! trace bytes, replayed at 1 thread to prove the bytes are identical),
//! **cluster** ([`choose_k`], with a 1-thread replay proving the
//! assignments are identical), and **sampling** (the Eq. 1 allocator) —
//! next to the naive pre-optimization sweep (one thread, a cold 4-restart
//! k-means and the naive `O(n²·d)` silhouette per candidate k) that
//! `perf_gate` normalizes every phase to. A divergence in either replay
//! exits non-zero.
//!
//! With `--report`, the run executes under an observability context and
//! writes the versioned run report (span tree, metrics, Eq. 1 allocation
//! table), which CI schema-checks with the `report_check` bin. `--events`
//! streams the structured JSONL event log while the bench runs and
//! `--timeline` converts the finished span tree to Chrome-trace JSON;
//! either implies a context, and `report_check` validates both formats.
//!
//! **The trace-stream record** ([`TraceStreamRecord`], `--trace-stream`).
//! A heavy synthetic trace is written in the chunked `simprof-trace`
//! format, analyzed once fully materialized and once streamed
//! chunk-by-chunk from disk, and the real peak heap of each path (measured
//! by `simprof-obs`'s tracking allocator, installed here as the global
//! allocator) is recorded. The two analyses must be bit-identical or the
//! bench exits non-zero; `--mem-cap-mb` also fails the run when the
//! *streamed* peak exceeds the cap (CI's large-trace memory smoke). Given
//! without a pipeline output, `--trace-stream` runs only this comparison.

use std::time::Instant;

use rand::RngExt;
use simprof_bench::apply_thread_flag;
use simprof_bench::records::{
    write_record, ClusterRecord, PipelinePhases, PipelineRecord, SimulateRecord, TraceStreamRecord,
};
use simprof_core::SimProf;
use simprof_engine::{FaultPlan, MethodId};
use simprof_obs::TrackingAllocator;
use simprof_profiler::{ProfileTrace, SamplingUnit};
use simprof_sim::{Counters, MachineConfig};
use simprof_stats::{
    choose_k, kmeans, optimal_allocation, seeded, silhouette_score, stddev, KMeans, Matrix,
    StratumStats,
};
use simprof_trace::{read_trace, TraceMeta, TraceReader, TraceWriter};
use simprof_workloads::{Benchmark, Framework, WorkloadConfig};

/// Every allocation in this binary goes through the tracking allocator so
/// the `--trace-stream` comparison reports real peak heap, not estimates.
#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

/// Seed of every synthetic input, the simulation and the sweeps.
const SEED: u64 = 42;

struct Args {
    quick: bool,
    output: Option<String>,
    report: Option<String>,
    events: Option<String>,
    timeline: Option<String>,
    trace_stream: Option<String>,
    mem_cap_mb: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let argv = apply_thread_flag(std::env::args().skip(1).collect())?;
    let mut args = Args {
        quick: false,
        output: None,
        report: None,
        events: None,
        timeline: None,
        trace_stream: None,
        mem_cap_mb: None,
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--quick" => args.quick = true,
            "-o" | "--output" => args.output = Some(value(&flag)?),
            "--report" => args.report = Some(value(&flag)?),
            "--events" => args.events = Some(value(&flag)?),
            "--timeline" => args.timeline = Some(value(&flag)?),
            "--trace-stream" => args.trace_stream = Some(value(&flag)?),
            "--mem-cap-mb" => {
                args.mem_cap_mb =
                    Some(value(&flag)?.parse().map_err(|e| format!("invalid --mem-cap-mb: {e}"))?)
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(args)
}

/// Shape of the synthetic sweep: the canonical 2000 × 100 matrix with
/// k ≤ 20, or 400 × 40 with k ≤ 10 under `--quick`.
struct Sweep {
    units: usize,
    features: usize,
    k_max: usize,
}

impl Sweep {
    fn pick(quick: bool) -> Self {
        if quick {
            Self { units: 400, features: 40, k_max: 10 }
        } else {
            Self { units: 2000, features: 100, k_max: 20 }
        }
    }
}

/// A synthetic phase-structured trace: 6 latent behaviours, each a distinct
/// sparse method signature, plus per-unit jitter — the shape `form_phases`
/// sees after feature selection.
fn synthetic_trace(units: usize, features: usize, seed: u64) -> Matrix {
    const BEHAVIOURS: usize = 6;
    let mut rng = seeded(seed);
    let mut rows = Vec::with_capacity(units);
    for i in 0..units {
        let b = i % BEHAVIOURS;
        let mut row = vec![0.0f64; features];
        for (j, v) in row.iter_mut().enumerate() {
            // Behaviour b is loud on its own band of features, quiet elsewhere.
            let base = if j % BEHAVIOURS == b { 8.0 } else { 0.5 };
            *v = base + rng.random::<f64>() * 0.6;
        }
        rows.push(row);
    }
    Matrix::from_rows(&rows)
}

/// The pre-optimization sweep: cold 4-restart k-means + naive silhouette
/// per k, sequential (the caller pins the worker count to 1 around this).
fn baseline_sweep(data: &Matrix, k_max: usize, seed: u64) -> (usize, Vec<(usize, f64)>) {
    let scores: Vec<(usize, f64)> = (2..=k_max.min(data.rows()))
        .map(|k| {
            let r = kmeans(data, KMeans::new(k, seed));
            (k, silhouette_score(data, &r.assignments))
        })
        .collect();
    let best = scores.iter().map(|&(_, s)| s).fold(f64::NEG_INFINITY, f64::max);
    let chosen = scores.iter().find(|&&(_, s)| s >= 0.9 * best).map_or(1, |&(k, _)| k);
    (chosen, scores)
}

/// Scale knobs for the streamed-vs-batch trace comparison. The point is a
/// trace whose *units* are heavy (dense histograms, many slices) at a
/// modest unit count — per-unit memory is what the streaming path saves,
/// while the `choose_k` sweep's working set is the same on both paths.
struct TraceScale {
    units: usize,
    hist_entries: usize,
    slices: usize,
    universe: usize,
    chunk_units: usize,
}

impl TraceScale {
    fn pick(quick: bool) -> Self {
        if quick {
            Self { units: 320, hist_entries: 1200, slices: 250, universe: 12000, chunk_units: 32 }
        } else {
            Self { units: 900, hist_entries: 1400, slices: 300, universe: 16000, chunk_units: 64 }
        }
    }
}

/// A heavy synthetic profile: 6 latent behaviours over a large method
/// universe, with per-unit cycles correlated to the behaviour so feature
/// selection has real signal. Histograms are sorted by method id, as the
/// profiler emits them.
fn heavy_trace(scale: &TraceScale, seed: u64) -> ProfileTrace {
    const BEHAVIOURS: u64 = 6;
    const SNAPSHOTS: u32 = 512;
    const UNIT_INSTRS: u64 = 1_000_000;
    let mut rng = seeded(seed);
    let stride = (scale.universe / scale.hist_entries).max(1);
    let units = (0..scale.units as u64)
        .map(|i| {
            let b = i % BEHAVIOURS;
            let histogram: Vec<(MethodId, u32)> = (0..scale.hist_entries)
                .map(|e| {
                    // Offsets below `stride` keep ids strictly increasing.
                    let m = e * stride + (i as usize + e) % stride;
                    let loud = m as u64 % BEHAVIOURS == b;
                    let count = if loud {
                        200 + (rng.random::<u64>() % 56) as u32
                    } else {
                        1 + (rng.random::<u64>() % 9) as u32
                    };
                    (MethodId(m as u32), count.min(SNAPSHOTS))
                })
                .collect();
            let cycles = UNIT_INSTRS * (10 + b * 3) / 10 + rng.random::<u64>() % (UNIT_INSTRS / 20);
            let slices = (0..scale.slices as u64)
                .map(|s| {
                    let instrs = UNIT_INSTRS / scale.slices as u64;
                    (instrs, instrs * (10 + (b + s) % BEHAVIOURS) / 10)
                })
                .collect();
            SamplingUnit {
                id: i,
                histogram,
                snapshots: SNAPSHOTS,
                counters: Counters { instructions: UNIT_INSTRS, cycles, ..Counters::default() },
                slices,
                truncated: false,
                dropped_snapshots: 0,
            }
        })
        .collect();
    ProfileTrace { unit_instrs: UNIT_INSTRS, snapshot_instrs: UNIT_INSTRS / 1000, core: 0, units }
}

/// Streamed-vs-batch comparison: write a heavy trace in the chunked
/// format, analyze it fully materialized and then streamed from disk, and
/// record the real peak heap of each path. Errors on any analysis
/// divergence and on a streamed peak over `mem_cap_mb`.
fn trace_stream_bench(
    quick: bool,
    mem_cap_mb: Option<usize>,
    out_path: &str,
) -> Result<(), String> {
    let scale = TraceScale::pick(quick);
    let trace = heavy_trace(&scale, SEED);
    let n = trace.units.len();
    let file = std::env::temp_dir().join(format!("simprof_bench_trace_{SEED}.sptrc"));
    let file = file.to_str().ok_or("temp path is not UTF-8")?.to_owned();

    let meta = TraceMeta {
        label: "bench_synthetic".into(),
        seed: SEED,
        scale: if quick { "quick".into() } else { "full".into() },
        unit_instrs: trace.unit_instrs,
        snapshot_instrs: trace.snapshot_instrs,
        core: trace.core,
    };
    let registry = simprof_engine::MethodRegistry::default();
    let mut writer = TraceWriter::create(&file, &meta)?.with_chunk_units(scale.chunk_units);
    for unit in &trace.units {
        writer.push(unit);
    }
    let footer = writer.finish(&registry)?;
    drop(trace);
    let file_bytes = std::fs::metadata(&file).map_err(|e| format!("stat {file}: {e}"))?.len();

    let cleanup = |r: Result<TraceStreamRecord, String>| {
        let _ = std::fs::remove_file(&file);
        r
    };
    let record = cleanup((|| {
        let sp = SimProf::default();

        // Batch: materialize the whole trace, then analyze in memory.
        let batch_base = simprof_obs::current_alloc_bytes();
        simprof_obs::reset_peak();
        let t0 = Instant::now();
        let (materialized, _) = read_trace(&file)?;
        let batch = sp.analyze(&materialized).map_err(|e| format!("batch analyze: {e}"))?;
        let batch_secs = t0.elapsed().as_secs_f64();
        let batch_peak = simprof_obs::peak_alloc_bytes().saturating_sub(batch_base);
        drop(materialized);

        // Streamed: the chunked file read one chunk at a time. Its
        // histograms outgrow the top-K budget, so it is read twice.
        let stream_base = simprof_obs::current_alloc_bytes();
        simprof_obs::reset_peak();
        let t1 = Instant::now();
        let mut reader = TraceReader::open(&file)?;
        let streamed =
            sp.analyze_stream(&mut reader).map_err(|e| format!("streamed analyze: {e}"))?;
        let streamed_secs = t1.elapsed().as_secs_f64();
        let streamed_peak = simprof_obs::peak_alloc_bytes().saturating_sub(stream_base);

        if batch.cpis != streamed.cpis
            || batch.model.assignments != streamed.model.assignments
            || batch.model.space != streamed.model.space
            || batch.stats != streamed.stats
        {
            return Err("streamed analysis diverged from batch analysis".into());
        }

        let universe = footer.method_universe;
        println!(
            "trace stream: {n} units × {} hist entries, universe {universe}",
            scale.hist_entries
        );
        println!("  file: {:.1} MiB, chunk = {} units", file_bytes as f64 / MIB, scale.chunk_units);
        println!("  batch:    {batch_secs:>7.3} s, peak heap {:>7.1} MiB", batch_peak as f64 / MIB);
        println!(
            "  streamed: {streamed_secs:>7.3} s, peak heap {:>7.1} MiB",
            streamed_peak as f64 / MIB
        );
        println!(
            "  streamed/batch peak ratio: {:.2}  (dense matrix would be {:.1} MiB)",
            streamed_peak as f64 / batch_peak.max(1) as f64,
            (n * universe * 8) as f64 / MIB
        );

        Ok(TraceStreamRecord {
            bench: "trace_stream/streamed_vs_batch".into(),
            units: n,
            hist_entries_per_unit: scale.hist_entries,
            slices_per_unit: scale.slices,
            method_universe: universe,
            chunk_units: scale.chunk_units,
            seed: SEED,
            trace_file_bytes: file_bytes,
            batch_secs,
            streamed_secs,
            peak_alloc_bytes_batch: batch_peak,
            peak_alloc_bytes_streamed: streamed_peak,
            stream_to_batch_peak_ratio: streamed_peak as f64 / batch_peak.max(1) as f64,
            // What projection would cost without top-K selection: n × universe
            // doubles. Computed, never allocated.
            dense_matrix_bytes: n * universe * 8,
            bit_identical: true,
            mem_cap_mb,
        })
    })())?;

    if let Some(cap) = mem_cap_mb {
        if record.peak_alloc_bytes_streamed as f64 > cap as f64 * MIB {
            return Err(format!(
                "streamed peak heap {:.1} MiB exceeds --mem-cap-mb {cap}",
                record.peak_alloc_bytes_streamed as f64 / MIB
            ));
        }
        println!("  memory smoke: streamed peak within {cap} MiB cap");
    }

    write_record(out_path, &record)?;
    println!("wrote {out_path}");
    Ok(())
}

const MIB: f64 = 1024.0 * 1024.0;

/// Timed repetitions of the simulate phase; the phase reports the fastest,
/// so one descheduled run on a busy machine does not read as a regression.
const SIMULATE_REPS: usize = 3;

/// What the simulate phase measured: the fastest of the timed engine runs
/// plus the verdict on their trace bytes and on the 1-thread replay's.
struct SimulateOutcome {
    secs: f64,
    sim_units: usize,
    trace_bytes: usize,
    identical: bool,
}

/// Simulate phase: a full engine run — WordCount on the Spark-style runtime,
/// a 4-core machine, GC noise, and a chaotic fault plan — timed
/// [`SIMULATE_REPS`] times at the requested thread count (the best time
/// counts), then replayed pinned to 1 thread. The serialized profile traces
/// of every run must be byte-identical (DESIGN.md §15.1). The plan keeps
/// `speculative: false` only so the record stays comparable with the
/// committed canonical one.
fn simulate_phase(seed: u64, threads: usize, quick: bool) -> SimulateOutcome {
    let _span = simprof_obs::span!("bench.simulate");
    let mut cfg = WorkloadConfig::tiny(seed);
    cfg.machine = MachineConfig::scaled(4);
    if !quick {
        cfg.text_bytes = 1 << 20;
        cfg.partitions = 8;
        cfg.reducers = 4;
    }
    cfg.sched.faults = FaultPlan { speculative: false, ..FaultPlan::uniform(60_000, seed) };
    let run = || {
        let trace = Benchmark::WordCount.run(Framework::Spark, &cfg);
        let units = trace.units.len();
        (serde_json::to_string(&trace).expect("trace serializes").into_bytes(), units)
    };
    let mut secs = f64::INFINITY;
    let mut runs = Vec::with_capacity(SIMULATE_REPS);
    for _ in 0..SIMULATE_REPS {
        let t = Instant::now();
        let run = run();
        secs = secs.min(t.elapsed().as_secs_f64());
        runs.push(run);
    }
    rayon::set_threads(1);
    let (serial_bytes, _) = run();
    rayon::set_threads(threads);
    let (bytes, sim_units) = runs.swap_remove(0);
    let identical = serial_bytes == bytes && runs.iter().all(|(b, _)| *b == bytes);
    SimulateOutcome { secs, sim_units, trace_bytes: bytes.len(), identical }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    // The pipeline phases run when one of their outputs is requested, or
    // when no output is (a plain timing run); `--trace-stream` alone runs
    // only its own comparison.
    let wants_obs = args.report.is_some() || args.events.is_some() || args.timeline.is_some();
    if wants_obs || args.output.is_some() || args.trace_stream.is_none() {
        pipeline(&args, wants_obs);
    }
    if let Some(path) = &args.trace_stream {
        if let Err(e) = trace_stream_bench(args.quick, args.mem_cap_mb, path) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// Times the four pipeline phases next to the naive baseline sweep and
/// writes the pipeline record and the observability artifacts requested.
fn pipeline(args: &Args, wants_obs: bool) {
    let threads = rayon::current_threads();
    // Observability stays disabled (and free) unless an obs output
    // (report, event log, or timeline) was requested.
    let obs_ctx = wants_obs.then(simprof_obs::ObsContext::new);
    if let (Some(ctx), Some(path)) = (&obs_ctx, &args.events) {
        match simprof_obs::JsonlEventWriter::create(std::path::Path::new(path)) {
            Ok(sink) => ctx.install_sink(Box::new(sink)),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }
    let _obs_installed = obs_ctx.as_ref().map(simprof_obs::ObsContext::install);
    let sweep = Sweep::pick(args.quick);
    let scale = if args.quick { "quick" } else { "default" };
    let t_syn = Instant::now();
    let data = {
        let _span = simprof_obs::span!("bench.synthesize");
        synthetic_trace(sweep.units, sweep.features, SEED)
    };
    let synthesize_secs = t_syn.elapsed().as_secs_f64();
    println!(
        "pipeline throughput: {} units × {} features, k ≤ {}, {} thread(s), scale {}",
        sweep.units, sweep.features, sweep.k_max, threads, scale
    );

    // Simulate phase: the best of a few real engine runs, with a 1-thread
    // replay proving the trace bytes are identical at any thread count.
    let sim = simulate_phase(SEED, threads, args.quick);
    println!(
        "  simulate: {:>8.3} s  ({} sampling units, {:.1} KiB trace, 1-vs-{} threads {})",
        sim.secs,
        sim.sim_units,
        sim.trace_bytes as f64 / 1024.0,
        threads,
        if sim.identical { "bit-identical" } else { "DIVERGED" }
    );
    if !sim.identical {
        eprintln!(
            "error: simulation trace bytes diverged across repetitions or from the 1-thread run"
        );
        std::process::exit(1);
    }

    // Pre-optimization baseline: sequential + naive. Warm both paths once
    // first so neither timing pays first-touch costs.
    let _ = kmeans(&data, KMeans::new(2, SEED));
    rayon::set_threads(1);
    let t0 = Instant::now();
    let (baseline_k, _) = baseline_sweep(&data, sweep.k_max, SEED);
    let baseline_secs = t0.elapsed().as_secs_f64();
    rayon::set_threads(threads);

    // Cluster phase: the `choose_k` sweep (what `form_phases` does
    // internally), timed as one phase.
    let sweep_base = simprof_obs::current_alloc_bytes();
    simprof_obs::reset_peak();
    let t1 = Instant::now();
    let sel = {
        let _span = simprof_obs::span!("bench.phase_formation");
        choose_k(&data, sweep.k_max, 0.9, 0.25, SEED)
    };
    let optimized_secs = t1.elapsed().as_secs_f64();
    let sweep_peak = simprof_obs::peak_alloc_bytes().saturating_sub(sweep_base);
    simprof_obs::gauge_set("mem.peak_alloc_bytes", sweep_peak as f64);

    // 1-thread replay of the full sweep: phase assignments must be
    // identical at any thread count (DESIGN.md §10).
    rayon::set_threads(1);
    let serial_sel = choose_k(&data, sweep.k_max, 0.9, 0.25, SEED);
    rayon::set_threads(threads);
    let assignments_identical =
        serial_sel.k == sel.k && serial_sel.result.assignments == sel.result.assignments;
    if !assignments_identical {
        eprintln!("error: clustering diverged from the 1-thread run");
        std::process::exit(1);
    }

    // Synthetic sampling stage: treat each unit's feature-row mean as the
    // measured quantity and run the Eq. 1 allocator over the chosen phases,
    // so a bench run exercises (and reports on) all three pipeline stages.
    let t_samp = Instant::now();
    let (strata, allocation) = {
        let _span = simprof_obs::span!("bench.sampling");
        let mut by_phase: Vec<Vec<f64>> = vec![Vec::new(); sel.k.max(1)];
        for (i, &h) in sel.result.assignments.iter().enumerate() {
            let row = data.row(i);
            by_phase[h].push(row.iter().sum::<f64>() / row.len() as f64);
        }
        let strata: Vec<StratumStats> =
            by_phase.iter().map(|v| StratumStats { units: v.len(), stddev: stddev(v) }).collect();
        let allocation = optimal_allocation(50.min(sweep.units), &strata);
        (strata, allocation)
    };
    let sampling_secs = t_samp.elapsed().as_secs_f64();

    let speedup = baseline_secs / optimized_secs.max(1e-12);
    let ups_base = sweep.units as f64 / baseline_secs.max(1e-12);
    let ups_opt = sweep.units as f64 / optimized_secs.max(1e-12);
    println!("  baseline  (1 thread, naive):  {baseline_secs:>8.3} s  ({ups_base:>9.1} units/s)  k = {baseline_k}");
    println!("  optimized ({threads} thread(s), fused):  {optimized_secs:>8.3} s  ({ups_opt:>9.1} units/s)  k = {}", sel.k);
    println!("  speedup: {speedup:.2}×  (assignments 1-vs-{threads} threads identical)");

    if let Some(path) = &args.output {
        let record = PipelineRecord {
            bench: "pipeline_throughput/choose_k_sweep".into(),
            scale: scale.into(),
            units: sweep.units,
            features: sweep.features,
            k_max: sweep.k_max,
            seed: SEED,
            threads,
            baseline_sweep_secs: baseline_secs,
            optimized_sweep_secs: optimized_secs,
            units_per_sec_baseline: ups_base,
            units_per_sec_optimized: ups_opt,
            speedup,
            chosen_k_baseline: baseline_k,
            chosen_k_optimized: sel.k,
            peak_alloc_bytes_sweep: sweep_peak,
            phases: PipelinePhases {
                synthesize_secs,
                simulate_secs: sim.secs,
                cluster_secs: optimized_secs,
                sampling_secs,
            },
            simulate: SimulateRecord {
                benchmark: "wordcount/spark".into(),
                sim_units: sim.sim_units,
                trace_bytes: sim.trace_bytes,
                trace_bytes_identical_1_vs_n: sim.identical,
            },
            cluster: ClusterRecord { assignments_identical_1_vs_n: assignments_identical },
        };
        if let Err(e) = write_record(path, &record) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }

    if let Some(ctx) = &obs_ctx {
        let total: usize = strata.iter().map(|s| s.units).sum();
        let rows: Vec<serde_json::Value> = strata
            .iter()
            .zip(&allocation)
            .enumerate()
            .map(|(h, (s, &n_h))| {
                serde_json::json!({
                    "phase": h,
                    "units": s.units,
                    "weight": s.units as f64 / total.max(1) as f64,
                    "stddev": s.stddev,
                    "allocated": n_h,
                })
            })
            .collect();
        let report = ctx
            .finish_report()
            .with_section(
                "config",
                serde_json::json!({
                    "units": sweep.units,
                    "features": sweep.features,
                    "k_max": sweep.k_max,
                    "seed": SEED,
                    "threads": threads,
                }),
            )
            .with_section(
                "bench",
                serde_json::json!({
                    "baseline_sweep_secs": baseline_secs,
                    "optimized_sweep_secs": optimized_secs,
                    "speedup": speedup,
                }),
            )
            .with_section(
                "phases",
                serde_json::json!({
                    "chosen_k": sel.k,
                    "scores": serde_json::to_value(&sel.scores),
                }),
            )
            .with_section("allocation", serde_json::to_value(&rows));
        if let Some(path) = &args.report {
            if let Err(e) = std::fs::write(path, report.to_json_pretty()) {
                eprintln!("error: write {path}: {e}");
                std::process::exit(1);
            }
            println!("wrote {path}");
        }
        if let Some(path) = &args.timeline {
            if let Err(e) = simprof_obs::write_chrome_trace(&report, std::path::Path::new(path)) {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
            println!("wrote {path} (chrome://tracing / Perfetto JSON)");
        }
        if let Some(path) = &args.events {
            println!(
                "wrote {path} (JSONL event log, schema v{})",
                simprof_obs::EVENT_SCHEMA_VERSION
            );
        }
    }
}
