//! Pipeline-throughput benchmark: the `choose_k` phase-formation sweep on a
//! synthetic clustered trace, optimized path vs the pre-optimization
//! sequential baseline.
//!
//! The baseline replicates the pipeline before the parallel substrate and
//! the one-pass silhouette sweep landed: one worker thread, a fresh
//! 4-restart cold k-means per candidate k, and the naive `O(n²·d)`
//! silhouette per candidate. The optimized path is today's [`choose_k`]:
//! warm-started sweep, every candidate scored in one fused distance pass,
//! all parallel regions live.
//!
//! ```text
//! cargo run --release -p simprof-bench --bin bench_pipeline -- \
//!     [--scale quick|default|large] [--units N] [--features D] [--kmax K] \
//!     [--seed S] [--threads N] [-o BENCH_pipeline.json] \
//!     [--report REPORT.json] [--events EVENTS.jsonl] \
//!     [--timeline TIMELINE.json] [--trace-stream BENCH_trace_stream.json] \
//!     [--mem-cap-mb N] [--chaos-smoke BENCH_chaos.json] [--live BENCH_live.json]
//! ```
//!
//! Every run times the full simulate→analyze hot path in four phases —
//! **synthesize** (trace generation), **simulate** (the best of three real
//! engine runs, each with the same trace bytes, replayed at 1 thread to
//! prove the bytes are identical),
//! **cluster** ([`choose_k`], with a
//! 1-thread replay proving the assignments are identical), and
//! **sampling** (the Eq. 1 allocator) — and
//! records the per-phase wall-clocks in the JSON output, which the
//! `perf_gate` bin compares against the committed canonical record in CI.
//!
//! `--scale large` additionally streams a 1,000,000-unit synthetic trace
//! straight into the chunked on-disk format (never materialized in memory)
//! and analyzes it with the two-pass streaming pipeline in mini-batch
//! phase-formation mode (`SimProfConfig::minibatch`) — the configuration
//! that makes million-unit traces feasible where the exact sweep's `n²`
//! distance work would take hours. `--mem-cap-mb` bounds the analysis peak
//! heap.
//!
//! With `-o`, writes a JSON record (units analyzed/sec, sweep wall-clock,
//! thread count, speedup, phase breakdowns) that CI uploads as the
//! `BENCH_pipeline.json` artifact to track the perf trajectory. With
//! `--report`, the optimized run executes under an observability session
//! and writes the versioned run report (span tree, metrics, Eq. 1
//! allocation table), which CI schema-checks with the `report_check` bin.
//! `--events` streams the structured JSONL event log while the bench runs
//! and `--timeline` converts the finished span tree to Chrome-trace JSON;
//! either implies a session, and `report_check` validates both formats too.
//!
//! With `--trace-stream`, additionally runs the streamed-vs-batch memory
//! comparison: a heavy synthetic trace is written in the chunked
//! `simprof-trace` format, analyzed once fully materialized and once
//! streamed chunk-by-chunk from disk, and the real peak heap of each path
//! (measured by `simprof-obs`'s tracking allocator, installed here as the
//! global allocator) is emitted as a JSON record. The two analyses must be
//! bit-identical or the bench exits non-zero; `--mem-cap-mb` additionally
//! fails the run when the *streamed* peak exceeds the cap (CI's large-trace
//! memory smoke).
//!
//! With `--chaos-smoke`, runs the trace-durability smoke: a chunked trace
//! is written through seeded fault-injecting I/O (`simprof-trace`'s
//! [`ChaosWriter`]) to prove the writer's retry path reproduces the fault-free
//! bytes exactly, then the sealed trace is truncated and bit-flipped at
//! seeded positions and salvage-scanned — every recovered unit must match
//! the original trace and the unit count must agree with the
//! [`SalvageReport`](simprof_trace::SalvageReport); repaired files must
//! re-read as clean. Violations exit non-zero; the JSON record is CI's
//! `BENCH_chaos.json` artifact.

use std::time::Instant;

use rand::RngExt;
use simprof_bench::apply_thread_flag;
use simprof_core::{LiveAnalyzer, LiveConfig, MinibatchPhases, SimProf, SimProfConfig};
use simprof_engine::{FaultPlan, MethodId};
use simprof_obs::TrackingAllocator;
use simprof_profiler::{ProfileTrace, ProfilerConfig, SamplingUnit, UnitSink};
use simprof_sim::{Counters, MachineConfig};
use simprof_stats::{
    choose_k, kmeans, optimal_allocation, seeded, silhouette_score, stddev, KMeans, Matrix,
    StratumStats,
};
use simprof_trace::{
    read_trace, salvage_bytes, ChaosPlan, ChaosWriter, Codec, RetryPolicy, TraceMeta, TraceReader,
    TraceWriter,
};
use simprof_workloads::{Benchmark, Framework, WorkloadConfig};

/// Every allocation in this binary goes through the tracking allocator so
/// the `--trace-stream` comparison reports real peak heap, not estimates.
#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

/// Benchmark scale preset. `Quick` shrinks everything for CI smoke runs,
/// `Default` is the canonical 2000×100 sweep the perf trajectory tracks,
/// and `Large` adds the streamed 1M-unit mini-batch analysis on top of the
/// default sweep.
#[derive(Clone, Copy, PartialEq)]
enum Scale {
    Quick,
    Default,
    Large,
}

impl Scale {
    fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Default => "default",
            Scale::Large => "large",
        }
    }
}

struct Args {
    units: usize,
    features: usize,
    k_max: usize,
    seed: u64,
    scale: Scale,
    output: Option<String>,
    report: Option<String>,
    events: Option<String>,
    timeline: Option<String>,
    trace_stream: Option<String>,
    mem_cap_mb: Option<usize>,
    chaos_smoke: Option<String>,
    live: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let argv = apply_thread_flag(std::env::args().skip(1).collect())?;
    let mut args = Args {
        units: 2000,
        features: 100,
        k_max: 20,
        seed: 42,
        scale: Scale::Default,
        output: None,
        report: None,
        events: None,
        timeline: None,
        trace_stream: None,
        mem_cap_mb: None,
        chaos_smoke: None,
        live: None,
    };
    let quick = |args: &mut Args| {
        args.units = 400;
        args.features = 40;
        args.k_max = 10;
        args.scale = Scale::Quick;
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--quick" => quick(&mut args),
            "--scale" => match value(&flag)?.as_str() {
                "quick" => quick(&mut args),
                "default" => args.scale = Scale::Default,
                "large" => args.scale = Scale::Large,
                other => return Err(format!("unknown --scale `{other}`")),
            },
            "--units" => {
                args.units = value(&flag)?.parse().map_err(|e| format!("invalid --units: {e}"))?
            }
            "--features" => {
                args.features =
                    value(&flag)?.parse().map_err(|e| format!("invalid --features: {e}"))?
            }
            "--kmax" => {
                args.k_max = value(&flag)?.parse().map_err(|e| format!("invalid --kmax: {e}"))?
            }
            "--seed" => {
                args.seed = value(&flag)?.parse().map_err(|e| format!("invalid --seed: {e}"))?
            }
            "-o" | "--output" => args.output = Some(value(&flag)?),
            "--report" => args.report = Some(value(&flag)?),
            "--events" => args.events = Some(value(&flag)?),
            "--timeline" => args.timeline = Some(value(&flag)?),
            "--trace-stream" => args.trace_stream = Some(value(&flag)?),
            "--mem-cap-mb" => {
                args.mem_cap_mb =
                    Some(value(&flag)?.parse().map_err(|e| format!("invalid --mem-cap-mb: {e}"))?)
            }
            "--chaos-smoke" => args.chaos_smoke = Some(value(&flag)?),
            "--live" => args.live = Some(value(&flag)?),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if args.units < 3 || args.features == 0 || args.k_max < 2 {
        return Err("need --units ≥ 3, --features ≥ 1, --kmax ≥ 2".into());
    }
    Ok(args)
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

/// The pre-PR sweep: cold 4-restart k-means + naive silhouette per k,
/// sequential (the caller pins the worker count to 1 around this).
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
/// report the real peak heap of each path. Errors on any analysis
/// divergence; the caller enforces `--mem-cap-mb`.
fn trace_stream_bench(args: &Args, out_path: &str) -> Result<(), String> {
    let scale = TraceScale::pick(args.scale == Scale::Quick);
    let trace = heavy_trace(&scale, args.seed);
    let n = trace.units.len();
    let file = std::env::temp_dir().join(format!("simprof_bench_trace_{}.sptrc", args.seed));
    let file = file.to_str().ok_or("temp path is not UTF-8")?.to_owned();

    let meta = TraceMeta {
        label: "bench_synthetic".into(),
        seed: args.seed,
        scale: if args.scale == Scale::Quick { "quick".into() } else { "full".into() },
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

    let cleanup = |r: Result<(serde_json::Value, usize), String>| {
        let _ = std::fs::remove_file(&file);
        r
    };
    let (record, streamed_peak) = cleanup((|| {
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

        // Streamed: two passes over the chunked file, one chunk in memory
        // at a time.
        let stream_base = simprof_obs::current_alloc_bytes();
        simprof_obs::reset_peak();
        let t1 = Instant::now();
        let mut reader = TraceReader::open(&file)?;
        let streamed =
            sp.analyze_stream(&mut reader).map_err(|e| format!("streamed analyze: {e}"))?;
        let streamed_secs = t1.elapsed().as_secs_f64();
        let streamed_peak = simprof_obs::peak_alloc_bytes().saturating_sub(stream_base);
        let _ = reader.rewind();

        if batch.cpis != streamed.cpis
            || batch.model.assignments != streamed.model.assignments
            || batch.model.space != streamed.model.space
            || batch.stats != streamed.stats
        {
            return Err("streamed analysis diverged from batch analysis".into());
        }

        let universe = footer.method_universe;
        simprof_obs::gauge_set("mem.peak_alloc_bytes", batch_peak.max(streamed_peak) as f64);
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

        let record = serde_json::json!({
            "bench": "trace_stream/streamed_vs_batch",
            "units": n,
            "hist_entries_per_unit": scale.hist_entries,
            "slices_per_unit": scale.slices,
            "method_universe": universe,
            "chunk_units": scale.chunk_units,
            "seed": args.seed,
            "trace_file_bytes": file_bytes,
            "batch_secs": batch_secs,
            "streamed_secs": streamed_secs,
            "peak_alloc_bytes_batch": batch_peak,
            "peak_alloc_bytes_streamed": streamed_peak,
            "stream_to_batch_peak_ratio": streamed_peak as f64 / batch_peak.max(1) as f64,
            // What pass 2 would cost without top-K selection: n × universe
            // doubles. Computed, never allocated.
            "dense_matrix_bytes": n * universe * 8,
            "bit_identical": true,
            "mem_cap_mb": args.mem_cap_mb,
        });
        Ok((record, streamed_peak))
    })())?;

    if let Some(cap) = args.mem_cap_mb {
        if streamed_peak as f64 > cap as f64 * MIB {
            return Err(format!(
                "streamed peak heap {:.1} MiB exceeds --mem-cap-mb {cap}",
                streamed_peak as f64 / MIB
            ));
        }
        println!("  memory smoke: streamed peak within {cap} MiB cap");
    }

    let text = serde_json::to_string_pretty(&record).expect("record encodes");
    std::fs::write(out_path, text).map_err(|e| format!("write {out_path}: {e}"))?;
    println!("wrote {out_path}");
    Ok(())
}

/// Splits `seed` into a derived position for chaos case `k` — the same
/// deterministic mixing discipline the chaos plan itself uses, so a chaos
/// smoke run is reproducible from `--seed` alone.
fn chaos_case_pos(seed: u64, salt: u64, k: u64, modulus: usize) -> usize {
    let mut x = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(k);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (x ^ (x >> 31)) as usize % modulus.max(1)
}

/// Checks one salvage result against the pristine trace: the report's unit
/// count must match what was actually returned, recovered ids must be
/// strictly increasing, and every recovered unit must be byte-for-byte the
/// unit the original trace holds under that id — salvage may lose damaged
/// chunks, it must never invent or alter a unit.
fn verify_salvage(
    s: &simprof_trace::Salvage,
    original: &ProfileTrace,
    case: &str,
) -> Result<(), String> {
    if s.units.len() as u64 != s.report.recovered_units {
        return Err(format!(
            "{case}: salvage returned {} units but reported {}",
            s.units.len(),
            s.report.recovered_units
        ));
    }
    let mut last: Option<u64> = None;
    for unit in &s.units {
        if last.is_some_and(|l| unit.id <= l) {
            return Err(format!("{case}: recovered unit ids not strictly increasing"));
        }
        last = Some(unit.id);
        match original.units.get(unit.id as usize) {
            Some(orig) if orig == unit => {}
            _ => return Err(format!("{case}: recovered unit {} differs from original", unit.id)),
        }
    }
    Ok(())
}

/// Trace-durability chaos smoke: transient-fault retry equivalence, then
/// salvage correctness over seeded truncations and bit flips. See the
/// module docs for the contract; any violation is an `Err` (→ non-zero
/// exit in `main`).
fn chaos_smoke(args: &Args, out_path: &str) -> Result<(), String> {
    use std::io::Cursor;

    let scale =
        TraceScale { units: 120, hist_entries: 40, slices: 12, universe: 600, chunk_units: 8 };
    let trace = heavy_trace(&scale, args.seed);
    let meta = TraceMeta {
        label: "bench_chaos".into(),
        seed: args.seed,
        scale: "chaos".into(),
        unit_instrs: trace.unit_instrs,
        snapshot_instrs: trace.snapshot_instrs,
        core: trace.core,
    };
    let registry = simprof_engine::MethodRegistry::default();

    // Fault-free reference bytes.
    let mut clean = TraceWriter::in_memory(&meta)?.with_chunk_units(scale.chunk_units);
    for u in &trace.units {
        clean.push(u);
    }
    clean.finish(&registry)?;
    let clean_bytes = clean.into_bytes();

    // Phase 1 — transient faults: a seeded 15 % error / 20 % short-write
    // storm on every write and flush. The writer's bounded retry rebuilds
    // each frame from its start, so the surviving bytes must be exactly
    // the fault-free bytes.
    let plan = ChaosPlan {
        write_error_ppm: 150_000,
        short_write_ppm: 200_000,
        flush_error_ppm: 150_000,
        ..ChaosPlan::none(args.seed)
    };
    let chaos = ChaosWriter::new(Cursor::new(Vec::new()), plan);
    let mut w = TraceWriter::from_writer(chaos, "<chaos>", &meta, Codec::Raw)?
        .with_chunk_units(scale.chunk_units)
        .with_retry(RetryPolicy { max_retries: 6, backoff_ms: 0 });
    for u in &trace.units {
        w.push(u);
    }
    w.finish(&registry)?;
    let retries = w.retries();
    let chaos_out = w.into_writer();
    let counts = chaos_out.counts();
    let chaos_bytes = chaos_out.into_inner().into_inner();
    if chaos_bytes != clean_bytes {
        return Err("chaos smoke: retried write diverged from fault-free bytes".into());
    }
    let injected = counts.write_errors + counts.short_writes + counts.flush_errors;
    println!(
        "chaos smoke: transient storm — {} write errors, {} short writes, {} flush errors \
         over {} writes; {} retries, output bit-identical",
        counts.write_errors, counts.short_writes, counts.flush_errors, counts.writes, retries
    );

    // Phase 2 — salvage over seeded truncations: cut the sealed trace at
    // derived offsets (plus the pathological 0/1/EOF-1 edges) and demand
    // every recovered unit matches the original, with the report agreeing.
    let mut truncation_cases = 0u64;
    let mut truncation_recovered = 0u64;
    let mut cuts: Vec<usize> =
        (0..24).map(|k| chaos_case_pos(args.seed, 0x7256_4341, k, clean_bytes.len())).collect();
    cuts.extend([0, 1, 7, 8, clean_bytes.len() - 1, clean_bytes.len()]);
    for t in cuts {
        let s = salvage_bytes(&clean_bytes[..t], "<truncated>")?;
        verify_salvage(&s, &trace, &format!("truncate@{t}"))?;
        if s.report.clean != (t == clean_bytes.len()) {
            return Err(format!("truncate@{t}: clean flag wrong ({})", s.report.clean));
        }
        truncation_cases += 1;
        truncation_recovered += s.report.recovered_units;
    }

    // Phase 3 — salvage over seeded bit flips: damage must cost at most
    // the chunk the flipped byte lives in, and a repair of the salvage
    // must re-read as a clean, sealed trace holding exactly those units.
    let mut flip_cases = 0u64;
    let mut flip_recovered = 0u64;
    for k in 0..16 {
        let pos = 8 + chaos_case_pos(args.seed, 0x464C_4950, k, clean_bytes.len() - 8);
        let bit = chaos_case_pos(args.seed, 0x4249_5453, k, 8) as u32;
        let mut damaged = clean_bytes.clone();
        damaged[pos] ^= 1 << bit;
        let s = salvage_bytes(&damaged, "<flipped>")?;
        verify_salvage(&s, &trace, &format!("flip@{pos}.{bit}"))?;
        flip_cases += 1;
        flip_recovered += s.report.recovered_units;

        let mut repair = TraceWriter::in_memory(&s.meta)?.with_chunk_units(scale.chunk_units);
        for u in &s.units {
            repair.push(u);
        }
        repair.finish(&s.footer.registry)?;
        let repaired = salvage_bytes(&repair.into_bytes(), "<repaired>")?;
        if !repaired.report.clean || repaired.units != s.units {
            return Err(format!("flip@{pos}.{bit}: repair did not round-trip clean"));
        }
    }
    println!(
        "chaos smoke: {truncation_cases} truncations ({truncation_recovered} units recovered), \
         {flip_cases} bit flips ({flip_recovered} units recovered), all verified against the \
         original trace"
    );

    let record = serde_json::json!({
        "bench": "trace_durability/chaos_smoke",
        "seed": args.seed,
        "units": trace.units.len(),
        "chunk_units": scale.chunk_units,
        "trace_bytes": clean_bytes.len(),
        "transient": serde_json::json!({
            "write_errors": counts.write_errors,
            "short_writes": counts.short_writes,
            "flush_errors": counts.flush_errors,
            "writes": counts.writes,
            "retries": retries,
            "faults_injected": injected,
            "bit_identical": true,
        }),
        "truncation_cases": truncation_cases,
        "truncation_units_recovered": truncation_recovered,
        "bit_flip_cases": flip_cases,
        "bit_flip_units_recovered": flip_recovered,
        "all_verified": true,
    });
    let text = serde_json::to_string_pretty(&record).expect("record encodes");
    std::fs::write(out_path, text).map_err(|e| format!("write {out_path}: {e}"))?;
    println!("wrote {out_path}");
    Ok(())
}

const MIB: f64 = 1024.0 * 1024.0;

/// `--live`: the live early-stopping benchmark. Profiles WordCount/Spark
/// once (full trace = oracle), then replays the unit stream through the
/// [`LiveAnalyzer`] with a 5 % relative stopping target, measuring how
/// much of the profiling budget the live stopping rule saves and whether
/// the live CI at stop still covers the full-trace oracle CPI. Also runs
/// the equivalence smoke: with stopping disabled, the live path's final
/// analysis must be bit-identical to the offline pipeline (the DESIGN.md
/// §16 contract); a violation exits non-zero via the caller.
fn live_bench(args: &Args, out_path: &str) -> Result<(), String> {
    let target_rel_err = 0.05;
    let cfg = if args.scale == Scale::Quick {
        WorkloadConfig::tiny(args.seed)
    } else {
        WorkloadConfig::paper(args.seed)
    };
    let trace = Benchmark::WordCount.run(Framework::Spark, &cfg);
    let oracle = trace.oracle_cpi();
    let units_full = trace.units.len();
    let profiler = ProfilerConfig {
        unit_instrs: trace.unit_instrs,
        snapshot_instrs: trace.snapshot_instrs,
        core: trace.core,
    };

    // Early-stopping replay: feed units until the analyzer raises its stop
    // latch, exactly as the sampling manager would.
    let stop_cfg = SimProfConfig {
        seed: args.seed,
        live: Some(LiveConfig { target_rel_err, z: 1.96, ..Default::default() }),
        ..SimProfConfig::default()
    };
    let t0 = Instant::now();
    let mut live = LiveAnalyzer::new(stop_cfg, profiler);
    for u in &trace.units {
        if live.stop_requested() {
            break;
        }
        live.accept(u);
    }
    let live_secs = t0.elapsed().as_secs_f64();
    let report = live.report();
    let (stopped_analysis, _) = live.finalize().map_err(|e| format!("live analyze: {e}"))?;
    let reduction = 1.0 - report.units_profiled as f64 / units_full.max(1) as f64;
    let hw = report.live_half_width.unwrap_or(f64::INFINITY);
    let oracle_within_live_ci = (report.live_mean - oracle).abs() <= hw;

    // Equivalence smoke: stopping disabled → bit-identical to offline.
    let eq_cfg = SimProfConfig { seed: args.seed, ..SimProfConfig::default() };
    let offline = SimProf::new(eq_cfg).analyze(&trace).map_err(|e| format!("offline: {e}"))?;
    let mut eq =
        LiveAnalyzer::new(SimProfConfig { live: Some(LiveConfig::default()), ..eq_cfg }, profiler);
    for u in &trace.units {
        eq.accept(u);
    }
    let (eq_analysis, eq_report) = eq.finalize().map_err(|e| format!("live analyze: {e}"))?;
    let bit_identical = eq_analysis.cpis == offline.cpis
        && eq_analysis.model.assignments == offline.model.assignments
        && eq_analysis.model.centers == offline.model.centers
        && eq_analysis.stats == offline.stats;
    if eq_report.stopped_early {
        return Err("live equivalence run stopped early with stopping disabled".into());
    }
    if !bit_identical {
        return Err("live analysis (stopping disabled) diverged from the offline pipeline".into());
    }

    println!(
        "live: {} of {units_full} units profiled before stop ({:.1}% saved), \
         {} live phases, {} re-formation(s)",
        report.units_profiled,
        reduction * 100.0,
        report.live_k,
        report.reformations
    );
    println!(
        "  live CI at stop: {:.4} ± {:.4} (target {:.1}% rel); oracle {oracle:.4} {}",
        report.live_mean,
        hw,
        target_rel_err * 100.0,
        if oracle_within_live_ci { "covered" } else { "NOT covered" }
    );
    println!("  equivalence smoke: stopping disabled → offline output bit-identical");

    let record = serde_json::json!({
        "bench": "live/early_stop",
        "workload": "wordcount/spark",
        "scale": args.scale.name(),
        "seed": args.seed,
        "target_rel_err": target_rel_err,
        "units_full": units_full,
        "units_at_stop": report.units_profiled,
        "budget_saved_frac": reduction,
        "stopped_early": report.stopped_early,
        "live_k": report.live_k,
        "reformations": report.reformations,
        "live_mean_cpi": report.live_mean,
        "live_half_width": report.live_half_width,
        "oracle_cpi": oracle,
        "oracle_within_live_ci": oracle_within_live_ci,
        "stopped_analysis_k": stopped_analysis.k(),
        "live_replay_secs": live_secs,
        "equivalence_bit_identical": bit_identical,
    });
    let text = serde_json::to_string_pretty(&record).expect("record encodes");
    std::fs::write(out_path, text).map_err(|e| format!("write {out_path}: {e}"))?;
    println!("wrote {out_path}");
    Ok(())
}

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

/// `--scale large`: stream a 1,000,000-unit synthetic trace straight into
/// the chunked on-disk format — units are generated and written one at a
/// time, never materialized as a whole — then analyze it with the two-pass
/// streaming pipeline in mini-batch phase-formation mode. Reports wall
/// clocks and the real peak heap of each side; `--mem-cap-mb` fails the run
/// if the analysis peak exceeds the cap.
fn large_scale_bench(args: &Args) -> Result<serde_json::Value, String> {
    const UNITS: u64 = 1_000_000;
    const UNIT_INSTRS: u64 = 100_000;
    const BEHAVIOURS: u64 = 6;
    const HIST: usize = 12;
    const UNIVERSE: usize = 4096;
    const SLICES: u64 = 2;
    const CHUNK_UNITS: usize = 8192;
    const SNAPSHOTS: u32 = 256;

    let file = std::env::temp_dir().join(format!("simprof_bench_large_{}.sptrc", args.seed));
    let file = file.to_str().ok_or("temp path is not UTF-8")?.to_owned();
    let meta = TraceMeta {
        label: "bench_large".into(),
        seed: args.seed,
        scale: "large".into(),
        unit_instrs: UNIT_INSTRS,
        snapshot_instrs: UNIT_INSTRS / u64::from(SNAPSHOTS),
        core: 0,
    };
    let registry = simprof_engine::MethodRegistry::default();

    let write_base = simprof_obs::current_alloc_bytes();
    simprof_obs::reset_peak();
    let t0 = Instant::now();
    let mut rng = seeded(args.seed);
    let mut writer = TraceWriter::create(&file, &meta)?.with_chunk_units(CHUNK_UNITS);
    let stride = UNIVERSE / HIST;
    for i in 0..UNITS {
        let b = i % BEHAVIOURS;
        let histogram: Vec<(MethodId, u32)> = (0..HIST)
            .map(|e| {
                let m = e * stride + (i as usize + e) % stride;
                let loud = m as u64 % BEHAVIOURS == b;
                let count = if loud {
                    180 + (rng.random::<u64>() % 60) as u32
                } else {
                    1 + (rng.random::<u64>() % 8) as u32
                };
                (MethodId(m as u32), count.min(SNAPSHOTS))
            })
            .collect();
        let cycles = UNIT_INSTRS * (10 + b * 3) / 10 + rng.random::<u64>() % (UNIT_INSTRS / 20);
        let slices = (0..SLICES)
            .map(|s| {
                let instrs = UNIT_INSTRS / SLICES;
                (instrs, instrs * (10 + (b + s) % BEHAVIOURS) / 10)
            })
            .collect();
        writer.push(&SamplingUnit {
            id: i,
            histogram,
            snapshots: SNAPSHOTS,
            counters: Counters { instructions: UNIT_INSTRS, cycles, ..Counters::default() },
            slices,
            truncated: false,
            dropped_snapshots: 0,
        });
    }
    let footer = writer.finish(&registry)?;
    let write_secs = t0.elapsed().as_secs_f64();
    let write_peak = simprof_obs::peak_alloc_bytes().saturating_sub(write_base);
    let file_bytes = std::fs::metadata(&file).map_err(|e| format!("stat {file}: {e}"))?.len();

    let minibatch = MinibatchPhases::default();
    let result: Result<_, String> = (|| {
        let sp = SimProf::new(SimProfConfig {
            top_k: 16,
            minibatch: Some(minibatch),
            ..SimProfConfig::default()
        });
        let analyze_base = simprof_obs::current_alloc_bytes();
        simprof_obs::reset_peak();
        let t1 = Instant::now();
        let mut reader = TraceReader::open(&file)?;
        let analysis =
            sp.analyze_stream(&mut reader).map_err(|e| format!("large-scale analyze: {e}"))?;
        let analyze_secs = t1.elapsed().as_secs_f64();
        let analyze_peak = simprof_obs::peak_alloc_bytes().saturating_sub(analyze_base);
        Ok((analysis, analyze_secs, analyze_peak))
    })();
    let _ = std::fs::remove_file(&file);
    let (analysis, analyze_secs, analyze_peak) = result?;

    println!(
        "large scale: {UNITS} units streamed, file {:.1} MiB, universe {}",
        file_bytes as f64 / MIB,
        footer.method_universe
    );
    println!("  write:   {write_secs:>8.3} s, peak heap {:>7.1} MiB", write_peak as f64 / MIB);
    println!(
        "  analyze: {analyze_secs:>8.3} s ({:>9.0} units/s), peak heap {:>7.1} MiB, k = {}",
        UNITS as f64 / analyze_secs.max(1e-12),
        analyze_peak as f64 / MIB,
        analysis.model.k()
    );
    if let Some(cap) = args.mem_cap_mb {
        if analyze_peak as f64 > cap as f64 * MIB {
            return Err(format!(
                "large-scale analysis peak heap {:.1} MiB exceeds --mem-cap-mb {cap}",
                analyze_peak as f64 / MIB
            ));
        }
        println!("  memory smoke: analysis peak within {cap} MiB cap");
    }

    Ok(serde_json::json!({
        "units": UNITS,
        "hist_entries_per_unit": HIST,
        "method_universe": footer.method_universe,
        "chunk_units": CHUNK_UNITS,
        "trace_file_bytes": file_bytes,
        "write_secs": write_secs,
        "analyze_secs": analyze_secs,
        "units_per_sec_analyze": UNITS as f64 / analyze_secs.max(1e-12),
        "chosen_k": analysis.model.k(),
        "phase_sizes": serde_json::to_value(&analysis.model.phase_sizes()),
        "peak_alloc_bytes_write": write_peak,
        "peak_alloc_bytes_analyze": analyze_peak,
        "minibatch": serde_json::json!({
            "sweep_units": minibatch.sweep_units,
            "batch_size": minibatch.batch_size,
        }),
        "mem_cap_mb": args.mem_cap_mb,
    }))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let threads = rayon::current_threads();
    // Observability stays disabled (and free) unless an obs output
    // (report, event log, or timeline) was requested.
    let wants_obs = args.report.is_some() || args.events.is_some() || args.timeline.is_some();
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
    let t_syn = Instant::now();
    let data = {
        let _span = simprof_obs::span!("bench.synthesize");
        synthetic_trace(args.units, args.features, args.seed)
    };
    let synthesize_secs = t_syn.elapsed().as_secs_f64();
    println!(
        "pipeline throughput: {} units × {} features, k ≤ {}, {} thread(s), scale {}",
        args.units,
        args.features,
        args.k_max,
        threads,
        args.scale.name()
    );

    // Simulate phase: the best of a few real engine runs, with a 1-thread
    // replay proving the trace bytes are identical at any thread count.
    let sim = simulate_phase(args.seed, threads, args.scale == Scale::Quick);
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

    // Pre-PR baseline: sequential + naive. Warm both paths once first so
    // neither timing pays first-touch costs.
    let _ = kmeans(&data, KMeans::new(2, args.seed));
    rayon::set_threads(1);
    let t0 = Instant::now();
    let (baseline_k, _) = baseline_sweep(&data, args.k_max, args.seed);
    let baseline_secs = t0.elapsed().as_secs_f64();
    rayon::set_threads(threads);

    // Cluster phase: the `choose_k` sweep (what `form_phases` does
    // internally), timed as one phase.
    let sweep_base = simprof_obs::current_alloc_bytes();
    simprof_obs::reset_peak();
    let t1 = Instant::now();
    let sel = {
        let _span = simprof_obs::span!("bench.phase_formation");
        choose_k(&data, args.k_max, 0.9, 0.25, args.seed)
    };
    let optimized_secs = t1.elapsed().as_secs_f64();
    let sweep_peak = simprof_obs::peak_alloc_bytes().saturating_sub(sweep_base);
    simprof_obs::gauge_set("mem.peak_alloc_bytes", sweep_peak as f64);

    // 1-thread replay of the full sweep: phase assignments must be
    // identical at any thread count (DESIGN.md §10).
    rayon::set_threads(1);
    let serial_sel = choose_k(&data, args.k_max, 0.9, 0.25, args.seed);
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
        let allocation = optimal_allocation(50.min(args.units), &strata);
        (strata, allocation)
    };
    let sampling_secs = t_samp.elapsed().as_secs_f64();

    let speedup = baseline_secs / optimized_secs.max(1e-12);
    let ups_base = args.units as f64 / baseline_secs.max(1e-12);
    let ups_opt = args.units as f64 / optimized_secs.max(1e-12);
    println!("  baseline  (1 thread, naive):  {baseline_secs:>8.3} s  ({ups_base:>9.1} units/s)  k = {baseline_k}");
    println!("  optimized ({threads} thread(s), fused):  {optimized_secs:>8.3} s  ({ups_opt:>9.1} units/s)  k = {}", sel.k);
    println!("  speedup: {speedup:.2}×  (assignments 1-vs-{threads} threads identical)");

    let large_scale = if args.scale == Scale::Large {
        match large_scale_bench(&args) {
            Ok(record) => record,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    } else {
        serde_json::Value::Null
    };

    if let Some(path) = &args.output {
        let record = serde_json::json!({
            "bench": "pipeline_throughput/choose_k_sweep",
            "scale": args.scale.name(),
            "units": args.units,
            "features": args.features,
            "k_max": args.k_max,
            "seed": args.seed,
            "threads": threads,
            "baseline_sweep_secs": baseline_secs,
            "optimized_sweep_secs": optimized_secs,
            "units_per_sec_baseline": ups_base,
            "units_per_sec_optimized": ups_opt,
            "speedup": speedup,
            "chosen_k_baseline": baseline_k,
            "chosen_k_optimized": sel.k,
            "peak_alloc_bytes_sweep": sweep_peak,
            "phases": serde_json::json!({
                "synthesize_secs": synthesize_secs,
                "simulate_secs": sim.secs,
                "cluster_secs": optimized_secs,
                "sampling_secs": sampling_secs,
            }),
            "simulate": serde_json::json!({
                "benchmark": "wordcount/spark",
                "sim_units": sim.sim_units,
                "trace_bytes": sim.trace_bytes,
                "trace_bytes_identical_1_vs_n": sim.identical,
            }),
            "cluster": serde_json::json!({
                "assignments_identical_1_vs_n": assignments_identical,
            }),
            "large_scale": large_scale,
        });
        let text = serde_json::to_string_pretty(&record).expect("record encodes");
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("error: write {path}: {e}");
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
                    "units": args.units,
                    "features": args.features,
                    "k_max": args.k_max,
                    "seed": args.seed,
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

    if let Some(path) = &args.trace_stream {
        if let Err(e) = trace_stream_bench(&args, path) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }

    if let Some(path) = &args.chaos_smoke {
        if let Err(e) = chaos_smoke(&args, path) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }

    if let Some(path) = &args.live {
        if let Err(e) = live_bench(&args, path) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
