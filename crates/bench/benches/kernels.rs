//! Criterion benchmarks for the performance-critical kernels: the
//! statistics substrate (clustering, the `choose_k` sweep on duplicate-heavy
//! and all-distinct rows, feature scoring, allocation), the
//! machine model (4-core cache-hierarchy walks, pattern cursors), whole
//! paper-scale engine runs, the instrumented engine kernels (quicksort
//! trace, hash combine, merge cost items), job construction (input synthesis
//! plus whole `Benchmark::build` calls), the trace codec (JSON chunk
//! decode/encode, LZ decode/encode; reported per MB of raw JSON), streamed
//! analysis of stored traces, the k-means sweep on profiled feature
//! matrices, and the JSON the service writes per fleet (event lines, the
//! pretty report).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use std::io::Cursor;

use simprof_core::{FeatureSpace, SimProf};
use simprof_engine::{ops, MethodId, MethodRegistry, Scheduler};
use simprof_obs::{Event, EventKind, FleetJob, FleetReport, EVENT_SCHEMA_VERSION};
use simprof_profiler::{ProfileTrace, ProfilerConfig, SamplingManager, SamplingUnit};
use simprof_sim::{AccessCursor, AccessPattern, Counters, Machine, MachineConfig, Region};
use simprof_stats::{
    choose_k, f_regression, kmeans, kmeans_sweep, optimal_allocation, silhouette_score,
    srs_indices_seeded, KMeans, Matrix, StratumStats,
};
use simprof_trace::{
    codec, Codec, TraceMeta, TraceReader, TraceWriter, DEFAULT_CHUNK_UNITS, MAX_FRAME_LEN,
};
use simprof_workloads::{GraphInput, Kronecker, TextSynth, WorkloadConfig, WorkloadId};

/// A deterministic feature matrix shaped like a profiled trace: `n` units,
/// `d` features, `k` latent phases.
fn synth_features(n: usize, d: usize, k: usize) -> (Matrix, Vec<f64>) {
    let mut rows = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        let phase = i % k;
        let mut row = vec![0.0; d];
        for (j, v) in row.iter_mut().enumerate() {
            let hot = j % k == phase;
            let noise = (((i * 31 + j * 17) % 13) as f64) / 26.0;
            *v = if hot { 0.8 + noise * 0.2 } else { noise * 0.1 };
        }
        y.push(1.0 + phase as f64 * 0.7 + ((i % 7) as f64) * 0.02);
        rows.push(row);
    }
    (Matrix::from_rows(&rows), y)
}

/// A `rows` × 14 matrix shaped like a projected fine-unit trace: rows drawn
/// from `patterns` patterns with values in multiples of 0.1, or with a small
/// per-row jitter on top (every row distinct).
fn quantized_features(rows: usize, patterns: usize, jitter: bool) -> Matrix {
    let rows: Vec<Vec<f64>> = (0..rows)
        .map(|i| {
            let p = (i * 7 + i / 13) % patterns;
            (0..14)
                .map(|j| {
                    let level = if j % 5 == p % 5 { 30 + (p * 3 + j) % 20 } else { (p * j) % 6 };
                    let noise = if jitter { ((i * 31 + j * 17) % 97) as f64 * 1e-4 } else { 0.0 };
                    level as f64 * 0.1 + noise
                })
                .collect()
        })
        .collect();
    Matrix::from_rows(&rows)
}

fn bench_stats(c: &mut Criterion) {
    let (m, y) = synth_features(400, 100, 5);

    c.bench_function("stats/f_regression 400x100", |b| {
        b.iter(|| f_regression(black_box(&m), black_box(&y)))
    });

    let mut g = c.benchmark_group("stats/kmeans");
    for &k in &[2usize, 5, 10] {
        g.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| kmeans(black_box(&m), KMeans::new(k, 7)))
        });
    }
    g.finish();

    let r = kmeans(&m, KMeans::new(5, 7));
    c.bench_function("stats/silhouette 400", |b| {
        b.iter(|| silhouette_score(black_box(&m), black_box(&r.assignments)))
    });

    // The whole k-selection sweep (k ≤ 20) on duplicate-heavy and on
    // all-distinct rows: per-row work runs once per distinct row. With 7
    // distinct rows (`grep_sp`'s fine shard) most sweep runs have more
    // clusters than rows and cycle until the cycle skip jumps them to
    // `max_iter`.
    let mut g = c.benchmark_group("stats/choose_k");
    for (name, rows, patterns, jitter) in [
        ("quantized 2000x14", 2000, 45, false),
        ("jittered 2000x14", 2000, 45, true),
        ("few-distinct 700x14", 700, 7, false),
    ] {
        let m = quantized_features(rows, patterns, jitter);
        g.bench_function(name, |b| b.iter(|| choose_k(black_box(&m), 20, 0.9, 0.25, 42)));
    }
    g.finish();

    let strata: Vec<StratumStats> =
        (0..8).map(|i| StratumStats { units: 50 + i * 20, stddev: 0.1 + i as f64 * 0.2 }).collect();
    c.bench_function("stats/optimal_allocation", |b| {
        b.iter(|| optimal_allocation(black_box(20), black_box(&strata)))
    });

    c.bench_function("stats/srs 1000 choose 20", |b| {
        b.iter(|| srs_indices_seeded(black_box(1000), black_box(20), black_box(3)))
    });
}

fn bench_machine(c: &mut Criterion) {
    let patterns = [
        ("sequential 384KiB", AccessPattern::Sequential, 384 << 10),
        ("random 1MiB", AccessPattern::Random, 1 << 20),
        ("zipf 1MiB", AccessPattern::Zipf, 1 << 20),
    ];
    // The benchmark machine's hierarchy: 4 cores with private 8 KiB L1 and
    // 64 KiB L2 over one shared 512 KiB LLC, cores taking turns in runs of
    // 64 accesses through `access_run`, the call the engine makes per
    // chunk. Sequential 384 KiB misses L1 and L2 but fits the LLC.
    let mut g = c.benchmark_group("sim/hierarchy_4core_64k_accesses");
    for (name, pattern, bytes) in patterns {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut machine = Machine::new(MachineConfig::scaled(4));
                let region = machine.alloc(bytes);
                let mut cur = AccessCursor::new(region, pattern, 5);
                for i in 0..1024 {
                    machine.access_run(i & 3, &mut cur, 64, false);
                }
                black_box(machine.counters(0))
            })
        });
    }
    g.finish();

    // Address generation alone: the same 65 536 addresses, drawn 64 at a
    // time as `access_run` draws them.
    let mut g = c.benchmark_group("sim/cursor_64k");
    for (name, pattern, bytes) in patterns {
        let name = name.split(' ').next().expect("pattern name");
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut cur = AccessCursor::new(Region::new(0x1_0000, bytes), pattern, 5);
                let mut block = [0u64; 64];
                let mut sum = 0u64;
                for _ in 0..1024 {
                    cur.fill(&mut block);
                    sum = block.iter().fold(sum, |s, &a| s.wrapping_add(a));
                }
                black_box(sum)
            })
        });
    }
    g.finish();
}

/// One paper-scale `Scheduler::run` as the catalog runs it (GC noise,
/// profiler listener), on a cold copy of the machine the job was built
/// on. The build itself stays outside the timed loop.
fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine/run");
    let cfg = WorkloadConfig::paper(1);
    for w in WorkloadId::all() {
        if !["sort_hp", "wc_sp", "rank_sp"].contains(&w.label().as_str()) {
            continue;
        }
        let mut machine = Machine::new(cfg.machine);
        let mut registry = MethodRegistry::new();
        let job = w.benchmark.build(w.framework, &cfg, &mut machine, &mut registry);
        let sched = cfg.run_sched(&mut registry);
        g.bench_function(w.label(), |b| {
            b.iter(|| {
                let mut m = machine.clone();
                let mut manager = SamplingManager::new(cfg.profiler);
                Scheduler::new(sched).run(&mut m, &job, &mut manager);
                black_box(manager.finish())
            })
        });
    }
    g.finish();
}

fn bench_ops(c: &mut Criterion) {
    c.bench_function("ops/quicksort_trace 32k", |b| {
        b.iter(|| {
            let mut data: Vec<u64> =
                (0..32_768u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
            let region = Region::new(0x1000, 32_768 * 8);
            black_box(ops::quicksort_trace(&mut data, 8, region, vec![], 1))
        })
    });

    c.bench_function("ops/hash_combine 64k records", |b| {
        b.iter(|| {
            let mut machine = Machine::new(MachineConfig::scaled(1));
            let pairs = (0..65_536u64).map(|i| (i % 4_096, 1i64));
            black_box(ops::hash_combine(
                pairs,
                |a, b| *a += b,
                48,
                4_096,
                vec![],
                AccessPattern::Zipf,
                &mut machine,
                2,
            ))
        })
    });

    c.bench_function("ops/merge_items 8x8k", |b| {
        let lens = [8_192usize; 8];
        b.iter(|| {
            let region = Region::new(0, 8 * 8_192 * 16);
            black_box(ops::merge_items(black_box(&lens), region, vec![], 3))
        })
    });
}

fn bench_build(c: &mut Criterion) {
    // Paper scale: the grep/sort corpus is 9 MiB of text, graphs have 2^14
    // vertices.
    let mut g = c.benchmark_group("workloads/build");
    let cfg = WorkloadConfig::paper(1);
    for w in WorkloadId::all() {
        if !["sort_hp", "sort_sp", "grep_sp", "wc_hp", "bayes_hp", "cc_hp", "rank_hp"]
            .contains(&w.label().as_str())
        {
            continue;
        }
        g.bench_function(w.label(), |b| {
            b.iter(|| {
                let mut machine = Machine::new(cfg.machine);
                let mut registry = MethodRegistry::new();
                black_box(w.benchmark.build(w.framework, &cfg, &mut machine, &mut registry))
            })
        });
    }
    g.finish();

    let synth = TextSynth::new(4_000, 1.0, 10, 1);
    c.bench_function("synth/text_corpus 9MB", |b| {
        b.iter(|| black_box(synth.corpus(black_box(9 << 20), 2)))
    });
    let kronecker = Kronecker::for_input(GraphInput::Google, 14, 8);
    c.bench_function("synth/kronecker s14", |b| b.iter(|| black_box(kronecker.generate(3))));
}

/// The trace's per-chunk codec work as a reader and writer do it, over
/// every 32-unit chunk of a paper-scale `wc_sp` profile at 10 000-instruction
/// units (the granularity of stored analysis traces): `chunk_decode` parses
/// each chunk's JSON into units, `chunk_encode` renders it, `lz_decode`
/// inflates each chunk's LZ frame payload into one reused buffer, as the
/// reader does, and `lz_encode` compresses each chunk's JSON into one
/// reused buffer with one encoder, as the writer does into its frame
/// scratch. One iteration covers the whole trace; the per-MB figure is per
/// MB of raw chunk JSON.
fn bench_trace(c: &mut Criterion) {
    let units = fine_profile("wc_sp").units;
    let chunks: Vec<&[SamplingUnit]> = units.chunks(DEFAULT_CHUNK_UNITS).collect();
    let texts: Vec<String> =
        chunks.iter().map(|c| serde_json::to_string(c).expect("units encode")).collect();
    let packed: Vec<Vec<u8>> = texts
        .iter()
        .map(|t| {
            let mut p = Vec::new();
            codec::Encoder::new(Codec::Lz).encode(t.as_bytes(), &mut p);
            p
        })
        .collect();
    let raw_bytes: usize = texts.iter().map(String::len).sum();

    let mut g = c.benchmark_group("trace");
    g.throughput(Throughput::Bytes(raw_bytes as u64));
    g.bench_function("chunk_decode", |b| {
        b.iter(|| {
            for t in &texts {
                black_box(
                    serde_json::from_str::<Vec<SamplingUnit>>(black_box(t)).expect("decodes"),
                );
            }
        })
    });
    g.bench_function("chunk_encode", |b| {
        b.iter(|| {
            for c in &chunks {
                black_box(serde_json::to_string(black_box(c)).expect("encodes"));
            }
        })
    });
    let mut inflated = Vec::new();
    g.bench_function("lz_decode", |b| {
        b.iter(|| {
            for p in &packed {
                black_box(
                    codec::decode(codec::CODEC_LZ, black_box(p), MAX_FRAME_LEN, &mut inflated)
                        .expect("inflates"),
                );
            }
        })
    });
    let mut scratch = Vec::new();
    let mut encoder = codec::Encoder::new(Codec::Lz);
    g.bench_function("lz_encode", |b| {
        b.iter(|| {
            for t in &texts {
                scratch.clear();
                black_box(encoder.encode(black_box(t.as_bytes()), &mut scratch));
            }
        })
    });
    g.finish();
}

/// A paper-scale catalog workload's profile at 10 000-instruction units.
fn fine_profile(label: &str) -> ProfileTrace {
    let w = WorkloadId::all()
        .into_iter()
        .find(|w| w.label() == label)
        .expect("the workload is in the catalog");
    let mut cfg = WorkloadConfig::paper(1);
    cfg.profiler = ProfilerConfig::with_unit(10_000);
    w.run_full(&cfg).trace
}

/// `trace`'s units sealed into in-memory `Codec::Lz` trace bytes.
fn stored_lz(trace: &ProfileTrace) -> Vec<u8> {
    let meta = TraceMeta {
        label: "kernel".to_owned(),
        seed: 1,
        scale: "paper".to_owned(),
        unit_instrs: trace.unit_instrs,
        snapshot_instrs: trace.snapshot_instrs,
        core: trace.core,
    };
    let mut w = TraceWriter::from_writer(Cursor::new(Vec::new()), "<memory>", &meta, Codec::Lz)
        .expect("in-memory writer");
    for u in &trace.units {
        w.push(u);
    }
    w.finish(&MethodRegistry::new()).expect("seals");
    w.into_bytes()
}

/// `core/analyze_stream` opens a stored LZ trace from memory with
/// `TraceReader::from_reader` and analyzes it with `SimProf::analyze_stream`
/// at the default `top_k = 100`. `fine_lz` is the `wc_sp` trace of
/// `trace/*`, whose histograms fit the analysis's sparse record, so it is
/// read once; `over_budget` is 200 units of 300 histogram entries each,
/// more than `top_k`, so its stream is rewound and read a second time.
///
/// `stats/kmeans_sweep` runs the `choose_k` sweep (`k ∈ 2..=20`) on the
/// projected feature matrix (`FeatureSpace::fit` at `top_k = 100`) of the
/// same `wc_sp` profile and of `grep_sp`'s, whose 698 units hold 7
/// distinct rows, so its runs at large `k` reseed empty clusters.
fn bench_analyze_stream(c: &mut Criterion) {
    let wc_sp = fine_profile("wc_sp");
    let fine = stored_lz(&wc_sp);
    let heavy_units = (0..200u64)
        .map(|i| {
            let mut histogram: Vec<(MethodId, u32)> = (0..300u32)
                .map(|j| (MethodId((j * 7 + i as u32 * 13) % 1_000), 1 + (j + i as u32) % 40))
                .collect();
            histogram.sort_unstable_by_key(|&(m, _)| m);
            SamplingUnit {
                id: i,
                histogram,
                snapshots: 40,
                counters: Counters {
                    instructions: 10_000,
                    cycles: 9_000 + 7_000 * ((i / 25) % 3) + 37 * (i % 11),
                    ..Default::default()
                },
                slices: Vec::new(),
                truncated: false,
                dropped_snapshots: 0,
            }
        })
        .collect();
    let heavy = stored_lz(&ProfileTrace {
        unit_instrs: 10_000,
        snapshot_instrs: 250,
        core: 0,
        units: heavy_units,
    });

    let pipeline = SimProf::default();
    let mut g = c.benchmark_group("core/analyze_stream");
    for (name, bytes) in [("fine_lz", &fine), ("over_budget", &heavy)] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut reader =
                    TraceReader::from_reader(Cursor::new(bytes.as_slice()), name).expect("opens");
                black_box(pipeline.analyze_stream(&mut reader).expect("analyzes"))
            })
        });
    }
    g.finish();

    let mut g = c.benchmark_group("stats/kmeans_sweep");
    for (name, trace) in [("wc_sp_fine", wc_sp), ("grep_sp_fine", fine_profile("grep_sp"))] {
        let (_, m) = FeatureSpace::fit(&trace, 100);
        g.bench_function(name, |b| b.iter(|| black_box(kmeans_sweep(black_box(&m), 20, 42))));
    }
    g.finish();
}

/// `obs/event_lines` renders 1 000 service lifecycle events (queued,
/// started, finished, failed) into one reused line buffer, as the JSONL
/// event writer does; `json/pretty fleet_report` renders a 48-job fleet
/// report as the pretty JSON `simprof serve` writes.
fn bench_json(c: &mut Criterion) {
    let events: Vec<Event> = (0..1_000u64)
        .map(|i| {
            let (job, tenant) = (format!("job-{:03}", i / 4), format!("tenant-{}", i % 3));
            let kind = match i % 4 {
                0 => EventKind::JobQueued { job, tenant },
                1 => EventKind::JobStarted { job, tenant, worker: i % 2 },
                2 => EventKind::JobFinished {
                    job,
                    tenant,
                    units: 700 + i,
                    bytes: 40_000 + 13 * i,
                    peak_bytes: 3 << 20,
                    queue_us: 50 * i,
                    run_us: 90_000 + i,
                },
                _ => EventKind::JobFailed { job, tenant, error: "engine \"crashed\"".to_owned() },
            };
            Event { v: EVENT_SCHEMA_VERSION, seq: i + 1, ts_us: 1_000 * i, kind }
        })
        .collect();
    let mut line = String::new();
    c.bench_function("obs/event_lines", |b| {
        b.iter(|| {
            for e in &events {
                line.clear();
                e.write_json_line(&mut line);
                black_box(&line);
            }
        })
    });

    let jobs: Vec<FleetJob> = (0..48u64)
        .map(|i| FleetJob {
            id: format!("job-{i:02}"),
            tenant: format!("tenant-{}", i % 3),
            workload: ["wc_sp", "grep_sp", "sort_hp"][i as usize % 3].to_owned(),
            ok: i % 11 != 0,
            error: (i % 11 == 0).then(|| "engine crashed".to_owned()),
            units: 700 + i,
            trace_bytes: 40_000 + 13 * i,
            peak_alloc_bytes: (3 << 20) + i,
            queue_us: 50 * i,
            run_us: 90_000 + 7 * i,
            stored_payload_bytes: 30_000 + i,
            raw_payload_bytes: 90_000 + i,
            compression: 0.33,
        })
        .collect();
    let report = FleetReport::assemble(jobs, Default::default());
    c.bench_function("json/pretty fleet_report", |b| b.iter(|| black_box(report.to_json_pretty())));
}

criterion_group!(
    name = kernels;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2));
    targets = bench_stats, bench_machine, bench_engine, bench_ops, bench_build, bench_trace,
        bench_analyze_stream, bench_json
);
criterion_main!(kernels);
