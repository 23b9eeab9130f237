//! The streaming equivalence contract, pinned end to end: a trace analyzed
//! **in memory**, via the **legacy JSON bundle**, or **streamed from a
//! chunked file** must produce bit-identical analyses — and the streaming
//! two-pass feature fit must reproduce the dense batch construction
//! exactly.
//!
//! These are the acceptance tests for the streaming trace architecture; if
//! the chunked codec, the sink path, or the two-pass pipeline ever drift
//! from the in-memory path, this file fails before any CLI or benchmark
//! notices.

use proptest::prelude::*;

use simprof::core::{vectorize, FeatureSpace, SimProf, SimProfConfig};
use simprof::engine::MethodId;
use simprof::profiler::{ProfileTrace, SamplingUnit};
use simprof::sim::Counters;
use simprof::trace::{TraceMeta, TraceReader, TraceWriter};
use simprof::workloads::{Benchmark, Framework, WorkloadConfig};
use simprof_cli::bundle::{TraceBundle, FORMAT_VERSION};
use simprof_cli::input::TraceInput;

use std::sync::atomic::{AtomicUsize, Ordering};

/// Unique temp path per call so parallel tests and proptest cases never
/// collide on the same file.
fn temp_trace_path(tag: &str) -> String {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!("simprof_stream_eq_{tag}_{n}.sptrc"));
    path.to_str().expect("utf-8 temp path").to_owned()
}

fn write_chunked(trace: &ProfileTrace, path: &str, chunk_units: usize) {
    let meta = TraceMeta {
        label: "stream_eq".into(),
        seed: 0,
        scale: "test".into(),
        unit_instrs: trace.unit_instrs,
        snapshot_instrs: trace.snapshot_instrs,
        core: trace.core,
    };
    let mut w = TraceWriter::create(path, &meta).unwrap().with_chunk_units(chunk_units);
    for u in &trace.units {
        w.push(u);
    }
    w.finish(&Default::default()).unwrap();
}

/// The acceptance regression: one real (tiny-scale) workload, analyzed via
/// all three input paths, must agree bit for bit — including the
/// downstream point selection.
#[test]
fn analysis_is_bit_identical_across_memory_bundle_and_chunked_file() {
    let cfg = WorkloadConfig::tiny(7);
    let out = Benchmark::WordCount.run_full(Framework::Spark, &cfg);
    let sp = SimProf::default();

    // Path 1: the in-memory trace, no disk round-trip.
    let in_memory = sp.analyze(&out.trace).unwrap();

    // Path 2: the legacy monolithic JSON bundle.
    let bundle_path = temp_trace_path("bundle");
    let bundle_path = bundle_path.trim_end_matches(".sptrc").to_owned() + ".json";
    let bundle = TraceBundle {
        version: FORMAT_VERSION,
        label: "wc_sp".into(),
        seed: 7,
        scale: "tiny".into(),
        trace: out.trace.clone(),
        registry: out.registry.clone(),
    };
    std::fs::write(&bundle_path, serde_json::to_string(&bundle).unwrap()).unwrap();
    let via_bundle = TraceInput::open(&bundle_path).unwrap().analyze(&sp).unwrap();

    // Path 3: the chunked streaming file, small chunks to force many
    // chunk-boundary crossings per pass.
    let chunked_path = temp_trace_path("accept");
    write_chunked(&out.trace, &chunked_path, 8);
    let via_chunked = TraceInput::open(&chunked_path).unwrap().analyze(&sp).unwrap();

    for other in [&via_bundle, &via_chunked] {
        assert_eq!(in_memory.cpis, other.cpis);
        assert_eq!(in_memory.model.assignments, other.model.assignments);
        assert_eq!(in_memory.model.space, other.model.space);
        assert_eq!(in_memory.stats, other.stats);
        assert_eq!(in_memory.weights, other.weights);
        // Downstream selection consumes only the above, so it must agree
        // too — same points, same order.
        let a = in_memory.select_points(10, 99);
        let b = other.select_points(10, 99);
        assert_eq!(a.points, b.points);
    }

    let _ = std::fs::remove_file(&bundle_path);
    let _ = std::fs::remove_file(&chunked_path);
}

/// Strategy: a synthetic trace with latent behaviours (same shape as
/// `pipeline_properties.rs`) plus streaming-relevant variety: slices,
/// truncated units, dropped snapshots.
fn trace_strategy() -> impl Strategy<Value = ProfileTrace> {
    (3usize..40, 1usize..6, proptest::collection::vec((200u64..4000, 0u64..400), 6), any::<u64>())
        .prop_map(|(n, behaviours, levels, seed)| {
            let units = (0..n as u64)
                .map(|i| {
                    let b = (i as usize * 7 + seed as usize) % behaviours;
                    let (base, jitter) = levels[b];
                    let wobble = (i.wrapping_mul(seed | 1) >> 5) % (jitter + 1);
                    let histogram = vec![
                        (MethodId(0), 10),
                        (MethodId(b as u32 + 1), 9),
                        (MethodId(b as u32 + 7), 4 + (i % 3) as u32),
                    ];
                    SamplingUnit {
                        id: i,
                        histogram,
                        snapshots: 10,
                        counters: Counters {
                            instructions: 1000,
                            cycles: base + wobble,
                            ..Default::default()
                        },
                        slices: if i % 3 == 0 {
                            vec![(500, base / 2), (500, base / 2)]
                        } else {
                            Vec::new()
                        },
                        truncated: i % 5 == 4,
                        dropped_snapshots: (i % 4) as u32,
                    }
                })
                .collect();
            ProfileTrace { unit_instrs: 1000, snapshot_instrs: 100, core: 0, units }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the trace, analyzing the chunked file's stream equals
    /// analyzing the in-memory trace bit for bit.
    #[test]
    fn streamed_analysis_equals_in_memory(
        trace in trace_strategy(),
        seed in any::<u64>(),
        chunk in 1usize..9,
    ) {
        let sp = SimProf::new(SimProfConfig { seed, ..Default::default() });
        let in_memory = sp.analyze(&trace).expect("valid trace");

        let path = temp_trace_path("prop");
        write_chunked(&trace, &path, chunk);
        let mut reader = TraceReader::open(&path).unwrap();
        let streamed = sp.analyze_stream(&mut reader).expect("valid stream");
        let _ = std::fs::remove_file(&path);

        prop_assert_eq!(&in_memory.cpis, &streamed.cpis);
        prop_assert_eq!(&in_memory.model.assignments, &streamed.model.assignments);
        prop_assert_eq!(&in_memory.model.space, &streamed.model.space);
        prop_assert_eq!(&in_memory.stats, &streamed.stats);
        prop_assert_eq!(&in_memory.weights, &streamed.weights);
    }

    /// The two-pass fit's reduced matrix equals the dense batch
    /// construction exactly: vectorize the whole trace, keep the fitted
    /// columns, and every entry matches what the sparse projection wrote.
    #[test]
    fn streaming_fit_matches_dense_batch_construction(trace in trace_strategy(), k in 1usize..8) {
        let (space, projected) = FeatureSpace::fit(&trace, k);
        let dense = vectorize(&trace);
        prop_assert_eq!(projected.rows(), trace.units.len());
        prop_assert_eq!(projected.cols(), space.columns.len());
        for i in 0..projected.rows() {
            let dense_row = dense.row(i);
            let sparse_row = projected.row(i);
            for (j, &col) in space.columns.iter().enumerate() {
                // Exact equality: both sides compute count / snapshots with
                // the same operations in the same order.
                prop_assert_eq!(sparse_row[j], dense_row[col]);
            }
        }
    }
}
