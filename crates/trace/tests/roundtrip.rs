//! Property tests: the chunked on-disk format round-trips any
//! [`ProfileTrace`] bit-identically — including the optional
//! `truncated` / `dropped_snapshots` / `slices` fields — for any chunk
//! size, and the footer statistics always match the units on disk.

use proptest::prelude::*;

use simprof_engine::{MethodId, MethodRegistry, OpClass};
use simprof_profiler::trace::{ProfileTrace, SamplingUnit};
use simprof_sim::Counters;
use simprof_trace::{read_trace, TraceMeta, TraceWriter, FORMAT_VERSION};

/// Builds a sampling unit from compact generator inputs.
fn build_unit(
    id: u64,
    hist: Vec<(u32, u32)>,
    slices: Vec<(u64, u64)>,
    instrs: u64,
    cycles: u64,
    truncated: bool,
    dropped: u32,
) -> SamplingUnit {
    let mut histogram: Vec<(MethodId, u32)> =
        hist.into_iter().map(|(m, c)| (MethodId(m), c)).collect();
    histogram.sort_by_key(|&(m, _)| m);
    histogram.dedup_by_key(|&mut (m, _)| m);
    let snapshots = histogram.iter().map(|&(_, c)| c).max().unwrap_or(0);
    SamplingUnit {
        id,
        histogram,
        snapshots,
        counters: Counters { instructions: instrs, cycles, ..Default::default() },
        slices,
        truncated,
        dropped_snapshots: dropped,
    }
}

fn unit_strategy() -> impl Strategy<Value = SamplingUnit> {
    (
        any::<u64>(),
        proptest::collection::vec((0u32..64, 1u32..50), 0..8),
        proptest::collection::vec((0u64..10_000, 0u64..30_000), 0..6),
        0u64..1_000_000,
        0u64..3_000_000,
        any::<bool>(),
        0u32..10,
    )
        .prop_map(|(id, hist, slices, instrs, cycles, truncated, dropped)| {
            build_unit(id, hist, slices, instrs, cycles, truncated, dropped)
        })
}

fn tmp(tag: &str, case: u64) -> String {
    std::env::temp_dir()
        .join(format!("simprof_prop_{tag}_{case}.sptrc"))
        .to_str()
        .unwrap()
        .to_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Writer → reader round-trips any trace bit-identically regardless of
    /// how units land on chunk boundaries.
    #[test]
    fn roundtrip_is_bit_identical(
        units in proptest::collection::vec(unit_strategy(), 0..30),
        chunk_units in 1usize..9,
        unit_instrs in 1u64..1_000_000,
        snapshot_instrs in 1u64..100_000,
        core in 0usize..4,
        tag in any::<u64>(),
    ) {
        let trace = ProfileTrace { unit_instrs, snapshot_instrs, core, units };
        let meta = TraceMeta {
            label: "prop".into(),
            seed: 7,
            scale: "tiny".into(),
            unit_instrs,
            snapshot_instrs,
            core,
        };
        let mut registry = MethodRegistry::new();
        registry.intern("Mapper.map", OpClass::Map);
        registry.intern("Reducer.reduce", OpClass::Reduce);

        let path = tmp("roundtrip", tag);
        let mut writer =
            TraceWriter::create(&path, &meta).unwrap().with_chunk_units(chunk_units);
        for unit in &trace.units {
            writer.push(unit);
        }
        let footer = writer.finish(&registry).unwrap();
        let (back, read_footer) = read_trace(&path).unwrap();
        let _ = std::fs::remove_file(&path);

        // The materialized trace is the original, field for field —
        // SamplingUnit's PartialEq covers histogram, counters, slices,
        // truncated and dropped_snapshots.
        prop_assert_eq!(&back, &trace);

        // Footer statistics agree with the trace's own accessors.
        prop_assert_eq!(read_footer.clone(), footer);
        // Every sealed footer carries the layout the writer produces.
        prop_assert_eq!(footer.version, FORMAT_VERSION);
        prop_assert_eq!(footer.unit_count, trace.units.len() as u64);
        prop_assert_eq!(footer.method_universe, trace.method_universe());
        prop_assert_eq!(footer.total_instrs, trace.total_instrs());
        prop_assert_eq!(footer.total_cycles, trace.total_cycles());
        prop_assert_eq!(footer.truncated_units, trace.truncated_units() as u64);
        prop_assert_eq!(footer.dropped_snapshots, trace.dropped_snapshots());
        prop_assert_eq!(footer.registry, registry);
    }
}
