//! Property tests: the chunked on-disk format round-trips any
//! [`ProfileTrace`] bit-identically — including the optional
//! `truncated` / `dropped_snapshots` / `slices` fields — for any chunk
//! size, and the footer statistics always match the units on disk. A
//! [`TraceReader`] reusing its frame buffers yields the same units on
//! every pass, after rewinds mid-stream and after partial reads, and
//! accounts exactly the frames it has decoded.

use std::io::Cursor;

use proptest::prelude::*;

use simprof_engine::{MethodId, MethodRegistry, OpClass};
use simprof_profiler::trace::{ProfileTrace, SamplingUnit};
use simprof_sim::Counters;
use simprof_trace::codec::{codec_name, Codec, CODEC_LZ};
use simprof_trace::{read_trace, TraceMeta, TraceReader, TraceWriter, FORMAT_VERSION};

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

/// One frame of a v3 file as the format specifies it: kind, codec id, and
/// its stored and decoded payload lengths.
struct FrameInfo {
    kind: u8,
    codec: u8,
    stored: u64,
    raw: u64,
}

/// Walks v3 trace bytes frame by frame, up to and including the footer.
fn frames(bytes: &[u8]) -> Vec<FrameInfo> {
    let (mut at, mut out) = (8, Vec::new());
    loop {
        let len = u32::from_le_bytes(bytes[at + 2..at + 6].try_into().unwrap()) as usize;
        let stored = &bytes[at + 6..at + 6 + len];
        let raw = if bytes[at + 1] == CODEC_LZ {
            u32::from_le_bytes(stored[..4].try_into().unwrap()) as u64
        } else {
            len as u64
        };
        out.push(FrameInfo { kind: bytes[at], codec: bytes[at + 1], stored: len as u64, raw });
        if bytes[at] == b'F' {
            return out;
        }
        at += 6 + len + 4;
    }
}

/// What a reader reports after decoding `decoded` (indices into `frames`):
/// `(payload_bytes(), codecs_seen())`.
fn accounting(frames: &[FrameInfo], decoded: &[usize]) -> ((u64, u64), Vec<&'static str>) {
    let stored = decoded.iter().map(|&i| frames[i].stored).sum();
    let raw = decoded.iter().map(|&i| frames[i].raw).sum();
    let mut ids: Vec<u8> = decoded.iter().map(|&i| frames[i].codec).collect();
    ids.sort_unstable();
    ids.dedup();
    ((stored, raw), ids.into_iter().filter_map(codec_name).collect())
}

/// Reads up to `limit` units, checking each against `units[..]`, and
/// records the frames that reading decoded: unit frames as their first
/// unit is reached, the footer when the stream runs out.
fn read_units(
    reader: &mut TraceReader<Cursor<Vec<u8>>>,
    units: &[SamplingUnit],
    chunk: usize,
    limit: usize,
    decoded: &mut Vec<usize>,
) -> usize {
    let mut n = 0;
    while n < limit {
        match reader.next_unit().unwrap() {
            Some(u) => {
                assert_eq!(u, &units[n], "unit {n}");
                if n % chunk == 0 {
                    decoded.push(1 + n / chunk);
                }
                n += 1;
            }
            None => {
                assert_eq!(n, units.len(), "the stream ends after the last unit");
                decoded.push(1 + units.len().div_ceil(chunk));
                break;
            }
        }
    }
    n
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Reads, rewinds and re-reads through one reader at chunk sizes 1, 7,
    /// 32 and 1 000 under both codecs: every pass yields exactly the
    /// written units, and `payload_bytes` / `codecs_seen` count exactly
    /// the frames decoded so far, as the file's own frames add up.
    #[test]
    fn reader_rereads_through_reused_buffers(
        units in proptest::collection::vec(unit_strategy(), 0..70),
        partial in 0usize..80,
        mid in 0usize..80,
    ) {
        for codec in [Codec::Raw, Codec::Lz] {
            for chunk in [1, 7, 32, 1_000] {
                let meta = TraceMeta {
                    label: "reuse".into(),
                    seed: 3,
                    scale: "tiny".into(),
                    unit_instrs: 1_000,
                    snapshot_instrs: 100,
                    core: 0,
                };
                let mut w = TraceWriter::from_writer(Cursor::new(Vec::new()), "<memory>", &meta, codec)
                    .unwrap()
                    .with_chunk_units(chunk);
                for u in &units {
                    w.push(u);
                }
                w.finish(&MethodRegistry::new()).unwrap();
                let bytes = w.into_bytes();
                let frames = frames(&bytes);
                prop_assert_eq!(frames.len(), 2 + units.len().div_ceil(chunk));
                prop_assert!(frames[1..frames.len() - 1].iter().all(|f| f.kind == b'U'));

                let mut reader = TraceReader::from_reader(Cursor::new(bytes), "<memory>").unwrap();
                let mut decoded = vec![0];
                let check = |reader: &TraceReader<Cursor<Vec<u8>>>, decoded: &[usize]| {
                    let (bytes, codecs) = accounting(&frames, decoded);
                    assert_eq!(reader.payload_bytes(), bytes);
                    assert_eq!(reader.codecs_seen(), codecs);
                };
                check(&reader, &decoded);
                // A partial read, then a full pass after a rewind.
                read_units(&mut reader, &units, chunk, partial, &mut decoded);
                check(&reader, &decoded);
                reader.rewind().unwrap();
                prop_assert_eq!(read_units(&mut reader, &units, chunk, usize::MAX, &mut decoded), units.len());
                check(&reader, &decoded);
                // A rewind mid-stream, then another full pass.
                reader.rewind().unwrap();
                read_units(&mut reader, &units, chunk, mid, &mut decoded);
                reader.rewind().unwrap();
                prop_assert_eq!(read_units(&mut reader, &units, chunk, usize::MAX, &mut decoded), units.len());
                check(&reader, &decoded);
                // The footer, read from the tail, counts its frame again.
                prop_assert_eq!(reader.footer().unwrap().unit_count, units.len() as u64);
                decoded.push(frames.len() - 1);
                check(&reader, &decoded);
            }
        }
    }
}
