//! Shared inputs for the `.sptrc` suites, the four layouts they cover, and
//! a reference encoder for the two legacy layouts.
//!
//! The library writes only v3 now, but v1 and v2 files from earlier
//! releases must stay readable and salvageable. [`seal`] therefore writes
//! v1/v2 bytes itself, the way the earlier writer did (`crates/trace/tests/
//! data/v{1,2}.sptrc` were written by that writer, and `compat.rs` checks
//! this encoder reproduces them byte for byte), and hands v3 to the
//! library's own writer. The layouts are described here from the format
//! specification, not imported from the library's layout table, so the
//! suites check that table instead of trusting it.

use std::io::Cursor;

use simprof_engine::{MethodId, MethodRegistry, OpClass};
use simprof_profiler::trace::SamplingUnit;
use simprof_sim::Counters;
use simprof_trace::crc32::crc32;
use simprof_trace::{Codec, TraceFooter, TraceMeta, TraceWriter};

/// One layout (and, for v3, frame codec) under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// `SPTRC\0v1`: `[kind] [len u32] [payload]`, no checksum.
    V1,
    /// `SPTRC\0v2`: v1 plus a CRC32 over `kind | len | payload`.
    V2,
    /// `SPTRC\0v3` with every frame stored raw: v2 plus a codec byte after
    /// the kind, covered by the CRC.
    V3Raw,
    /// `SPTRC\0v3` under the LZ codec (raw fallback per frame).
    V3Lz,
}

impl Layout {
    /// Every layout, oldest first.
    pub const ALL: [Layout; 4] = [Layout::V1, Layout::V2, Layout::V3Raw, Layout::V3Lz];

    /// The fixture file stem under `tests/data/` and the name in messages.
    pub fn name(self) -> &'static str {
        match self {
            Layout::V1 => "v1",
            Layout::V2 => "v2",
            Layout::V3Raw => "v3_raw",
            Layout::V3Lz => "v3_lz",
        }
    }

    /// The layout version in the magic and the footer.
    pub fn version(self) -> u32 {
        match self {
            Layout::V1 => 1,
            Layout::V2 => 2,
            Layout::V3Raw | Layout::V3Lz => 3,
        }
    }

    /// The file's leading (and trailing) magic.
    pub fn magic(self) -> &'static [u8; 8] {
        match self {
            Layout::V1 => b"SPTRC\0v1",
            Layout::V2 => b"SPTRC\0v2",
            Layout::V3Raw | Layout::V3Lz => b"SPTRC\0v3",
        }
    }
}

pub fn mk_unit(id: u64) -> SamplingUnit {
    SamplingUnit {
        id,
        histogram: vec![(MethodId((id % 4) as u32), 2 + (id % 3) as u32), (MethodId(9), 1)],
        snapshots: 4,
        counters: Counters {
            instructions: 900 + 7 * id,
            cycles: 1400 + 11 * id,
            ..Default::default()
        },
        slices: vec![(10 * id, 10 * id + 5)],
        truncated: id % 5 == 0,
        dropped_snapshots: (id % 3) as u32,
    }
}

pub fn mk_meta() -> TraceMeta {
    TraceMeta {
        label: "corrupt".into(),
        seed: 9,
        scale: "tiny".into(),
        unit_instrs: 900,
        snapshot_instrs: 90,
        core: 0,
    }
}

pub fn mk_registry() -> MethodRegistry {
    let mut reg = MethodRegistry::new();
    reg.intern("Mapper.map", OpClass::Map);
    reg.intern("Reducer.reduce", OpClass::Reduce);
    reg
}

/// Seals `units` (`chunk` per unit frame) under `mk_meta`/`mk_registry`
/// into trace bytes of the given layout.
pub fn seal(layout: Layout, units: &[SamplingUnit], chunk: usize) -> Vec<u8> {
    let codec = match layout {
        Layout::V1 | Layout::V2 => return encode_legacy(layout, units, chunk),
        Layout::V3Raw => Codec::Raw,
        Layout::V3Lz => Codec::Lz,
    };
    let mut w = TraceWriter::from_writer(Cursor::new(Vec::new()), "<memory>", &mk_meta(), codec)
        .unwrap()
        .with_chunk_units(chunk);
    for u in units {
        w.push(u);
    }
    w.finish(&mk_registry()).unwrap();
    w.into_bytes()
}

/// The earlier writer's v1/v2 output: magic, header frame, one frame per
/// `chunk` units, footer frame, then `[footer payload len u32][magic]`.
fn encode_legacy(layout: Layout, units: &[SamplingUnit], chunk: usize) -> Vec<u8> {
    fn frame(out: &mut Vec<u8>, layout: Layout, kind: u8, payload: &str) {
        let start = out.len();
        out.push(kind);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(payload.as_bytes());
        if layout == Layout::V2 {
            let crc = crc32(&out[start..]);
            out.extend_from_slice(&crc.to_le_bytes());
        }
    }

    let mut out = layout.magic().to_vec();
    frame(&mut out, layout, b'H', &serde_json::to_string(&mk_meta()).unwrap());
    for c in units.chunks(chunk.max(1)) {
        frame(&mut out, layout, b'U', &serde_json::to_string(c).unwrap());
    }
    let footer = TraceFooter {
        version: layout.version(),
        unit_count: units.len() as u64,
        method_universe: units
            .iter()
            .flat_map(|u| u.histogram.iter().map(|&(m, _)| m.index() + 1))
            .max()
            .unwrap_or(0),
        total_instrs: units.iter().map(|u| u.counters.instructions).sum(),
        total_cycles: units.iter().map(|u| u.counters.cycles).sum(),
        truncated_units: units.iter().filter(|u| u.truncated).count() as u64,
        dropped_snapshots: units.iter().map(|u| u64::from(u.dropped_snapshots)).sum(),
        registry: mk_registry(),
    };
    let payload = serde_json::to_string(&footer).unwrap();
    frame(&mut out, layout, b'F', &payload);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(layout.magic());
    out
}
