//! Salvage recovery for damaged `.sptrc` traces (DESIGN.md §14.3).
//!
//! A crash before [`TraceWriter::finish`](crate::TraceWriter::finish)
//! leaves a footer-less file the normal reader refuses; a flipped byte
//! mid-file fails its frame's CRC. Both are recoverable artifacts: every
//! *other* frame is still intact and self-describing. [`salvage_bytes`]
//! forward-scans the whole file, keeps every frame that validates
//! (structure + CRC + decode + JSON parse; v1 frames have no CRC), and
//! resynchronizes past damage by scanning byte-by-byte for the next
//! position where a valid frame begins. The result is every fully intact
//! chunk, a [`SalvageReport`] describing what was lost, and a footer —
//! the original one when the file turns out to be undamaged, otherwise a
//! synthetic footer rebuilt from the recovered units (so the salvage can
//! be re-sealed by `simprof trace-repair`).
//!
//! Salvage is deliberately in-memory over the full file bytes: recovery
//! is a rare, offline operation where random access (probing candidate
//! frame boundaries) matters more than streaming memory use.

use serde::{Deserialize, Serialize};

use simprof_profiler::trace::SamplingUnit;

use crate::codec;
use crate::crc32::crc32;
use crate::layout::{self, Layout};
use crate::{
    parse_payload, TraceFooter, TraceMeta, FRAME_FOOTER, FRAME_HEADER, FRAME_UNITS, MAX_FRAME_LEN,
};

/// What a salvage pass found, frame by frame.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SalvageReport {
    /// Layout version detected from the magic (1, 2, or 3; the current
    /// layout for a file cut inside its magic).
    pub layout_version: u32,
    /// Total bytes scanned.
    pub file_bytes: u64,
    /// True when the header frame survived (meta is authentic, not a
    /// placeholder).
    pub header_recovered: bool,
    /// True when a footer frame was found anywhere in the file.
    pub footer_found: bool,
    /// True when the file needed no salvage at all: header, every chunk,
    /// footer and trailer all validated with zero skipped bytes.
    pub clean: bool,
    /// Sampling units recovered from intact chunk frames.
    pub recovered_units: u64,
    /// Intact chunk frames recovered.
    pub recovered_chunks: u64,
    /// Positions where an expected frame failed validation.
    pub bad_frames: u64,
    /// Successful resynchronizations onto a later valid frame.
    pub resyncs: u64,
    /// Bytes skipped while resynchronizing (includes any unrecoverable
    /// tail).
    pub skipped_bytes: u64,
}

/// A salvaged trace: recovered content plus the damage report.
#[derive(Debug, Clone, PartialEq)]
pub struct Salvage {
    /// Header metadata — authentic when
    /// [`SalvageReport::header_recovered`], otherwise a placeholder
    /// reconstructed from the recovered units.
    pub meta: TraceMeta,
    /// Every unit from every intact chunk frame, in file order.
    pub units: Vec<SamplingUnit>,
    /// The original footer when the file was clean; otherwise synthetic,
    /// with statistics recomputed from the recovered units (the registry
    /// is reused from a surviving footer frame when one was found).
    pub footer: TraceFooter,
    /// What happened during the scan.
    pub report: SalvageReport,
}

/// One validated frame, decoded.
enum Recovered {
    Header(TraceMeta),
    Units(Vec<SamplingUnit>),
    Footer(TraceFooter, usize),
}

/// Checks whether a structurally valid, checksummed, parseable frame
/// begins at `at`; returns its decoded content and end offset.
///
/// This is both the normal forward step and the resync probe: after a bad
/// frame, salvage advances one byte at a time until this accepts. The
/// [`MAX_FRAME_LEN`] cap doubles as the resync guard — almost every
/// random 4-byte window decodes to an enormous length and is rejected
/// before any expensive CRC work.
fn probe_frame(data: &[u8], at: usize, layout: Layout) -> Option<(Recovered, usize)> {
    let kind = *data.get(at)?;
    if kind != FRAME_HEADER && kind != FRAME_UNITS && kind != FRAME_FOOTER {
        return None;
    }
    // An unknown codec id rejects the candidate before any CRC work.
    let head_end = at + layout.head_len();
    let (_, codec_id, len) = layout.parse_head(data.get(at..head_end)?);
    codec::codec_name(codec_id)?;
    if len > MAX_FRAME_LEN {
        return None;
    }
    let stored = data.get(head_end..head_end + len)?;
    let body_end = head_end + len;
    let end = body_end + layout.crc_len();
    if layout.has_crc {
        let crc_bytes = data.get(body_end..end)?;
        let expected = u32::from_le_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
        if crc32(&data[at..body_end]) != expected {
            return None;
        }
    }
    // CRC validated over the stored bytes; only now decode and parse. A
    // frame that checksums but fails either step is still bad.
    let payload = codec::decode(codec_id, stored, MAX_FRAME_LEN).ok()?;
    let rec = match kind {
        FRAME_HEADER => Recovered::Header(parse_payload("salvage", "header", &payload).ok()?),
        FRAME_UNITS => Recovered::Units(parse_payload("salvage", "chunk", &payload).ok()?),
        _ => Recovered::Footer(parse_payload("salvage", "footer", &payload).ok()?, len),
    };
    Some((rec, end))
}

/// True when `data[at..]` is exactly a valid 12-byte trailer for a footer
/// frame whose payload was `footer_len` bytes.
fn is_trailer(data: &[u8], at: usize, footer_len: usize, magic: &[u8; 8]) -> bool {
    let Some(trailer) = data.get(at..at + 12) else { return false };
    data.len() - at == 12
        && &trailer[4..12] == magic
        && u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]) as usize
            == footer_len
}

/// Salvages a trace from raw file bytes. `origin` names the source in
/// events and errors (normally the file path).
///
/// Never panics on any input. Errs only when the bytes cannot be a
/// simprof trace at all (magic mismatch in a file long enough to hold
/// one); a truncated prefix of a real trace — at *any* byte offset,
/// including mid-magic — salvages successfully, possibly to zero units.
pub fn salvage_bytes(data: &[u8], origin: &str) -> Result<Salvage, String> {
    let layout = if data.len() >= 8 {
        let head = &data[..8];
        Layout::sniff(head).ok_or_else(|| {
            format!(
                "{origin}: not a chunked simprof trace (bad magic {head:?}); nothing to salvage"
            )
        })?
    } else if layout::is_cut_magic(data) {
        // Truncated inside the magic itself: a real trace cut that short
        // holds nothing, but it is still "ours" — salvage to zero units.
        layout::CURRENT
    } else {
        return Err(format!(
            "{origin}: not a chunked simprof trace ({} bytes, magic mismatch); nothing to salvage",
            data.len()
        ));
    };

    let mut meta: Option<TraceMeta> = None;
    let mut units: Vec<SamplingUnit> = Vec::new();
    let mut chunks = 0u64;
    let mut footer_frame: Option<TraceFooter> = None;
    let mut footer_len = 0usize;
    let mut bad_frames = 0u64;
    let mut resyncs = 0u64;
    let mut skipped = 0u64;
    let mut trailer_ok = false;

    let mut at = 8.min(data.len());
    while at < data.len() {
        if footer_frame.is_some() && is_trailer(data, at, footer_len, layout.magic) {
            trailer_ok = true;
            break;
        }
        match probe_frame(data, at, layout) {
            Some((rec, end)) => {
                match rec {
                    Recovered::Header(m) => {
                        if meta.is_none() {
                            meta = Some(m);
                        }
                    }
                    Recovered::Units(us) => {
                        chunks += 1;
                        units.extend(us);
                    }
                    Recovered::Footer(f, len) => {
                        footer_frame = Some(f);
                        footer_len = len;
                    }
                }
                at = end;
            }
            None => {
                bad_frames += 1;
                let mut next = at + 1;
                while next < data.len() && probe_frame(data, next, layout).is_none() {
                    next += 1;
                }
                skipped += (next - at) as u64;
                if next < data.len() {
                    resyncs += 1;
                }
                at = next;
            }
        }
    }

    let header_recovered = meta.is_some();
    let clean =
        header_recovered && footer_frame.is_some() && trailer_ok && bad_frames == 0 && skipped == 0;

    // Header gone: reconstruct a placeholder so the salvage is still a
    // complete, re-sealable trace. The unit size is recovered from the
    // first unit's own instruction count (units span exactly one unit
    // interval), which is the best evidence the file still holds.
    let meta = meta.unwrap_or_else(|| TraceMeta {
        label: "(salvaged)".into(),
        seed: 0,
        scale: "unknown".into(),
        unit_instrs: units.first().map(|u| u.counters.instructions.max(1)).unwrap_or(1),
        snapshot_instrs: 1,
        core: 0,
    });

    let footer = if clean {
        footer_frame.clone().expect("clean implies footer")
    } else {
        let mut method_universe = 0usize;
        let mut total_instrs = 0u64;
        let mut total_cycles = 0u64;
        let mut truncated_units = 0u64;
        let mut dropped_snapshots = 0u64;
        for u in &units {
            for &(m, _) in &u.histogram {
                method_universe = method_universe.max(m.index() + 1);
            }
            total_instrs += u.counters.instructions;
            total_cycles += u.counters.cycles;
            truncated_units += u64::from(u.truncated);
            dropped_snapshots += u64::from(u.dropped_snapshots);
        }
        TraceFooter {
            version: layout.version,
            unit_count: units.len() as u64,
            method_universe,
            total_instrs,
            total_cycles,
            truncated_units,
            dropped_snapshots,
            registry: footer_frame.as_ref().map(|f| f.registry.clone()).unwrap_or_default(),
        }
    };

    let report = SalvageReport {
        layout_version: layout.version,
        file_bytes: data.len() as u64,
        header_recovered,
        footer_found: footer_frame.is_some(),
        clean,
        recovered_units: units.len() as u64,
        recovered_chunks: chunks,
        bad_frames,
        resyncs,
        skipped_bytes: skipped,
    };

    simprof_obs::counter_add("trace.salvaged_units", report.recovered_units);
    simprof_obs::salvage_event(
        origin,
        report.recovered_units,
        report.bad_frames,
        report.skipped_bytes,
        report.resyncs,
    );

    Ok(Salvage { meta, units, footer, report })
}
