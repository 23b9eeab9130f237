//! Property tests for the durability layer (DESIGN.md §14), run on every
//! layout a reader meets — v1, v2, v3 raw and v3 LZ — inside every case:
//! for any generated trace and any single-byte flip or truncation offset,
//!
//! * reading never panics,
//! * a streamed unit is never *silently* wrong — the frame CRC catches
//!   every flip before the unit reaches the caller, so whatever prefix a
//!   reader yields matches the original bit-for-bit (v1 has no CRC: only
//!   the units of the flipped frame itself may differ),
//! * salvage recovers exactly the units of the chunk frames that are
//!   fully intact, and re-sealing them (`trace-repair`) round-trips
//!   bit-identically through the reader,
//! * the same chaos seed produces a bit-identical salvage outcome.
//!
//! The expected-recovery oracle walks the *uncorrupted* bytes with its own
//! layout knowledge (`kind | codec? | len u32 LE | payload | crc32?`), so
//! the tests pin the format, not the implementation under test.

mod support;

use std::io::Cursor;
use std::ops::Range;

use proptest::prelude::*;

use simprof_profiler::trace::SamplingUnit;
use simprof_trace::{
    salvage_bytes, ChaosPlan, ChaosWriter, Codec, RetryPolicy, Salvage, TraceReader, TraceWriter,
};
use support::{mk_meta, mk_registry, mk_unit, seal, Layout};

/// Whether a layout's frames end in a CRC32.
fn has_crc(layout: Layout) -> bool {
    layout != Layout::V1
}

/// Walks an *uncorrupted* sealed trace frame by frame using only layout
/// knowledge. Returns `(kind, start, end)` per frame, ending at the footer
/// frame (the 12-byte trailer follows the last entry).
fn frame_map(layout: Layout, bytes: &[u8]) -> Vec<(u8, usize, usize)> {
    // Bytes before the payload (kind, codec?, length) and after it (crc?).
    let (head, tail) = match layout {
        Layout::V1 => (5, 0),
        Layout::V2 => (5, 4),
        Layout::V3Raw | Layout::V3Lz => (6, 4),
    };
    let mut frames = Vec::new();
    let mut at = 8; // past the magic
    loop {
        let kind = bytes[at];
        let l = &bytes[at + head - 4..at + head];
        let len = u32::from_le_bytes([l[0], l[1], l[2], l[3]]) as usize;
        let end = at + head + len + tail;
        frames.push((kind, at, end));
        if kind == b'F' {
            return frames;
        }
        at = end;
    }
}

/// The codec a salvage is re-sealed under: the layout's own for v3, raw
/// (the current writer's default) for the legacy layouts.
fn reseal_codec(layout: Layout) -> Codec {
    if layout == Layout::V3Lz {
        Codec::Lz
    } else {
        Codec::Raw
    }
}

/// `trace-repair`'s rewrite: re-seals a salvage under the layout's codec
/// and streams it back, asserting the re-sealed file is clean and its
/// footer and streamed units are exactly what salvage recovered.
fn assert_reseal_round_trips(layout: Layout, s: &Salvage) {
    let mut w = TraceWriter::from_writer(
        Cursor::new(Vec::new()),
        "<repaired>",
        &s.meta,
        reseal_codec(layout),
    )
    .unwrap();
    for u in &s.units {
        w.push(u);
    }
    let sealed = w.finish(&s.footer.registry).unwrap();
    prop_assert_eq!(sealed.unit_count, s.report.recovered_units);
    let bytes = w.into_bytes();
    prop_assert!(salvage_bytes(&bytes, "<repaired>").unwrap().report.clean);
    let mut r = TraceReader::from_reader(Cursor::new(bytes), "<repaired>").unwrap();
    let footer = r.footer().unwrap();
    prop_assert_eq!(footer.unit_count, s.units.len() as u64);
    let mut back = Vec::new();
    while let Some(u) = r.next_unit().unwrap() {
        back.push(u.clone());
    }
    prop_assert_eq!(&back, &s.units, "{}", layout.name());
}

/// The units salvage must recover when every chunk frame whose byte
/// range satisfies `intact` survives and every other chunk is lost.
/// Chunks hold `chunk` units each (tail chunk partial), in id order.
fn expected_units(
    all: &[SamplingUnit],
    chunk: usize,
    frames: &[(u8, usize, usize)],
    intact: impl Fn(usize, usize) -> bool,
) -> Vec<SamplingUnit> {
    let mut expected = Vec::new();
    let mut next = 0usize;
    for &(kind, start, end) in frames {
        if kind != b'U' {
            continue;
        }
        let take = (all.len() - next).min(chunk);
        if intact(start, end) {
            expected.extend_from_slice(&all[next..next + take]);
        }
        next += take;
    }
    expected
}

/// Streams units out of possibly-damaged bytes, asserting every yielded
/// unit whose index lies outside `suspect` matches `all`; errors terminate
/// the stream but must never panic and never yield an extra unit.
fn assert_stream_is_honest(bytes: &[u8], all: &[SamplingUnit], suspect: Range<usize>) {
    if let Ok(mut r) = TraceReader::from_reader(Cursor::new(bytes.to_vec()), "<corrupt>") {
        let mut i = 0usize;
        loop {
            match r.next_unit() {
                Ok(Some(u)) => {
                    prop_assert!(i < all.len(), "reader yielded more units than were written");
                    if !suspect.contains(&i) {
                        prop_assert_eq!(u, &all[i], "unit {} differs from the original", i);
                    }
                    i += 1;
                }
                Ok(None) => break,
                Err(_) => break,
            }
        }
        // The footer path must also fail cleanly, never panic.
        let _ = r.footer();
    }
}

/// The unit-index range of the chunk frame holding byte `f`, or an empty
/// range when `f` lies outside every chunk frame.
fn units_of_frame_at(
    all: &[SamplingUnit],
    chunk: usize,
    frames: &[(u8, usize, usize)],
    f: usize,
) -> Range<usize> {
    let mut next = 0usize;
    for &(kind, start, end) in frames {
        if kind != b'U' {
            continue;
        }
        let take = (all.len() - next).min(chunk);
        if f >= start && f < end {
            return next..next + take;
        }
        next += take;
    }
    0..0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any single-byte bit flip, on every layout: streaming yields an
    /// honest prefix, salvage recovers exactly the chunks the flip did
    /// not touch, and the salvage re-seals into a trace that round-trips
    /// bit-identically. On v3 the CRC over the *stored* bytes rejects a flipped
    /// frame before the decompressor sees it. v1 has no CRC, so a flipped
    /// chunk that still parses may come back altered; every other chunk
    /// must still come back exactly.
    #[test]
    fn single_byte_flip_never_panics_never_lies(
        n in 0u64..18,
        chunk in 1usize..6,
        fpos in 0usize..1_000_000,
        bit in 0u32..8,
    ) {
        let all: Vec<SamplingUnit> = (0..n).map(mk_unit).collect();
        for layout in Layout::ALL {
            let bytes = seal(layout, &all, chunk);
            let f = fpos % bytes.len();
            let mut corrupt = bytes.clone();
            corrupt[f] ^= 1u8 << bit;

            let frames = frame_map(layout, &bytes);
            let touched = units_of_frame_at(&all, chunk, &frames, f);
            let suspect = if has_crc(layout) { 0..0 } else { touched.clone() };
            assert_stream_is_honest(&corrupt, &all, suspect);

            let res = salvage_bytes(&corrupt, "<flip>");
            if f < 8 {
                // A flipped magic byte makes the file unidentifiable —
                // unless it turned into another layout's magic (v2 and v3,
                // v1 and v3 differ in one bit), which only has to not panic.
                if Layout::ALL.iter().all(|l| &corrupt[..8] != l.magic()) {
                    prop_assert!(res.is_err(), "{}: flipped magic must not salvage", layout.name());
                }
                continue;
            }
            let s = res.unwrap();
            prop_assert_eq!(s.report.layout_version, layout.version());
            let expected = expected_units(&all, chunk, &frames, |start, end| {
                !(f >= start && f < end)
            });
            if has_crc(layout) || s.units.len() == expected.len() {
                prop_assert_eq!(&s.units, &expected, "{}", layout.name());
                prop_assert_eq!(s.report.recovered_units, expected.len() as u64);
            } else {
                // v1: the flipped chunk parsed anyway; everything around
                // it is exact.
                prop_assert_eq!(s.units.len(), all.len(), "{}", layout.name());
                for (i, (got, want)) in s.units.iter().zip(&all).enumerate() {
                    if !touched.contains(&i) {
                        prop_assert_eq!(got, want, "v1 unit {} outside the flipped chunk", i);
                    }
                }
            }
            if has_crc(layout) {
                prop_assert!(!s.report.clean, "a flipped byte can never leave the file clean");
            }
            assert_reseal_round_trips(layout, &s);
        }
    }

    /// Any truncation offset on every layout — including mid-magic,
    /// mid-frame (a split compressed frame too) and pre-footer — salvages
    /// successfully, recovering exactly the fully intact chunk prefix, and
    /// the salvage re-seals into a valid trace that round-trips
    /// bit-identically.
    #[test]
    fn truncation_recovers_exactly_the_intact_chunk_prefix(
        n in 0u64..18,
        chunk in 1usize..6,
        tpos in 0usize..1_000_000,
    ) {
        let all: Vec<SamplingUnit> = (0..n).map(mk_unit).collect();
        for layout in Layout::ALL {
            let bytes = seal(layout, &all, chunk);
            let t = tpos % (bytes.len() + 1);
            let cut = &bytes[..t];

            assert_stream_is_honest(cut, &all, 0..0);

            let s = salvage_bytes(cut, "<cut>").unwrap();
            // A cut inside the magic carries no version: salvage reports
            // the layout it would re-seal into (v3).
            prop_assert_eq!(s.report.layout_version, if t >= 8 { layout.version() } else { 3 });
            let frames = frame_map(layout, &bytes);
            let expected = expected_units(&all, chunk, &frames, |_, end| end <= t);
            prop_assert_eq!(&s.units, &expected, "{}", layout.name());
            prop_assert_eq!(s.report.recovered_units, expected.len() as u64);
            prop_assert_eq!(s.report.clean, t == bytes.len());
            prop_assert_eq!(s.report.file_bytes, t as u64);

            assert_reseal_round_trips(layout, &s);
        }
    }
}

/// The acceptance criterion, pinned exhaustively on every layout: a small
/// trace truncated at *every* byte offset is openable via salvage.
#[test]
fn every_truncation_offset_salvages() {
    let all: Vec<SamplingUnit> = (0..7).map(mk_unit).collect();
    for layout in Layout::ALL {
        let bytes = seal(layout, &all, 2);
        let frames = frame_map(layout, &bytes);
        let name = layout.name();
        for t in 0..=bytes.len() {
            let s = salvage_bytes(&bytes[..t], "<sweep>")
                .unwrap_or_else(|e| panic!("{name}: truncation at offset {t} must salvage: {e}"));
            let expected = expected_units(&all, 2, &frames, |_, end| end <= t);
            assert_eq!(s.units, expected, "{name}: offset {t}");
            assert_eq!(s.report.recovered_units, expected.len() as u64, "{name}: offset {t}");
            assert_eq!(s.report.clean, t == bytes.len(), "{name}: offset {t}");
        }
    }
}

/// The same chaos seed replays the same faults, so the whole
/// write-under-chaos → salvage → repair pipeline is bit-identical
/// between runs.
#[test]
fn same_chaos_seed_yields_bit_identical_salvage() {
    fn run(seed: u64) -> Option<(Salvage, Vec<u8>)> {
        let all: Vec<SamplingUnit> = (0..24).map(mk_unit).collect();
        let plan =
            ChaosPlan { bit_flip_ppm: 120_000, truncate_at: Some(1700), ..ChaosPlan::none(seed) };
        let chaos = ChaosWriter::new(Cursor::new(Vec::new()), plan);
        let mut w = TraceWriter::from_writer(chaos, "<chaos>", &mk_meta(), Codec::Raw)
            .ok()?
            .with_chunk_units(3)
            .with_retry(RetryPolicy { max_retries: 4, backoff_ms: 0 });
        for u in &all {
            w.push(u);
        }
        // Flips are silent and truncation lies about durability, so
        // finish may well "succeed" — exactly the crash being simulated.
        let _ = w.finish(&mk_registry());
        let chaos = w.into_writer();
        let counts = chaos.counts();
        assert!(
            counts.bit_flips > 0 || counts.dropped_bytes > 0,
            "chaos plan must actually inject faults"
        );
        let bytes = chaos.into_inner().into_inner();
        let s = salvage_bytes(&bytes, "<chaos>").ok()?;
        let mut w = TraceWriter::in_memory(&s.meta).unwrap();
        for u in &s.units {
            w.push(u);
        }
        w.finish(&s.footer.registry).ok()?;
        Some((s, w.into_bytes()))
    }

    // Some seeds flip the magic itself (legitimately unsalvageable);
    // pick the first seed that salvages and pin its determinism.
    let seed = (0..32)
        .find(|&s| run(s).is_some())
        .expect("at least one seed in 0..32 must produce a salvageable file");
    let (s1, repaired1) = run(seed).unwrap();
    let (s2, repaired2) = run(seed).unwrap();
    assert_eq!(s1, s2, "salvage outcome must be bit-identical for the same seed");
    assert_eq!(repaired1, repaired2, "repair output must be bit-identical for the same seed");
    assert!(s1.report.recovered_units > 0, "the chosen seed should recover something");
}
