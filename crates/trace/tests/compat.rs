//! Byte compatibility across releases, pinned by fixtures.
//!
//! `tests/data/{v1,v2,v3_raw,v3_lz}.sptrc` were written by the release
//! whose writer still produced every layout: sixteen `mk_unit` units, four
//! per chunk frame, under `mk_meta` and `mk_registry`. Every fixture must
//! read back to those units and that footer and salvage clean; the current
//! writer must reproduce the two v3 fixtures byte for byte, and the test
//! reference encoder the two legacy ones.

mod support;

use simprof_profiler::trace::SamplingUnit;
use simprof_trace::{
    is_chunked, read_trace, salvage_bytes, Codec, SalvageReport, TraceFooter, TraceReader,
    TraceWriter,
};
use support::{mk_meta, mk_registry, mk_unit, seal, Layout};

const UNITS: u64 = 16;
const CHUNK: usize = 4;

fn fixture_path(layout: Layout) -> String {
    format!("{}/tests/data/{}.sptrc", env!("CARGO_MANIFEST_DIR"), layout.name())
}

fn units() -> Vec<SamplingUnit> {
    (0..UNITS).map(mk_unit).collect()
}

fn expected_footer(layout: Layout) -> TraceFooter {
    TraceFooter {
        version: layout.version(),
        unit_count: UNITS,
        method_universe: 10,
        total_instrs: 15_240,
        total_cycles: 23_720,
        truncated_units: 4,
        dropped_snapshots: 15,
        registry: mk_registry(),
    }
}

#[test]
fn every_fixture_reads_back_its_units_and_footer() {
    for layout in Layout::ALL {
        let path = fixture_path(layout);
        assert!(is_chunked(&path), "{path}");
        let mut r = TraceReader::open(&path).unwrap();
        assert_eq!(r.layout_version(), layout.version(), "{path}");
        assert_eq!(r.meta(), &mk_meta(), "{path}");
        assert_eq!(r.footer().unwrap(), expected_footer(layout), "{path}");
        let (trace, footer) = read_trace(&path).unwrap();
        assert_eq!(trace.units, units(), "{path}");
        assert_eq!(footer, expected_footer(layout), "{path}");
    }
}

#[test]
fn every_fixture_salvages_clean() {
    for layout in Layout::ALL {
        let path = fixture_path(layout);
        let bytes = std::fs::read(&path).unwrap();
        let s = salvage_bytes(&bytes, &path).unwrap();
        assert_eq!(s.units, units(), "{path}");
        assert_eq!(s.meta, mk_meta(), "{path}");
        assert_eq!(s.footer, expected_footer(layout), "{path}");
        assert_eq!(
            s.report,
            SalvageReport {
                layout_version: layout.version(),
                file_bytes: bytes.len() as u64,
                header_recovered: true,
                footer_found: true,
                clean: true,
                recovered_units: UNITS,
                recovered_chunks: 4,
                bad_frames: 0,
                resyncs: 0,
                skipped_bytes: 0,
            },
            "{path}"
        );
    }
}

#[test]
fn seal_reproduces_every_fixture_byte_for_byte() {
    // v1/v2 through the reference encoder, v3 through the library writer.
    for layout in Layout::ALL {
        let fixture = std::fs::read(fixture_path(layout)).unwrap();
        assert_eq!(&fixture[..8], layout.magic(), "{}", layout.name());
        assert!(seal(layout, &units(), CHUNK) == fixture, "{} bytes differ", layout.name());
    }
}

#[test]
fn file_writers_reproduce_the_v3_fixtures() {
    let dir = std::env::temp_dir();
    let cases = [
        ("create", Layout::V3Raw, None),
        ("create_raw", Layout::V3Raw, Some(Codec::Raw)),
        ("create_lz", Layout::V3Lz, Some(Codec::Lz)),
    ];
    for (tag, layout, codec) in cases {
        let path = dir.join(format!("simprof_compat_{tag}.sptrc")).to_string_lossy().into_owned();
        let w = match codec {
            None => TraceWriter::create(&path, &mk_meta()),
            Some(c) => TraceWriter::create_compressed(&path, &mk_meta(), c),
        };
        let mut w = w.unwrap().with_chunk_units(CHUNK);
        for u in &units() {
            w.push(u);
        }
        assert_eq!(w.finish(&mk_registry()).unwrap(), expected_footer(layout));
        let written = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(written.starts_with(b"SPTRC\0v3"), "{tag}: new files are v3");
        assert!(written == std::fs::read(fixture_path(layout)).unwrap(), "{tag} bytes differ");
    }
}
