//! Hostile input for the JSON reader, which every persisted type parses
//! through: for any text, `serde_json::from_str` returns a value or a typed
//! error and never panics (ROADMAP item 5).
//!
//! Inputs are valid documents of each type, then the same documents with
//! huge and odd numbers, bad escapes and raw control characters spliced in,
//! nested to the depth cap and one past it, and cut at every byte. Invalid
//! UTF-8 goes through the byte entry points: a jobs file and a store index
//! here, a CRC-valid trace chunk in the trace crate's unit tests (only its
//! writer can frame one).

use proptest::prelude::*;
use serde_json::Value;

use simprof::obs::RunReport;
use simprof::profiler::SamplingUnit;
use simprof::service::{load_jobs, JobSpec, ShardRecord, StoreIndex, TraceStore};
use simprof::trace::TraceMeta;

/// Number spellings that are too big, too small or malformed.
const NUMBERS: [&str; 16] = [
    "123456789012345678901234567890",
    "-123456789012345678901234567890",
    "1e400",
    "-1e400",
    "1e-400",
    "-0",
    "-0.0",
    "18446744073709551616",
    "-9223372036854775809",
    "0.000000000000000000000000000001",
    "1.",
    ".5",
    "-",
    "1e",
    "01",
    "1e+",
];

/// Escapes and characters a string token may hold, well formed or not.
const STRING_BITS: [&str; 14] = [
    "\\x",
    "\\u12",
    "\\uZZZZ",
    "\\u+041",
    "\\ud800",
    "\\udc00\\ud800",
    "\\ud83d\\ude00",
    "\\ud83d\\u0041",
    "\\",
    "\u{0}",
    "\u{1f}",
    "\n",
    "\t",
    "\\\"",
];

fn units_doc() -> String {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/json_golden/encode/units.json"
    ))
    .unwrap();
    let units: Vec<SamplingUnit> = serde_json::from_str(&text).unwrap();
    serde_json::to_string(&units[..2]).unwrap()
}

/// One valid document per type.
fn seeds() -> Vec<String> {
    let meta = TraceMeta {
        label: "wc_sp".to_owned(),
        seed: 42,
        scale: "tiny".to_owned(),
        unit_instrs: 10_000,
        snapshot_instrs: 1_000,
        core: 1,
    };
    let mut spec = JobSpec::new("j-\u{e9}", "wc_sp");
    spec.seed = Some(7);
    spec.tenant = Some("t0".to_owned());
    let index = StoreIndex {
        version: 1,
        shards: vec![ShardRecord {
            job: "j0".to_owned(),
            tenant: "t0".to_owned(),
            file: "shards/j0.sptrc".to_owned(),
            bytes: 1234,
            units: 12,
            layout_version: 3,
            codec: "lz".to_owned(),
        }],
    };
    let report = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/json_golden/run_report.json"
    ))
    .unwrap();
    vec![
        r#"{"a":[1,-2,3.5,"x\n",true,null,{}],"b":{"c":[]},"d":"é"}"#.to_owned(),
        units_doc(),
        serde_json::to_string(&meta).unwrap(),
        serde_json::to_string(&spec).unwrap(),
        serde_json::to_string(&index).unwrap(),
        report,
    ]
}

/// Parses `text` as every type; returns which parses succeeded. A panic
/// anywhere fails the test.
fn decode_all(text: &str) -> [bool; 6] {
    if let Ok(v) = serde_json::from_str::<Value>(text) {
        // What the reader accepts, the writer renders to a fixed point.
        let once = serde_json::to_string(&v).unwrap();
        let again: Value = serde_json::from_str(&once).unwrap();
        assert_eq!(serde_json::to_string(&again).unwrap(), once);
    }
    [
        serde_json::from_str::<Value>(text).is_ok(),
        serde_json::from_str::<Vec<SamplingUnit>>(text).is_ok(),
        serde_json::from_str::<TraceMeta>(text).is_ok(),
        serde_json::from_str::<JobSpec>(text).is_ok(),
        serde_json::from_str::<StoreIndex>(text).is_ok(),
        serde_json::from_str::<RunReport>(text).is_ok(),
    ]
}

/// Byte ranges `(start, end)` into a document.
type Spans = Vec<(usize, usize)>;

/// Byte ranges of the number tokens and of the string tokens' contents.
fn tokens(text: &str) -> (Spans, Spans) {
    let b = text.as_bytes();
    let (mut numbers, mut strings) = (Vec::new(), Vec::new());
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'"' => {
                let start = i + 1;
                i = start;
                while b[i] != b'"' {
                    i += if b[i] == b'\\' { 2 } else { 1 };
                }
                strings.push((start, i));
                i += 1;
            }
            b'-' | b'0'..=b'9' => {
                let start = i;
                while i < b.len() && matches!(b[i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                {
                    i += 1;
                }
                numbers.push((start, i));
            }
            _ => i += 1,
        }
    }
    (numbers, strings)
}

#[test]
fn every_seed_decodes_as_its_own_type() {
    for (i, doc) in seeds().iter().enumerate() {
        assert!(decode_all(doc)[i], "seed {i} must decode: {doc}");
    }
}

#[test]
fn every_truncation_is_an_error() {
    for doc in seeds() {
        for cut in (0..doc.len()).filter(|&c| doc.is_char_boundary(c)) {
            let ok = decode_all(&doc[..cut]);
            assert_eq!(ok, [false; 6], "a cut at {cut} parsed: {:?}", &doc[..cut]);
        }
    }
}

#[test]
fn nesting_at_the_cap_parses_and_one_past_it_is_too_deep() {
    let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    assert!(serde_json::from_str::<Value>(&nest(serde::MAX_DEPTH)).is_ok());
    assert!(serde_json::from_str::<Value>(&nest(serde::MAX_DEPTH + 1)).unwrap_err().is_too_deep());
    // An unknown key one object deep inside each seed: `{` plus the
    // nest reaches exactly the cap, one more level crosses it.
    for (i, doc) in seeds().iter().enumerate().filter(|(_, d)| d.starts_with('{')) {
        for (depth, fits) in [(serde::MAX_DEPTH - 1, true), (serde::MAX_DEPTH, false)] {
            let text = format!("{{\"zz\":{},{}", nest(depth), &doc[1..]);
            let ok = decode_all(&text);
            assert_eq!(ok[i], fits, "seed {i} with an unknown key nested {depth} deep");
            assert_eq!(ok[0], fits, "the same text as a Value");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Hostile numbers and string bits spliced into valid documents, or a
    /// random ASCII byte overwritten: every parse returns, none panics.
    #[test]
    fn hostile_splices_give_a_value_or_an_error(
        seed in 0usize..6,
        kind in 0u32..3,
        at in any::<u64>(),
        pick in any::<u64>(),
    ) {
        let doc = &seeds()[seed];
        let (numbers, strings) = tokens(doc);
        let text = match kind {
            0 if !numbers.is_empty() => {
                let (s, e) = numbers[at as usize % numbers.len()];
                format!("{}{}{}", &doc[..s], NUMBERS[pick as usize % NUMBERS.len()], &doc[e..])
            }
            1 if !strings.is_empty() => {
                let (s, e) = strings[at as usize % strings.len()];
                let bit = STRING_BITS[pick as usize % STRING_BITS.len()];
                let mut mid = s + (e - s) / 2;
                while !doc.is_char_boundary(mid) {
                    mid -= 1;
                }
                format!("{}{bit}{}", &doc[..mid], &doc[mid..])
            }
            _ => {
                let mut bytes = doc.clone().into_bytes();
                let ascii: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i].is_ascii()).collect();
                bytes[ascii[at as usize % ascii.len()]] = b" -+.eE0{}[],:\"\\nu"[pick as usize % 17];
                String::from_utf8(bytes).unwrap()
            }
        };
        decode_all(&text);
    }
}

#[test]
fn huge_and_odd_numbers_convert_or_fail_cleanly() {
    for n in NUMBERS {
        decode_all(n);
        let _ = serde_json::from_str::<u64>(n);
        let _ = serde_json::from_str::<i8>(n);
        let _ = serde_json::from_str::<f32>(n);
        let _ = serde_json::from_str::<(u64, f64)>(&format!("[{n},{n}]"));
    }
    let big = "123456789012345678901234567890";
    assert!(serde_json::from_str::<u64>(big).is_err());
    assert_eq!(serde_json::from_str::<f64>(big).unwrap(), 1.2345678901234568e29);
    assert_eq!(serde_json::from_str::<i64>("-0").unwrap(), 0);
    // One past an integer type's range rounds to a float that converts
    // back to the range's end: a kept quirk, pinned by the golden corpus.
    assert_eq!(serde_json::from_str::<u64>("18446744073709551616").unwrap(), u64::MAX);
    assert_eq!(serde_json::from_str::<i64>("-9223372036854775809").unwrap(), i64::MIN);
    for bad in [".5", "-", "1e", "1e+", "01x", "+1", "--1"] {
        assert!(serde_json::from_str::<Value>(bad).is_err(), "{bad}");
    }
}

#[test]
fn invalid_utf8_files_are_typed_errors() {
    let dir = std::env::temp_dir().join(format!("simprof_json_hostile_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let jobs = dir.join("jobs.json");
    std::fs::write(&jobs, b"[{\"id\":\"j\xff\",\"workload\":\"wc_sp\"}]").unwrap();
    assert!(load_jobs(jobs.to_str().unwrap()).is_err());
    std::fs::write(dir.join(simprof::service::INDEX_FILE), b"{\"version\":1,\"shards\":[\xc3]}")
        .unwrap();
    let root = dir.to_str().unwrap();
    assert!(TraceStore::load_index(root).is_err());
    assert!(TraceStore::validate(root).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}
