//! `serde_json::from_str_into` (decoding into a value that already holds
//! data, reusing its allocations, as the trace reader does with each
//! chunk) against `serde_json::from_str` on the same text: for every
//! input, either both succeed and the value decoded in place equals the
//! fresh one, or both fail with the same error text.
//!
//! Inputs are valid documents of the trace chunk, header and footer types
//! and of a probe struct with `#[serde(default)]`, nested and sequence
//! fields, then seeded edits of them: entries reordered, dropped,
//! repeated with another value, added under unknown keys or spelled with
//! escapes; values swapped for other types; arrays grown and shrunk;
//! whitespace; byte flips; truncation. Each is decoded into several prior
//! values: empty, decoded from another document, longer than the input,
//! and holding non-default values where the input omits a defaulted
//! field.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use serde_json::Value;

use simprof::engine::{MethodRegistry, OpClass};
use simprof::profiler::SamplingUnit;
use simprof::trace::{TraceFooter, TraceMeta};

/// Edited variants per base document.
const VARIANTS: usize = 200;

#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct Probe {
    a: u32,
    #[serde(default)]
    pairs: Vec<(u64, u64)>,
    inner: Inner,
    #[serde(default)]
    flag: bool,
    tags: Vec<String>,
    #[serde(default)]
    rows: Vec<Inner>,
}

#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct Inner {
    x: i64,
    #[serde(default)]
    y: Option<u32>,
}

fn units() -> Vec<SamplingUnit> {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/json_golden/encode/units.json"
    ))
    .unwrap();
    serde_json::from_str(&text).unwrap()
}

/// Asserts that decoding `text` into each of `priors` gives what a fresh
/// decode gives.
fn assert_same<T>(text: &str, priors: &[T])
where
    T: Deserialize + Clone + PartialEq + std::fmt::Debug,
{
    let fresh = serde_json::from_str::<T>(text).map_err(|e| e.to_string());
    for prior in priors {
        let mut value = prior.clone();
        let into = serde_json::from_str_into(text, &mut value).map_err(|e| e.to_string());
        match (&fresh, into) {
            (Ok(want), Ok(())) => assert_eq!(&value, want, "into {prior:?}: {text}"),
            (Err(want), Err(got)) => assert_eq!(&got, want, "into {prior:?}: {text}"),
            (want, got) => panic!("into {prior:?}: fresh {want:?}, in place {got:?}: {text}"),
        }
    }
}

fn random_value(rng: &mut StdRng) -> Value {
    match rng.random_range(0..6) {
        0 => Value::Null,
        1 => Value::Bool(rng.random()),
        2 => serde_json::json!(rng.random_range(0u64..1000)),
        3 => serde_json::json!(-7),
        4 => Value::String("s".to_owned()),
        _ => Value::Array(vec![serde_json::json!(1), serde_json::json!(2)]),
    }
}

/// Applies one structural edit somewhere in `v`.
fn edit(v: &mut Value, rng: &mut StdRng) {
    match v {
        Value::Object(entries) if !entries.is_empty() && rng.random_bool(0.6) => {
            let i = rng.random_range(0..entries.len());
            match rng.random_range(0..7) {
                0 => {
                    let j = rng.random_range(0..entries.len());
                    entries.swap(i, j);
                }
                1 => {
                    entries.remove(i);
                }
                2 => {
                    let key = entries[i].0.clone();
                    let at = rng.random_range(0..=entries.len());
                    entries.insert(at, (key, random_value(rng)));
                }
                3 => entries.insert(i, ("unknown".to_owned(), random_value(rng))),
                4 => entries[i].1 = random_value(rng),
                _ => edit(&mut entries[i].1, rng),
            }
        }
        Value::Array(items) if !items.is_empty() && rng.random_bool(0.6) => {
            let i = rng.random_range(0..items.len());
            match rng.random_range(0..4) {
                0 => {
                    items.remove(i);
                }
                1 => {
                    let copy = items[i].clone();
                    items.insert(i, copy);
                }
                2 => items[i] = random_value(rng),
                _ => edit(&mut items[i], rng),
            }
        }
        Value::Object(entries) if !entries.is_empty() => {
            let i = rng.random_range(0..entries.len());
            edit(&mut entries[i].1, rng);
        }
        Value::Array(items) if !items.is_empty() => {
            let i = rng.random_range(0..items.len());
            edit(&mut items[i], rng);
        }
        other => *other = random_value(rng),
    }
}

/// An edited spelling of `doc`: structural edits, then possibly a key
/// spelled with an escape, whitespace, a flipped byte or a cut.
fn variant(doc: &Value, rng: &mut StdRng) -> String {
    let mut v = doc.clone();
    for _ in 0..rng.random_range(1..4) {
        edit(&mut v, rng);
    }
    let mut text = serde_json::to_string(&v).unwrap();
    match rng.random_range(0..8) {
        0 => text = text.replacen("\"id\"", "\"i\\u0064\"", 1),
        1 => text = text.replace(':', " : ").replace(',', " ,\n"),
        2 if !text.is_empty() => {
            let at = rng.random_range(0..text.len());
            if text.is_char_boundary(at) && text.is_char_boundary(at + 1) {
                let flipped = (text.as_bytes()[at] ^ 0x04) as char;
                text.replace_range(at..at + 1, &flipped.to_string());
            }
        }
        3 => {
            let mut cut = rng.random_range(0..=text.len());
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            text.truncate(cut);
        }
        _ => {}
    }
    text
}

/// Checks every document in `docs` and `VARIANTS` edits of it against
/// each prior.
fn check<T>(docs: &[String], priors: &[T], seed: u64)
where
    T: Deserialize + Clone + PartialEq + std::fmt::Debug,
{
    let mut rng = StdRng::seed_from_u64(seed);
    for doc in docs {
        assert_same::<T>(doc, priors);
        let tree: Value = serde_json::from_str(doc).unwrap();
        for _ in 0..VARIANTS {
            assert_same::<T>(&variant(&tree, &mut rng), priors);
        }
    }
}

#[test]
fn unit_chunks_decode_in_place_as_fresh() {
    let units = units();
    let docs: Vec<String> =
        units.chunks(7).take(3).map(|c| serde_json::to_string(c).unwrap()).collect();
    let mut flagged = units[40..44].to_vec();
    for u in &mut flagged {
        u.truncated = true;
        u.dropped_snapshots = 3;
        u.slices.push((1, 2));
    }
    let priors = [Vec::new(), units[20..23].to_vec(), units[50..80].to_vec(), flagged];
    check(&docs, &priors, 1);
}

#[test]
fn headers_and_footers_decode_in_place_as_fresh() {
    let meta = TraceMeta {
        label: "wc_sp".to_owned(),
        seed: 42,
        scale: "tiny".to_owned(),
        unit_instrs: 10_000,
        snapshot_instrs: 1_000,
        core: 1,
    };
    let other = TraceMeta { label: "x".repeat(40), seed: 1, ..meta.clone() };
    check(&[serde_json::to_string(&meta).unwrap()], &[meta.clone(), other], 2);

    let mut registry = MethodRegistry::new();
    registry.intern("Mapper.map", OpClass::Map);
    registry.intern("Reducer.reduce", OpClass::Reduce);
    let footer = TraceFooter {
        version: 3,
        unit_count: 98,
        method_universe: 31,
        total_instrs: 1_960_000,
        total_cycles: 2_400_000,
        truncated_units: 1,
        dropped_snapshots: 2,
        registry,
    };
    let empty = TraceFooter { registry: MethodRegistry::new(), ..footer.clone() };
    check(&[serde_json::to_string(&footer).unwrap()], &[footer, empty], 3);
}

#[test]
fn defaulted_and_nested_fields_decode_in_place_as_fresh() {
    let probe = Probe {
        a: 7,
        pairs: vec![(1, 2), (3, 4)],
        inner: Inner { x: -5, y: Some(9) },
        flag: true,
        tags: vec!["a".to_owned(), "b\"c".to_owned()],
        rows: vec![Inner { x: 1, y: None }, Inner { x: 2, y: Some(3) }],
    };
    let sparse = r#"{"a":1,"inner":{"x":2},"tags":[]}"#.to_owned();
    let priors = [
        Probe::default(),
        probe.clone(),
        Probe { rows: vec![Inner::default(); 5], pairs: vec![(0, 0); 9], ..probe.clone() },
    ];
    check(&[serde_json::to_string(&probe).unwrap(), sparse], &priors, 4);
}
