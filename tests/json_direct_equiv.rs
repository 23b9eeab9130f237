//! Differential suite for the serde shims' direct JSON path.
//!
//! `serde_json::from_str::<T>` parses text straight into `T` through
//! `Deserialize::from_json`; `serde_json::to_string` renders through
//! `Serialize::write_json`. Both must be interchangeable with the value
//! path they replaced:
//!
//! * decoding: `from_str::<T>(s)` equals `from_value::<T>(&from_str::<Value>(s)?)`
//!   — the same `Ok` value, and an `Err` exactly when the value path errs —
//!   on valid texts of every persisted type and on seeded mutations of
//!   them (unknown and duplicate keys, dropped fields, grown and shrunk
//!   arrays, number spellings, escapes, whitespace, type swaps, byte
//!   flips, truncation);
//! * encoding: `to_string(&x)` equals, byte for byte, a reference copy of
//!   the value-model renderer applied to `x.to_value()` (and
//!   `to_string_pretty` its pretty form), including non-finite, negative
//!   zero and huge floats and `HashMap` key order.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Debug;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde_json::{json, Map, Number, Value};

use simprof::core::{SimProf, SimProfConfig};
use simprof::obs::{FleetJob, FleetReport, ObsContext, RunReport};
use simprof::profiler::SamplingUnit;
use simprof::service::JobSpec;
use simprof::trace::{TraceFooter, TraceMeta};
use simprof::workloads::{WorkloadConfig, WorkloadId};

/// Mutated variants checked per base text.
const VARIANTS: usize = 150;

// ---------------------------------------------------------------------------
// The reference renderer: the value-model writer the direct path replaced.
// ---------------------------------------------------------------------------

/// Marks a string that `render` emits verbatim, so mutations can spell a
/// token in ways no `Value` renders to (`1e3`, `-0`, `A`, ...).
const RAW: &str = "\u{1}raw\u{1}";

fn raw(token: impl Into<String>) -> Value {
    Value::String(format!("{RAW}{}", token.into()))
}

/// Renders `v` exactly as the value-model writer did: compact, or pretty
/// with `indent` spaces per level.
fn render(v: &Value, indent: Option<usize>) -> String {
    let mut out = String::new();
    render_into(&mut out, v, indent, 0);
    out
}

fn render_into(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    let newline = |out: &mut String, depth: usize| {
        if let Some(n) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(n * depth));
        }
    };
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(Number::U64(u)) => out.push_str(&u.to_string()),
        Value::Number(Number::I64(i)) => out.push_str(&i.to_string()),
        Value::Number(Number::F64(f)) if !f.is_finite() => out.push_str("null"),
        Value::Number(Number::F64(f)) => {
            let s = format!("{f}");
            out.push_str(&s);
            if !s.contains('.') && !s.contains('e') && !s.contains('E') {
                out.push_str(".0");
            }
        }
        Value::String(s) => render_str(out, s),
        Value::Array(items) if items.is_empty() => out.push_str("[]"),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, depth + 1);
                render_into(out, item, indent, depth + 1);
            }
            newline(out, depth);
            out.push(']');
        }
        Value::Object(entries) if entries.is_empty() => out.push_str("{}"),
        Value::Object(entries) => {
            out.push('{');
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, depth + 1);
                render_str(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                render_into(out, item, indent, depth + 1);
            }
            newline(out, depth);
            out.push('}');
        }
    }
}

fn render_str(out: &mut String, s: &str) {
    if let Some(token) = s.strip_prefix(RAW) {
        out.push_str(token);
        return;
    }
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------------

/// Decodes `text` both ways and demands the same outcome. Returns whether
/// it decoded.
fn check_decode<T>(text: &str) -> bool
where
    T: serde::Deserialize + PartialEq + Debug,
{
    let direct = serde_json::from_str::<T>(text);
    let via_value =
        serde_json::from_str::<Value>(text).and_then(|v| serde_json::from_value::<T>(&v));
    match (direct, via_value) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a, b, "paths decoded different values from {text:?}");
            true
        }
        (Err(_), Err(_)) => false,
        (a, b) => panic!(
            "paths disagree on {text:?}:\n  direct:    {:?}\n  via value: {:?}",
            a.map(|_| "Ok"),
            b.map(|_| "Ok")
        ),
    }
}

/// Writes `x` through `to_string`/`to_string_pretty` and demands the
/// reference renderer's bytes.
fn check_encode<T: serde::Serialize + ?Sized>(x: &T) {
    let value = x.to_value();
    assert_eq!(serde_json::to_string(x).unwrap(), render(&value, None));
    assert_eq!(serde_json::to_string_pretty(x).unwrap(), render(&value, Some(2)));
}

/// Checks `base` and `VARIANTS` seeded mutations of it; asserts the valid
/// base decodes and that the mutations exercised both outcomes.
fn check_type<T>(base: &str, seed: u64)
where
    T: serde::Deserialize + PartialEq + Debug,
{
    assert!(check_decode::<T>(base), "base text must decode: {base}");
    let tree: Value = serde_json::from_str(base).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut ok, mut err) = (0, 0);
    for _ in 0..VARIANTS {
        let text = mutate(&tree, &mut rng);
        if check_decode::<T>(&text) {
            ok += 1;
        } else {
            err += 1;
        }
    }
    assert!(
        ok > 0 && err > 0,
        "mutations should both keep and break decoding ({ok} ok, {err} err)"
    );
}

// ---------------------------------------------------------------------------
// Mutations
// ---------------------------------------------------------------------------

/// One seeded variant of `tree`: one to three tree edits, rendered, then
/// possibly one text edit.
fn mutate(tree: &Value, rng: &mut StdRng) -> String {
    let mut v = tree.clone();
    for _ in 0..rng.random_range(1usize..=3) {
        edit_tree(&mut v, rng);
    }
    let text = render(&v, None);
    match rng.random_range(0u32..10) {
        0..=5 => text,
        6 => add_whitespace(&text, rng),
        7 => truncate(&text, rng),
        8 => flip_byte(&text, rng),
        _ => render(&v, Some(rng.random_range(0usize..4))),
    }
}

/// Paths (child indices from the root) of every node.
fn paths(v: &Value, at: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    out.push(at.clone());
    let children: Vec<&Value> = match v {
        Value::Array(items) => items.iter().collect(),
        Value::Object(entries) => entries.iter().map(|(_, v)| v).collect(),
        _ => return,
    };
    for (i, c) in children.into_iter().enumerate() {
        at.push(i);
        paths(c, at, out);
        at.pop();
    }
}

fn node<'a>(v: &'a mut Value, path: &[usize]) -> &'a mut Value {
    match path.split_first() {
        None => v,
        Some((&i, rest)) => match v {
            Value::Array(items) => node(&mut items[i], rest),
            Value::Object(entries) => node(&mut entries[i].1, rest),
            _ => unreachable!("paths only index containers"),
        },
    }
}

fn pick<'a>(
    rng: &mut StdRng,
    v: &'a mut Value,
    keep: impl Fn(&Value) -> bool,
) -> Option<&'a mut Value> {
    let mut all = Vec::new();
    paths(v, &mut Vec::new(), &mut all);
    all.retain(|p| keep(node(v, p)));
    if all.is_empty() {
        return None;
    }
    let path = all.swap_remove(rng.random_range(0..all.len()));
    Some(node(v, &path))
}

fn random_value(rng: &mut StdRng) -> Value {
    match rng.random_range(0u32..8) {
        0 => Value::Null,
        1 => Value::Bool(rng.random_bool(0.5)),
        2 => json!(rng.random_range(0u64..1000)),
        3 => json!(-2.5),
        4 => json!("text"),
        5 => json!([1, 2]),
        6 => json!({"a": json!([true, json!(null)])}),
        _ => json!([]),
    }
}

/// Spellings a number may take; some fit the field, some do not.
const NUMBER_FORMS: [&str; 16] = [
    "1e3",
    "1E2",
    "1.0",
    "2.5",
    "-1",
    "-0",
    "0",
    "00",
    "007",
    "18446744073709551616",
    "18446744073709551615",
    "4294967296",
    "-9223372036854775808",
    "2.5e-3",
    "1e400",
    "1-2",
];

fn edit_tree(v: &mut Value, rng: &mut StdRng) {
    match rng.random_range(0u32..9) {
        // Unknown key at a random position.
        0 => {
            let value = random_value(rng);
            if let Some(Value::Object(entries)) = pick(rng, v, |n| matches!(n, Value::Object(_))) {
                let at = rng.random_range(0..=entries.len());
                entries.insert(at, ("zz_unknown".to_owned(), value));
            }
        }
        // Duplicate key, before or after the original, same or other value.
        1 => {
            let other = random_value(rng);
            let picked = pick(rng, v, |n| matches!(n, Value::Object(e) if !e.is_empty()));
            if let Some(Value::Object(entries)) = picked {
                let i = rng.random_range(0..entries.len());
                let (key, same) = entries[i].clone();
                let value = if rng.random_bool(0.5) { same } else { other };
                let at = if rng.random_bool(0.5) { i } else { entries.len() };
                entries.insert(at, (key, value));
            }
        }
        // Drop an entry (a defaulted field, or a required one).
        2 => {
            let picked = pick(rng, v, |n| matches!(n, Value::Object(e) if !e.is_empty()));
            if let Some(Value::Object(entries)) = picked {
                entries.remove(rng.random_range(0..entries.len()));
            }
        }
        // Respell a number.
        3 | 4 => {
            let form = NUMBER_FORMS[rng.random_range(0..NUMBER_FORMS.len())];
            if let Some(n) = pick(rng, v, |n| matches!(n, Value::Number(_))) {
                let spelled = match (n.as_u64(), rng.random_range(0u32..3)) {
                    (Some(u), 0) => format!("{u}.0"),
                    (Some(u), 1) => format!("{u}e0"),
                    _ => form.to_owned(),
                };
                *n = raw(spelled);
            }
        }
        // Escape a string value or a key, char by char.
        5 => {
            let escape_key = rng.random_bool(0.5);
            let picked = pick(rng, v, |n| match n {
                Value::Object(e) => escape_key && !e.is_empty(),
                Value::String(s) => !escape_key && !s.starts_with(RAW),
                _ => false,
            });
            match picked {
                Some(Value::Object(entries)) => {
                    let i = rng.random_range(0..entries.len());
                    entries[i].0 = format!("{RAW}{}", escaped(&entries[i].0, rng));
                }
                Some(s @ Value::String(_)) => {
                    let text = s.as_str().unwrap_or_default().to_owned();
                    *s = raw(escaped(&text, rng));
                }
                _ => {}
            }
        }
        // Swap a node for a value of another type.
        6 => {
            let value = random_value(rng);
            if let Some(n) = pick(rng, v, |_| true) {
                *n = value;
            }
        }
        // Grow or shrink an array (a tuple's arity, a sequence's length).
        7 => {
            let value = random_value(rng);
            if let Some(Value::Array(items)) = pick(rng, v, |n| matches!(n, Value::Array(_))) {
                if items.is_empty() || rng.random_bool(0.5) {
                    let at = rng.random_range(0..=items.len());
                    items.insert(at, value);
                } else {
                    items.remove(rng.random_range(0..items.len()));
                }
            }
        }
        // Replace a string's content with characters that need escaping.
        _ => {
            if let Some(s) = pick(rng, v, |n| matches!(n, Value::String(s) if !s.starts_with(RAW)))
            {
                *s = json!("q\"b\\s/n\nt\tc\u{1}\u{1f}é🦀");
            }
        }
    }
}

/// A quoted JSON spelling of `s` with characters randomly written as
/// `\uXXXX` (or `\/`), plus an occasional malformed escape.
fn escaped(s: &str, rng: &mut StdRng) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '/' if rng.random_bool(0.5) => out.push_str("\\/"),
            c if (c as u32) < 0x20 || ((c as u32) < 0x10000 && rng.random_bool(0.3)) => {
                out.push_str(&format!("\\u{:04X}", c as u32))
            }
            c => out.push(c),
        }
    }
    match rng.random_range(0u32..12) {
        0 => out.push_str("\\x"),
        1 => out.push_str("\\u12"),
        2 => out.push_str("\\u+041"),
        _ => {}
    }
    out.push('"');
    out
}

/// Byte offsets outside string literals where whitespace may go.
fn token_gaps(text: &str) -> Vec<usize> {
    let mut gaps = vec![0, text.len()];
    let (mut in_str, mut esc) = (false, false);
    for (i, b) in text.bytes().enumerate() {
        if in_str {
            match (esc, b) {
                (true, _) => esc = false,
                (false, b'\\') => esc = true,
                (false, b'"') => in_str = false,
                _ => {}
            }
        } else if b == b'"' {
            in_str = true;
            gaps.push(i);
        } else if matches!(b, b'{' | b'}' | b'[' | b']' | b',' | b':') {
            gaps.push(i);
            gaps.push(i + 1);
        }
    }
    gaps
}

fn add_whitespace(text: &str, rng: &mut StdRng) -> String {
    let gaps = token_gaps(text);
    let mut at: Vec<usize> = (0..8).map(|_| gaps[rng.random_range(0..gaps.len())]).collect();
    at.sort_unstable();
    let mut out = String::with_capacity(text.len() + 32);
    let mut last = 0;
    for i in at {
        out.push_str(&text[last..i]);
        out.push_str([" ", "\n", "\t", "\r\n  "][rng.random_range(0usize..4)]);
        last = i;
    }
    out.push_str(&text[last..]);
    out
}

fn truncate(text: &str, rng: &mut StdRng) -> String {
    let mut cut = rng.random_range(0..text.len().max(1));
    while !text.is_char_boundary(cut) {
        cut -= 1;
    }
    text[..cut].to_owned()
}

fn flip_byte(text: &str, rng: &mut StdRng) -> String {
    const SWAPS: &[u8] = b"{}[],:\"\\ -+.eE019tnfxu";
    let ascii: Vec<usize> =
        text.bytes().enumerate().filter(|(_, b)| b.is_ascii()).map(|(i, _)| i).collect();
    let mut bytes = text.as_bytes().to_vec();
    if let Some(&i) = ascii.get(rng.random_range(0..ascii.len().max(1))) {
        bytes[i] = SWAPS[rng.random_range(0..SWAPS.len())];
    }
    String::from_utf8(bytes).expect("an ASCII byte swapped for ASCII keeps UTF-8")
}

// ---------------------------------------------------------------------------
// Fixtures: the workspace's persisted types
// ---------------------------------------------------------------------------

fn tiny_run() -> simprof::workloads::RunOutput {
    let wc = WorkloadId::all().into_iter().find(|w| w.label() == "wc_sp").expect("wc_sp exists");
    wc.run_full(&WorkloadConfig::tiny(42))
}

fn job_specs() -> Vec<JobSpec> {
    let mut full = JobSpec::new("job-\"7\"\\é", "sort_hp");
    full.seed = Some(u64::MAX);
    full.scale = Some("paper".to_owned());
    full.codec = Some("lz".to_owned());
    full.mem_cap_mb = Some(64);
    full.tenant = Some("team\tA".to_owned());
    vec![JobSpec::new("j0", "wc_sp"), full]
}

fn fleet_report() -> FleetReport {
    let job = |id: &str, tenant: &str, ok: bool, run_us: u64| FleetJob {
        id: id.to_owned(),
        tenant: tenant.to_owned(),
        workload: "wc_sp".to_owned(),
        ok,
        error: (!ok).then(|| "engine \"crashed\"\nat unit 7".to_owned()),
        units: 17,
        trace_bytes: 4096,
        peak_alloc_bytes: 1 << 20,
        queue_us: 12,
        run_us,
        stored_payload_bytes: 999,
        raw_payload_bytes: 3000,
        compression: 0.0,
    };
    let jobs = vec![job("b", "t1", true, 300), job("a", "t0", false, 0), job("c", "t1", true, 7)];
    FleetReport::assemble(jobs, BTreeMap::from([("t9".to_owned(), 5u64)]))
}

fn run_report(trace: &simprof::profiler::ProfileTrace) -> RunReport {
    let ctx = ObsContext::new();
    {
        let _installed = ctx.install();
        SimProf::new(SimProfConfig::default()).analyze(trace).expect("tiny trace analyzes");
    }
    ctx.finish_report().with_section(
        "floats",
        json!({"nan": f64::NAN, "inf": f64::INFINITY, "neg_zero": -0.0f64, "huge": 1e300,
               "tiny": 5e-324, "third": 1.0f64 / 3.0, "int": 2.0f64}),
    )
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[test]
fn sampling_unit_chunks_decode_identically() {
    let run = tiny_run();
    for (i, chunk) in run.trace.units.chunks(32).take(3).enumerate() {
        let text = serde_json::to_string(chunk).unwrap();
        check_type::<Vec<SamplingUnit>>(&text, 0x5EED + i as u64);
    }
}

#[test]
fn trace_header_and_footer_decode_identically() {
    let run = tiny_run();
    let meta = TraceMeta {
        label: "wc_sp \"quoted\" \u{7}".to_owned(),
        seed: 42,
        scale: "tiny".to_owned(),
        unit_instrs: 10_000_000,
        snapshot_instrs: 1_000_000,
        core: 0,
    };
    check_type::<TraceMeta>(&serde_json::to_string(&meta).unwrap(), 1);
    let footer = TraceFooter {
        version: 3,
        unit_count: run.trace.units.len() as u64,
        method_universe: run.registry.len(),
        total_instrs: run.trace.total_instrs(),
        total_cycles: u64::MAX,
        truncated_units: 1,
        dropped_snapshots: 2,
        registry: run.registry,
    };
    check_type::<TraceFooter>(&serde_json::to_string(&footer).unwrap(), 2);
}

#[test]
fn job_specs_decode_identically() {
    let specs = job_specs();
    check_type::<Vec<JobSpec>>(&serde_json::to_string(&specs).unwrap(), 3);
    for (i, spec) in specs.iter().enumerate() {
        check_type::<JobSpec>(&serde_json::to_string(spec).unwrap(), 4 + i as u64);
    }
    // Absent `#[serde(default)]` fields default; an absent required one
    // is an error on both paths.
    assert!(check_decode::<JobSpec>(r#"{"workload":"wc_sp","id":"x"}"#));
    assert!(!check_decode::<JobSpec>(r#"{"id":"x","seed":1}"#));
    // The first of two duplicate keys wins on both paths.
    let spec: JobSpec = serde_json::from_str(r#"{"id":"a","workload":"w","id":"b"}"#).unwrap();
    assert_eq!(spec.id, "a");
}

#[test]
fn run_and_fleet_reports_decode_identically() {
    let run = tiny_run();
    let report = run_report(&run.trace);
    check_type::<RunReport>(&serde_json::to_string(&report).unwrap(), 6);
    check_type::<FleetReport>(&serde_json::to_string(&fleet_report()).unwrap(), 7);
}

#[test]
fn number_spellings_convert_like_the_value_path() {
    for text in NUMBER_FORMS {
        check_decode::<u64>(text);
        check_decode::<u32>(text);
        check_decode::<i64>(text);
        check_decode::<i8>(text);
        check_decode::<f64>(text);
        check_decode::<f32>(text);
        check_decode::<Option<u64>>(text);
        check_decode::<(u64, f64)>(&format!("[{text},{text}]"));
    }
    for text in
        ["null", "true", " false ", "\"7\"", "[]", "{}", "", " ", "[1,]", "[,1]", "{\"a\":1,}"]
    {
        check_decode::<u64>(text);
        check_decode::<bool>(text);
        check_decode::<Option<bool>>(text);
        check_decode::<String>(text);
        check_decode::<Vec<u8>>(text);
        check_decode::<(u8,)>(text);
        check_decode::<Value>(text);
    }
    assert_eq!(serde_json::from_str::<u64>("1e3").unwrap(), 1000);
    assert_eq!(serde_json::from_str::<u64>("1.0").unwrap(), 1);
    assert_eq!(serde_json::from_str::<i64>("-0").unwrap(), 0);
    assert!(serde_json::from_str::<u64>("-1").is_err());
    // 2^64 overflows the integer parse, becomes the float 2^64, and that
    // float converts to `u64::MAX` — a value-path quirk kept as is.
    assert_eq!(serde_json::from_str::<u64>("18446744073709551616").unwrap(), u64::MAX);
    assert!(serde_json::from_str::<u32>("18446744073709551616").is_err());
    assert_eq!(serde_json::from_str::<f64>("18446744073709551616").unwrap(), 1.8446744073709552e19);
    assert!(check_decode::<(u8, u8)>("[1, 2]"));
    assert!(!check_decode::<(u8, u8)>("[1]"));
    assert!(!check_decode::<(u8, u8)>("[1, 2, 3]"));
    assert_eq!(serde_json::from_str::<String>(r#""aA\/\n""#).unwrap(), "aA/\n");
}

#[test]
fn writes_match_the_value_renderer_byte_for_byte() {
    let run = tiny_run();
    check_encode(&run.trace.units);
    check_encode(&run.registry);
    check_encode(&job_specs());
    check_encode(&fleet_report());
    check_encode(&run_report(&run.trace));

    let floats = vec![
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        1e300,
        -1e-300,
        5e-324,
        f64::MAX,
        0.1,
        2.0,
        -3.0,
        1.0 / 3.0,
    ];
    check_encode(&floats);
    check_encode(&[1.5f32, -0.0, f32::NAN, 3.4e38]);
    check_encode(&(u64::MAX, i64::MIN, -1i8, 0u8, usize::MAX));
    check_encode(&(Some(7u32), None::<u32>, Some("x"), vec![Some(true), None]));
    let all_controls: String = (0u8..0x20).map(char::from).collect();
    check_encode(&vec![
        all_controls,
        "\"quoted\" back\\slash /slash \u{7f} é 🦀".to_owned(),
        String::new(),
    ]);
    let map: HashMap<String, Vec<f64>> = ["zeta", "alpha", "Mid", "", "é", "a\"b"]
        .iter()
        .map(|k| (k.to_string(), vec![f64::NAN, 1.0]))
        .collect();
    check_encode(&map);
    let tree: BTreeMap<String, Map> =
        BTreeMap::from([("k".to_owned(), vec![("x".to_owned(), json!(1))])]);
    check_encode(&tree);
    check_encode(&json!({"nested": json!([json!({}), json!([]), json!(null), -0.0f64, 1e21])}));
    check_encode(&Vec::<u8>::new());
}

#[test]
fn nesting_past_the_cap_is_a_typed_error_not_a_crash() {
    let deep = "[".repeat(100_000);
    let err = serde_json::from_str::<Value>(&deep).unwrap_err();
    assert!(err.is_too_deep(), "{err}");
    // Through a typed impl's direct path too.
    let nested = format!("{}1{}", "[".repeat(200), "]".repeat(200));
    assert!(serde_json::from_str::<Vec<Value>>(&nested).unwrap_err().is_too_deep());
    let in_unit = format!(r#"[{{"id":1,"zz":{}}}]"#, "{\"a\":".repeat(300));
    assert!(serde_json::from_str::<Vec<SamplingUnit>>(&in_unit).unwrap_err().is_too_deep());
    // Exactly at the cap still parses.
    let at_cap = format!("{}{}", "[".repeat(serde::MAX_DEPTH), "]".repeat(serde::MAX_DEPTH));
    assert!(serde_json::from_str::<Value>(&at_cap).is_ok());
    let over = format!("[{at_cap}]");
    assert!(serde_json::from_str::<Value>(&over).unwrap_err().is_too_deep());
}
