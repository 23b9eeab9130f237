//! Golden suite for the serde shims' JSON text path.
//!
//! `serde_json::from_str::<T>` parses text straight into `T` through
//! `Deserialize::from_json`; `serde_json::to_string` and
//! `to_string_pretty` render through `Serialize::write_json`. The files
//! under `tests/data/json_golden/` were written while the shims still
//! carried a second, `Value`-based path that this suite held the direct
//! one to, so they pin what both paths agreed on (DESIGN.md §20):
//!
//! * decoding (`decode_*.txt`): on valid texts of every persisted type and
//!   on seeded mutations of them (unknown and duplicate keys, dropped
//!   fields, grown and shrunk arrays, number spellings, escapes,
//!   whitespace, type swaps, byte flips, truncation), whether `from_str`
//!   errs and, when it does not, the compact re-encoding of what it
//!   returned (in full when short, else its FNV-1a digest). Each line also
//!   carries the input's digest, so a generator that drifts fails here
//!   instead of quietly checking other texts;
//! * encoding (`encode/`): the `to_string` and `to_string_pretty` bytes of
//!   a fixed set, including non-finite, negative zero and huge floats,
//!   control characters, `HashMap` key order and every enum variant shape;
//! * artifacts: an event log, a run-report and a fleet timeline, a pretty
//!   fleet report and a store index, byte for byte.
//!
//! A change that alters a fixture has changed bytes the workspace reads or
//! writes; the fixtures are never rewritten to make this suite pass.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Display;
use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use serde_json::{json, Map, Number, Value};

use simprof::engine::FaultEvent;
use simprof::obs::{
    Event, EventKind, EventSink, FleetJob, FleetReport, JobSlice, JsonlEventWriter, RunReport,
    EVENT_SCHEMA_VERSION,
};
use simprof::profiler::SamplingUnit;
use simprof::service::{JobSpec, ShardRecord, StoreIndex};
use simprof::trace::{TraceFooter, TraceMeta};
use simprof::workloads::{WorkloadConfig, WorkloadId};

/// Mutated variants checked per base text.
const VARIANTS: usize = 150;

// ---------------------------------------------------------------------------
// Golden files
// ---------------------------------------------------------------------------

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/json_golden").join(name)
}

fn golden_text(name: &str) -> String {
    std::fs::read_to_string(golden_path(name)).unwrap_or_else(|e| panic!("golden file {name}: {e}"))
}

/// Asserts that `actual` is the golden file `name`, byte for byte; on a
/// mismatch names the first line that differs.
fn expect_golden(name: &str, actual: &str) {
    let want = golden_text(name);
    if want == actual {
        return;
    }
    let (mut w, mut a) = (want.split('\n'), actual.split('\n'));
    for line in 1.. {
        match (w.next(), a.next()) {
            (Some(x), Some(y)) if x == y => continue,
            (x, y) => panic!("{name} differs at line {line}:\n  golden: {x:?}\n  actual: {y:?}"),
        }
    }
}

/// 64-bit FNV-1a.
fn fnv(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// One section's decode cases, checked as a whole against
/// `decode_<section>.txt`: a `case \t input-digest \t outcome` line each.
struct Corpus {
    section: &'static str,
    lines: String,
}

impl Corpus {
    fn new(section: &'static str) -> Self {
        Self { section, lines: String::new() }
    }

    /// Decodes `text` as `T` and records the outcome; returns whether it
    /// decoded.
    fn decode<T: Serialize + Deserialize>(&mut self, case: impl Display, text: &str) -> bool {
        let (outcome, ok) = match serde_json::from_str::<T>(text) {
            Ok(v) => {
                let s = serde_json::to_string(&v).unwrap();
                let shown = if s.len() <= 64 {
                    format!("={s}")
                } else {
                    format!("#{:016x}", fnv(s.as_bytes()))
                };
                (format!("ok {shown}"), true)
            }
            Err(_) => ("err".to_owned(), false),
        };
        self.lines.push_str(&format!("{case}\t{:016x}\t{outcome}\n", fnv(text.as_bytes())));
        ok
    }

    /// Records `base` and `VARIANTS` seeded mutations of it; asserts the
    /// valid base decodes and that the mutations hit both outcomes.
    fn mutations<T: Serialize + Deserialize>(&mut self, case: &str, base: &str, seed: u64) {
        assert!(self.decode::<T>(format!("{case}/base"), base), "base text must decode: {base}");
        let tree: Value = serde_json::from_str(base).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut ok, mut err) = (0, 0);
        for i in 0..VARIANTS {
            let text = mutate(&tree, &mut rng);
            if self.decode::<T>(format!("{case}/{i}"), &text) {
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

    fn check(self) {
        expect_golden(&format!("decode_{}.txt", self.section), &self.lines);
    }
}

/// Checks `to_string(x)` and `to_string_pretty(x)` against
/// `encode/<name>.json` and `encode/<name>.pretty.json`.
fn check_encode<T: Serialize + ?Sized>(name: &str, x: &T) {
    expect_golden(&format!("encode/{name}.json"), &serde_json::to_string(x).unwrap());
    expect_golden(&format!("encode/{name}.pretty.json"), &serde_json::to_string_pretty(x).unwrap());
}

// ---------------------------------------------------------------------------
// The mutation generator's renderer: compact or pretty, plus raw tokens.
// ---------------------------------------------------------------------------

/// Marks a string that `render` emits verbatim, so mutations can spell a
/// token in ways no `Value` renders to (`1e3`, `-0`, `A`, ...).
const RAW: &str = "\u{1}raw\u{1}";

fn raw(token: impl Into<String>) -> Value {
    Value::String(format!("{RAW}{}", token.into()))
}

/// Renders `v` compact, or pretty with `indent` spaces per level.
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

/// A compact run report from analyzing a tiny `wc_sp` trace under the
/// default config, plus a `floats` section holding NaN, ±∞, -0.0, 1e300,
/// 5e-324, 1/3 and 2.0. Span timings differ run to run, so the suite
/// decodes the recorded one rather than making its own.
fn recorded_run_report() -> String {
    golden_text("run_report.json")
}

/// Every variant shape the derive supports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Shape {
    Unit,
    Other,
    One(u32),
    Pair(u8, String),
    Named {
        a: f64,
        #[serde(default)]
        b: Option<u8>,
    },
}

fn shapes() -> Vec<Shape> {
    vec![
        Shape::Unit,
        Shape::One(7),
        Shape::Pair(1, "x\"y".to_owned()),
        Shape::Named { a: 1.5, b: None },
        Shape::Named { a: -0.0, b: Some(3) },
        Shape::Other,
    ]
}

fn fault_events() -> Vec<FaultEvent> {
    vec![
        FaultEvent::ExecutorCrash { stage: 1, task: 2, attempt: 0, core: 3, lost_instrs: 4096 },
        FaultEvent::RetriesExhausted { stage: 0, task: 5, attempts: 3 },
    ]
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[test]
fn sampling_unit_chunks_decode_identically() {
    let run = tiny_run();
    let mut corpus = Corpus::new("units");
    for (i, chunk) in run.trace.units.chunks(32).take(3).enumerate() {
        let text = serde_json::to_string(chunk).unwrap();
        corpus.mutations::<Vec<SamplingUnit>>(&format!("chunk{i}"), &text, 0x5EED + i as u64);
    }
    corpus.check();
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
    let mut corpus = Corpus::new("header_footer");
    corpus.mutations::<TraceMeta>("meta", &serde_json::to_string(&meta).unwrap(), 1);
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
    corpus.mutations::<TraceFooter>("footer", &serde_json::to_string(&footer).unwrap(), 2);
    corpus.check();
}

#[test]
fn job_specs_decode_identically() {
    let specs = job_specs();
    let mut corpus = Corpus::new("job_specs");
    corpus.mutations::<Vec<JobSpec>>("specs", &serde_json::to_string(&specs).unwrap(), 3);
    for (i, spec) in specs.iter().enumerate() {
        let text = serde_json::to_string(spec).unwrap();
        corpus.mutations::<JobSpec>(&format!("spec{i}"), &text, 4 + i as u64);
    }
    // Absent `#[serde(default)]` fields default; an absent required one
    // is an error.
    assert!(corpus.decode::<JobSpec>("defaults", r#"{"workload":"wc_sp","id":"x"}"#));
    assert!(!corpus.decode::<JobSpec>("required", r#"{"id":"x","seed":1}"#));
    corpus.check();
    // The first of two duplicate keys wins.
    let spec: JobSpec = serde_json::from_str(r#"{"id":"a","workload":"w","id":"b"}"#).unwrap();
    assert_eq!(spec.id, "a");
}

#[test]
fn run_and_fleet_reports_decode_identically() {
    let mut corpus = Corpus::new("reports");
    corpus.mutations::<RunReport>("run", &recorded_run_report(), 6);
    let fleet = serde_json::to_string(&fleet_report()).unwrap();
    corpus.mutations::<FleetReport>("fleet", &fleet, 7);
    corpus.check();
}

#[test]
fn enum_variants_decode_identically() {
    let mut corpus = Corpus::new("shapes");
    corpus.mutations::<Vec<Shape>>("shapes", &serde_json::to_string(&shapes()).unwrap(), 8);
    corpus.mutations::<Vec<FaultEvent>>(
        "faults",
        &serde_json::to_string(&fault_events()).unwrap(),
        9,
    );
    let texts = [
        r#""Unit""#,
        r#" "Other" "#,
        r#"{"Unit":null}"#,
        r#""One""#,
        r#"{"One":1}"#,
        r#"{ "One" : 4294967296 }"#,
        r#"{"One":1,"One":2}"#,
        r#"{"One":1,}"#,
        r#"{}"#,
        r#"{"Pair":[1,"a"]}"#,
        r#"{"Pair":[1]}"#,
        r#"{"Pair":[1,"a","b"]}"#,
        r#"{"Pair":{"0":1}}"#,
        r#"{"Named":{"a":1}}"#,
        r#"{"Named":{"b":1}}"#,
        r#"{"Named":{"a":1,"a":2,"b":null}}"#,
        r#"{"Named":{"a":1,"zz":[1,{"q":2}]}}"#,
        r#"{"Named":{"a":1,"zz":[1,{"q":}]}}"#,
        r#"{"Named":[1]}"#,
        r#""Nope""#,
        r#"{"Nope":1}"#,
        r#"["Unit"]"#,
        "null",
        "7",
        r#""Unit""#,
        r#"{"One":3}"#,
    ];
    for (i, text) in texts.iter().enumerate() {
        corpus.decode::<Shape>(format!("text{i}"), text);
    }
    corpus.check();
}

#[test]
fn number_spellings_convert_like_the_value_path() {
    let mut corpus = Corpus::new("numbers");
    for (i, text) in NUMBER_FORMS.iter().enumerate() {
        corpus.decode::<u64>(format!("form{i}/u64"), text);
        corpus.decode::<u32>(format!("form{i}/u32"), text);
        corpus.decode::<i64>(format!("form{i}/i64"), text);
        corpus.decode::<i8>(format!("form{i}/i8"), text);
        corpus.decode::<f64>(format!("form{i}/f64"), text);
        corpus.decode::<f32>(format!("form{i}/f32"), text);
        corpus.decode::<Option<u64>>(format!("form{i}/option"), text);
        corpus.decode::<(u64, f64)>(format!("form{i}/pair"), &format!("[{text},{text}]"));
    }
    let others =
        ["null", "true", " false ", "\"7\"", "[]", "{}", "", " ", "[1,]", "[,1]", "{\"a\":1,}"];
    for (i, text) in others.iter().enumerate() {
        corpus.decode::<u64>(format!("other{i}/u64"), text);
        corpus.decode::<bool>(format!("other{i}/bool"), text);
        corpus.decode::<Option<bool>>(format!("other{i}/option"), text);
        corpus.decode::<String>(format!("other{i}/string"), text);
        corpus.decode::<Vec<u8>>(format!("other{i}/vec"), text);
        corpus.decode::<(u8,)>(format!("other{i}/tuple1"), text);
        corpus.decode::<Value>(format!("other{i}/value"), text);
    }
    assert!(corpus.decode::<(u8, u8)>("pair/ok", "[1, 2]"));
    assert!(!corpus.decode::<(u8, u8)>("pair/short", "[1]"));
    assert!(!corpus.decode::<(u8, u8)>("pair/long", "[1, 2, 3]"));
    corpus.check();
    assert_eq!(serde_json::from_str::<u64>("1e3").unwrap(), 1000);
    assert_eq!(serde_json::from_str::<u64>("1.0").unwrap(), 1);
    assert_eq!(serde_json::from_str::<i64>("-0").unwrap(), 0);
    assert!(serde_json::from_str::<u64>("-1").is_err());
    // 2^64 overflows the integer parse, becomes the float 2^64, and that
    // float converts to `u64::MAX` — a quirk kept as is.
    assert_eq!(serde_json::from_str::<u64>("18446744073709551616").unwrap(), u64::MAX);
    assert!(serde_json::from_str::<u32>("18446744073709551616").is_err());
    assert_eq!(serde_json::from_str::<f64>("18446744073709551616").unwrap(), 1.8446744073709552e19);
    assert_eq!(serde_json::from_str::<String>(r#""aA\/\n""#).unwrap(), "aA/\n");
}

#[test]
fn writes_match_the_value_renderer_byte_for_byte() {
    let run = tiny_run();
    check_encode("units", &run.trace.units);
    check_encode("registry", &run.registry);
    check_encode("job_specs", &job_specs());
    check_encode("fleet_report", &fleet_report());
    let report: RunReport = serde_json::from_str(&recorded_run_report()).unwrap();
    check_encode("run_report", &report);
    check_encode("shapes", &shapes());
    check_encode("faults", &fault_events());

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
    check_encode("floats", &floats);
    check_encode("floats_f32", &[1.5f32, -0.0, f32::NAN, 3.4e38]);
    check_encode("ints", &(u64::MAX, i64::MIN, -1i8, 0u8, usize::MAX));
    check_encode("options", &(Some(7u32), None::<u32>, Some("x"), vec![Some(true), None]));
    let all_controls: String = (0u8..0x20).map(char::from).collect();
    check_encode(
        "strings",
        &vec![all_controls, "\"quoted\" back\\slash /slash \u{7f} é 🦀".to_owned(), String::new()],
    );
    let map: HashMap<String, Vec<f64>> = ["zeta", "alpha", "Mid", "", "é", "a\"b"]
        .iter()
        .map(|k| (k.to_string(), vec![f64::NAN, 1.0]))
        .collect();
    check_encode("hash_map", &map);
    let tree: BTreeMap<String, Map> =
        BTreeMap::from([("k".to_owned(), vec![("x".to_owned(), json!(1))])]);
    check_encode("btree_map", &tree);
    check_encode(
        "nested",
        &json!({"nested": json!([json!({}), json!([]), json!(null), -0.0f64, 1e21])}),
    );
    check_encode("empty_vec", &Vec::<u8>::new());
}

/// One event of every kind, with strings and floats that need care.
fn events() -> Vec<EventKind> {
    let s = |x: &str| x.to_owned();
    vec![
        EventKind::SpanOpen { id: 1, parent: None, name: s("core.analyze"), thread: 0 },
        EventKind::SpanOpen { id: 2, parent: Some(1), name: s("a \"quoted\"\tname"), thread: 3 },
        EventKind::SpanClose { id: 2, name: s("a \"quoted\"\tname"), thread: 3, elapsed_us: 17 },
        EventKind::Counter { name: s("core.units_analyzed"), delta: 5, total: u64::MAX },
        EventKind::Gauge { name: s("g"), value: f64::NAN },
        EventKind::Gauge { name: s("g"), value: -0.0 },
        EventKind::Hist { name: s("h"), value: 2.0 },
        EventKind::Hist { name: s("h"), value: 1e300 },
        EventKind::Fault {
            name: s("engine.faults.crash"),
            detail: serde_json::to_value(&fault_events()[0]),
        },
        EventKind::Fault { name: s("engine.faults.none"), detail: Value::Null },
        EventKind::UnitClosed {
            unit: 9,
            instrs: 10_000,
            cycles: 12_345,
            snapshots: 10,
            truncated: true,
        },
        EventKind::Salvage {
            path: s("traces/é.sptrc"),
            recovered_units: 4,
            bad_frames: 1,
            skipped_bytes: 77,
            resyncs: 1,
        },
        EventKind::SinkRetry { target: s("t"), attempt: 2, error: s("disk\nfull") },
        EventKind::SinkDegraded { target: s("t"), retries: 3, error: s("gone") },
        EventKind::PhaseReformed { units: 100, old_k: 2, new_k: 3, drift: 0.25 },
        EventKind::EarlyStop { units: 50, half_width: 1.0 / 3.0, target: 0.5 },
        EventKind::JobQueued { job: s("j0"), tenant: s("t0") },
        EventKind::JobStarted { job: s("j0"), tenant: s("t0"), worker: 1 },
        EventKind::JobFinished {
            job: s("j0"),
            tenant: s("t0"),
            units: 7,
            bytes: 4096,
            peak_bytes: 1 << 20,
            queue_us: 3,
            run_us: 900,
        },
        EventKind::JobFailed { job: s("j1"), tenant: s("t\"1"), error: s("engine \"crashed\"") },
    ]
}

#[test]
fn artifacts_match_their_golden_bytes() {
    let dir = std::env::temp_dir().join(format!("simprof_json_golden_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let log = dir.join("events.jsonl");
    let mut writer = JsonlEventWriter::create(&log).unwrap();
    for (i, kind) in events().into_iter().enumerate() {
        let seq = i as u64 + 1;
        writer.emit(&Event { v: EVENT_SCHEMA_VERSION, seq, ts_us: seq * 10, kind });
    }
    writer.flush();
    drop(writer);
    expect_golden("events.jsonl", &std::fs::read_to_string(&log).unwrap());

    let report: RunReport = serde_json::from_str(&recorded_run_report()).unwrap();
    let timeline = dir.join("timeline.json");
    simprof::obs::write_chrome_trace(&report, &timeline).unwrap();
    expect_golden("timeline.json", &std::fs::read_to_string(&timeline).unwrap());
    expect_golden("run_report.pretty.json", &report.to_json_pretty());

    let slices = [
        JobSlice { name: "job-b".into(), worker: 1, start_us: 5, end_us: 9 },
        JobSlice { name: "job-a".into(), worker: 0, start_us: 0, end_us: 7 },
        JobSlice { name: "job-c".into(), worker: 0, start_us: 7, end_us: 7 },
        JobSlice { name: "job \"d\"".into(), worker: 1, start_us: 8, end_us: 20 },
    ];
    let fleet_timeline = dir.join("fleet_timeline.json");
    simprof::obs::write_fleet_timeline(&slices, &fleet_timeline).unwrap();
    expect_golden("fleet_timeline.json", &std::fs::read_to_string(&fleet_timeline).unwrap());

    expect_golden("fleet_report.json", &fleet_report().to_json_pretty());

    let shard = |job: &str, tenant: &str, bytes: u64, codec: &str| ShardRecord {
        job: job.to_owned(),
        tenant: tenant.to_owned(),
        file: format!("shards/{job}.sptrc"),
        bytes,
        units: bytes / 100,
        layout_version: 3,
        codec: codec.to_owned(),
    };
    let index = StoreIndex {
        version: 1,
        shards: vec![shard("a", "t0", 1234, "lz"), shard("b\"é", "t1", 99, "raw")],
    };
    expect_golden("index.json", &serde_json::to_string_pretty(&index).unwrap());
    let empty = StoreIndex { version: 1, shards: Vec::new() };
    expect_golden("index_empty.json", &serde_json::to_string_pretty(&empty).unwrap());

    let _ = std::fs::remove_dir_all(&dir);
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
