//! Job-construction identity: every Table I job is pinned byte for byte.
//!
//! `Benchmark::build` synthesizes its input and really executes the
//! benchmark's kernels; the cost trace it returns is what every later stage
//! (engine, profiler, trace, analysis) consumes. The digests below hash
//!
//! * the job's serde_json bytes (every stage, task, item, path, region and
//!   seed),
//! * the number of interned methods, and
//! * the address the machine's next allocation would get (which pins the
//!   order and size of every region the builder allocated),
//!
//! so any change to input synthesis, kernel results, RNG stream order or
//! allocation order shows up as a digest change. Tiny scale covers three
//! seeds; paper scale (seed 1) is needed because only there do mappers
//! overflow their spill buffer and run the map-side multi-spill merge.

use simprof::engine::MethodRegistry;
use simprof::sim::Machine;
use simprof::workloads::{WorkloadConfig, WorkloadId};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn digest(w: WorkloadId, cfg: &WorkloadConfig) -> u64 {
    let mut machine = Machine::new(cfg.machine);
    let mut registry = MethodRegistry::new();
    let job = w.benchmark.build(w.framework, cfg, &mut machine, &mut registry);
    let json = serde_json::to_string(&job).expect("job serializes");
    let h = fnv(FNV_OFFSET, json.as_bytes());
    let h = fnv(h, &(registry.len() as u64).to_le_bytes());
    fnv(h, &machine.alloc(64).base.to_le_bytes())
}

/// Checks every workload against `expected` (label → digest), reporting
/// the full table of actual digests on any mismatch.
fn check(scale: &str, seed: u64, cfg: &WorkloadConfig, expected: &[(&str, u64)]) {
    let actual: Vec<(String, u64)> =
        WorkloadId::all().into_iter().map(|w| (w.label(), digest(w, cfg))).collect();
    let wrong: Vec<&str> = actual
        .iter()
        .filter(|(label, d)| expected.iter().find(|(l, _)| l == label).map(|&(_, e)| e) != Some(*d))
        .map(|(label, _)| label.as_str())
        .collect();
    let table: String =
        actual.iter().map(|(label, d)| format!("    (\"{label}\", 0x{d:016x}),\n")).collect();
    assert!(wrong.is_empty(), "{scale} seed {seed}: jobs changed: {wrong:?}\nactual:\n{table}");
}

const TINY_SEED_1: [(&str, u64); 12] = [
    ("sort_hp", 0x535c60315cbd28df),
    ("sort_sp", 0xe29694b0a55c05b8),
    ("wc_hp", 0xa4df40268134399a),
    ("wc_sp", 0x11c38b5903d7c016),
    ("grep_hp", 0xd49189b2407c5e1a),
    ("grep_sp", 0xed343748798a3903),
    ("bayes_hp", 0x74dade485ab875cd),
    ("bayes_sp", 0xeb710b8e56e2a5d9),
    ("cc_hp", 0x0ddd4a64ee728894),
    ("cc_sp", 0xf38b7b381346ecad),
    ("rank_hp", 0xf1d92bcab8636981),
    ("rank_sp", 0x9cc7457ea0fa778c),
];

const TINY_SEED_7: [(&str, u64); 12] = [
    ("sort_hp", 0x07d9067e8272aa7f),
    ("sort_sp", 0xb4b8e8ab7ff851f5),
    ("wc_hp", 0x7e6943a8b9e2540f),
    ("wc_sp", 0x5ef56cc55894c966),
    ("grep_hp", 0x39b80a834ca4c5af),
    ("grep_sp", 0xe8c556cf6cba6d85),
    ("bayes_hp", 0x7ddfd2d979648cc0),
    ("bayes_sp", 0xfa370e856136a948),
    ("cc_hp", 0x3930fa70161ede1d),
    ("cc_sp", 0xd220e129e995c8d3),
    ("rank_hp", 0x54e4d2b2dc4cd160),
    ("rank_sp", 0x87fec6ca962be2ac),
];

const TINY_SEED_42: [(&str, u64); 12] = [
    ("sort_hp", 0x6ed0105bafce3498),
    ("sort_sp", 0x02827212b6d01d79),
    ("wc_hp", 0x88f83ccfc411935b),
    ("wc_sp", 0x6844d78a7fb3af95),
    ("grep_hp", 0x5954eb7efed3fa38),
    ("grep_sp", 0x11a141b86524c4e8),
    ("bayes_hp", 0x78805a3beb9071fb),
    ("bayes_sp", 0xd43cd3c483193c12),
    ("cc_hp", 0xe4046aead4bb5077),
    ("cc_sp", 0xe1df3f66bdb6ce95),
    ("rank_hp", 0xa010e2f7dec601ee),
    ("rank_sp", 0x62688cb88e1b77be),
];

const PAPER_SEED_1: [(&str, u64); 12] = [
    ("sort_hp", 0xef7453438744ebcb),
    ("sort_sp", 0x00f96476dced819e),
    ("wc_hp", 0x8dd618627da5688e),
    ("wc_sp", 0x147c40632288e3a9),
    ("grep_hp", 0xe35233c852b70041),
    ("grep_sp", 0x026b60d050575278),
    ("bayes_hp", 0x65317f6e26917a84),
    ("bayes_sp", 0xb6e16805316da2a9),
    ("cc_hp", 0x1c625942e7903700),
    ("cc_sp", 0x2c0729a2c8ad36fc),
    ("rank_hp", 0xb6f2c5606c37ac3a),
    ("rank_sp", 0x89d3807516d35645),
];

#[test]
fn tiny_jobs_are_pinned_seed_1() {
    check("tiny", 1, &WorkloadConfig::tiny(1), &TINY_SEED_1);
}

#[test]
fn tiny_jobs_are_pinned_seed_7() {
    check("tiny", 7, &WorkloadConfig::tiny(7), &TINY_SEED_7);
}

#[test]
fn tiny_jobs_are_pinned_seed_42() {
    check("tiny", 42, &WorkloadConfig::tiny(42), &TINY_SEED_42);
}

#[test]
fn paper_jobs_are_pinned_seed_1() {
    check("paper", 1, &WorkloadConfig::paper(1), &PAPER_SEED_1);
}
