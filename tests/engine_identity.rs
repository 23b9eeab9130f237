//! Engine identity: the simulated machine is pinned byte for byte.
//!
//! Each digest hashes (FNV-1a) the serde_json bytes of the profiled
//! [`ProfileTrace`] — every sampling unit's counters, stacks and fault
//! events — followed by the JSON of every core's final [`Counters`]. Any
//! change to a cache hit/miss outcome, a penalty, the cursor address
//! streams or the scheduler's interleaving moves a digest.
//!
//! Coverage: all twelve workloads at tiny scale for three seeds; at paper
//! scale (seed 1) a set that walks every `AccessPattern` a workload emits
//! (`Strided` has no user) and runs with the migration perturbation on
//! (partial private-cache flushes); and one run on the `ivy_bridge`
//! machine, whose 20-way LLC has 10 240 sets (not a power of two).

use simprof::engine::{MethodRegistry, Scheduler};
use simprof::profiler::{ProfileTrace, SamplingManager};
use simprof::sim::{Counters, Machine, MachineConfig};
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

/// Runs `w` exactly as `WorkloadId::run_full` does (same scheduler config,
/// same profiler) but keeps the machine, so the final per-core counters can
/// be hashed next to the trace.
fn run(w: WorkloadId, cfg: &WorkloadConfig) -> (ProfileTrace, Vec<Counters>) {
    let mut machine = Machine::new(cfg.machine);
    let mut registry = MethodRegistry::new();
    let job = w.benchmark.build(w.framework, cfg, &mut machine, &mut registry);
    let sched = cfg.run_sched(&mut registry);
    let mut manager = SamplingManager::new(cfg.profiler);
    Scheduler::new(sched).run(&mut machine, &job, &mut manager);
    let counters = (0..machine.core_count()).map(|c| machine.counters(c)).collect();
    (manager.finish(), counters)
}

fn digest(w: WorkloadId, cfg: &WorkloadConfig) -> u64 {
    let (trace, counters) = run(w, cfg);
    let h = fnv(FNV_OFFSET, serde_json::to_string(&trace).expect("trace serializes").as_bytes());
    fnv(h, serde_json::to_string(&counters).expect("counters serialize").as_bytes())
}

fn workload(label: &str) -> WorkloadId {
    WorkloadId::all().into_iter().find(|w| w.label() == label).expect("known workload label")
}

/// Checks each listed workload against its expected digest, reporting the
/// full table of actual digests on any mismatch.
fn check(what: &str, cfg: &WorkloadConfig, expected: &[(&str, u64)]) {
    let actual: Vec<(&str, u64)> =
        expected.iter().map(|&(label, _)| (label, digest(workload(label), cfg))).collect();
    let wrong: Vec<&str> =
        actual.iter().zip(expected).filter(|(a, e)| a.1 != e.1).map(|(a, _)| a.0).collect();
    let table: String =
        actual.iter().map(|(label, d)| format!("    (\"{label}\", 0x{d:016x}),\n")).collect();
    assert!(wrong.is_empty(), "{what}: engine output changed: {wrong:?}\nactual:\n{table}");
}

const TINY_SEED_1: [(&str, u64); 12] = [
    ("sort_hp", 0xa1e5a619bc72eb60),
    ("sort_sp", 0x745ba150357bbe13),
    ("wc_hp", 0x0566804c020412c4),
    ("wc_sp", 0x8247b0a1216733c5),
    ("grep_hp", 0x212befbebcf88c8b),
    ("grep_sp", 0xe2136c3c7e7534a7),
    ("bayes_hp", 0x7b08c6fda9cf06f5),
    ("bayes_sp", 0x79be599c3897f3a2),
    ("cc_hp", 0x3269e16af290f062),
    ("cc_sp", 0x6defc1d29268b1cc),
    ("rank_hp", 0x5a57f9027e65fe0b),
    ("rank_sp", 0xd7a042b3315b889a),
];

const TINY_SEED_7: [(&str, u64); 12] = [
    ("sort_hp", 0xb102a5b281ba1b92),
    ("sort_sp", 0x4422f9fde1708844),
    ("wc_hp", 0x40c73e72144d64ca),
    ("wc_sp", 0x2e4b9b3935b01672),
    ("grep_hp", 0x4776876e3a29fbf4),
    ("grep_sp", 0x86c3951ae12ad9ac),
    ("bayes_hp", 0x7a66ba6454e0b196),
    ("bayes_sp", 0xbde77b526da0ea6a),
    ("cc_hp", 0x82513dea7be3c5bf),
    ("cc_sp", 0x867c22127fc2a2ab),
    ("rank_hp", 0x54289fe0c930727b),
    ("rank_sp", 0xb4159887cd5d8734),
];

const TINY_SEED_42: [(&str, u64); 12] = [
    ("sort_hp", 0x8308ee6e3d942960),
    ("sort_sp", 0x3b00ee431efdb9ca),
    ("wc_hp", 0x79fb50f04b1cb4b9),
    ("wc_sp", 0x28697408bb6566e5),
    ("grep_hp", 0x9d75795d3cca6352),
    ("grep_sp", 0x27252da97cfd391d),
    ("bayes_hp", 0x5b02684140afe3a6),
    ("bayes_sp", 0x9b1f4b86391467cd),
    ("cc_hp", 0xa4907797d59d7497),
    ("cc_sp", 0x9f963c7fd950d945),
    ("rank_hp", 0x80850477185a50d5),
    ("rank_sp", 0x67e526329b77eeaa),
];

/// Paper scale, seed 1: between them these jobs use every access pattern a
/// workload emits (sequential, random, random-window, Zipf), and the paper
/// preset fires a migration (partial private-cache flush) every 6 M
/// instructions.
const PAPER_SEED_1: [(&str, u64); 5] = [
    ("sort_hp", 0x6a961914eac298f2),
    ("wc_sp", 0x2eb8a9f9c1feb26f),
    ("bayes_hp", 0xa91cd997cee795cb),
    ("cc_sp", 0x69865f2d08b3557c),
    ("rank_hp", 0x3ca82f639a095881),
];

/// Tiny scale, seed 1, on `MachineConfig::ivy_bridge(4)`.
const IVY_BRIDGE_SEED_1: [(&str, u64); 1] = [("wc_sp", 0x80a3dc1800fc309c)];

#[test]
fn tiny_engine_is_pinned_seed_1() {
    check("tiny seed 1", &WorkloadConfig::tiny(1), &TINY_SEED_1);
}

#[test]
fn tiny_engine_is_pinned_seed_7() {
    check("tiny seed 7", &WorkloadConfig::tiny(7), &TINY_SEED_7);
}

#[test]
fn tiny_engine_is_pinned_seed_42() {
    check("tiny seed 42", &WorkloadConfig::tiny(42), &TINY_SEED_42);
}

#[test]
fn paper_engine_is_pinned_seed_1() {
    check("paper seed 1", &WorkloadConfig::paper(1), &PAPER_SEED_1);
}

#[test]
fn ivy_bridge_engine_is_pinned() {
    let mut cfg = WorkloadConfig::tiny(1);
    cfg.machine = MachineConfig::ivy_bridge(4);
    check("ivy_bridge tiny seed 1", &cfg, &IVY_BRIDGE_SEED_1);
}

/// The harness above is the catalog's run path: same trace bytes as
/// `WorkloadId::run_full`.
#[test]
fn harness_matches_run_full() {
    let cfg = WorkloadConfig::tiny(1);
    let w = workload("wc_sp");
    assert_eq!(run(w, &cfg).0, w.run_full(&cfg).trace);
}
