//! `Machine::access_run` against the per-address loop it replaces.
//!
//! One machine issues every run through `access_run`; a twin draws the
//! same addresses one at a time with `AccessCursor::next_addr` and issues
//! each with `Machine::access`. Runs cover every `AccessPattern`, random
//! cores, lengths from 0 up, both streaming hints, and flushes of private
//! caches and LLCs interleaved between them. After every step the two
//! machines must hold identical counters on every core (for streaming runs
//! the twin's cycles are corrected by the streaming discount of each
//! outcome it saw), the two cursors must continue with the same address,
//! and at the end a stream of single accesses must be served identically
//! on both.

use proptest::prelude::*;
use simprof_sim::{
    AccessCursor, AccessPattern, CacheConfig, CostModel, Counters, Machine, MachineConfig,
};

/// Geometries: the scaled machine (all levels on the narrow word), a
/// two-node cluster (two LLC domains), and a small machine whose 20-way
/// LLC is on the wide word and whose caches evict within a few runs.
fn config(pick: usize) -> MachineConfig {
    match pick {
        0 => MachineConfig::scaled(2),
        1 => MachineConfig::scaled_cluster(2, 2),
        _ => MachineConfig {
            cores: 3,
            l1: CacheConfig::new(1024, 4),
            l2: CacheConfig::new(4 * 1024, 16),
            llc: CacheConfig::new(40 * 1024, 20),
            cores_per_llc: 0,
            cost: CostModel::default(),
        },
    }
}

fn pattern(pick: u64) -> AccessPattern {
    match pick % 7 {
        0 => AccessPattern::Sequential,
        1 => AccessPattern::Strided { stride_bytes: 64 * (1 + pick / 7 % 9) },
        2 => AccessPattern::Strided { stride_bytes: pick / 7 % 200 },
        3 => AccessPattern::Random,
        4 => AccessPattern::RandomWindow { window_bytes: 64 * (pick / 7 % 300) },
        5 => AccessPattern::RandomWindow { window_bytes: pick / 7 % 5000 },
        _ => AccessPattern::Zipf,
    }
}

fn all_counters(m: &Machine) -> Vec<Counters> {
    (0..m.core_count()).map(|c| m.counters(c)).collect()
}

fn run_equivalence(pick: usize, ops: &[(u64, u64)]) {
    let cfg = config(pick);
    let cost = cfg.cost;
    let mut batched = Machine::new(cfg);
    let mut single = Machine::new(cfg);
    // Regions from a few lines to several times the LLC, allocated alike.
    let regions: Vec<_> = [0, 64, 100, 4 << 10, 96 << 10, 1 << 20, 3 << 20]
        .iter()
        .map(|&bytes| {
            let r = batched.alloc(bytes);
            assert_eq!(single.alloc(bytes), r);
            r
        })
        .collect();
    let mut cursors: Vec<(AccessCursor, AccessCursor)> = Vec::new();
    // Cycles the twin's latency-bound `access` charged above the
    // streaming cost, per core.
    let mut discount = vec![0u64; cfg.cores];
    for (step, &(a, b)) in ops.iter().enumerate() {
        let core = (a % cfg.cores as u64) as usize;
        match b % 16 {
            0 => {
                let fraction = ((a >> 8) % 101) as f64 / 100.0;
                batched.flush_core_fraction(core, fraction, a);
                single.flush_core_fraction(core, fraction, a);
            }
            1 => {
                let fraction = ((a >> 8) % 101) as f64 / 100.0;
                batched.flush_domain_llc(core, fraction, a);
                single.flush_domain_llc(core, fraction, a);
            }
            2 => {
                let fraction = ((a >> 8) % 101) as f64 / 100.0;
                batched.flush_llc_fraction(fraction, a);
                single.flush_llc_fraction(fraction, a);
            }
            3 | 4 => {
                let region = regions[(a >> 4) as usize % regions.len()];
                let cursor = AccessCursor::new(region, pattern(b >> 4), a);
                cursors.push((cursor.clone(), cursor));
            }
            _ if cursors.is_empty() => {}
            _ => {
                let at = (a >> 4) as usize % cursors.len();
                let (run_cursor, loop_cursor) = &mut cursors[at];
                let n = match (b >> 4) % 8 {
                    0 => 0,
                    1 => 1,
                    _ => (a >> 12) % 700,
                };
                let streaming = (b >> 8) % 2 == 1;
                batched.access_run(core, run_cursor, n, streaming);
                for _ in 0..n {
                    let outcome = single.access(core, loop_cursor.next_addr());
                    if streaming {
                        discount[core] +=
                            cost.access_cycles(outcome) - cost.access_cycles_streaming(outcome);
                    }
                }
                let mut probe = (run_cursor.clone(), loop_cursor.clone());
                assert_eq!(probe.0.next_addr(), probe.1.next_addr(), "cursor, step {step}");
            }
        }
        let mut expected = all_counters(&single);
        for (c, d) in expected.iter_mut().zip(&discount) {
            c.cycles -= d;
        }
        assert_eq!(all_counters(&batched), expected, "counters, step {step}");
    }
    // The caches end in the same state: every later access is served alike.
    for (i, &(a, _)) in ops.iter().enumerate().take(400) {
        let core = i % cfg.cores;
        let region = regions[(a >> 4) as usize % regions.len()];
        let addr = region.base + (a >> 20) % region.bytes.max(64);
        assert_eq!(batched.access(core, addr), single.access(core, addr), "follow-up access {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn access_run_matches_per_address_loop(
        pick in 0usize..3,
        ops in proptest::collection::vec((any::<u64>(), any::<u64>()), 1..160),
    ) {
        run_equivalence(pick, &ops);
    }
}

/// Every pattern on every geometry, with long runs that wrap their region.
#[test]
fn long_runs_of_every_pattern_match() {
    let mut state = 0x5EED_u64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for pick in 0..3 {
        // Two cursors of each pattern first (op kind 3, pattern `i % 7`),
        // then runs (op kinds 5 and up) with the odd flush in between.
        let ops: Vec<(u64, u64)> = (0..600u64)
            .map(|i| {
                let (a, b) = (next(), next());
                match i {
                    0..14 => (a, 3 | (i % 7) << 4),
                    _ if i % 50 == 0 => (a, b & !0xF),
                    _ => (a, b | 5),
                }
            })
            .collect();
        run_equivalence(pick, &ops);
    }
}
