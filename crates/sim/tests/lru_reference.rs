//! Differential test of the scan-free cache against the original
//! stamp-scan LRU.
//!
//! [`StampCache`] below is the earlier `Cache` implementation, kept here
//! as the reference: a global access clock, one `u64` stamp per way, and a
//! scan of every way on each access (first invalid way, else minimum
//! stamp). The library cache must reproduce it exactly — every hit/miss,
//! every `probe`, `valid_lines`, and the lines `flush_fraction` drops —
//! for any geometry up to [`MAX_WAYS`] and any set count, with or without
//! its line → way index, and with either recency word: the narrow `u64`
//! (up to 16 ways, the one [`Cache`] picks there) and the wide `u128`
//! (any supported geometry).

use proptest::prelude::*;
use simprof_sim::cache::{LruCache, MAX_WAYS};
use simprof_sim::{Cache, CacheConfig, LINE_BYTES};

const INVALID: u64 = u64::MAX;

/// The stamp-scan reference (test-only copy of the original model).
struct StampCache {
    sets: usize,
    ways: usize,
    tags: Vec<u64>,
    stamps: Vec<u64>,
    clock: u64,
}

impl StampCache {
    fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let ways = config.ways;
        Self {
            sets,
            ways,
            tags: vec![INVALID; sets * ways],
            stamps: vec![0; sets * ways],
            clock: 0,
        }
    }

    fn set_of(&self, line: u64) -> usize {
        if self.sets.is_power_of_two() {
            (line as usize) & (self.sets - 1)
        } else {
            (line as usize) % self.sets
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        let line = addr / LINE_BYTES;
        let set = self.set_of(line);
        self.clock += 1;
        let base = set * self.ways;
        let mut lru_idx = 0;
        let mut lru_stamp = u64::MAX;
        for i in 0..self.ways {
            let t = self.tags[base + i];
            if t == line {
                self.stamps[base + i] = self.clock;
                return true;
            }
            let s = if t == INVALID { 0 } else { self.stamps[base + i] };
            if s < lru_stamp {
                lru_stamp = s;
                lru_idx = i;
            }
        }
        self.tags[base + lru_idx] = line;
        self.stamps[base + lru_idx] = self.clock;
        false
    }

    fn probe(&self, addr: u64) -> bool {
        let line = addr / LINE_BYTES;
        let base = self.set_of(line) * self.ways;
        self.tags[base..base + self.ways].contains(&line)
    }

    fn flush(&mut self) {
        self.tags.fill(INVALID);
    }

    fn flush_fraction(&mut self, fraction: f64, seed: u64) {
        let fraction = fraction.clamp(0.0, 1.0);
        if fraction >= 1.0 {
            self.flush();
            return;
        }
        let threshold = (fraction * u64::MAX as f64) as u64;
        let mut state = seed | 1;
        for t in &mut self.tags {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if state.wrapping_mul(0x2545_F491_4F6C_DD1D) < threshold {
                *t = INVALID;
            }
        }
    }

    fn valid_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t != INVALID).count()
    }
}

/// Set counts covering powers of two and not (the `ivy_bridge` LLC has
/// 10 240 sets).
const SET_COUNTS: [usize; 16] = [1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16, 20, 24, 40, 64, 80];

const FRACTIONS: [f64; 6] = [0.0, 0.1, 0.5, 0.8, 0.999, 1.0];

/// Every library layout of `config`: scan and line index, each with the
/// wide word and, where it fits, the narrow one.
fn layouts(config: CacheConfig) -> Vec<(&'static str, Cache)> {
    let mut caches = vec![
        ("wide scan", Cache::Wide(LruCache::new(config))),
        ("wide indexed", Cache::Wide(LruCache::with_line_index(config))),
    ];
    if config.ways <= 16 {
        caches.push(("narrow scan", Cache::Narrow(LruCache::new(config))));
        caches.push(("narrow indexed", Cache::Narrow(LruCache::with_line_index(config))));
    }
    caches
}

/// Drives the reference and every library layout through the same
/// operation stream, decoded from `ops`: about 5 % probes, `flush_permille`
/// ‰ each of full and partial flushes, the rest accesses. Addresses come
/// from a pool twice the cache's size (so sets fill, hit and evict), with
/// an occasional far line to grow the line index past one step.
fn run_differential(ways: usize, sets: usize, flush_permille: u64, ops: &[u64]) {
    let config = CacheConfig::new((sets * ways) as u64 * LINE_BYTES, ways);
    let mut reference = StampCache::new(config);
    let mut caches = layouts(config);
    let pool = (sets * ways * 2 + 3) as u64;
    let mut seen = Vec::new();
    for (step, &op) in ops.iter().enumerate() {
        let kind = op % 1000;
        let mut line = (op >> 8) % pool;
        if op >> 60 == 0xF {
            line += 70_000 + (op >> 32) % 100_000;
        }
        let addr = line * LINE_BYTES + (op >> 16) % LINE_BYTES;
        match kind {
            k if k < flush_permille => {
                reference.flush();
                caches.iter_mut().for_each(|(_, c)| c.flush());
            }
            k if k < 2 * flush_permille => {
                let fraction = FRACTIONS[(op >> 24) as usize % FRACTIONS.len()];
                let seed = op >> 3;
                reference.flush_fraction(fraction, seed);
                caches.iter_mut().for_each(|(_, c)| c.flush_fraction(fraction, seed));
            }
            k if k >= 950 => {
                let expected = reference.probe(addr);
                for (name, c) in &caches {
                    assert_eq!(c.probe(addr), expected, "{name} probe, step {step}");
                }
            }
            _ => {
                let expected = reference.access(addr);
                for (name, c) in &mut caches {
                    assert_eq!(c.access(addr), expected, "{name} access, step {step}");
                }
                seen.push(addr);
            }
        }
        for (name, c) in &caches {
            assert_eq!(c.valid_lines(), reference.valid_lines(), "{name} valid, step {step}");
        }
    }
    for &addr in &seen {
        let expected = reference.probe(addr);
        for (name, c) in &caches {
            assert_eq!(c.probe(addr), expected, "final {name} probe of {addr}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn scan_free_lru_matches_stamp_scan(
        ways in 1usize..MAX_WAYS + 1,
        set_sel in 0usize..SET_COUNTS.len(),
        flush_permille in 0u64..25,
        ops in proptest::collection::vec(any::<u64>(), 1..4000),
    ) {
        run_differential(ways, SET_COUNTS[set_sel], flush_permille, &ops);
    }
}

/// The geometries at the edges of the two words, on a long random stream:
/// exactly 16 ways fill every field of the narrow word (its order mask
/// must not be built as `1 << 64`), 17 ways are the narrowest wide
/// geometry, 20 are the `ivy_bridge` LLC's, and 25 fill the wide word.
#[test]
fn word_edges_match_stamp_scan() {
    let mut state = 0x5EED_u64;
    let ops: Vec<u64> = (0..50_000)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        })
        .collect();
    for ways in [16, 17, 20, MAX_WAYS] {
        for (sets, flush_permille) in [(1, 5), (7, 1), (16, 0)] {
            run_differential(ways, sets, flush_permille, &ops);
        }
    }
}

/// [`Cache`] takes the narrow word exactly when the geometry fits it.
#[test]
fn width_follows_geometry() {
    for ways in 1..=MAX_WAYS {
        let config = CacheConfig::new(4 * ways as u64 * LINE_BYTES, ways);
        for cache in [Cache::new(config), Cache::with_line_index(config)] {
            assert_eq!(matches!(cache, Cache::Narrow(_)), ways <= 16, "{ways} ways");
        }
    }
}
