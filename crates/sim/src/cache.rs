//! One set-associative LRU cache level.
//!
//! Per set the model keeps each way's line tag, a valid mask (one bit per
//! way) and the set's recency order packed into one word: way numbers,
//! most recently touched first. A touch moves its way to the front with a
//! few word operations, and the victim of a miss is the first invalid way,
//! else the last way in the order, read off without a scan. Caches built
//! with [`Cache::with_line_index`] also keep a line → way index, so a
//! lookup needs no tag scan either.
//!
//! The recency word follows the geometry: a level of up to 16 ways packs
//! 4-bit way numbers into a `u64`, a wider one 5-bit numbers into a
//! `u128`. [`LruCache`] is generic over the word and holds the one
//! implementation; [`Cache`] is the level with the word its geometry needs.

use std::fmt::Debug;
use std::ops::{BitAnd, BitOr, BitXor, Not, Shl, Shr};

use serde::{Deserialize, Serialize};

use crate::LINE_BYTES;

/// The largest associativity a [`Cache`] supports: the recency order packs
/// one 5-bit way number per way into a `u128`.
pub const MAX_WAYS: usize = <u128 as RecencyWord>::MAX_WAYS;

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheConfig {
    /// Creates a config, validating that the geometry is realizable.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is 0 or above [`MAX_WAYS`], or if capacity is not a
    /// positive multiple of `ways × 64 B`.
    pub fn new(capacity_bytes: u64, ways: usize) -> Self {
        assert!(ways > 0, "cache needs at least one way");
        assert_ways_supported(ways, MAX_WAYS);
        assert!(capacity_bytes > 0, "cache needs capacity");
        assert_eq!(
            capacity_bytes % (ways as u64 * LINE_BYTES),
            0,
            "capacity must be a multiple of ways * line size"
        );
        Self { capacity_bytes, ways }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        (self.capacity_bytes / (self.ways as u64 * LINE_BYTES)) as usize
    }

    /// Number of cache lines the level holds.
    pub fn lines(&self) -> usize {
        (self.capacity_bytes / LINE_BYTES) as usize
    }
}

fn assert_ways_supported(ways: usize, max: usize) {
    assert!(ways <= max, "cache supports at most {max} ways, got {ways}");
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for u64 {}
    impl Sealed for u128 {}
}

/// An unsigned word that holds a set's recency order: one
/// [`FIELD_BITS`](RecencyWord::FIELD_BITS)-bit way number per way, most
/// recent in the low field. Implemented for `u64` (4-bit fields, up to 16
/// ways) and `u128` (5-bit fields, up to 25 ways).
pub trait RecencyWord:
    sealed::Sealed
    + Copy
    + Debug
    + BitAnd<Output = Self>
    + BitOr<Output = Self>
    + BitXor<Output = Self>
    + Not<Output = Self>
    + Shl<u32, Output = Self>
    + Shr<u32, Output = Self>
{
    /// Width of the word in bits.
    const BITS: u32;
    /// Bits per way number.
    const FIELD_BITS: u32;
    /// The most ways one word holds.
    const MAX_WAYS: usize;
    /// The low bit of every field.
    const FIELD_ONES: Self;
    /// The word holding `n` in its low bits.
    fn of(n: usize) -> Self;
    /// The low field, as a way number.
    fn low_field(self) -> usize;
    /// Wrapping subtraction.
    fn wrapping_sub(self, rhs: Self) -> Self;
    /// Wrapping multiplication.
    fn wrapping_mul(self, rhs: Self) -> Self;
    /// Wrapping negation.
    fn wrapping_neg(self) -> Self;
}

macro_rules! recency_word {
    ($t:ty, $field_bits:expr) => {
        impl RecencyWord for $t {
            const BITS: u32 = <$t>::BITS;
            const FIELD_BITS: u32 = $field_bits;
            const MAX_WAYS: usize = (<$t>::BITS / $field_bits) as usize;
            const FIELD_ONES: $t = {
                let mut x: $t = 0;
                let mut i = 0;
                while i < Self::MAX_WAYS {
                    x |= 1 << (i as u32 * $field_bits);
                    i += 1;
                }
                x
            };
            #[inline]
            fn of(n: usize) -> Self {
                n as $t
            }
            #[inline]
            fn low_field(self) -> usize {
                (self & ((1 << $field_bits) - 1)) as usize
            }
            #[inline]
            fn wrapping_sub(self, rhs: Self) -> Self {
                <$t>::wrapping_sub(self, rhs)
            }
            #[inline]
            fn wrapping_mul(self, rhs: Self) -> Self {
                <$t>::wrapping_mul(self, rhs)
            }
            #[inline]
            fn wrapping_neg(self) -> Self {
                <$t>::wrapping_neg(self)
            }
        }
    };
}

recency_word!(u64, 4);
recency_word!(u128, 5);

/// Moves `way` to the front (most recent position) of a packed recency
/// order. The way's position is the lowest field equal to `way`: XOR turns
/// it into the lowest zero field, which the borrow trick below flags
/// exactly (higher fields may be flagged spuriously, lower ones never).
/// The fields before it shift up one place; fields past it, including
/// those past the cache's associativity, stay untouched. Constant shifts
/// only, no branch.
#[inline]
fn move_to_front<W: RecencyWord>(order: W, way: usize) -> W {
    let bits = W::FIELD_BITS;
    let ones = W::FIELD_ONES;
    let x = order ^ ones.wrapping_mul(W::of(way));
    let flags = x.wrapping_sub(ones) & !x & ones << (bits - 1);
    let first = flags & flags.wrapping_neg(); // high bit of `way`'s field
    let before = (first >> (bits - 1)).wrapping_sub(W::of(1));
    let through = before << bits | W::of((1 << bits) - 1);
    order & !through | (order & before) << bits | W::of(way)
}

/// Line → way index growth step, in lines (64 KiB of index): the index is
/// sized in exact steps rather than doubled, so it stays within one step
/// of the highest line the cache has held.
const INDEX_STEP: usize = 1 << 16;

/// Grows a line → way index to cover line `at`, in [`INDEX_STEP`] steps.
#[cold]
fn grow_index(index: &mut Vec<u8>, at: usize) {
    let len = (at + 1).next_multiple_of(INDEX_STEP);
    index.reserve_exact(len - index.len());
    index.resize(len, 0);
}

/// A set-associative LRU cache over 64-byte lines whose sets keep their
/// recency order in one `W` each.
///
/// Stores line tags only — the model tracks presence, not data. Replacement
/// fills the first invalid way of the set, else evicts the least recently
/// touched way (hit or fill). Both words give the same hits, misses and
/// victims; the narrow one is cheaper to update.
#[derive(Debug, Clone)]
pub struct LruCache<W: RecencyWord> {
    config: CacheConfig,
    sets: usize,
    ways: usize,
    /// `tags[set * ways + way]`: the line held there, [`INVALID`] if none.
    tags: Vec<u64>,
    /// Per set: bit `w` is set exactly when way `w`'s tag is valid.
    valid: Vec<u32>,
    /// Per set: the ways in recency order, most recent in the low field.
    /// Order among valid ways is exactly the order of their last touch;
    /// the positions of invalid ways never matter because a miss fills an
    /// invalid way before it evicts.
    recency: Vec<W>,
    /// The recency fields in use (`ways` fields).
    order_mask: W,
    /// `index[line]`: the way holding `line` plus one, 0 when absent.
    /// Mirrors the valid tags exactly; grown on the first fill beyond its
    /// length. `None` for caches that find lines by scanning their set.
    index: Option<Vec<u8>>,
}

/// Tag of an empty way (no line number reaches it: lines are `addr / 64`).
const INVALID: u64 = u64::MAX;

impl<W: RecencyWord> LruCache<W> {
    /// Builds an empty (all-invalid) cache that finds lines by scanning the
    /// set's tags — the cheapest layout for small, low-associativity levels.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has more ways than one `W` holds.
    pub fn new(config: CacheConfig) -> Self {
        let ways = config.ways;
        assert_ways_supported(ways, W::MAX_WAYS);
        let sets = config.sets();
        let bits = W::FIELD_BITS;
        let identity = (1..ways).fold(W::of(0), |acc, w| acc | W::of(w) << (w as u32 * bits));
        Self {
            config,
            sets,
            ways,
            tags: vec![INVALID; sets * ways],
            valid: vec![0; sets],
            recency: vec![identity; sets],
            // A right shift of all ones: 16 ways fill a whole `u64`, and
            // `1 << 64` would overflow.
            order_mask: !W::of(0) >> (W::BITS - ways as u32 * bits),
            index: None,
        }
    }

    /// Builds an empty cache that also keeps a line → way index (one byte
    /// per line of the address space below the highest line it has held),
    /// so hits and misses are decided without scanning the set. Behaviour
    /// is identical to [`LruCache::new`]; only the lookup cost differs.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has more ways than one `W` holds.
    pub fn with_line_index(config: CacheConfig) -> Self {
        Self { index: Some(Vec::new()), ..Self::new(config) }
    }

    /// The geometry this cache was built with.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    #[inline]
    fn set_of(&self, line: u64) -> usize {
        if self.sets.is_power_of_two() {
            (line as usize) & (self.sets - 1)
        } else {
            (line as usize) % self.sets
        }
    }

    /// The way of `set` holding `line`, if any.
    #[inline]
    fn find(&self, set: usize, line: u64) -> Option<usize> {
        match &self.index {
            Some(index) => match index.get(line as usize) {
                Some(&w) if w != 0 => Some(w as usize - 1),
                _ => None,
            },
            None => {
                let base = set * self.ways;
                self.tags[base..base + self.ways].iter().position(|&t| t == line)
            }
        }
    }

    /// Reads the line-index entry a lookup of `addr` will read, so that
    /// lookup finds it in the host's cache. Changes nothing; a no-op for
    /// caches without an index.
    #[inline]
    pub(crate) fn preload(&self, addr: u64) {
        let line = (addr / LINE_BYTES) as usize;
        if let Some(&entry) = self.index.as_ref().and_then(|index| index.get(line)) {
            std::hint::black_box(entry);
        }
    }

    /// Looks up the line containing `addr`, inserting it on miss (allocate-on-
    /// miss, LRU eviction). Returns `true` on hit.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr / LINE_BYTES;
        let set = self.set_of(line);
        if let Some(way) = self.find(set, line) {
            self.recency[set] = move_to_front(self.recency[set], way);
            return true;
        }
        self.fill(set, line);
        false
    }

    /// Miss path: puts `line` into the first invalid way of `set`, else
    /// into its least recently touched way.
    fn fill(&mut self, set: usize, line: u64) {
        let valid = self.valid[set];
        let full = (1u32 << self.ways) - 1;
        let order = self.recency[set];
        let bits = W::FIELD_BITS;
        let (way, order) = if valid != full {
            let way = (!valid).trailing_zeros() as usize;
            (way, move_to_front(order, way))
        } else {
            // Evict the last way in the order and rotate it to the front.
            let way = (order >> ((self.ways as u32 - 1) * bits)).low_field();
            (way, order << bits & self.order_mask | W::of(way))
        };
        let slot = set * self.ways + way;
        if let Some(index) = &mut self.index {
            if self.tags[slot] != INVALID {
                index[self.tags[slot] as usize] = 0;
            }
            let at = line as usize;
            if at >= index.len() {
                grow_index(index, at);
            }
            index[at] = way as u8 + 1;
        }
        self.tags[slot] = line;
        self.valid[set] = valid | 1 << way;
        self.recency[set] = order;
    }

    /// Checks for presence without updating LRU state or inserting.
    pub fn probe(&self, addr: u64) -> bool {
        let line = addr / LINE_BYTES;
        self.find(self.set_of(line), line).is_some()
    }

    /// Invalidates every line (e.g. context lost after an OS migration).
    pub fn flush(&mut self) {
        if let Some(index) = &mut self.index {
            for &t in self.tags.iter().filter(|&&t| t != INVALID) {
                index[t as usize] = 0;
            }
        }
        self.tags.fill(INVALID);
        self.valid.fill(0);
    }

    /// Invalidates roughly `fraction` of all lines, deterministically chosen
    /// from `seed`. Used by the perturbation model for partial-flush events.
    /// Each physical slot (set-major, then way) draws once from the stream,
    /// valid or not, so the choice depends only on the geometry and seed.
    pub fn flush_fraction(&mut self, fraction: f64, seed: u64) {
        let fraction = fraction.clamp(0.0, 1.0);
        if fraction >= 1.0 {
            self.flush();
            return;
        }
        let threshold = (fraction * u64::MAX as f64) as u64;
        let mut state = seed | 1;
        let Self { tags, valid, index, ways, .. } = self;
        for (set_tags, valid) in tags.chunks_exact_mut(*ways).zip(valid.iter_mut()) {
            for (w, t) in set_tags.iter_mut().enumerate() {
                // xorshift64* stream: cheap, deterministic per-slot decision.
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if state.wrapping_mul(0x2545_F491_4F6C_DD1D) < threshold && *t != INVALID {
                    *valid &= !(1 << w);
                    if let Some(index) = index {
                        index[*t as usize] = 0;
                    }
                    *t = INVALID;
                }
            }
        }
    }

    /// Number of currently valid lines (test/diagnostic helper).
    pub fn valid_lines(&self) -> usize {
        self.valid.iter().map(|v| v.count_ones() as usize).sum()
    }
}

/// A set-associative LRU cache level over 64-byte lines, with the recency
/// word its geometry needs: [`Cache::Narrow`] for up to 16 ways,
/// [`Cache::Wide`] up to [`MAX_WAYS`]. The two behave identically.
#[derive(Debug, Clone)]
pub enum Cache {
    /// Up to 16 ways: 4-bit way numbers in a `u64`.
    Narrow(LruCache<u64>),
    /// 17 to [`MAX_WAYS`] ways: 5-bit way numbers in a `u128`.
    Wide(LruCache<u128>),
}

/// Evaluates `$body` with `$c` bound to the [`LruCache`] inside a
/// [`Cache`], monomorphized for each width.
macro_rules! either {
    ($cache:expr, $c:ident => $body:expr) => {
        match $cache {
            $crate::cache::Cache::Narrow($c) => $body,
            $crate::cache::Cache::Wide($c) => $body,
        }
    };
}
pub(crate) use either;

impl Cache {
    /// Builds an empty (all-invalid) cache that finds lines by scanning the
    /// set's tags — the cheapest layout for small, low-associativity levels.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has more than [`MAX_WAYS`] ways.
    pub fn new(config: CacheConfig) -> Self {
        if config.ways <= u64::MAX_WAYS {
            Self::Narrow(LruCache::new(config))
        } else {
            Self::Wide(LruCache::new(config))
        }
    }

    /// Builds an empty cache that also keeps a line → way index (one byte
    /// per line of the address space below the highest line it has held),
    /// so hits and misses are decided without scanning the set. Behaviour
    /// is identical to [`Cache::new`]; only the lookup cost differs.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has more than [`MAX_WAYS`] ways.
    pub fn with_line_index(config: CacheConfig) -> Self {
        if config.ways <= u64::MAX_WAYS {
            Self::Narrow(LruCache::with_line_index(config))
        } else {
            Self::Wide(LruCache::with_line_index(config))
        }
    }

    /// The geometry this cache was built with.
    pub fn config(&self) -> CacheConfig {
        either!(self, c => c.config())
    }

    /// Looks up the line containing `addr`, inserting it on miss (allocate-on-
    /// miss, LRU eviction). Returns `true` on hit.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        either!(self, c => c.access(addr))
    }

    /// Checks for presence without updating LRU state or inserting.
    pub fn probe(&self, addr: u64) -> bool {
        either!(self, c => c.probe(addr))
    }

    /// Invalidates every line (e.g. context lost after an OS migration).
    pub fn flush(&mut self) {
        either!(self, c => c.flush())
    }

    /// Invalidates roughly `fraction` of all lines, deterministically chosen
    /// from `seed` (see [`LruCache::flush_fraction`]).
    pub fn flush_fraction(&mut self, fraction: f64, seed: u64) {
        either!(self, c => c.flush_fraction(fraction, seed))
    }

    /// Number of currently valid lines (test/diagnostic helper).
    pub fn valid_lines(&self) -> usize {
        either!(self, c => c.valid_lines())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets × 2 ways × 64 B = 512 B.
        Cache::new(CacheConfig::new(512, 2))
    }

    #[test]
    fn geometry() {
        let c = CacheConfig::new(32 * 1024, 8);
        assert_eq!(c.sets(), 64);
        assert_eq!(c.lines(), 512);
    }

    #[test]
    #[should_panic(expected = "multiple of ways")]
    fn rejects_bad_geometry() {
        let _ = CacheConfig::new(1000, 8);
    }

    #[test]
    #[should_panic(expected = "at most 25 ways, got 26")]
    fn rejects_too_many_ways() {
        let _ = CacheConfig::new(26 * 64 * 4, 26);
    }

    #[test]
    fn move_to_front_keeps_a_permutation() {
        // 20 ways in identity order; touch the last, the first, a middle one.
        let mut order = (0..20u32).fold(0u128, |acc, w| acc | (w as u128) << (w * 5));
        for way in [19, 0, 7, 7, 19] {
            order = move_to_front(order, way);
            assert_eq!(order & 0x1F, way as u128);
        }
        let fields: Vec<u128> = (0..20).map(|i| order >> (i * 5) & 0x1F).collect();
        let expected = [19, 7, 0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18];
        assert_eq!(fields, expected);
        assert_eq!(order >> (20 * 5), 0, "fields past the ways stay zero");
    }

    #[test]
    fn narrow_move_to_front_uses_every_field() {
        // 16 ways fill the whole `u64`; the last field moves like any other.
        let mut order = (0..16u32).fold(0u64, |acc, w| acc | (w as u64) << (w * 4));
        for way in [15, 0, 7, 7, 15] {
            order = move_to_front(order, way);
            assert_eq!(order & 0xF, way as u64);
        }
        let fields: Vec<u64> = (0..16).map(|i| order >> (i * 4) & 0xF).collect();
        assert_eq!(fields, [15, 7, 0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14]);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(63)); // same line
        assert!(!c.access(64)); // next line
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = tiny();
        // Set stride = sets * line = 4 * 64 = 256. Three lines map to set 0.
        assert!(!c.access(0));
        assert!(!c.access(256));
        assert!(c.access(0)); // refresh line 0; line 256 now LRU
        assert!(!c.access(512)); // evicts 256
        assert!(c.access(0));
        assert!(!c.access(256)); // was evicted
    }

    #[test]
    fn probe_does_not_disturb() {
        let mut c = tiny();
        c.access(0);
        assert!(c.probe(0));
        assert!(!c.probe(64));
        assert!(!c.probe(256));
        // probing 256 must not have inserted it
        assert!(!c.access(256));
    }

    #[test]
    fn working_set_within_capacity_all_hits() {
        // 32 KiB 8-way cache, 16 KiB working set streamed twice: second pass
        // must be hit-only.
        let mut c = Cache::new(CacheConfig::new(32 * 1024, 8));
        let lines = 16 * 1024 / 64;
        for i in 0..lines {
            c.access(i * 64);
        }
        let hits = (0..lines).filter(|&i| c.access(i * 64)).count();
        assert_eq!(hits as u64, lines);
    }

    #[test]
    fn working_set_beyond_capacity_misses() {
        // Working set 4x capacity with LRU + streaming: second pass all misses.
        let mut c = Cache::new(CacheConfig::new(32 * 1024, 8));
        let lines = 4 * 32 * 1024 / 64;
        for i in 0..lines {
            c.access(i * 64);
        }
        let hits = (0..lines).filter(|&i| c.access(i * 64)).count();
        assert_eq!(hits, 0);
    }

    #[test]
    fn flush_clears_everything() {
        let mut c = tiny();
        for i in 0..8 {
            c.access(i * 64);
        }
        assert!(c.valid_lines() > 0);
        c.flush();
        assert_eq!(c.valid_lines(), 0);
    }

    #[test]
    fn flush_fraction_partial_and_deterministic() {
        let mut a = Cache::new(CacheConfig::new(32 * 1024, 8));
        for i in 0..512 {
            a.access(i * 64);
        }
        let mut b = a.clone();
        a.flush_fraction(0.5, 99);
        b.flush_fraction(0.5, 99);
        assert_eq!(a.valid_lines(), b.valid_lines());
        let remaining = a.valid_lines();
        assert!(remaining > 100 && remaining < 412, "about half should survive: {remaining}");
        a.flush_fraction(1.0, 1);
        assert_eq!(a.valid_lines(), 0);
    }
}
