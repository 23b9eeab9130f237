//! Deterministic, resumable address-pattern generators.
//!
//! The execution engine describes *what* a piece of work touches (its region
//! and pattern); the machine walks the resulting addresses through the cache
//! hierarchy. Cursors are resumable because the scheduler executes work items
//! in quanta — a pattern must continue where it stopped when its thread is
//! scheduled again.

use serde::{Deserialize, Serialize};

use crate::LINE_BYTES;

/// A contiguous address region owned by some data structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Region {
    /// Base address (line-aligned by the allocator).
    pub base: u64,
    /// Size in bytes.
    pub bytes: u64,
}

impl Region {
    /// Creates a region. Zero-sized regions are legal (they generate the base
    /// address only).
    pub fn new(base: u64, bytes: u64) -> Self {
        Self { base, bytes }
    }

    /// Number of cache lines the region spans (at least 1).
    pub fn lines(&self) -> u64 {
        (self.bytes / LINE_BYTES).max(1)
    }
}

/// How a work item walks its region.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AccessPattern {
    /// Stream sequentially through the region, wrapping around — scans,
    /// tokenization, buffered writes.
    Sequential,
    /// Stride through the region in `stride_bytes` steps, wrapping — column
    /// walks, object-header touches.
    Strided {
        /// Step in bytes between consecutive accesses.
        stride_bytes: u64,
    },
    /// Uniformly random lines within the region — hash-map probes, per-key
    /// reduce combining, shuffles.
    Random,
    /// Random lines within a sliding window of `window_bytes`, the window
    /// itself advancing through the region — quicksort partitions, merge
    /// frontiers. Captures "random within a working set of size W".
    RandomWindow {
        /// Size of the randomly accessed working set in bytes.
        window_bytes: u64,
    },
    /// Zipf-distributed lines (`P(line r) ∝ 1/r`, hottest at the region
    /// base) — hash-table probes keyed by natural-language words or
    /// skewed-degree graph vertices, where a few hot keys absorb most
    /// probes and stay cache-resident.
    Zipf,
}

/// Resumable generator of addresses for `(pattern, region)`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AccessCursor {
    region: Region,
    pattern: AccessPattern,
    pos: u64,
    rng_state: u64,
    emitted: u64,
    /// `ln(lines)` of the region, for the Zipf draw (0 for other patterns).
    ln_lines: f64,
}

impl AccessCursor {
    /// Creates a cursor. `seed` drives the random patterns; sequential and
    /// strided patterns ignore it.
    pub fn new(region: Region, pattern: AccessPattern, seed: u64) -> Self {
        let ln_lines = match pattern {
            AccessPattern::Zipf => (zipf_lines(region) as f64).ln(),
            _ => 0.0,
        };
        Self { region, pattern, pos: 0, rng_state: seed | 1, emitted: 0, ln_lines }
    }

    /// The region this cursor walks.
    pub fn region(&self) -> Region {
        self.region
    }

    /// Produces the next address.
    #[inline]
    pub fn next_addr(&mut self) -> u64 {
        let mut addr = [0];
        self.fill(&mut addr);
        addr[0]
    }

    /// Writes the next `out.len()` addresses to `out`, in order: exactly
    /// what as many calls of [`AccessCursor::next_addr`] return, with the
    /// pattern decided once for the whole run.
    #[inline]
    pub fn fill(&mut self, out: &mut [u64]) {
        let base = self.region.base;
        let len = self.region.bytes.max(LINE_BYTES);
        let rng = &mut self.rng_state;
        match self.pattern {
            AccessPattern::Sequential => {
                let mut pos = self.pos;
                for a in out.iter_mut() {
                    *a = base + pos;
                    // `pos < len` and `LINE_BYTES <= len`, so one
                    // subtraction is exactly `% len`.
                    pos += LINE_BYTES;
                    if pos >= len {
                        pos -= len;
                    }
                }
                self.pos = pos;
            }
            AccessPattern::Strided { stride_bytes } => {
                let step = stride_bytes.max(1);
                let mut pos = self.pos;
                for a in out.iter_mut() {
                    *a = base + pos;
                    pos = (pos + step) % len;
                }
                self.pos = pos;
            }
            AccessPattern::Random => {
                let lines = (len / LINE_BYTES).max(1);
                for a in out.iter_mut() {
                    *a = base + next_rand(rng) % lines * LINE_BYTES;
                }
            }
            AccessPattern::Zipf => {
                // Inverse-CDF sampling of P(rank ≤ r) ∝ ln r for s = 1:
                // rank = lines^u with u uniform in [0, 1).
                let lines = zipf_lines(self.region);
                let ln_lines = self.ln_lines;
                for a in out.iter_mut() {
                    let u = next_rand(rng) as f64 / (u64::MAX as f64 + 1.0);
                    let line = zipf_rank(lines, ln_lines, u).saturating_sub(1).min(lines - 1);
                    *a = base + line * LINE_BYTES;
                }
            }
            AccessPattern::RandomWindow { window_bytes } => {
                let window = window_bytes.clamp(LINE_BYTES, len);
                let window_lines = (window / LINE_BYTES).max(1);
                let slide = len.saturating_sub(window).max(1);
                let mut pos = self.pos;
                for (a, emitted) in out.iter_mut().zip(self.emitted..) {
                    let line_in_window = next_rand(rng) % window_lines;
                    *a = base + pos + line_in_window * LINE_BYTES;
                    // Advance the window one line per `window_lines`
                    // emissions so the working set slides through the
                    // region.
                    if emitted % window_lines == window_lines - 1 {
                        pos = (pos + LINE_BYTES) % slide;
                    }
                }
                self.pos = pos;
            }
        }
        self.emitted += out.len() as u64;
    }
}

/// One xorshift64* draw: fast, deterministic, good enough for address
/// spreading.
#[inline]
fn next_rand(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Number of lines a Zipf cursor draws from.
fn zipf_lines(region: Region) -> u64 {
    (region.bytes.max(LINE_BYTES) / LINE_BYTES).max(1)
}

/// `lines^u` truncated to an integer, equal to `(lines as f64).powf(u) as
/// u64`.
///
/// `exp(u · ln lines)` is about a third cheaper than `powf`. Rounding
/// `ln lines` and the product leaves an absolute error of at most
/// `u · ln lines · ε ≤ 44.4 ε` in the exponent (any `u64` line count),
/// which `exp` turns into the same relative error; with ≤ 1 ulp each for
/// `exp` and `powf` the two results differ by under 47 ε relative. So
/// unless the result lies within 64 ε of an integer, both truncate to the
/// same rank; inside that band this falls back to `powf` itself.
#[inline]
fn zipf_rank(lines: u64, ln_lines: f64, u: f64) -> u64 {
    let fast = (u * ln_lines).exp();
    let rank = fast as u64;
    if dist_to_integer(fast, rank) <= 64.0 * f64::EPSILON * fast {
        (lines as f64).powf(u) as u64
    } else {
        rank
    }
}

/// `(x - x.round()).abs()` for `1 ≤ x < 2^64`, given `trunc = x as u64`,
/// without a call to `round`. `trunc as f64` is exact (below 2^53 every
/// integer is a double, above it `x` is one), and so are `x - trunc` and
/// `1 - frac` (Sterbenz: both operand pairs lie within a factor of two of
/// each other). The nearer of the two is the distance to `x.round()`, a
/// tie at one half included.
#[inline]
fn dist_to_integer(x: f64, trunc: u64) -> f64 {
    let frac = x - trunc as f64;
    frac.min(1.0 - frac)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region() -> Region {
        Region::new(0x1000, 4096)
    }

    #[test]
    fn sequential_walks_lines_and_wraps() {
        let mut c = AccessCursor::new(region(), AccessPattern::Sequential, 0);
        assert_eq!(c.next_addr(), 0x1000);
        assert_eq!(c.next_addr(), 0x1040);
        for _ in 0..(4096 / 64 - 2) {
            c.next_addr();
        }
        assert_eq!(c.next_addr(), 0x1000, "wraps to base");
    }

    #[test]
    fn strided_steps_by_stride() {
        let mut c = AccessCursor::new(region(), AccessPattern::Strided { stride_bytes: 256 }, 0);
        assert_eq!(c.next_addr(), 0x1000);
        assert_eq!(c.next_addr(), 0x1100);
        assert_eq!(c.next_addr(), 0x1200);
    }

    #[test]
    fn random_stays_in_region_and_spreads() {
        let r = region();
        let mut c = AccessCursor::new(r, AccessPattern::Random, 7);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let a = c.next_addr();
            assert!(a >= r.base && a < r.base + r.bytes);
            assert_eq!(a % LINE_BYTES, 0);
            seen.insert(a);
        }
        // 64 distinct lines exist; nearly all should be touched.
        assert!(seen.len() > 50, "{}", seen.len());
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let mut a = AccessCursor::new(region(), AccessPattern::Random, 3);
        let mut b = AccessCursor::new(region(), AccessPattern::Random, 3);
        let mut c = AccessCursor::new(region(), AccessPattern::Random, 4);
        let va: Vec<u64> = (0..32).map(|_| a.next_addr()).collect();
        let vb: Vec<u64> = (0..32).map(|_| b.next_addr()).collect();
        let vc: Vec<u64> = (0..32).map(|_| c.next_addr()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn random_window_confined_then_slides() {
        let r = Region::new(0, 1 << 20);
        let window = 4096u64;
        let mut c = AccessCursor::new(r, AccessPattern::RandomWindow { window_bytes: window }, 5);
        // Early accesses confined near the start.
        for _ in 0..32 {
            let a = c.next_addr();
            assert!(a < 3 * window, "early access escaped the window: {a}");
        }
        // After many emissions the window has slid forward.
        for _ in 0..100_000 {
            c.next_addr();
        }
        let late = c.next_addr();
        assert!(late > window, "window never slid: {late}");
    }

    #[test]
    fn zipf_is_skewed_toward_base() {
        let r = Region::new(0, 1 << 20); // 16384 lines
        let mut c = AccessCursor::new(r, AccessPattern::Zipf, 9);
        let mut front = 0usize;
        let mut seen_back_half = false;
        for _ in 0..10_000 {
            let a = c.next_addr();
            assert!(a < r.base + r.bytes);
            if a < r.base + (r.bytes / 64) {
                front += 1; // hottest ~1.6% of lines
            }
            if a >= r.base + r.bytes / 2 {
                seen_back_half = true;
            }
        }
        assert!(front > 5_000, "zipf mass concentrates at the base: {front}");
        assert!(seen_back_half, "but the cold tail is still touched");
    }

    #[test]
    fn zipf_rank_truncates_like_powf() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for lines in [1u64, 2, 3, 4, 100, 16_384, 1 << 20, 6_000_001, u64::MAX >> 6] {
            let ln_lines = (lines as f64).ln();
            for _ in 0..20_000 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let u = state as f64 / (u64::MAX as f64 + 1.0);
                let expected = (lines as f64).powf(u) as u64;
                assert_eq!(zipf_rank(lines, ln_lines, u), expected, "lines {lines}, u {u}");
            }
        }
        // Exact integer powers sit inside the guard band and take `powf`.
        assert_eq!(zipf_rank(4, 4f64.ln(), 0.5), 2);
        assert_eq!(zipf_rank(1, 0.0, 0.7), 1);
    }

    #[test]
    fn dist_to_integer_matches_round() {
        let round_dist = |x: f64| (x - x.round()).abs();
        let check = |x: f64| {
            let got = dist_to_integer(x, x as u64);
            assert_eq!(got.to_bits(), round_dist(x).to_bits(), "x = {x:e}");
        };
        // Integers, small and up to the top of the `u64` range.
        for k in (1u64..2_000).chain([1 << 52, (1 << 53) - 1, 1 << 53, 1 << 63, u64::MAX]) {
            check(k as f64);
        }
        // Half-integers are ties, which `round` breaks away from zero.
        // The widest binade that still holds them is [2^51, 2^52); from
        // 2^52 on `k + 0.5` rounds to an integer, which is checked too.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..20_000 {
            let k = next_rand(&mut state);
            check((1u64 << 51 | k >> 13) as f64 + 0.5);
            check((1u64 << 52 | k >> 12) as f64 + 0.5);
            check((k % 1_000 + 1) as f64 + 0.5);
            // Random values in [1, 2^64): uniform mantissas, every exponent.
            let mantissa = 1.0 + (k >> 11) as f64 / (1u64 << 53) as f64;
            check(mantissa * (2f64).powi((k % 64) as i32));
        }
    }

    #[test]
    fn zero_sized_region_safe() {
        let mut c = AccessCursor::new(Region::new(0x40, 0), AccessPattern::Sequential, 0);
        assert_eq!(c.next_addr(), 0x40);
        let mut c = AccessCursor::new(Region::new(0x40, 0), AccessPattern::Random, 1);
        let a = c.next_addr();
        assert_eq!(a, 0x40);
    }

    #[test]
    fn region_lines_minimum_one() {
        assert_eq!(Region::new(0, 0).lines(), 1);
        assert_eq!(Region::new(0, 640).lines(), 10);
    }
}
