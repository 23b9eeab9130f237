//! The private-cache walk: L1D → L2 → (shared) LLC.
//!
//! One [`PrivateCaches`] instance exists per core; the LLC is owned by the
//! [`crate::machine::Machine`] and shared across cores, which is how phase
//! interleaving between executor threads perturbs each other's performance
//! (one of the paper's four sources of intra-phase heterogeneity, §III-B-1).

use serde::{Deserialize, Serialize};

use crate::access::AccessCursor;
use crate::cache::{either, Cache, CacheConfig, LruCache, RecencyWord};

/// Which level served a memory access. Variants are in depth order
/// (`outcome as u64` = number of levels missed), which the machine's
/// counter update relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessOutcome {
    /// Served by the L1 data cache.
    L1Hit,
    /// Missed L1, hit L2.
    L2Hit,
    /// Missed L1+L2, hit the shared LLC.
    LlcHit,
    /// Missed the whole hierarchy; DRAM access.
    Memory,
}

/// One core's private L1D and L2.
#[derive(Debug, Clone)]
pub struct PrivateCaches {
    /// L1 data cache.
    pub l1: Cache,
    /// Unified L2.
    pub l2: Cache,
    /// Addresses of the run [`PrivateCaches::access_run`] is walking:
    /// kept between runs so a short run does not clear a fresh buffer.
    block: [u64; BLOCK],
}

impl PrivateCaches {
    /// Builds empty private caches with the given geometries. L2 keeps a
    /// line → way index ([`Cache::with_line_index`]); L1 scans its sets:
    /// indexing it too bought no measurable speed and would cost another
    /// byte per simulated line per core.
    pub fn new(l1: CacheConfig, l2: CacheConfig) -> Self {
        Self { l1: Cache::new(l1), l2: Cache::with_line_index(l2), block: [0; BLOCK] }
    }

    /// Walks one address through L1 → L2 → `llc` and reports the serving
    /// level. All levels allocate on miss (inclusive-ish fill policy).
    #[inline]
    pub fn access(&mut self, llc: &mut Cache, addr: u64) -> AccessOutcome {
        either!(&mut self.l1, l1 => either!(&mut self.l2, l2 => either!(&mut *llc, llc => {
            walk(l1, l2, llc, addr)
        })))
    }

    /// Walks the next `n` addresses of `cursor` through L1 → L2 → `llc`,
    /// reporting each serving level to `served` in order. The loop is
    /// built once for the recency widths of the three levels, so no access
    /// dispatches on them. Addresses are drawn 128 at a time, and before
    /// each walk the L2 and LLC line-index entries of the address four
    /// places ahead are read ([`LruCache::preload`]), so they are already
    /// in the host's cache when their turn comes; that read changes no
    /// model state.
    #[inline]
    pub(crate) fn access_run(
        &mut self,
        llc: &mut Cache,
        cursor: &mut AccessCursor,
        n: u64,
        mut served: impl FnMut(AccessOutcome),
    ) {
        let Self { l1, l2, block } = self;
        either!(l1, l1 => either!(l2, l2 => either!(&mut *llc, llc => {
            let mut left = n;
            while left > 0 {
                let addrs = &mut block[..left.min(BLOCK as u64) as usize];
                cursor.fill(addrs);
                for (i, &addr) in addrs.iter().enumerate() {
                    if let Some(&ahead) = addrs.get(i + LOOKAHEAD) {
                        l2.preload(ahead);
                        llc.preload(ahead);
                    }
                    served(walk(l1, l2, llc, addr));
                }
                left -= addrs.len() as u64;
            }
        })))
    }

    /// Flushes a fraction of both private levels (OS-migration model).
    pub fn flush_fraction(&mut self, fraction: f64, seed: u64) {
        self.l1.flush_fraction(fraction, seed);
        self.l2.flush_fraction(fraction, seed ^ 0xA5A5_A5A5);
    }
}

/// Addresses [`PrivateCaches::access_run`] draws from the cursor at once:
/// more than the engine's chunks issue (at most 127 on the paper-scale
/// catalog), so a chunk is one block and the lookahead spans all of it.
const BLOCK: usize = 128;

/// How many accesses ahead of the walk [`PrivateCaches::access_run`]
/// preloads line-index entries.
const LOOKAHEAD: usize = 4;

/// One address through L1 → L2 → LLC; every level allocates on miss.
#[inline]
fn walk<A: RecencyWord, B: RecencyWord, C: RecencyWord>(
    l1: &mut LruCache<A>,
    l2: &mut LruCache<B>,
    llc: &mut LruCache<C>,
    addr: u64,
) -> AccessOutcome {
    if l1.access(addr) {
        AccessOutcome::L1Hit
    } else if l2.access(addr) {
        AccessOutcome::L2Hit
    } else if llc.access(addr) {
        AccessOutcome::LlcHit
    } else {
        AccessOutcome::Memory
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (PrivateCaches, Cache) {
        let pc = PrivateCaches::new(CacheConfig::new(1024, 2), CacheConfig::new(4096, 4));
        let llc = Cache::new(CacheConfig::new(16 * 1024, 8));
        (pc, llc)
    }

    #[test]
    fn first_touch_goes_to_memory() {
        let (mut pc, mut llc) = setup();
        assert_eq!(pc.access(&mut llc, 0), AccessOutcome::Memory);
        assert_eq!(pc.access(&mut llc, 0), AccessOutcome::L1Hit);
    }

    #[test]
    fn l2_serves_l1_evictions() {
        let (mut pc, mut llc) = setup();
        // Fill far beyond L1 (1 KiB = 16 lines) but within L2 (4 KiB = 64 lines).
        for i in 0..64u64 {
            pc.access(&mut llc, i * 64);
        }
        // Line 0 evicted from L1 but resident in L2.
        assert_eq!(pc.access(&mut llc, 0), AccessOutcome::L2Hit);
    }

    #[test]
    fn llc_serves_l2_evictions() {
        let (mut pc, mut llc) = setup();
        // Beyond L2 (64 lines) but within LLC (256 lines).
        for i in 0..256u64 {
            pc.access(&mut llc, i * 64);
        }
        assert_eq!(pc.access(&mut llc, 0), AccessOutcome::LlcHit);
    }

    #[test]
    fn llc_shared_across_cores() {
        let (mut a, mut llc) = setup();
        let mut b = PrivateCaches::new(CacheConfig::new(1024, 2), CacheConfig::new(4096, 4));
        // Core A faults line 0 into the LLC.
        a.access(&mut llc, 0);
        // Core B misses privately but hits the shared LLC.
        assert_eq!(b.access(&mut llc, 0), AccessOutcome::LlcHit);
    }

    #[test]
    fn flush_fraction_degrades_hits() {
        let (mut pc, mut llc) = setup();
        for i in 0..16u64 {
            pc.access(&mut llc, i * 64);
        }
        pc.flush_fraction(1.0, 3);
        // L1 and L2 cold again; LLC still warm.
        assert_eq!(pc.access(&mut llc, 0), AccessOutcome::LlcHit);
    }
}
