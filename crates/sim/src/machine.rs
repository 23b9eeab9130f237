//! The whole modelled machine: per-core private caches and counters, one
//! shared LLC, a cost model, and a bump allocator for the simulated address
//! space.

use serde::{Deserialize, Serialize};

use crate::access::Region;
use crate::cache::{Cache, CacheConfig};
use crate::cost::CostModel;
use crate::counters::Counters;
use crate::hierarchy::{AccessOutcome, PrivateCaches};
use crate::LINE_BYTES;

/// Index of a hardware core (one executor thread is pinned per core in the
/// engine's scheduler).
pub type CoreId = usize;

/// Machine geometry + cost parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Number of cores (= concurrently executing executor threads).
    pub cores: usize,
    /// L1D geometry per core.
    pub l1: CacheConfig,
    /// L2 geometry per core.
    pub l2: CacheConfig,
    /// Shared LLC geometry (one instance per LLC domain).
    pub llc: CacheConfig,
    /// Cores per LLC domain. `0` means all cores share one LLC (a single
    /// socket); a cluster of N nodes × C cores is modelled as
    /// `cores = N*C, cores_per_llc = C` — cores only contend within their
    /// own node's LLC.
    pub cores_per_llc: usize,
    /// Cycle cost model.
    pub cost: CostModel,
}

impl MachineConfig {
    /// An i7-4820K-like machine: 4 cores, 32 KiB/8-way L1D, 256 KiB/8-way L2,
    /// 10 MiB/20-way shared LLC.
    pub fn ivy_bridge(cores: usize) -> Self {
        Self {
            cores,
            l1: CacheConfig::new(32 * 1024, 8),
            l2: CacheConfig::new(256 * 1024, 8),
            llc: CacheConfig::new(10 * 1024 * 1280, 20),
            cores_per_llc: 0,
            cost: CostModel::default(),
        }
    }

    /// A scaled-down machine for the scaled-down workloads used in tests and
    /// benches: cache capacities shrink with the data so that working-set
    /// effects (fits-in-L2, fits-in-LLC, misses-everything) still appear.
    pub fn scaled(cores: usize) -> Self {
        Self {
            cores,
            l1: CacheConfig::new(8 * 1024, 8),
            l2: CacheConfig::new(64 * 1024, 8),
            llc: CacheConfig::new(512 * 1024, 16),
            cores_per_llc: 0,
            cost: CostModel::default(),
        }
    }

    /// A scaled multi-node cluster: `nodes × cores_per_node` cores, one LLC
    /// domain per node.
    pub fn scaled_cluster(nodes: usize, cores_per_node: usize) -> Self {
        let mut cfg = Self::scaled(nodes * cores_per_node);
        cfg.cores_per_llc = cores_per_node;
        cfg
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::ivy_bridge(4)
    }
}

/// The machine model. See the crate docs for the role it plays.
///
/// # Examples
///
/// ```
/// use simprof_sim::{AccessCursor, AccessPattern, Machine, MachineConfig};
///
/// let mut machine = Machine::new(MachineConfig::scaled(1));
/// let region = machine.alloc(64 * 1024);
/// let mut cursor = AccessCursor::new(region, AccessPattern::Sequential, 7);
/// for _ in 0..10_000 {
///     machine.charge_instrs(0, 10);
///     machine.access(0, cursor.next_addr());
/// }
/// let counters = machine.counters(0);
/// assert_eq!(counters.instructions, 100_000);
/// assert!(counters.cpi() > 0.5, "memory stalls on top of base CPI");
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    config: MachineConfig,
    cores: Vec<CoreState>,
    llcs: Vec<Cache>,
    penalties: Penalties,
    next_addr: u64,
}

#[derive(Debug, Clone)]
struct CoreState {
    caches: PrivateCaches,
    counters: Counters,
    /// The LLC domain (index into `Machine::llcs`) this core belongs to.
    domain: usize,
}

/// Per-access penalty cycles by `[streaming][outcome]`, precomputed from the
/// cost model so charging a penalty needs no division.
#[derive(Debug, Clone, Copy)]
struct Penalties([[u64; 4]; 2]);

impl Penalties {
    fn new(cost: &CostModel) -> Self {
        let outcomes = [
            AccessOutcome::L1Hit,
            AccessOutcome::L2Hit,
            AccessOutcome::LlcHit,
            AccessOutcome::Memory,
        ];
        Self([
            outcomes.map(|o| cost.access_cycles(o)),
            outcomes.map(|o| cost.access_cycles_streaming(o)),
        ])
    }

    #[inline]
    fn cycles(&self, outcome: AccessOutcome, streaming: bool) -> u64 {
        self.0[streaming as usize][outcome as usize]
    }
}

impl Machine {
    /// Builds a cold machine.
    pub fn new(config: MachineConfig) -> Self {
        assert!(config.cores > 0, "machine needs at least one core");
        let cores_per_llc =
            if config.cores_per_llc == 0 { config.cores } else { config.cores_per_llc };
        let cores = (0..config.cores)
            .map(|core| CoreState {
                caches: PrivateCaches::new(config.l1, config.l2),
                counters: Counters::default(),
                domain: core / cores_per_llc,
            })
            .collect();
        let domains = config.cores.div_ceil(cores_per_llc);
        let llcs = (0..domains).map(|_| Cache::with_line_index(config.llc)).collect();
        let penalties = Penalties::new(&config.cost);
        // Start the heap away from 0 so "null" never aliases data.
        Self { config, cores, llcs, penalties, next_addr: 0x1_0000 }
    }

    /// Number of LLC domains (nodes in a cluster configuration).
    pub fn llc_domains(&self) -> usize {
        self.llcs.len()
    }

    /// The LLC domain (node) a core belongs to.
    pub fn domain_of(&self, core: CoreId) -> usize {
        self.cores[core].domain
    }

    /// The configuration this machine was built with.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Number of cores.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// Allocates a line-aligned region of the simulated address space.
    /// Regions are never freed — the model tracks addresses, not data, and
    /// job footprints are bounded.
    pub fn alloc(&mut self, bytes: u64) -> Region {
        let base = self.next_addr;
        let aligned = bytes.div_ceil(LINE_BYTES) * LINE_BYTES;
        self.next_addr += aligned.max(LINE_BYTES);
        Region::new(base, bytes)
    }

    /// Retires `n` instructions on `core`, charging base cycles.
    #[inline]
    pub fn charge_instrs(&mut self, core: CoreId, n: u64) {
        let c = &mut self.cores[core];
        c.counters.instructions += n;
        c.counters.cycles += self.config.cost.base_cycles(n);
    }

    /// Issues one memory access on `core`, walking the hierarchy, charging
    /// penalty cycles and counting misses. Latency-bound (non-streaming).
    #[inline]
    pub fn access(&mut self, core: CoreId, addr: u64) -> AccessOutcome {
        self.access_hinted(core, addr, false)
    }

    /// Issues one memory access; with `streaming = true`, miss penalties
    /// are reduced by the prefetch divisor (the scheduler passes `true` for
    /// sequential / short-stride work items).
    #[inline]
    pub fn access_hinted(&mut self, core: CoreId, addr: u64, streaming: bool) -> AccessOutcome {
        let c = &mut self.cores[core];
        let outcome = c.caches.access(&mut self.llcs[c.domain], addr);
        // Outcomes are ordered by depth: each level missed counts once.
        let depth = outcome as u64;
        c.counters.accesses += 1;
        c.counters.l1_misses += (depth >= 1) as u64;
        c.counters.l2_misses += (depth >= 2) as u64;
        c.counters.llc_misses += (depth >= 3) as u64;
        c.counters.cycles += self.penalties.cycles(outcome, streaming);
        outcome
    }

    /// Charges an IO stall (disk/HDFS/network wait) on `core`.
    #[inline]
    pub fn io_stall(&mut self, core: CoreId, cycles: u64) {
        let c = &mut self.cores[core];
        c.counters.cycles += cycles;
        c.counters.io_stall_cycles += cycles;
    }

    /// Reads `core`'s counters (a copy; the live counters keep advancing).
    pub fn counters(&self, core: CoreId) -> Counters {
        self.cores[core].counters
    }

    /// Flushes a fraction of `core`'s private caches (OS-migration model).
    pub fn flush_core_fraction(&mut self, core: CoreId, fraction: f64, seed: u64) {
        self.cores[core].caches.flush_fraction(fraction, seed);
    }

    /// Evicts a deterministic fraction of one core's LLC domain only (a
    /// node-local cold start).
    pub fn flush_domain_llc(&mut self, core: CoreId, fraction: f64, seed: u64) {
        self.llcs[self.cores[core].domain].flush_fraction(fraction, seed);
    }

    /// Evicts a deterministic fraction of every LLC domain (models other
    /// processes / co-runners trashing the LLC).
    pub fn flush_llc_fraction(&mut self, fraction: f64, seed: u64) {
        for (i, llc) in self.llcs.iter_mut().enumerate() {
            llc.flush_fraction(fraction, seed.wrapping_add(i as u64));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{AccessCursor, AccessPattern};

    fn machine() -> Machine {
        Machine::new(MachineConfig::scaled(2))
    }

    #[test]
    fn alloc_is_line_aligned_and_disjoint() {
        let mut m = machine();
        let a = m.alloc(100);
        let b = m.alloc(1);
        let c = m.alloc(0);
        assert_eq!(a.base % LINE_BYTES, 0);
        assert!(b.base >= a.base + 128, "100 B rounds to 2 lines");
        assert!(c.base > b.base);
    }

    #[test]
    fn charge_instrs_accumulates() {
        let mut m = machine();
        m.charge_instrs(0, 1000);
        m.charge_instrs(0, 1000);
        let c = m.counters(0);
        assert_eq!(c.instructions, 2000);
        assert_eq!(c.cycles, 1000); // base CPI 0.5
        assert_eq!(m.counters(1).instructions, 0, "cores are independent");
    }

    #[test]
    fn sequential_small_region_is_cheap() {
        // A 4 KiB region streamed repeatedly: after warmup, all L1 hits, so
        // CPI approaches base CPI.
        let mut m = machine();
        let r = m.alloc(4096);
        let mut cur = AccessCursor::new(r, AccessPattern::Sequential, 0);
        for _ in 0..100_000 {
            m.charge_instrs(0, 4);
            m.access(0, cur.next_addr());
        }
        let c = m.counters(0);
        assert!(c.cpi() < 0.7, "cpi {}", c.cpi());
    }

    #[test]
    fn random_large_region_is_expensive() {
        // Random accesses over 4 MiB (beyond the 512 KiB scaled LLC): high
        // miss rate, CPI far above base.
        let mut m = machine();
        let r = m.alloc(4 << 20);
        let mut cur = AccessCursor::new(r, AccessPattern::Random, 7);
        for _ in 0..10_000 {
            m.charge_instrs(0, 4);
            m.access(0, cur.next_addr());
        }
        let c = m.counters(0);
        assert!(c.cpi() > 5.0, "cpi {}", c.cpi());
        assert!(c.llc_misses > 1000, "llc misses {}", c.llc_misses);
    }

    #[test]
    fn io_stall_counts_cycles() {
        let mut m = machine();
        m.charge_instrs(0, 100);
        m.io_stall(0, 10_000);
        let c = m.counters(0);
        assert_eq!(c.io_stall_cycles, 10_000);
        assert!(c.cycles >= 10_000);
    }

    #[test]
    fn llc_contention_across_cores() {
        // Core 1 trashing the LLC raises core 0's miss rate on re-access.
        let mut m = machine();
        let r0 = m.alloc(256 * 1024);
        let mut cur0 = AccessCursor::new(r0, AccessPattern::Sequential, 0);
        // Core 0 warms its data into the hierarchy.
        for _ in 0..8192 {
            m.access(0, cur0.next_addr());
        }
        let warm_misses = m.counters(0).llc_misses;
        // Core 1 streams a huge region through the shared LLC.
        let r1 = m.alloc(8 << 20);
        let mut cur1 = AccessCursor::new(r1, AccessPattern::Sequential, 0);
        for _ in 0..200_000 {
            m.access(1, cur1.next_addr());
        }
        // Core 0's private caches are untouched but its LLC lines are gone —
        // flush private caches to expose LLC state, then re-walk.
        m.flush_core_fraction(0, 1.0, 1);
        let before = m.counters(0).llc_misses;
        let mut cur0b = AccessCursor::new(r0, AccessPattern::Sequential, 0);
        for _ in 0..4096 {
            m.access(0, cur0b.next_addr());
        }
        let after = m.counters(0).llc_misses;
        assert!(after - before > warm_misses / 2, "contention should evict core 0's LLC lines");
    }

    #[test]
    fn migration_flush_raises_cpi_transiently() {
        let mut m = machine();
        let r = m.alloc(8192);
        let mut cur = AccessCursor::new(r, AccessPattern::Sequential, 0);
        for _ in 0..4096 {
            m.access(0, cur.next_addr());
        }
        let c1 = m.counters(0);
        m.flush_core_fraction(0, 1.0, 9);
        let mut cur2 = AccessCursor::new(r, AccessPattern::Sequential, 0);
        for _ in 0..128 {
            m.access(0, cur2.next_addr());
        }
        let c2 = m.counters(0) - c1;
        assert!(c2.l1_misses > 100, "cold after migration: {}", c2.l1_misses);
    }

    #[test]
    fn llc_domains_isolate_nodes() {
        // 2 nodes × 1 core: node 1's streaming must NOT evict node 0's LLC
        // lines (separate domains), unlike the single-socket case.
        let mut m = Machine::new(MachineConfig::scaled_cluster(2, 1));
        assert_eq!(m.llc_domains(), 2);
        assert_eq!(m.domain_of(0), 0);
        assert_eq!(m.domain_of(1), 1);
        let r0 = m.alloc(128 * 1024);
        let mut cur0 = AccessCursor::new(r0, AccessPattern::Sequential, 0);
        for _ in 0..4096 {
            m.access(0, cur0.next_addr());
        }
        // Node 1 streams a huge region — through ITS OWN LLC.
        let r1 = m.alloc(8 << 20);
        let mut cur1 = AccessCursor::new(r1, AccessPattern::Sequential, 0);
        for _ in 0..200_000 {
            m.access(1, cur1.next_addr());
        }
        // Node 0's LLC still holds its lines: flush private caches and
        // re-walk; everything should hit the LLC, not DRAM.
        m.flush_core_fraction(0, 1.0, 1);
        let before = m.counters(0).llc_misses;
        let mut cur0b = AccessCursor::new(r0, AccessPattern::Sequential, 0);
        for _ in 0..2048 {
            m.access(0, cur0b.next_addr());
        }
        let new_misses = m.counters(0).llc_misses - before;
        assert!(new_misses < 64, "node 0's LLC must be untouched: {new_misses} misses");
    }

    #[test]
    fn default_single_domain() {
        let m = Machine::new(MachineConfig::scaled(4));
        assert_eq!(m.llc_domains(), 1);
        assert_eq!(m.domain_of(3), 0);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let mut cfg = MachineConfig::scaled(1);
        cfg.cores = 0;
        let _ = Machine::new(cfg);
    }
}
