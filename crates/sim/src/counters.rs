//! Hardware-counter state.
//!
//! The analog of the paper's `perf_event` collector state: monotonically
//! increasing per-thread counts of instructions, cycles, cache misses at each
//! level, and IO stall cycles. The profiler reads *deltas* between sampling
//! unit boundaries.

use serde::{Deserialize, Serialize};
use std::ops::Sub;

/// A snapshot of one hardware-thread's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counters {
    /// Retired instructions.
    pub instructions: u64,
    /// Elapsed core cycles (including stalls).
    pub cycles: u64,
    /// Memory accesses issued.
    pub accesses: u64,
    /// L1D misses.
    pub l1_misses: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// Last-level-cache misses (DRAM accesses).
    pub llc_misses: u64,
    /// Cycles stalled on (simulated) disk/network IO.
    pub io_stall_cycles: u64,
}

impl Counters {
    /// Cycles per instruction; `0` when no instructions retired.
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cycles as f64 / self.instructions as f64
        }
    }

    /// Instructions per cycle; `0` when no cycles elapsed.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// LLC misses per thousand instructions (MPKI); `0` without instructions.
    pub fn llc_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.llc_misses as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// L1 miss rate over issued accesses; `0` without accesses.
    pub fn l1_miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.l1_misses as f64 / self.accesses as f64
        }
    }
}

impl Sub for Counters {
    type Output = Counters;

    /// Delta between two snapshots (`later - earlier`). Saturates rather than
    /// panicking so a torn read can never poison a whole profile.
    fn sub(self, rhs: Counters) -> Counters {
        Counters {
            instructions: self.instructions.saturating_sub(rhs.instructions),
            cycles: self.cycles.saturating_sub(rhs.cycles),
            accesses: self.accesses.saturating_sub(rhs.accesses),
            l1_misses: self.l1_misses.saturating_sub(rhs.l1_misses),
            l2_misses: self.l2_misses.saturating_sub(rhs.l2_misses),
            llc_misses: self.llc_misses.saturating_sub(rhs.llc_misses),
            io_stall_cycles: self.io_stall_cycles.saturating_sub(rhs.io_stall_cycles),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpi_ipc_inverse() {
        let c = Counters { instructions: 100, cycles: 250, ..Default::default() };
        assert_eq!(c.cpi(), 2.5);
        assert_eq!(c.ipc(), 0.4);
    }

    #[test]
    fn zero_guards() {
        let c = Counters::default();
        assert_eq!(c.cpi(), 0.0);
        assert_eq!(c.ipc(), 0.0);
        assert_eq!(c.llc_mpki(), 0.0);
        assert_eq!(c.l1_miss_rate(), 0.0);
    }

    #[test]
    fn delta_subtracts_fieldwise() {
        let a = Counters {
            instructions: 10,
            cycles: 20,
            accesses: 5,
            l1_misses: 2,
            l2_misses: 1,
            llc_misses: 1,
            io_stall_cycles: 3,
        };
        let b = Counters {
            instructions: 25,
            cycles: 60,
            accesses: 12,
            l1_misses: 6,
            l2_misses: 2,
            llc_misses: 1,
            io_stall_cycles: 10,
        };
        let d = b - a;
        assert_eq!(d.instructions, 15);
        assert_eq!(d.cycles, 40);
        assert_eq!(d.accesses, 7);
        assert_eq!(d.l1_misses, 4);
        assert_eq!(d.l2_misses, 1);
        assert_eq!(d.llc_misses, 0);
        assert_eq!(d.io_stall_cycles, 7);
    }

    #[test]
    fn delta_saturates() {
        let a = Counters { instructions: 10, ..Default::default() };
        let d = Counters::default() - a;
        assert_eq!(d.instructions, 0);
    }

    #[test]
    fn mpki() {
        let c = Counters { instructions: 2000, llc_misses: 6, ..Default::default() };
        assert_eq!(c.llc_mpki(), 3.0);
    }
}
