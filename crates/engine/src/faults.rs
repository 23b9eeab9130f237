//! Deterministic runtime fault injection and the failure log.
//!
//! Data-analytic frameworks are built to "tolerate node failures" (paper
//! §I): executors crash and their tasks are re-queued, slow nodes are
//! raced by speculative copies, shuffle fetches fail and are re-issued,
//! and profiler snapshots get dropped under load. This module models those
//! runtime faults as a seeded [`FaultPlan`] the scheduler consults while a
//! job runs.
//!
//! Every decision is a pure SplitMix64 hash of `(seed, salt, coordinates)`,
//! so a given plan replays bit-identically, and a plan whose rates are all
//! zero leaves the schedule byte-for-byte identical to a fault-free run.

use serde::{Deserialize, Serialize};

use crate::hdfs::Hdfs;
use crate::net::Network;

/// Domain-separation salts for the per-decision hash streams.
const SALT_CRASH: u64 = 0xC4A5_11ED_0000_0001;
const SALT_CRASH_POINT: u64 = 0xC4A5_11ED_0000_0002;

/// Seeded description of the runtime faults to inject into one run.
///
/// All rates are in parts per million of the relevant decision population
/// (task attempts for crashes/stragglers, shuffle-fetch items for losses,
/// profiler snapshots for drops). The default plan is *quiet*: every rate
/// is zero and execution is byte-identical to a fault-free run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for every fault decision stream.
    pub seed: u64,
    /// Probability (ppm) that a task attempt's executor crashes mid-task.
    pub crash_ppm: u32,
    /// Retry budget per task: a task is re-queued after a crash at most
    /// this many times before being abandoned.
    pub max_retries: u32,
    /// Probability (ppm) that a task attempt runs on a straggling executor.
    pub straggler_ppm: u32,
    /// Slowdown multiple of a straggling executor (≥ 2 to have any effect).
    pub straggler_factor: u32,
    /// Launch a speculative copy of each straggling task and take the
    /// first finisher (Hadoop/Spark speculative execution).
    pub speculative: bool,
    /// Probability (ppm) that a shuffle-fetch work item loses its fetch
    /// and pays a full re-fetch through the network + disk models.
    pub shuffle_loss_ppm: u32,
    /// Probability (ppm) that the profiler drops any given stack snapshot
    /// (consumed by the profiler crate, not the scheduler).
    pub snapshot_drop_ppm: u32,
    /// Network cost model used to price lost-fetch recoveries.
    pub network: Network,
    /// Disk cost model used to price lost-fetch recoveries.
    pub hdfs: Hdfs,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            crash_ppm: 0,
            max_retries: 3,
            straggler_ppm: 0,
            straggler_factor: 4,
            speculative: true,
            shuffle_loss_ppm: 0,
            snapshot_drop_ppm: 0,
            network: Network::default(),
            hdfs: Hdfs::default(),
        }
    }
}

impl FaultPlan {
    /// A quiet plan (no faults) — identical to `Default`.
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan injecting all engine fault classes at `ppm` each.
    pub fn uniform(ppm: u32, seed: u64) -> Self {
        Self {
            seed,
            crash_ppm: ppm,
            straggler_ppm: ppm,
            shuffle_loss_ppm: ppm,
            snapshot_drop_ppm: ppm,
            ..Self::default()
        }
    }

    /// True when no engine-side fault can ever fire (the scheduler takes
    /// its exact fault-free fast path).
    pub fn is_quiet(&self) -> bool {
        self.crash_ppm == 0 && self.straggler_ppm == 0 && self.shuffle_loss_ppm == 0
    }

    /// If this `(stage, task, attempt)` crashes, the task-relative retired
    /// instruction count at which the executor dies (in `1..=total_instrs`).
    pub fn crash_point(
        &self,
        stage: u64,
        task: u64,
        attempt: u32,
        total_instrs: u64,
    ) -> Option<u64> {
        if self.crash_ppm == 0 || total_instrs == 0 {
            return None;
        }
        let h = mix(self.seed, SALT_CRASH, stage, task, attempt as u64);
        if h % 1_000_000 < self.crash_ppm as u64 {
            let p = mix(self.seed, SALT_CRASH_POINT, stage, task, attempt as u64);
            Some(1 + p % total_instrs)
        } else {
            None
        }
    }

    /// Slowdown factor for this `(stage, task, attempt)`: 1 for a healthy
    /// executor, `straggler_factor` for a straggler.
    pub fn straggler_factor_for(&self, stage: u64, task: u64, attempt: u32) -> u32 {
        if self.straggler_ppm == 0 {
            return 1;
        }
        let h = mix(self.seed, SALT_STRAGGLER, stage, task, attempt as u64);
        if h % 1_000_000 < self.straggler_ppm as u64 {
            self.straggler_factor.max(1)
        } else {
            1
        }
    }

    /// Does this `(stage, task, item, attempt)` shuffle fetch get lost?
    pub fn fetch_lost(&self, stage: u64, task: u64, item: u64, attempt: u32) -> bool {
        if self.shuffle_loss_ppm == 0 {
            return false;
        }
        let h = mix(self.seed, SALT_FETCH, stage ^ item.rotate_left(17), task, attempt as u64);
        h % 1_000_000 < self.shuffle_loss_ppm as u64
    }

    /// Does the profiler drop snapshot `snapshot` of sampling unit `unit`?
    pub fn snapshot_dropped(&self, unit: u64, snapshot: u64) -> bool {
        if self.snapshot_drop_ppm == 0 {
            return false;
        }
        let h = mix(self.seed, SALT_SNAPSHOT, unit, snapshot, 0);
        h % 1_000_000 < self.snapshot_drop_ppm as u64
    }

    /// Stall cycles to recover one lost shuffle fetch of `bytes`: the map
    /// side re-serves the partition from disk and the bytes cross the
    /// network again, fully remote this time.
    pub fn refetch_stall(&self, bytes: u64) -> u64 {
        (self.hdfs.read_stall(bytes) / 2).saturating_add(self.network.shuffle_stall(bytes, 1.0))
    }
}

const SALT_STRAGGLER: u64 = 0x57A6_617E_0000_0003;
const SALT_FETCH: u64 = 0xFE7C_4105_0000_0004;
const SALT_SNAPSHOT: u64 = 0x5A40_D0F0_0000_0005;

/// SplitMix64-style mix over the decision coordinates.
fn mix(seed: u64, salt: u64, a: u64, b: u64, c: u64) -> u64 {
    let mut z = seed
        ^ salt
        ^ a.wrapping_mul(0xA24B_AED4_963E_E407)
        ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ c.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One recovered (or absorbed) runtime fault.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// An executor died mid-task; `lost_instrs` of progress were discarded
    /// (their machine cost stays charged — lost work is still work).
    ExecutorCrash {
        /// Stage index within the job.
        stage: usize,
        /// Task index within the stage.
        task: usize,
        /// Which attempt of the task crashed (0 = original).
        attempt: u32,
        /// Core the executor was pinned to.
        core: usize,
        /// Task-relative instructions completed when the crash hit.
        lost_instrs: u64,
    },
    /// A task burned its whole retry budget and was abandoned.
    RetriesExhausted {
        /// Stage index within the job.
        stage: usize,
        /// Task index within the stage.
        task: usize,
        /// Total attempts made (original + retries).
        attempts: u32,
    },
    /// A task attempt landed on a straggling executor.
    Straggler {
        /// Stage index within the job.
        stage: usize,
        /// Task index within the stage.
        task: usize,
        /// The straggling attempt.
        attempt: u32,
        /// Core the attempt runs on.
        core: usize,
        /// Slowdown multiple applied.
        factor: u32,
    },
    /// A speculative copy of a straggling task was enqueued.
    SpeculativeClone {
        /// Stage index within the job.
        stage: usize,
        /// Task index within the stage.
        task: usize,
        /// The straggling attempt being raced.
        original_attempt: u32,
    },
    /// The first finisher of a speculated task won; any still-running
    /// twin was killed.
    SpeculativeWin {
        /// Stage index within the job.
        stage: usize,
        /// Task index within the stage.
        task: usize,
        /// The attempt that finished first.
        winner_attempt: u32,
    },
    /// A shuffle fetch was lost and re-issued; the re-fetch stall was
    /// charged to the fetching core.
    ShuffleFetchLost {
        /// Stage index within the job.
        stage: usize,
        /// Task index within the stage.
        task: usize,
        /// Item index within the task.
        item: usize,
        /// Core that paid the re-fetch.
        core: usize,
        /// Shuffle bytes re-fetched.
        bytes: u64,
        /// Stall cycles charged for the recovery.
        penalty_cycles: u64,
    },
}

impl FaultEvent {
    /// The metrics-registry counter this event kind tallies under.
    pub fn metric_name(&self) -> &'static str {
        match self {
            FaultEvent::ExecutorCrash { .. } => "engine.faults.executor_crash",
            FaultEvent::RetriesExhausted { .. } => "engine.faults.retries_exhausted",
            FaultEvent::Straggler { .. } => "engine.faults.straggler",
            FaultEvent::SpeculativeClone { .. } => "engine.faults.speculative_clone",
            FaultEvent::SpeculativeWin { .. } => "engine.faults.speculative_win",
            FaultEvent::ShuffleFetchLost { .. } => "engine.faults.shuffle_fetch_lost",
        }
    }
}

/// Everything that went wrong (and was recovered) during one run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultLog {
    /// Events in the order the scheduler observed them.
    pub events: Vec<FaultEvent>,
}

impl FaultLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an event, tallying it under `engine.faults.<kind>` in the
    /// observability metrics registry (a no-op without an active session)
    /// and, when an event sink is streaming, emitting the full typed
    /// payload to the event log.
    pub fn push(&mut self, event: FaultEvent) {
        simprof_obs::counter_add(event.metric_name(), 1);
        if simprof_obs::event_streaming() {
            let detail = serde_json::to_value(&event);
            simprof_obs::fault_event(event.metric_name(), detail);
        }
        self.events.push(event);
    }

    /// True when nothing went wrong.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Number of executor crashes.
    pub fn crashes(&self) -> usize {
        self.count(|e| matches!(e, FaultEvent::ExecutorCrash { .. }))
    }

    /// Number of straggling attempts.
    pub fn stragglers(&self) -> usize {
        self.count(|e| matches!(e, FaultEvent::Straggler { .. }))
    }

    /// Number of lost shuffle fetches.
    pub fn lost_fetches(&self) -> usize {
        self.count(|e| matches!(e, FaultEvent::ShuffleFetchLost { .. }))
    }

    /// Number of tasks abandoned after exhausting their retry budget.
    pub fn abandoned_tasks(&self) -> usize {
        self.count(|e| matches!(e, FaultEvent::RetriesExhausted { .. }))
    }

    /// Number of speculative races won (= speculated tasks that finished).
    pub fn speculative_wins(&self) -> usize {
        self.count(|e| matches!(e, FaultEvent::SpeculativeWin { .. }))
    }

    fn count(&self, pred: impl Fn(&FaultEvent) -> bool) -> usize {
        self.events.iter().filter(|e| pred(e)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_never_fires() {
        let p = FaultPlan::none();
        assert!(p.is_quiet());
        for i in 0..1000 {
            assert_eq!(p.crash_point(0, i, 0, 10_000), None);
            assert_eq!(p.straggler_factor_for(0, i, 0), 1);
            assert!(!p.fetch_lost(0, i, 0, 0));
            assert!(!p.snapshot_dropped(i, 0));
        }
    }

    #[test]
    fn rates_are_roughly_respected() {
        let p = FaultPlan::uniform(200_000, 42); // 20 %
        let crashes = (0..5000).filter(|&t| p.crash_point(0, t, 0, 1000).is_some()).count();
        assert!((700..1300).contains(&crashes), "~20% of 5000: {crashes}");
        let strag = (0..5000).filter(|&t| p.straggler_factor_for(0, t, 0) > 1).count();
        assert!((700..1300).contains(&strag), "{strag}");
        let lost = (0..5000).filter(|&t| p.fetch_lost(0, t, 0, 0)).count();
        assert!((700..1300).contains(&lost), "{lost}");
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::uniform(300_000, 1);
        let b = FaultPlan::uniform(300_000, 2);
        let pattern =
            |p: &FaultPlan| (0..200).map(|t| p.crash_point(1, t, 2, 5000)).collect::<Vec<_>>();
        assert_eq!(pattern(&a), pattern(&a));
        assert_ne!(pattern(&a), pattern(&b));
    }

    #[test]
    fn crash_point_is_in_range() {
        let p = FaultPlan::uniform(1_000_000, 9); // always crashes
        for t in 0..500 {
            let at = p.crash_point(0, t, 0, 777).expect("certain crash");
            assert!((1..=777).contains(&at));
        }
    }

    #[test]
    fn attempts_decide_independently() {
        let p = FaultPlan::uniform(500_000, 3);
        // Over many tasks, some crash on attempt 0 but not attempt 1.
        let differs = (0..500).any(|t| {
            p.crash_point(0, t, 0, 100).is_some() != p.crash_point(0, t, 1, 100).is_some()
        });
        assert!(differs);
    }

    #[test]
    fn refetch_stall_scales_and_saturates() {
        let p = FaultPlan::none();
        assert!(p.refetch_stall(1 << 20) > p.refetch_stall(1 << 10));
        // Absurd sizes must not overflow.
        let _ = p.refetch_stall(u64::MAX);
    }

    #[test]
    fn log_counts_by_kind() {
        let mut log = FaultLog::new();
        assert!(log.is_empty());
        log.push(FaultEvent::ExecutorCrash {
            stage: 0,
            task: 1,
            attempt: 0,
            core: 0,
            lost_instrs: 10,
        });
        log.push(FaultEvent::Straggler { stage: 0, task: 2, attempt: 0, core: 1, factor: 4 });
        log.push(FaultEvent::ShuffleFetchLost {
            stage: 1,
            task: 0,
            item: 3,
            core: 0,
            bytes: 4096,
            penalty_cycles: 99,
        });
        log.push(FaultEvent::RetriesExhausted { stage: 0, task: 1, attempts: 4 });
        assert_eq!(log.len(), 4);
        assert_eq!(log.crashes(), 1);
        assert_eq!(log.stragglers(), 1);
        assert_eq!(log.lost_fetches(), 1);
        assert_eq!(log.abandoned_tasks(), 1);
        assert_eq!(log.speculative_wins(), 0);
    }

    #[test]
    fn log_serde_roundtrips() {
        let mut log = FaultLog::new();
        log.push(FaultEvent::SpeculativeClone { stage: 2, task: 7, original_attempt: 1 });
        log.push(FaultEvent::SpeculativeWin { stage: 2, task: 7, winner_attempt: 2 });
        let json = serde_json::to_string(&log).unwrap();
        let back: FaultLog = serde_json::from_str(&json).unwrap();
        assert_eq!(log, back);
    }
}
