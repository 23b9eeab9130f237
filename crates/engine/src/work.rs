//! Work items, tasks, stages, and jobs — the cost trace the scheduler
//! executes.
//!
//! A [`WorkItem`] is the atom of execution: a run of instructions attributed
//! to a call-stack path, touching one memory region with one access pattern,
//! optionally stalled on IO. A [`Task`] is the unit of scheduling (one Spark
//! task / one Hadoop map or reduce attempt): a base call-stack prefix plus a
//! sequence of items. A [`Stage`] barriers tasks (Spark stages; Hadoop map
//! wave vs reduce wave), and a [`Job`] is the ordered list of stages.

use serde::{Deserialize, Serialize};

use simprof_sim::{AccessPattern, Region};

use crate::methods::MethodId;

/// One contiguous piece of attributed work.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkItem {
    /// Call-stack path appended below the owning task's base path while this
    /// item runs.
    pub path: Vec<MethodId>,
    /// Instructions this item retires (always ≥ 1).
    pub instrs: u64,
    /// Memory intensity: accesses per 1000 instructions.
    pub accesses_per_kinstr: u32,
    /// How the accesses walk `region`.
    pub pattern: AccessPattern,
    /// The region touched.
    pub region: Region,
    /// IO stall cycles spread uniformly across the item's execution.
    pub io_stall_cycles: u64,
    /// Shuffle bytes this item fetches (0 for non-fetch items). Lets the
    /// fault layer price a lost-fetch recovery for exactly this item.
    #[serde(default)]
    pub shuffle_bytes: u64,
    /// Seed for the item's access-pattern randomness.
    pub seed: u64,
}

impl WorkItem {
    /// Creates a compute item. `instrs` is clamped to at least 1 so every
    /// item makes forward progress under the quantum scheduler.
    pub fn compute(
        path: Vec<MethodId>,
        instrs: u64,
        accesses_per_kinstr: u32,
        pattern: AccessPattern,
        region: Region,
        seed: u64,
    ) -> Self {
        Self {
            path,
            instrs: instrs.max(1),
            accesses_per_kinstr,
            pattern,
            region,
            io_stall_cycles: 0,
            shuffle_bytes: 0,
            seed,
        }
    }

    /// Attaches an IO stall to this item (lazily overlapped IO, e.g. a
    /// record reader feeding a mapper), returning the modified item.
    pub fn with_io_stall(mut self, stall_cycles: u64) -> Self {
        self.io_stall_cycles += stall_cycles;
        self
    }

    /// Marks this item as a shuffle fetch of `bytes`, making it eligible
    /// for lost-fetch fault injection, returning the modified item.
    pub fn with_shuffle_bytes(mut self, bytes: u64) -> Self {
        self.shuffle_bytes = bytes;
        self
    }

    /// Creates an IO item: a few instructions of buffer management plus a
    /// stall, streaming through `region`.
    pub fn io(
        path: Vec<MethodId>,
        instrs: u64,
        stall_cycles: u64,
        region: Region,
        seed: u64,
    ) -> Self {
        Self {
            path,
            instrs: instrs.max(1),
            accesses_per_kinstr: 30,
            pattern: AccessPattern::Sequential,
            region,
            io_stall_cycles: stall_cycles,
            shuffle_bytes: 0,
            seed,
        }
    }
}

/// The unit of scheduling.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Task {
    /// Call-stack prefix shared by every item (executor / task-runner
    /// framework methods).
    pub base_path: Vec<MethodId>,
    /// The item sequence, executed in order.
    pub items: Vec<WorkItem>,
}

impl Task {
    /// Creates a task.
    pub fn new(base_path: Vec<MethodId>, items: Vec<WorkItem>) -> Self {
        Self { base_path, items }
    }

    /// Total instructions across all items.
    pub fn total_instrs(&self) -> u64 {
        self.items.iter().map(|i| i.instrs).sum()
    }
}

/// A barrier-separated group of tasks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Stage {
    /// Human-readable stage name ("map-stage-0", "reduce-stage-1").
    pub name: String,
    /// The tasks; the scheduler distributes them over executor threads.
    pub tasks: Vec<Task>,
}

impl Stage {
    /// Creates a stage.
    pub fn new(name: impl Into<String>, tasks: Vec<Task>) -> Self {
        Self { name: name.into(), tasks }
    }

    /// Total instructions across all tasks.
    pub fn total_instrs(&self) -> u64 {
        self.tasks.iter().map(Task::total_instrs).sum()
    }
}

/// An ordered list of stages — one data-analytic job.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Job {
    /// The stages, executed with a barrier between consecutive stages.
    pub stages: Vec<Stage>,
}

impl Job {
    /// Creates a job from stages.
    pub fn new(stages: Vec<Stage>) -> Self {
        Self { stages }
    }

    /// Total instructions in the job.
    pub fn total_instrs(&self) -> u64 {
        self.stages.iter().map(Stage::total_instrs).sum()
    }

    /// Total number of tasks in the job.
    pub fn total_tasks(&self) -> usize {
        self.stages.iter().map(|s| s.tasks.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region() -> Region {
        Region::new(0x1000, 1024)
    }

    #[test]
    fn compute_clamps_instrs() {
        let w = WorkItem::compute(vec![], 0, 10, AccessPattern::Sequential, region(), 0);
        assert_eq!(w.instrs, 1);
        assert_eq!(w.io_stall_cycles, 0);
    }

    #[test]
    fn io_item_has_stall() {
        let w = WorkItem::io(vec![], 100, 5000, region(), 0);
        assert_eq!(w.io_stall_cycles, 5000);
        assert_eq!(w.pattern, AccessPattern::Sequential);
    }

    #[test]
    fn totals_roll_up() {
        let mk = |n| WorkItem::compute(vec![], n, 0, AccessPattern::Sequential, region(), 0);
        let t1 = Task::new(vec![], vec![mk(100), mk(200)]);
        let t2 = Task::new(vec![], vec![mk(50)]);
        assert_eq!(t1.total_instrs(), 300);
        let stage = Stage::new("s", vec![t1, t2]);
        assert_eq!(stage.total_instrs(), 350);
        let job = Job::new(vec![stage.clone(), stage]);
        assert_eq!(job.total_instrs(), 700);
        assert_eq!(job.total_tasks(), 4);
    }
}
