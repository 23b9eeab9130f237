//! Workload scale configuration.
//!
//! One [`WorkloadConfig`] ties together everything a benchmark run needs:
//! machine geometry, scheduler/profiler settings, HDFS cost model, data
//! sizes, and the seed. The paper profiles 10 GB text inputs and 2^24-node
//! graphs with 100 M-instruction sampling units on real hardware; the scaled
//! presets shrink data and units together (keeping the paper's 10:1
//! unit-to-snapshot ratio) so a full job profile takes milliseconds to
//! seconds while preserving the working-set-vs-cache relationships that
//! produce the phase behaviour.

use simprof_engine::sched::GcModel;
use simprof_engine::{FaultPlan, Hdfs, MethodRegistry, Network, OpClass, SchedConfig};
use simprof_profiler::ProfilerConfig;
use simprof_sim::{MachineConfig, Perturbations};

/// Everything needed to build and profile one workload run.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadConfig {
    /// Machine geometry and cost model.
    pub machine: MachineConfig,
    /// Scheduler quantum and OS-noise model.
    pub sched: SchedConfig,
    /// Sampling-unit and snapshot sizes.
    pub profiler: ProfilerConfig,
    /// HDFS latency model.
    pub hdfs: Hdfs,
    /// Master seed; all randomness derives from it.
    pub seed: u64,
    /// Number of input partitions (map tasks).
    pub partitions: usize,
    /// Number of reducers.
    pub reducers: usize,
    /// Total text-corpus size in bytes (text benchmarks).
    pub text_bytes: usize,
    /// log2 of the number of graph vertices (graph benchmarks).
    pub graph_scale: u32,
    /// Average out-degree of synthesized graphs.
    pub graph_degree: u32,
    /// Iteration cap for iterative benchmarks (PageRank, CC supersteps).
    pub max_iterations: usize,
    /// JVM GC/JIT noise: probability (ppm) that a scheduler turn is observed
    /// inside the runtime instead of the executor stack (0 disables).
    pub gc_noise_ppm: u32,
    /// Number of cluster nodes the job spans (1 = single node). With N > 1
    /// the machine gets one LLC domain per node and a fraction (N−1)/N of
    /// every shuffle crosses the network.
    pub nodes: usize,
    /// Cluster network cost model (only reached when `nodes > 1`).
    pub network: Network,
}

impl WorkloadConfig {
    /// The figure-generation scale: large enough for a few hundred sampling
    /// units per job, small enough to profile all twelve workloads in
    /// seconds.
    pub fn paper(seed: u64) -> Self {
        Self {
            machine: MachineConfig::scaled(4),
            sched: SchedConfig {
                quantum: 2_500,
                perturbations: Perturbations::with_period(6_000_000, seed ^ 0x0511),
                gc: None, // set per run by the catalog from `gc_noise_ppm`
                cold_restart: None,
                faults: FaultPlan::none(),
            },
            profiler: ProfilerConfig::with_unit(50_000),
            hdfs: Hdfs::default(),
            seed,
            partitions: 8,
            reducers: 4,
            text_bytes: 3 << 20,
            graph_scale: 14,
            graph_degree: 8,
            max_iterations: 8,
            gc_noise_ppm: 45_000,
            nodes: 1,
            network: Network::default(),
        }
    }

    /// The paper-scale config spread over a cluster of `nodes` nodes
    /// (4 cores each): per-node LLC domains, cross-node shuffle costs, and
    /// proportionally more tasks.
    pub fn cluster(seed: u64, nodes: usize) -> Self {
        let nodes = nodes.max(1);
        let mut cfg = Self::paper(seed);
        cfg.machine = MachineConfig::scaled_cluster(nodes, 4);
        cfg.nodes = nodes;
        cfg.partitions = 8 * nodes;
        cfg.reducers = 4 * nodes;
        cfg
    }

    /// A fast scale for unit/integration tests and doctests.
    pub fn tiny(seed: u64) -> Self {
        Self {
            machine: MachineConfig::scaled(2),
            sched: SchedConfig {
                quantum: 2_500,
                perturbations: Perturbations::default(),
                gc: None, // set per run by the catalog from `gc_noise_ppm`
                cold_restart: None,
                faults: FaultPlan::none(),
            },
            profiler: ProfilerConfig::with_unit(20_000),
            hdfs: Hdfs::default(),
            seed,
            partitions: 4,
            reducers: 2,
            text_bytes: 256 << 10,
            graph_scale: 10,
            graph_degree: 6,
            max_iterations: 4,
            gc_noise_ppm: 45_000,
            nodes: 1,
            network: Network::default(),
        }
    }

    /// Derives a sub-seed for a named purpose.
    pub fn sub_seed(&self, salt: u64) -> u64 {
        simprof_stats_split(self.seed, salt)
    }

    /// The scheduler config a catalog run uses: [`WorkloadConfig::sched`]
    /// plus, when `gc_noise_ppm > 0`, the JVM GC noise model, whose method
    /// is interned into `registry` (call it after the job is built, as the
    /// catalog does, so method ids match).
    pub fn run_sched(&self, registry: &mut MethodRegistry) -> SchedConfig {
        let mut sched = self.sched;
        if self.gc_noise_ppm > 0 {
            // JVM runtime noise: GC safepoints observed by the profiler.
            sched.gc = Some(GcModel {
                method: registry.intern("jvm.GCTaskThread.run", OpClass::Framework),
                probability_ppm: self.gc_noise_ppm,
                pause_cycles: 800,
                seed: self.sub_seed(0x6C),
            });
        }
        sched
    }

    /// Fraction of shuffle traffic crossing the network: `(N−1)/N` under
    /// uniform hash partitioning across `N` nodes.
    pub fn remote_fraction(&self) -> f64 {
        if self.nodes <= 1 {
            0.0
        } else {
            (self.nodes - 1) as f64 / self.nodes as f64
        }
    }

    /// Total stall cycles for a shuffle fetch of `bytes`: the local-disk
    /// part (HDFS model) plus the cross-node part (network model).
    pub fn shuffle_fetch_stall(&self, bytes: u64) -> u64 {
        self.hdfs.read_stall(bytes) / 2 + self.network.shuffle_stall(bytes, self.remote_fraction())
    }
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self::paper(0)
    }
}

// Local SplitMix64 mix to avoid depending on simprof-stats just for seeding.
fn simprof_stats_split(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_keep_snapshot_ratio() {
        for c in [WorkloadConfig::paper(1), WorkloadConfig::tiny(1)] {
            assert_eq!(c.profiler.unit_instrs / c.profiler.snapshot_instrs, 10);
        }
    }

    #[test]
    fn tiny_is_smaller_than_paper() {
        let t = WorkloadConfig::tiny(0);
        let p = WorkloadConfig::paper(0);
        assert!(t.text_bytes < p.text_bytes);
        assert!(t.graph_scale < p.graph_scale);
        assert!(t.machine.cores <= p.machine.cores);
    }

    #[test]
    fn cluster_preset_scales_resources() {
        let c = WorkloadConfig::cluster(1, 4);
        assert_eq!(c.nodes, 4);
        assert_eq!(c.machine.cores, 16);
        assert_eq!(c.machine.cores_per_llc, 4);
        assert_eq!(c.partitions, 32);
        assert!((c.remote_fraction() - 0.75).abs() < 1e-12);
        // Single node never pays network cost.
        let single = WorkloadConfig::paper(1);
        assert_eq!(single.remote_fraction(), 0.0);
        assert_eq!(single.shuffle_fetch_stall(1 << 20), single.hdfs.read_stall(1 << 20) / 2);
        assert!(c.shuffle_fetch_stall(1 << 20) > single.shuffle_fetch_stall(1 << 20));
    }

    #[test]
    fn sub_seeds_differ() {
        let c = WorkloadConfig::tiny(5);
        assert_ne!(c.sub_seed(1), c.sub_seed(2));
        assert_eq!(c.sub_seed(1), WorkloadConfig::tiny(5).sub_seed(1));
    }
}
