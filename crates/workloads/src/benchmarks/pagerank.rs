//! PageRank — damped power iteration on a synthesized Kronecker graph.
//!
//! The real iteration runs at build time (damping 0.85, dangling mass
//! redistributed uniformly); every vertex is active every iteration, so —
//! unlike Connected Components — per-superstep work is stable and the
//! phase structure repeats. rank_sp still has many phases (Fig. 9) because
//! the GraphX stage pair contributes several distinct methods.

use simprof_engine::hadoop::HadoopMethods;
use simprof_engine::spark::SparkMethods;
use simprof_engine::{Job, MethodRegistry, OpClass, Stage, Task};
use simprof_sim::Machine;

use super::cc::{
    alloc_graph_regions, graphx_superstep_stages, hadoop_superstep_stages, init_degrees_stage,
    vertex_partitions, SuperstepStats,
};
use super::{hdfs_write_item, partition_ranges};
use crate::config::WorkloadConfig;
use crate::synth::kronecker::{GraphInput, Kronecker, SynthGraph};

/// Damping factor.
pub const DAMPING: f64 = 0.85;

/// Runs `iters` power iterations on the directed graph and returns the
/// final rank vector (sums to ~1). Each iteration's activity (identical
/// shapes, real counts) goes to `on_step` (with the iteration's index) as
/// soon as the iteration ends. Message target ids are kept only with
/// `record_targets`.
pub fn pagerank(
    g: &SynthGraph,
    partitions: usize,
    iters: usize,
    record_targets: bool,
    mut on_step: impl FnMut(usize, SuperstepStats),
) -> Vec<f64> {
    let n = g.n;
    let part = vertex_partitions(n, partitions);
    let mut ranks = vec![1.0 / n as f64; n];

    for step in 0..iters.max(1) {
        let mut next = vec![(1.0 - DAMPING) / n as f64; n];
        let mut dangling = 0.0;
        let mut edges_from = vec![0usize; partitions];
        let mut msgs_to = vec![0usize; partitions];
        let mut targets_from: Vec<Vec<u32>> = vec![Vec::new(); partitions];
        for (v, &rank) in ranks.iter().enumerate() {
            let deg = g.degree(v);
            if deg == 0 {
                dangling += rank;
                continue;
            }
            let p = part[v] as usize;
            let share = DAMPING * rank / deg as f64;
            for &t in g.neighbors(v) {
                edges_from[p] += 1;
                msgs_to[part[t as usize] as usize] += 1;
                if record_targets {
                    targets_from[p].push(t);
                }
                next[t as usize] += share;
            }
        }
        let dangling_share = DAMPING * dangling / n as f64;
        for r in &mut next {
            *r += dangling_share;
        }
        ranks = next;
        on_step(step, SuperstepStats { edges_from, msgs_to, targets_from });
    }
    ranks
}

/// Builds the Spark PageRank job.
pub fn spark(cfg: &WorkloadConfig, machine: &mut Machine, reg: &mut MethodRegistry) -> Job {
    let sm = SparkMethods::intern(reg);
    let g = super::synth(|| {
        Kronecker::for_input(GraphInput::Google, cfg.graph_scale, cfg.graph_degree)
            .generate(cfg.sub_seed(7))
    });
    spark_on_graph(cfg, machine, reg, &sm, &g)
}

/// Spark PageRank on an explicit graph (input-sensitivity entry point).
pub fn spark_on_graph(
    cfg: &WorkloadConfig,
    machine: &mut Machine,
    _reg: &mut MethodRegistry,
    sm: &SparkMethods,
    g: &SynthGraph,
) -> Job {
    let mut iterations = Vec::new();
    pagerank(g, cfg.partitions, cfg.max_iterations, false, |_, ss| iterations.push(ss));
    let regions = alloc_graph_regions(machine, g);

    let mut stages = Vec::new();
    // Load stage: reuse the CC loader shape via an inline build.
    let parts = partition_ranges(g.targets.len(), cfg.partitions);
    let load_tasks = parts
        .iter()
        .enumerate()
        .map(|(p, &(lo, hi))| {
            let seed = cfg.sub_seed(6000 + p as u64);
            let bytes = (hi - lo) as u64 * 8;
            let build = simprof_engine::WorkItem::compute(
                vec![sm.hadoop_rdd_compute, sm.map_edge_partitions],
                (hi - lo) as u64 * 6,
                simprof_engine::ops::costs::SEQ_APKI,
                simprof_sim::AccessPattern::Sequential,
                regions.edges,
                seed,
            )
            .with_io_stall(cfg.hdfs.read_stall(bytes));
            Task::new(sm.shuffle_map_base(), vec![build])
        })
        .collect();
    stages.push(Stage::new("rank-sp-load", load_tasks));
    if let Some(first) = iterations.first() {
        stages.push(init_degrees_stage(cfg, sm, &regions, &first.edges_from, "rank-sp"));
    }

    for (step, ss) in iterations.iter().enumerate() {
        stages.extend(graphx_superstep_stages(
            cfg,
            machine,
            sm,
            &regions,
            &ss.edges_from,
            &ss.msgs_to,
            step,
            "rank-sp",
        ));
    }
    let seed = cfg.sub_seed(6900);
    let write = Task::new(
        sm.result_base(),
        vec![hdfs_write_item(&cfg.hdfs, machine, g.n as u64 * 12, vec![sm.dfs_write], seed)],
    );
    stages.push(Stage::new("rank-sp-write", vec![write]));
    Job::new(stages)
}

/// Builds the Hadoop PageRank job: one MapReduce per iteration (capped, as
/// iterative MR jobs are expensive).
pub fn hadoop(cfg: &WorkloadConfig, machine: &mut Machine, reg: &mut MethodRegistry) -> Job {
    let g = super::synth(|| {
        Kronecker::for_input(GraphInput::Google, cfg.graph_scale, cfg.graph_degree)
            .generate(cfg.sub_seed(7))
    });
    hadoop_on_graph(cfg, machine, reg, &g)
}

/// Hadoop PageRank on an explicit graph (input-sensitivity entry point).
pub fn hadoop_on_graph(
    cfg: &WorkloadConfig,
    machine: &mut Machine,
    reg: &mut MethodRegistry,
    g: &SynthGraph,
) -> Job {
    let hm = HadoopMethods::intern(reg);
    let mapper = reg.intern("org.bigdatabench.rank.RankShareMapper.map", OpClass::Map);
    let reducer_m = reg.intern("org.bigdatabench.rank.RankSumReducer.reduce", OpClass::Reduce);
    let hp_iters = (cfg.max_iterations / 4).max(2);
    let regions = alloc_graph_regions(machine, g);

    // Each iteration's MapReduce is built as soon as the iteration ends, so
    // only one iteration's message targets are ever held.
    let mut stages = Vec::new();
    pagerank(g, cfg.partitions, hp_iters, true, |step, ss| {
        stages.extend(hadoop_superstep_stages(
            cfg,
            machine,
            &hm,
            mapper,
            reducer_m,
            &regions,
            ss.targets_from,
            step,
            "rank-hp",
        ));
    });
    Job::new(stages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simprof_sim::MachineConfig;

    #[test]
    fn ranks_sum_to_one() {
        let g = Kronecker::for_input(GraphInput::Google, 10, 6).generate(1);
        let ranks = pagerank(&g, 4, 10, false, |_, _| {});
        let sum: f64 = ranks.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "{sum}");
        assert!(ranks.iter().all(|&r| r > 0.0));
    }

    #[test]
    fn high_in_degree_vertices_rank_higher() {
        let g = Kronecker::for_input(GraphInput::Google, 10, 8).generate(2);
        let ranks = pagerank(&g, 4, 15, false, |_, _| {});
        // In-degree per vertex.
        let mut indeg = vec![0usize; g.n];
        for &t in &g.targets {
            indeg[t as usize] += 1;
        }
        let max_in = (0..g.n).max_by_key(|&v| indeg[v]).unwrap();
        let zero_in = (0..g.n).find(|&v| indeg[v] == 0).unwrap();
        assert!(ranks[max_in] > ranks[zero_in] * 5.0);
    }

    #[test]
    fn iteration_stats_are_stable() {
        let g = Kronecker::for_input(GraphInput::Google, 9, 5).generate(3);
        let mut iterations = Vec::new();
        pagerank(&g, 4, 5, false, |_, ss| iterations.push(ss));
        assert_eq!(iterations.len(), 5);
        let e0: usize = iterations[0].edges_from.iter().sum();
        let e4: usize = iterations[4].edges_from.iter().sum();
        assert_eq!(e0, e4, "PageRank activity does not decay");
    }

    #[test]
    fn jobs_build_for_both_frameworks() {
        let cfg = WorkloadConfig::tiny(37);
        let mut m = Machine::new(MachineConfig::scaled(2));
        let mut reg = MethodRegistry::new();
        let sp = spark(&cfg, &mut m, &mut reg);
        #[allow(clippy::int_plus_one)] // load + 2 per iteration + write
        {
            assert!(sp.stages.len() >= 1 + 2 * cfg.max_iterations + 1);
        }
        let hp = hadoop(&cfg, &mut m, &mut reg);
        assert_eq!(hp.stages.len(), 2 * (cfg.max_iterations / 4).max(2));
        assert!(sp.total_instrs() > 100_000);
        assert!(hp.total_instrs() > 100_000);
    }
}
