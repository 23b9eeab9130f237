//! Connected Components — label propagation on a synthesized Kronecker
//! graph (BigDataBench's graph-analytics workload).
//!
//! The real algorithm runs at build time: synchronous min-label propagation
//! over the undirected graph until convergence (capped). Each superstep's
//! *actual* activity — how many vertices changed, how many edges fired, how
//! many messages each partition received — sizes that superstep's work
//! items, so later supersteps shrink and the `aggregateUsingIndex` phase
//! shows the time-varying behaviour the paper highlights (§IV-E: the phase
//! "ha\[s\] different performances at different execution stages").
//!
//! **Spark** (GraphX-like): per superstep, an `aggregateMessages` stage over
//! edge partitions and an `aggregateUsingIndex`/`innerJoin` stage over
//! vertex partitions — many distinct methods, which is why cc_sp has the
//! most phases in Fig. 9. **Hadoop**: one MapReduce job per superstep with
//! the full map → sort → combine → spill pipeline.

use simprof_engine::hadoop::HadoopMethods;
use simprof_engine::spark::SparkMethods;
use simprof_engine::{ops, Job, MethodRegistry, OpClass, Stage, Task, WorkItem};
use simprof_sim::{AccessPattern, Machine, Region};

use super::{hdfs_write_item, mark_shuffle_fetch, overlap_stall, partition_ranges, spill_item};
use crate::config::WorkloadConfig;
use crate::synth::kronecker::{GraphInput, Kronecker, SynthGraph};

/// Per-superstep activity record from the real propagation.
#[derive(Debug, Clone)]
pub struct SuperstepStats {
    /// Edges fired from each source vertex-partition.
    pub edges_from: Vec<usize>,
    /// Messages received by each target vertex-partition.
    pub msgs_to: Vec<usize>,
    /// The actual message target ids emitted from each source partition,
    /// in emission order (used by the Hadoop builder's spill sort and
    /// combiner; empty unless recorded).
    pub targets_from: Vec<Vec<u32>>,
}

/// The partition of every vertex under [`partition_ranges`]`(n, partitions)`.
pub(crate) fn vertex_partitions(n: usize, partitions: usize) -> Vec<u32> {
    let mut part = Vec::with_capacity(n);
    for (p, &(lo, hi)) in partition_ranges(n, partitions).iter().enumerate() {
        part.resize(part.len() + (hi - lo), u32::try_from(p).expect("partition count fits u32"));
    }
    part
}

/// Makes the directed CSR undirected by concatenating forward and reverse
/// adjacency.
pub fn undirected(g: &SynthGraph) -> SynthGraph {
    let n = g.n;
    let mut deg = vec![0u32; n + 1];
    for v in 0..n {
        deg[v + 1] += g.degree(v) as u32;
    }
    for &t in &g.targets {
        deg[t as usize + 1] += 1;
    }
    for i in 0..n {
        deg[i + 1] += deg[i];
    }
    let mut targets = vec![0u32; g.targets.len() * 2];
    let mut cursor = deg.clone();
    for v in 0..n {
        for &t in g.neighbors(v) {
            targets[cursor[v] as usize] = t;
            cursor[v] += 1;
            targets[cursor[t as usize] as usize] = v as u32;
            cursor[t as usize] += 1;
        }
    }
    SynthGraph { n, offsets: deg, targets }
}

/// Runs synchronous min-label propagation and returns the final component
/// labels. Each superstep's activity over `partitions` vertex partitions
/// goes to `on_step` (with the superstep's index) as soon as the superstep
/// ends, so a caller can consume it before the next one runs. Stops at
/// convergence or `cap` supersteps. Message target ids are kept only with
/// `record_targets`.
pub fn propagate(
    und: &SynthGraph,
    partitions: usize,
    cap: usize,
    record_targets: bool,
    mut on_step: impl FnMut(usize, SuperstepStats),
) -> Vec<u32> {
    let n = und.n;
    let part = vertex_partitions(n, partitions);
    let mut labels: Vec<u32> = (0..n as u32).collect();
    let mut active: Vec<bool> = vec![true; n];

    for step in 0..cap.max(1) {
        let mut next = labels.clone();
        let mut edges_from = vec![0usize; partitions];
        let mut msgs_to = vec![0usize; partitions];
        let mut targets_from: Vec<Vec<u32>> = vec![Vec::new(); partitions];
        let mut any_active = false;
        for v in 0..n {
            if !active[v] {
                continue;
            }
            any_active = true;
            let p = part[v] as usize;
            for &t in und.neighbors(v) {
                edges_from[p] += 1;
                if record_targets {
                    targets_from[p].push(t);
                }
                msgs_to[part[t as usize] as usize] += 1;
                if labels[v] < next[t as usize] {
                    next[t as usize] = labels[v];
                }
            }
        }
        if !any_active {
            break;
        }
        let mut changed = false;
        for v in 0..n {
            active[v] = next[v] < labels[v];
            changed |= active[v];
        }
        labels = next;
        on_step(step, SuperstepStats { edges_from, msgs_to, targets_from });
        if !changed {
            break;
        }
    }
    labels
}

/// Instruction costs of the graph kernels.
mod gcosts {
    /// Per edge scanned in the edge-partition pass.
    pub const EDGE_SCAN: u64 = 12;
    /// Per message gathered against the vertex-value array.
    pub const GATHER: u64 = 10;
    /// Per message combined in `aggregateUsingIndex`.
    pub const COMBINE: u64 = 14;
    /// Per vertex in the apply/join pass.
    pub const APPLY: u64 = 10;
    /// Per message emitted by a Hadoop CC/PageRank mapper.
    pub const HP_EMIT: u64 = 16;
    /// Per message in the Hadoop min/sum reduce.
    pub const HP_REDUCE: u64 = 12;
}

/// Shared per-graph regions allocated once per job.
pub(crate) struct GraphRegions {
    /// Edge array region.
    pub edges: Region,
    /// Vertex-value array region (labels / ranks).
    pub values: Region,
}

pub(crate) fn alloc_graph_regions(machine: &mut Machine, und: &SynthGraph) -> GraphRegions {
    GraphRegions {
        edges: machine.alloc(und.targets.len() as u64 * 8),
        values: machine.alloc(und.n as u64 * 8),
    }
}

/// The initial "load graph from HDFS" stage (both frameworks' Spark-side
/// variant; Hadoop reloads per superstep instead).
fn load_stage(
    cfg: &WorkloadConfig,
    sm: &SparkMethods,
    und: &SynthGraph,
    regions: &GraphRegions,
) -> Stage {
    let parts = partition_ranges(und.targets.len(), cfg.partitions);
    let tasks = parts
        .iter()
        .enumerate()
        .map(|(p, &(lo, hi))| {
            let seed = cfg.sub_seed(2000 + p as u64);
            let bytes = (hi - lo) as u64 * 8;
            let build = WorkItem::compute(
                vec![sm.hadoop_rdd_compute, sm.map_edge_partitions],
                (hi - lo) as u64 * 6,
                ops::costs::SEQ_APKI,
                AccessPattern::Sequential,
                regions.edges,
                seed,
            )
            .with_io_stall(cfg.hdfs.read_stall(bytes));
            Task::new(sm.shuffle_map_base(), vec![build])
        })
        .collect();
    Stage::new("graph-load", tasks)
}

/// Builds the two GraphX-style stages of one superstep.
#[allow(clippy::too_many_arguments)]
pub(crate) fn graphx_superstep_stages(
    cfg: &WorkloadConfig,
    machine: &mut Machine,
    sm: &SparkMethods,
    regions: &GraphRegions,
    stats_edges_from: &[usize],
    stats_msgs_to: &[usize],
    step: usize,
    name: &str,
) -> Vec<Stage> {
    // `aggregateMessages` fuses the edge scan with message gathering in one
    // pass over the edge partition, so the cost items interleave at fine
    // (sub-sampling-unit) granularity — every sampling unit of the phase
    // sees the same scan/gather mixture instead of bimodal pure units.
    const CHUNK_EDGES: usize = 600;
    let mut gather_tasks = Vec::new();
    for (p, &edges) in stats_edges_from.iter().enumerate() {
        if edges == 0 {
            continue;
        }
        let seed = cfg.sub_seed(3000 + step as u64 * 64 + p as u64);
        let mut items = Vec::new();
        let mut remaining = edges;
        let mut i = 0u64;
        while remaining > 0 {
            let chunk = remaining.min(CHUNK_EDGES) as u64;
            items.push(WorkItem::compute(
                vec![sm.aggregate_messages, sm.map_edge_partitions],
                chunk * gcosts::EDGE_SCAN,
                ops::costs::SEQ_APKI,
                AccessPattern::Sequential,
                regions.edges,
                seed.wrapping_add(2 * i),
            ));
            items.push(WorkItem::compute(
                vec![sm.aggregate_messages],
                chunk * gcosts::GATHER,
                ops::costs::HASH_APKI,
                AccessPattern::Random,
                regions.values,
                seed.wrapping_add(2 * i + 1),
            ));
            remaining -= chunk as usize;
            i += 1;
        }
        gather_tasks.push(Task::new(sm.shuffle_map_base(), items));
    }

    // The vertex-program side likewise fuses combining the incoming messages
    // with applying the update to the vertex values.
    let mut apply_tasks = Vec::new();
    let v_parts = partition_ranges(regions.values.bytes as usize / 8, cfg.partitions);
    for (p, &msgs) in stats_msgs_to.iter().enumerate() {
        if msgs == 0 {
            continue;
        }
        let seed = cfg.sub_seed(4000 + step as u64 * 64 + p as u64);
        let msg_region = machine.alloc((msgs as u64 * 16).max(64));
        let (lo, hi) = v_parts[p.min(v_parts.len() - 1)];
        let verts = (hi - lo).max(1);
        let mut items = Vec::new();
        let mut remaining = msgs;
        let mut i = 0u64;
        while remaining > 0 {
            let chunk = remaining.min(CHUNK_EDGES) as u64;
            items.push(WorkItem::compute(
                vec![sm.aggregate_using_index],
                chunk * gcosts::COMBINE,
                ops::costs::HASH_APKI,
                AccessPattern::Random,
                msg_region,
                seed.wrapping_add(2 * i),
            ));
            let vchunk = (verts as u64 * chunk / msgs as u64).max(1);
            items.push(WorkItem::compute(
                vec![sm.vertex_inner_join],
                vchunk * gcosts::APPLY,
                ops::costs::SEQ_APKI,
                AccessPattern::Sequential,
                Region::new(regions.values.base + lo as u64 * 8, (verts as u64 * 8).max(64)),
                seed.wrapping_add(2 * i + 1),
            ));
            remaining -= chunk as usize;
            i += 1;
        }
        apply_tasks.push(Task::new(sm.result_base(), items));
    }

    // Ship updated vertex attributes back to the edge partitions
    // (ReplicatedVertexView.updateVertices): serialization-flavoured
    // streaming over the vertex values.
    let mut ship_tasks = Vec::new();
    for (p, &msgs) in stats_msgs_to.iter().enumerate() {
        if msgs == 0 {
            continue;
        }
        let seed = cfg.sub_seed(4500 + step as u64 * 64 + p as u64);
        let ship = WorkItem::compute(
            vec![sm.ship_vertex_attrs, sm.serialize_object],
            msgs as u64 * 8 + 1_000,
            ops::costs::SEQ_APKI * 2,
            AccessPattern::Sequential,
            regions.values,
            seed,
        )
        .with_io_stall(msgs as u64 * 2);
        ship_tasks.push(Task::new(sm.shuffle_map_base(), vec![ship]));
    }

    vec![
        Stage::new(format!("{name}-gather-{step}"), gather_tasks),
        Stage::new(format!("{name}-apply-{step}"), apply_tasks),
        Stage::new(format!("{name}-ship-{step}"), ship_tasks),
    ]
}

/// The Pregel initialization stage (GraphOps.outDegrees + initial vertex
/// values): one pass over the edges counting degrees.
pub(crate) fn init_degrees_stage(
    cfg: &WorkloadConfig,
    sm: &SparkMethods,
    regions: &GraphRegions,
    edges_per_partition: &[usize],
    name: &str,
) -> Stage {
    let tasks = edges_per_partition
        .iter()
        .enumerate()
        .filter(|&(_, &e)| e > 0)
        .map(|(p, &e)| {
            let seed = cfg.sub_seed(2500 + p as u64);
            let scan = WorkItem::compute(
                vec![sm.out_degrees, sm.map_edge_partitions],
                e as u64 * 7,
                ops::costs::SEQ_APKI,
                AccessPattern::Sequential,
                regions.edges,
                seed,
            );
            let count = WorkItem::compute(
                vec![sm.out_degrees, sm.aggregate_using_index],
                e as u64 * 5,
                ops::costs::HASH_APKI,
                AccessPattern::Random,
                regions.values,
                seed ^ 1,
            );
            Task::new(sm.shuffle_map_base(), vec![scan, count])
        })
        .collect();
    Stage::new(format!("{name}-init-degrees"), tasks)
}

/// Builds the Spark Connected Components job.
pub fn spark(cfg: &WorkloadConfig, machine: &mut Machine, reg: &mut MethodRegistry) -> Job {
    let sm = SparkMethods::intern(reg);
    let g = super::synth(|| {
        Kronecker::for_input(GraphInput::Google, cfg.graph_scale, cfg.graph_degree)
            .generate(cfg.sub_seed(6))
    });
    spark_on_graph(cfg, machine, reg, &sm, &g)
}

/// Spark CC on an explicit graph (the input-sensitivity study sweeps Table
/// II inputs through this entry point).
pub fn spark_on_graph(
    cfg: &WorkloadConfig,
    machine: &mut Machine,
    _reg: &mut MethodRegistry,
    sm: &SparkMethods,
    g: &SynthGraph,
) -> Job {
    let und = undirected(g);
    let mut supersteps = Vec::new();
    propagate(&und, cfg.partitions, cfg.max_iterations, false, |_, ss| supersteps.push(ss));
    let regions = alloc_graph_regions(machine, &und);

    let mut stages = vec![load_stage(cfg, sm, &und, &regions)];
    if let Some(first) = supersteps.first() {
        stages.push(init_degrees_stage(cfg, sm, &regions, &first.edges_from, "cc-sp"));
    }
    for (step, ss) in supersteps.iter().enumerate() {
        stages.extend(graphx_superstep_stages(
            cfg,
            machine,
            sm,
            &regions,
            &ss.edges_from,
            &ss.msgs_to,
            step,
            "cc-sp",
        ));
    }
    // Final write of component labels.
    let seed = cfg.sub_seed(2900);
    let write = Task::new(
        sm.result_base(),
        vec![hdfs_write_item(&cfg.hdfs, machine, und.n as u64 * 8, vec![sm.dfs_write], seed)],
    );
    stages.push(Stage::new("cc-sp-write", vec![write]));
    Job::new(stages)
}

/// Builds the Hadoop Connected Components job: one MapReduce per superstep.
pub fn hadoop(cfg: &WorkloadConfig, machine: &mut Machine, reg: &mut MethodRegistry) -> Job {
    let g = super::synth(|| {
        Kronecker::for_input(GraphInput::Google, cfg.graph_scale, cfg.graph_degree)
            .generate(cfg.sub_seed(6))
    });
    hadoop_on_graph(cfg, machine, reg, &g)
}

/// Hadoop CC on an explicit graph (input-sensitivity entry point).
pub fn hadoop_on_graph(
    cfg: &WorkloadConfig,
    machine: &mut Machine,
    reg: &mut MethodRegistry,
    g: &SynthGraph,
) -> Job {
    let hm = HadoopMethods::intern(reg);
    let mapper = reg.intern("org.bigdatabench.cc.MinLabelMapper.map", OpClass::Map);
    let reducer_m = reg.intern("org.bigdatabench.cc.MinLabelReducer.reduce", OpClass::Reduce);
    let und = undirected(g);
    let hp_cap = (cfg.max_iterations / 4).max(2);
    let regions = alloc_graph_regions(machine, &und);

    // Each superstep's MapReduce is built as soon as its propagation step
    // ends, so only one step's message targets are ever held.
    let mut stages = Vec::new();
    propagate(&und, cfg.partitions, hp_cap, true, |step, ss| {
        stages.extend(hadoop_superstep_stages(
            cfg,
            machine,
            &hm,
            mapper,
            reducer_m,
            &regions,
            ss.targets_from,
            step,
            "cc-hp",
        ));
    });
    Job::new(stages)
}

/// One Hadoop superstep: map wave (read state, emit messages, sort, combine,
/// spill) + reduce wave (fetch, merge, reduce, write), from the message
/// targets each vertex partition emitted, in emission order.
#[allow(clippy::too_many_arguments)]
pub(crate) fn hadoop_superstep_stages(
    cfg: &WorkloadConfig,
    machine: &mut Machine,
    hm: &HadoopMethods,
    mapper: simprof_engine::MethodId,
    reducer_m: simprof_engine::MethodId,
    regions: &GraphRegions,
    targets_from: Vec<Vec<u32>>,
    step: usize,
    name: &str,
) -> Vec<Stage> {
    let mut map_tasks = Vec::new();
    // Per reducer: the length of each mapper's sorted run.
    let mut run_lens: Vec<Vec<usize>> = vec![Vec::new(); cfg.reducers];
    let n = regions.values.bytes as usize / 8;

    for (p, mut targets) in targets_from.into_iter().enumerate() {
        if targets.is_empty() {
            continue;
        }
        let seed = cfg.sub_seed(5000 + step as u64 * 64 + p as u64);
        let mut items = Vec::new();
        let state_bytes = regions.values.bytes / cfg.partitions as u64;
        // Emit min-label messages: random lookups into the label array, with
        // the state/edge re-read overlapped.
        items.push(
            WorkItem::compute(
                vec![mapper, hm.map_output_buffer_collect],
                targets.len() as u64 * gcosts::HP_EMIT,
                ops::costs::HASH_APKI,
                AccessPattern::Random,
                regions.values,
                seed,
            )
            .with_io_stall(cfg.hdfs.read_stall(state_bytes + targets.len() as u64 * 8)),
        );
        // Spill sort over the real message target ids, then the combine of
        // messages per target. The combiner runs first, since its batches
        // see the messages in emission order; the sort buffer is allocated
        // before the combiner's map, as the sort runs first in the job.
        let buf = machine.alloc(targets.len() as u64 * 16);
        let (combined, combine_items) = ops::hash_combine(
            targets.iter().map(|&t| (t, ())),
            |(), ()| {},
            32,
            4_096,
            vec![hm.combiner_combine, reducer_m],
            AccessPattern::Zipf,
            machine,
            seed,
        );
        items.extend(ops::quicksort_trace(
            &mut targets,
            16,
            buf,
            vec![hm.sort_and_spill, hm.quick_sort],
            seed,
        ));
        items.extend(combine_items);
        let out = combined.len() as u64 * 16;
        items.push(spill_item(
            &cfg.hdfs,
            machine,
            out,
            vec![hm.codec_compress, hm.ifile_writer_append],
            seed,
        ));
        // Route combined messages to reducers by target-id range.
        let mut per_r = vec![0usize; cfg.reducers];
        for &(t, ()) in &combined {
            per_r[((t as usize) * cfg.reducers / n.max(1)).min(cfg.reducers - 1)] += 1;
        }
        for (lens, len) in run_lens.iter_mut().zip(per_r) {
            lens.push(len);
        }
        map_tasks.push(Task::new(hm.map_base(), items));
    }

    let mut reduce_tasks = Vec::new();
    for (r, lens) in run_lens.iter().enumerate() {
        let msgs = lens.iter().sum::<usize>() as u64;
        if msgs == 0 {
            continue;
        }
        let seed = cfg.sub_seed(5500 + step as u64 * 64 + r as u64);
        let mut items = Vec::new();
        let bytes = msgs * 16;
        let merge_region = machine.alloc(bytes.max(64));
        let mut merge_items = ops::merge_items(lens, merge_region, vec![hm.merger_merge], seed);
        overlap_stall(&mut merge_items, cfg.shuffle_fetch_stall(bytes));
        mark_shuffle_fetch(&mut merge_items, bytes);
        items.extend(merge_items);
        items.push(WorkItem::compute(
            vec![reducer_m],
            msgs * gcosts::HP_REDUCE,
            ops::costs::SEQ_APKI,
            AccessPattern::Sequential,
            merge_region,
            seed,
        ));
        items.push(hdfs_write_item(
            &cfg.hdfs,
            machine,
            regions.values.bytes / cfg.reducers as u64,
            vec![hm.dfs_write],
            seed,
        ));
        reduce_tasks.push(Task::new(hm.reduce_base(), items));
    }

    vec![
        Stage::new(format!("{name}-map-{step}"), map_tasks),
        Stage::new(format!("{name}-reduce-{step}"), reduce_tasks),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use simprof_sim::MachineConfig;

    /// Reference union-find for checking the propagation result.
    fn components_by_union_find(und: &SynthGraph) -> Vec<u32> {
        let mut parent: Vec<u32> = (0..und.n as u32).collect();
        fn find(parent: &mut [u32], v: u32) -> u32 {
            let mut v = v;
            while parent[v as usize] != v {
                parent[v as usize] = parent[parent[v as usize] as usize];
                v = parent[v as usize];
            }
            v
        }
        for v in 0..und.n {
            for &t in und.neighbors(v) {
                let a = find(&mut parent, v as u32);
                let b = find(&mut parent, t);
                if a != b {
                    parent[a.max(b) as usize] = a.min(b);
                }
            }
        }
        // Canonical min-vertex label per component.
        let mut label = vec![0u32; und.n];
        for (v, l) in label.iter_mut().enumerate() {
            *l = find(&mut parent, v as u32);
        }
        label
    }

    #[test]
    fn undirected_doubles_edges_symmetrically() {
        let g = Kronecker::for_input(GraphInput::Google, 8, 4).generate(1);
        let u = undirected(&g);
        assert_eq!(u.edge_count(), 2 * g.edge_count());
        // Symmetry: if t in N(v) then v in N(t).
        for v in 0..u.n {
            for &t in u.neighbors(v) {
                assert!(u.neighbors(t as usize).contains(&(v as u32)), "{v} <-> {t}");
            }
        }
    }

    #[test]
    fn propagation_matches_union_find() {
        let g = Kronecker::for_input(GraphInput::Google, 9, 5).generate(2);
        let und = undirected(&g);
        let labels = propagate(&und, 4, 64, false, |_, _| {});
        let expect = components_by_union_find(&und);
        assert_eq!(labels, expect, "min-label propagation finds the components");
    }

    #[test]
    fn activity_decays_over_supersteps() {
        let g = Kronecker::for_input(GraphInput::Google, 11, 6).generate(3);
        let und = undirected(&g);
        let mut supersteps = Vec::new();
        propagate(&und, 4, 64, false, |_, ss| supersteps.push(ss));
        assert!(supersteps.len() >= 3, "{}", supersteps.len());
        let first: usize = supersteps[0].edges_from.iter().sum();
        let last: usize = supersteps.last().unwrap().edges_from.iter().sum();
        assert!(last < first / 2, "activity must shrink: {first} → {last}");
    }

    #[test]
    fn spark_job_has_superstep_stage_pairs() {
        let cfg = WorkloadConfig::tiny(31);
        let mut m = Machine::new(MachineConfig::scaled(2));
        let mut reg = MethodRegistry::new();
        let job = spark(&cfg, &mut m, &mut reg);
        // load + init-degrees + 3 per superstep (gather/apply/ship) + write.
        #[allow(clippy::int_plus_one)] // load + init-degrees + 3 per superstep + write
        {
            assert!(job.stages.len() >= 1 + 1 + 3 + 1, "{}", job.stages.len());
        }
        assert_eq!((job.stages.len() - 3) % 3, 0, "stage triples: {}", job.stages.len());
        assert!(job.total_instrs() > 100_000);
    }

    #[test]
    fn hadoop_job_has_mr_per_superstep() {
        let cfg = WorkloadConfig::tiny(31);
        let mut m = Machine::new(MachineConfig::scaled(2));
        let mut reg = MethodRegistry::new();
        let job = hadoop(&cfg, &mut m, &mut reg);
        assert_eq!(job.stages.len() % 2, 0);
        let sort_id = reg.lookup("org.apache.hadoop.util.QuickSort.sort").unwrap();
        assert!(job
            .stages
            .iter()
            .flat_map(|s| &s.tasks)
            .flat_map(|t| &t.items)
            .any(|i| i.path.contains(&sort_id)));
    }
}
