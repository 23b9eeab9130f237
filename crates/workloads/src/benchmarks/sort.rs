//! Sort — order the corpus by key (TeraSort-style).
//!
//! **Spark**: a range-partitioning map stage (sample keys, route each record
//! to the reducer owning its key range) followed by a result stage where
//! each reducer *actually quicksorts* its key range
//! (`ExternalSorter`/`TimSort`) and writes ordered output. The per-partition
//! quicksort makes sort_sp's second stage the classic non-homogeneous sort
//! phase.
//!
//! **Hadoop**: BigDataBench's sort is an identity-map job that leans on the
//! framework's spill/merge machinery: map wave = read + identity map +
//! spill, reduce wave = fetch + streaming k-way merge + write. No quicksort
//! phase appears — matching the paper's Fig. 10, where sort_hp (like
//! grep_hp) shows no sort-type phase and is dominated by IO.

use simprof_engine::hadoop::HadoopMethods;
use simprof_engine::spark::SparkMethods;
use simprof_engine::{ops, Job, MethodRegistry, OpClass, Stage, Task, WorkItem};
use simprof_sim::{AccessPattern, Machine};

use super::{
    hdfs_write_item, mark_shuffle_fetch, overlap_stall, partition_ranges, spill_item, synth,
    word_hashes,
};
use crate::config::WorkloadConfig;
use crate::synth::text::{Corpus, TextSynth};

fn corpus(cfg: &WorkloadConfig) -> Corpus {
    synth(|| {
        TextSynth::new(6_000, 1.05, 8, cfg.sub_seed(0x5047))
            .corpus(cfg.text_bytes * 3, cfg.sub_seed(4))
    })
}

/// The key of record `i`: the FNV-1a hash of its first word (uniform-ish
/// over u64, so range partitioning splits evenly), read from the
/// per-vocabulary hash table `hashes`. No per-record key array exists.
fn record_key(corpus: &Corpus, hashes: &[u64], i: usize) -> u64 {
    hashes[usize::from(corpus.line(i)[0])]
}

/// Range boundaries from a deterministic sample of the `n` keys `key(i)`.
fn boundaries(n: usize, key: impl Fn(usize) -> u64, reducers: usize) -> Vec<u64> {
    let mut sample: Vec<u64> = (0..n).step_by(16.max(n / 1024 + 1)).map(key).collect();
    sample.sort_unstable();
    (1..reducers)
        .map(|r| sample.get(r * sample.len() / reducers).copied().unwrap_or(u64::MAX))
        .collect()
}

fn range_of(key: u64, bounds: &[u64]) -> usize {
    bounds.partition_point(|&b| b <= key)
}

/// Builds the Spark Sort job.
pub fn spark(cfg: &WorkloadConfig, machine: &mut Machine, reg: &mut MethodRegistry) -> Job {
    let sm = SparkMethods::intern(reg);
    let key_fn = reg.intern("org.bigdatabench.sort.KeyExtractFn.apply", OpClass::Map);
    let corpus = corpus(cfg);
    let hashes = word_hashes(&corpus);
    let key = |i| record_key(&corpus, &hashes, i);
    let bounds = boundaries(corpus.len(), key, cfg.reducers);
    let ranges = partition_ranges(corpus.len(), cfg.partitions);

    // A counting pass sizes every reducer's key vector exactly, so the map
    // wave never grows one.
    let mut counts = vec![0usize; cfg.reducers];
    for i in 0..corpus.len() {
        counts[range_of(key(i), &bounds)] += 1;
    }
    let mut reducer_keys: Vec<Vec<u64>> = counts.into_iter().map(Vec::with_capacity).collect();
    let mut reducer_bytes: Vec<u64> = vec![0; cfg.reducers];
    let mut map_tasks = Vec::with_capacity(ranges.len());
    for (p, &(lo, hi)) in ranges.iter().enumerate() {
        let seed = cfg.sub_seed(700 + p as u64);
        let bytes = corpus.bytes(lo..hi);
        let mut items = Vec::new();
        let in_region = machine.alloc(bytes.max(64));
        // Key extraction + routing: a streaming map pass with the lazy HDFS
        // read overlapped.
        items.push(
            WorkItem::compute(
                vec![sm.map_partitions_with_index, key_fn],
                bytes * 2 + (hi - lo) as u64 * 30,
                ops::costs::SEQ_APKI,
                AccessPattern::Sequential,
                in_region,
                seed,
            )
            .with_io_stall(cfg.hdfs.read_stall(bytes)),
        );
        items.push(spill_item(
            &cfg.hdfs,
            machine,
            bytes,
            vec![sm.shuffle_writer_write, sm.serialize_object],
            seed,
        ));
        for i in lo..hi {
            let k = key(i);
            let r = range_of(k, &bounds);
            reducer_keys[r].push(k);
            reducer_bytes[r] += corpus.line_len(i) as u64 + 1;
        }
        map_tasks.push(Task::new(sm.shuffle_map_base(), items));
    }
    drop((corpus, hashes));

    let mut reduce_tasks = Vec::with_capacity(cfg.reducers);
    for (r, mut keys) in reducer_keys.into_iter().enumerate() {
        let seed = cfg.sub_seed(800 + r as u64);
        let mut items = Vec::new();
        // The real sort of this reducer's key range, with the shuffle fetch
        // overlapped into it.
        let sort_region = machine.alloc((keys.len() as u64 * 16).max(64));
        let mut sort_items = ops::quicksort_trace(
            &mut keys,
            16,
            sort_region,
            vec![sm.external_sorter_insert_all, sm.timsort_sort],
            seed,
        );
        overlap_stall(&mut sort_items, cfg.shuffle_fetch_stall(reducer_bytes[r]));
        mark_shuffle_fetch(&mut sort_items, reducer_bytes[r]);
        items.extend(sort_items);
        items.push(hdfs_write_item(&cfg.hdfs, machine, reducer_bytes[r], vec![sm.dfs_write], seed));
        reduce_tasks.push(Task::new(sm.result_base(), items));
    }

    Job::new(vec![
        Stage::new("sort-sp-stage0", map_tasks),
        Stage::new("sort-sp-stage1", reduce_tasks),
    ])
}

/// Builds the Hadoop Sort job (identity map, framework merge).
pub fn hadoop(cfg: &WorkloadConfig, machine: &mut Machine, reg: &mut MethodRegistry) -> Job {
    let hm = HadoopMethods::intern(reg);
    let mapper = reg.intern("org.bigdatabench.sort.IdentityMapper.map", OpClass::Map);
    let corpus = corpus(cfg);
    let hashes = word_hashes(&corpus);
    let key = |i| record_key(&corpus, &hashes, i);
    let bounds = boundaries(corpus.len(), key, cfg.reducers);
    let ranges = partition_ranges(corpus.len(), cfg.partitions);

    // Per reducer: the length of each mapper's sorted run.
    let mut run_lens: Vec<Vec<usize>> = vec![Vec::with_capacity(ranges.len()); cfg.reducers];
    let mut reducer_bytes: Vec<u64> = vec![0; cfg.reducers];
    let mut map_tasks = Vec::with_capacity(ranges.len());
    for (p, &(lo, hi)) in ranges.iter().enumerate() {
        let seed = cfg.sub_seed(900 + p as u64);
        let bytes = corpus.bytes(lo..hi);
        let mut items = Vec::new();
        let in_region = machine.alloc(bytes.max(64));
        // Identity map: cheap record passthrough, reads overlapped.
        items.push(
            WorkItem::compute(
                vec![mapper, hm.map_output_buffer_collect],
                bytes + (hi - lo) as u64 * 20,
                ops::costs::SEQ_APKI,
                AccessPattern::Sequential,
                in_region,
                seed,
            )
            .with_io_stall(cfg.hdfs.read_stall(bytes)),
        );
        // Spill everything (sort_hp moves its whole input through disk).
        items.push(spill_item(
            &cfg.hdfs,
            machine,
            bytes,
            vec![hm.codec_compress, hm.ifile_writer_append],
            seed,
        ));
        let mut per_r = vec![0usize; cfg.reducers];
        for i in lo..hi {
            let r = range_of(key(i), &bounds);
            per_r[r] += 1;
            reducer_bytes[r] += corpus.line_len(i) as u64 + 1;
        }
        for (lens, len) in run_lens.iter_mut().zip(per_r) {
            lens.push(len);
        }
        map_tasks.push(Task::new(hm.map_base(), items));
    }
    drop((corpus, hashes));

    let mut reduce_tasks = Vec::with_capacity(cfg.reducers);
    for (r, lens) in run_lens.iter().enumerate() {
        let seed = cfg.sub_seed(1000 + r as u64);
        let mut items = Vec::new();
        let merge_region = machine.alloc(reducer_bytes[r].max(64));
        let mut merge_items = ops::merge_items(lens, merge_region, vec![hm.merger_merge], seed);
        overlap_stall(&mut merge_items, cfg.shuffle_fetch_stall(reducer_bytes[r]));
        mark_shuffle_fetch(&mut merge_items, reducer_bytes[r]);
        items.extend(merge_items);
        items.push(hdfs_write_item(&cfg.hdfs, machine, reducer_bytes[r], vec![hm.dfs_write], seed));
        reduce_tasks.push(Task::new(hm.reduce_base(), items));
    }

    Job::new(vec![Stage::new("sort-hp-map", map_tasks), Stage::new("sort-hp-reduce", reduce_tasks)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use simprof_sim::MachineConfig;

    fn setup() -> (WorkloadConfig, Machine, MethodRegistry) {
        (WorkloadConfig::tiny(17), Machine::new(MachineConfig::scaled(2)), MethodRegistry::new())
    }

    #[test]
    fn boundaries_split_key_space() {
        let keys: Vec<u64> =
            (0..10_000u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
        let b = boundaries(keys.len(), |i| keys[i], 4);
        assert_eq!(b.len(), 3);
        assert!(b.windows(2).all(|w| w[0] <= w[1]));
        let mut counts = [0usize; 4];
        for &k in &keys {
            counts[range_of(k, &b)] += 1;
        }
        for &c in &counts {
            assert!(c > 1_000, "ranges roughly balanced: {counts:?}");
        }
    }

    #[test]
    fn range_partitioning_preserves_all_records() {
        let cfg = WorkloadConfig::tiny(43);
        let corpus = corpus(&cfg);
        let hashes = word_hashes(&corpus);
        let keys: Vec<u64> = (0..corpus.len()).map(|i| record_key(&corpus, &hashes, i)).collect();
        let bounds = boundaries(keys.len(), |i| keys[i], cfg.reducers);
        let mut counts = vec![0usize; cfg.reducers];
        for &k in &keys {
            counts[range_of(k, &bounds)] += 1;
        }
        assert_eq!(counts.iter().sum::<usize>(), corpus.len());
        // Keys routed to reducer r are all below reducer r+1's keys.
        let mut maxima = vec![0u64; cfg.reducers];
        let mut minima = vec![u64::MAX; cfg.reducers];
        for &k in &keys {
            let r = range_of(k, &bounds);
            maxima[r] = maxima[r].max(k);
            minima[r] = minima[r].min(k);
        }
        for r in 1..cfg.reducers {
            if minima[r] != u64::MAX && maxima[r - 1] != 0 {
                assert!(maxima[r - 1] <= minima[r], "ranges must be ordered");
            }
        }
    }

    #[test]
    fn spark_sort_has_quicksort_in_stage1() {
        let (cfg, mut m, mut reg) = setup();
        let job = spark(&cfg, &mut m, &mut reg);
        let sort_id = reg.lookup("org.apache.spark.util.collection.TimSort.sort").unwrap();
        assert!(job.stages[1]
            .tasks
            .iter()
            .flat_map(|t| &t.items)
            .any(|i| i.path.contains(&sort_id)));
        assert!(!job.stages[0]
            .tasks
            .iter()
            .flat_map(|t| &t.items)
            .any(|i| i.path.contains(&sort_id)));
    }

    #[test]
    fn hadoop_sort_has_no_quicksort() {
        let (cfg, mut m, mut reg) = setup();
        let job = hadoop(&cfg, &mut m, &mut reg);
        let sort_id = reg.lookup("org.apache.hadoop.util.QuickSort.sort").unwrap();
        assert!(!job
            .stages
            .iter()
            .flat_map(|s| &s.tasks)
            .flat_map(|t| &t.items)
            .any(|i| i.path.contains(&sort_id)));
    }

    #[test]
    fn hadoop_sort_is_io_heavy() {
        let (cfg, mut m, mut reg) = setup();
        let job = hadoop(&cfg, &mut m, &mut reg);
        let stalls: u64 = job
            .stages
            .iter()
            .flat_map(|s| &s.tasks)
            .flat_map(|t| &t.items)
            .map(|i| i.io_stall_cycles)
            .sum();
        // IO stall cycles are a large fraction of total work — disk-bound
        // relative to the identity-map compute.
        assert!(stalls > job.total_instrs() / 6, "{stalls} vs {}", job.total_instrs());
    }
}
