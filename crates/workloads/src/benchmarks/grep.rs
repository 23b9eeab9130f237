//! Grep — scan the corpus for lines containing a pattern.
//!
//! The most uniform of the benchmarks: a streaming scan with tiny output.
//! On Spark it is a single map-only stage, which is why the paper reports
//! grep_sp forming exactly **one** phase (Fig. 9). On Hadoop, a map wave
//! scans and a minimal reduce wave collects the few matches; grep_hp is one
//! of the two Hadoop workloads with no sort phase (Fig. 10), which the
//! builder reproduces by keeping the match volume small enough that the
//! spill sort is skipped entirely.

use simprof_engine::hadoop::HadoopMethods;
use simprof_engine::spark::SparkMethods;
use simprof_engine::{ops, Job, MethodId, MethodRegistry, OpClass, Stage, Task, WorkItem};
use simprof_sim::{Machine, Region};

use super::{hdfs_write_item, partition_ranges, synth};
use crate::config::WorkloadConfig;
use crate::synth::text::{Corpus, TextSynth};

/// Zipf rank of the needle word: rare enough that matches (and therefore
/// output IO) are a trivial fraction of the job, keeping grep essentially a
/// pure scan — the paper's single-phase grep_sp.
const NEEDLE_RANK: usize = 300;

/// The corpus and its needle: the word at [`NEEDLE_RANK`].
fn input(cfg: &WorkloadConfig) -> (Corpus, String) {
    synth(|| {
        let synth = TextSynth::new(4_000, 1.0, 10, cfg.sub_seed(0x63E0));
        (synth.corpus(cfg.text_bytes * 3, cfg.sub_seed(3)), synth.word_at(NEEDLE_RANK).to_owned())
    })
}

/// The scan of lines `lo..hi` for the needle (`matched` flags each line of
/// the corpus) and the bytes of the lines it matched, newlines included.
fn scan(
    corpus: &Corpus,
    matched: &[bool],
    (lo, hi): (usize, usize),
    path: Vec<MethodId>,
    in_region: Region,
    seed: u64,
) -> (WorkItem, u64) {
    let hits: Vec<usize> = (lo..hi).filter(|&i| matched[i]).collect();
    let out = hits.iter().map(|&i| corpus.line_len(i) as u64 + 1).sum();
    let text = corpus.bytes(lo..hi) - (hi - lo) as u64;
    (ops::scan_item(text, hits.len() as u64, path, in_region, seed), out)
}

/// Builds the Spark Grep job: a single map-only stage.
pub fn spark(cfg: &WorkloadConfig, machine: &mut Machine, reg: &mut MethodRegistry) -> Job {
    let sm = SparkMethods::intern(reg);
    let filter_fn = reg.intern("org.bigdatabench.grep.MatchFilterFn.apply", OpClass::Map);
    let (corpus, needle) = input(cfg);
    let matched = corpus.lines_containing(&needle);
    let ranges = partition_ranges(corpus.len(), cfg.partitions);

    let mut tasks = Vec::with_capacity(ranges.len());
    for (p, &range) in ranges.iter().enumerate() {
        let seed = cfg.sub_seed(500 + p as u64);
        let bytes = corpus.bytes(range.0..range.1);
        let mut items = Vec::new();
        let in_region = machine.alloc(bytes.max(64));
        let (scan, out) = scan(
            &corpus,
            &matched,
            range,
            vec![sm.map_partitions_with_index, filter_fn],
            in_region,
            seed,
        );
        items.push(scan.with_io_stall(cfg.hdfs.read_stall(bytes)));
        items.push(hdfs_write_item(&cfg.hdfs, machine, out, vec![sm.dfs_write], seed));
        tasks.push(Task::new(sm.result_base(), items));
    }
    Job::new(vec![Stage::new("grep-sp-stage0", tasks)])
}

/// Builds the Hadoop Grep job: a map wave plus a minimal collect wave.
pub fn hadoop(cfg: &WorkloadConfig, machine: &mut Machine, reg: &mut MethodRegistry) -> Job {
    let hm = HadoopMethods::intern(reg);
    let mapper = reg.intern("org.bigdatabench.grep.RegexMapper.map", OpClass::Map);
    let collector = reg.intern("org.bigdatabench.grep.IdentityReducer.reduce", OpClass::Reduce);
    let (corpus, needle) = input(cfg);
    let matched = corpus.lines_containing(&needle);
    let ranges = partition_ranges(corpus.len(), cfg.partitions);

    let mut total_match_bytes = 0u64;
    let mut map_tasks = Vec::with_capacity(ranges.len());
    for (p, &range) in ranges.iter().enumerate() {
        let seed = cfg.sub_seed(600 + p as u64);
        let bytes = corpus.bytes(range.0..range.1);
        let mut items = Vec::new();
        let in_region = machine.alloc(bytes.max(64));
        let (scan, out) = scan(
            &corpus,
            &matched,
            range,
            vec![mapper, hm.map_output_buffer_collect],
            in_region,
            seed,
        );
        items.push(scan.with_io_stall(cfg.hdfs.read_stall(bytes)));
        total_match_bytes += out;
        items.push(super::spill_item(
            &cfg.hdfs,
            machine,
            out,
            vec![hm.codec_compress, hm.ifile_writer_append],
            seed,
        ));
        map_tasks.push(Task::new(hm.map_base(), items));
    }

    // A single small reducer concatenates the matches to HDFS.
    let seed = cfg.sub_seed(650);
    let mut items = Vec::new();
    let region = machine.alloc(total_match_bytes.max(64));
    items.push(
        WorkItem::io(
            vec![hm.fetcher_copy],
            total_match_bytes / 6 + 1,
            cfg.shuffle_fetch_stall(total_match_bytes),
            region,
            seed,
        )
        .with_shuffle_bytes(total_match_bytes),
    );
    items.push(hdfs_write_item(
        &cfg.hdfs,
        machine,
        total_match_bytes,
        vec![collector, hm.dfs_write],
        seed,
    ));
    let reduce_tasks = vec![Task::new(hm.reduce_base(), items)];

    Job::new(vec![Stage::new("grep-hp-map", map_tasks), Stage::new("grep-hp-reduce", reduce_tasks)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use simprof_sim::MachineConfig;

    #[test]
    fn scan_finds_matching_lines() {
        let lines = ["error: disk", "ok ok", "error again"];
        let corpus = Corpus::from_lines(&lines);
        let matched = corpus.lines_containing("error");
        assert_eq!(matched, [true, false, true]);
        let (item, out) = scan(&corpus, &matched, (0, 3), vec![], Region::new(0x10_000, 128), 1);
        assert_eq!(out, 12 + 12, "matched lines' bytes, newlines included");
        let text = (11 + 5 + 11) as u64;
        assert_eq!(item.instrs, text * ops::costs::SCAN_PER_BYTE + 2 * ops::costs::TOKEN_EMIT);
    }

    #[test]
    fn spark_grep_is_single_stage() {
        let cfg = WorkloadConfig::tiny(3);
        let mut m = Machine::new(MachineConfig::scaled(2));
        let mut reg = MethodRegistry::new();
        let job = spark(&cfg, &mut m, &mut reg);
        assert_eq!(job.stages.len(), 1);
        assert_eq!(job.stages[0].tasks.len(), cfg.partitions);
    }

    #[test]
    fn hadoop_grep_has_no_sort() {
        let cfg = WorkloadConfig::tiny(3);
        let mut m = Machine::new(MachineConfig::scaled(2));
        let mut reg = MethodRegistry::new();
        let job = hadoop(&cfg, &mut m, &mut reg);
        let sort_id = reg.lookup("org.apache.hadoop.util.QuickSort.sort").unwrap();
        let has_sort = job
            .stages
            .iter()
            .flat_map(|s| &s.tasks)
            .flat_map(|t| &t.items)
            .any(|i| i.path.contains(&sort_id));
        assert!(!has_sort, "grep_hp must not sort (paper Fig. 10)");
    }

    #[test]
    fn scan_dominates_spark_grep() {
        let cfg = WorkloadConfig::tiny(3);
        let mut m = Machine::new(MachineConfig::scaled(2));
        let mut reg = MethodRegistry::new();
        let job = spark(&cfg, &mut m, &mut reg);
        let scan_id = reg.lookup("org.bigdatabench.grep.MatchFilterFn.apply").unwrap();
        let scan: u64 = job.stages[0]
            .tasks
            .iter()
            .flat_map(|t| &t.items)
            .filter(|i| i.path.contains(&scan_id))
            .map(|i| i.instrs)
            .sum();
        assert!(scan * 2 > job.total_instrs(), "scan should be ≥ half the work");
    }
}
