//! WordCount — the paper's running example (Fig. 1) and framework-comparison
//! study (§IV-F, Figs. 14–15).
//!
//! **Spark**: one shuffle-map stage fusing HDFS read → tokenize → *map-side
//! combine* (`Aggregator.combineValuesByKey`, the paper's map-side reduce
//! optimization) → shuffle write, then a small result stage combining the
//! combiners and writing to HDFS. Because the combine is fused with the map
//! and IO operations, the first stage forms one dominant phase, and the
//! second stage holds only ~1 % of units — the Fig. 14 structure.
//!
//! **Hadoop**: a map wave where tokenization (`TokenizerMapper.map` →
//! `MapOutputBuffer.collect`), the quicksort spill (`sortAndSpill` →
//! `QuickSort.sort`) and the combiner (`NewCombinerRunner.combine`) are
//! *separate* operations — three distinguishable phases with very different
//! CPI variance (Fig. 15) — followed by a reduce wave with fetch, k-way
//! merge, sum, and HDFS write.

use simprof_engine::hadoop::HadoopMethods;
use simprof_engine::spark::SparkMethods;
use simprof_engine::{ops, Job, MethodId, MethodRegistry, OpClass, Stage, Task, WorkItem};
use simprof_sim::{AccessPattern, Machine, Region};

use super::{
    hdfs_write_item, mark_shuffle_fetch, overlap_stall, partition_ranges, route, spill_item, synth,
    word_hashes,
};
use crate::config::WorkloadConfig;
use crate::synth::text::{Corpus, TextSynth};

/// Vocabulary size for the WordCount corpus.
const VOCAB: usize = 4_000;
/// Modelled bytes of one (word, count) aggregation entry.
const ENTRY_BYTES: u64 = 56;
/// Records per hash-combine batch.
const BATCH: usize = 4_096;

fn corpus(cfg: &WorkloadConfig) -> Corpus {
    synth(|| {
        TextSynth::new(VOCAB, 1.0, 10, cfg.sub_seed(0x77C)).corpus(cfg.text_bytes, cfg.sub_seed(2))
    })
}

/// Tokenizes lines `lo..hi`: their word ids, and the cost item of scanning
/// their text (newlines excluded) into those tokens.
fn tokenize(
    corpus: &Corpus,
    (lo, hi): (usize, usize),
    path: Vec<MethodId>,
    in_region: Region,
    seed: u64,
) -> (&[u16], WorkItem) {
    let tokens = corpus.lines(lo..hi);
    let text = corpus.bytes(lo..hi) - (hi - lo) as u64;
    (tokens, ops::tokenize_item(text, tokens.len() as u64, path, in_region, seed))
}

/// The fused map-side-combine kernel of Spark WordCount (§IV-F, Fig. 14).
///
/// `Aggregator.combineValuesByKey` *pulls* records through the upstream
/// map/IO iterators, so scanning, tokenizing and hash-probing interleave at
/// record granularity inside one operation. The paper observes that this
/// fusion makes the phase's performance "fairly stable" — the probe ramp is
/// diluted by the constant-cost scan work sharing every sampling unit.
///
/// Returns the real combined counts of lines `lo..hi` (sorted by word id,
/// which is word order) and the interleaved item trace.
#[allow(clippy::too_many_arguments)]
fn fused_scan_combine(
    corpus: &Corpus,
    (lo, hi): (usize, usize),
    in_region: Region,
    read_stall: u64,
    machine: &mut Machine,
    sm: &SparkMethods,
    leaves: &FusedLeaves,
    seed: u64,
) -> (Vec<(u16, i64)>, Vec<WorkItem>) {
    use simprof_engine::ops::costs;
    const CHUNK_LINES: usize = 16;

    // Real incremental aggregation into a dense per-id count array, with
    // per-chunk checkpoints; a word is new to the map when its count is 0.
    let mut counts = vec![0i64; corpus.vocabulary().len()];
    let mut distinct = 0u64;
    // (bytes, tokens, distinct-after-chunk)
    let mut checkpoints: Vec<(u64, u64, u64)> = Vec::new();
    for start in (lo..hi).step_by(CHUNK_LINES) {
        let chunk = start..(start + CHUNK_LINES).min(hi);
        let tokens = corpus.lines(chunk.clone());
        for &id in tokens {
            let count = &mut counts[usize::from(id)];
            distinct += u64::from(*count == 0);
            *count += 1;
        }
        checkpoints.push((corpus.bytes(chunk), tokens.len() as u64, distinct));
    }

    let total_bytes = corpus.bytes(lo..hi);
    let map_region = machine.alloc((distinct * ENTRY_BYTES).max(64));
    let mut items = Vec::with_capacity(checkpoints.len() * 2);
    for (i, &(bytes, tokens, distinct)) in checkpoints.iter().enumerate() {
        // Scan chunk: record-reader + tokenizer pulled by the combiner. The
        // observed leaf frame varies chunk to chunk, as it would under a
        // real sampling profiler walking deep JVM stacks.
        let scan_leaf =
            leaves.scan[(i.wrapping_mul(2654435761) ^ seed as usize) % leaves.scan.len()];
        let scan_instrs = bytes * costs::TOKENIZE_PER_BYTE + tokens * costs::TOKEN_EMIT;
        let stall = (read_stall * bytes).checked_div(total_bytes).unwrap_or(0);
        items.push(
            WorkItem::compute(
                vec![sm.combine_values_by_key, sm.map_partitions_with_index, scan_leaf],
                scan_instrs,
                costs::SEQ_APKI,
                AccessPattern::Sequential,
                in_region,
                seed.wrapping_add(2 * i as u64),
            )
            .with_io_stall(stall),
        );
        // Probe chunk over the map as grown so far.
        let probe_leaf =
            leaves.probe[(i.wrapping_mul(40503) ^ (seed as usize >> 3)) % leaves.probe.len()];
        let live = simprof_sim::Region::new(map_region.base, (distinct * ENTRY_BYTES).max(64));
        items.push(WorkItem::compute(
            vec![sm.combine_values_by_key, sm.append_only_map_change_value, probe_leaf],
            tokens * costs::HASH_PROBE,
            costs::HASH_APKI,
            AccessPattern::Zipf,
            live,
            seed.wrapping_add(2 * i as u64 + 1),
        ));
    }
    let combined = (0..=u16::MAX).zip(counts).filter(|&(_, c)| c > 0).collect();
    (combined, items)
}

/// Leaf frames observed below the fused combine operation.
struct FusedLeaves {
    scan: Vec<simprof_engine::MethodId>,
    probe: Vec<simprof_engine::MethodId>,
}

impl FusedLeaves {
    fn intern(reg: &mut MethodRegistry, tokenize_fn: simprof_engine::MethodId) -> Self {
        Self {
            scan: vec![
                tokenize_fn,
                reg.intern("org.apache.hadoop.io.Text.decode", OpClass::Map),
                reg.intern("java.util.StringTokenizer.nextToken", OpClass::Map),
                reg.intern("org.apache.hadoop.util.LineReader.readLine", OpClass::Map),
                reg.intern("scala.collection.Iterator$$anon$12.hasNext", OpClass::Map),
            ],
            probe: vec![
                reg.intern(
                    "org.apache.spark.util.collection.AppendOnlyMap.incrementSize",
                    OpClass::Reduce,
                ),
                reg.intern(
                    "org.apache.spark.unsafe.hash.Murmur3_x86_32.hashUnsafeWords",
                    OpClass::Reduce,
                ),
                reg.intern("scala.collection.Iterator$$anon$11.next", OpClass::Reduce),
                reg.intern("java.lang.String.equals", OpClass::Reduce),
                reg.intern(
                    "org.apache.spark.util.collection.SizeTracker.afterUpdate",
                    OpClass::Reduce,
                ),
            ],
        }
    }
}

/// Builds the Spark WordCount job on the default corpus.
pub fn spark(cfg: &WorkloadConfig, machine: &mut Machine, reg: &mut MethodRegistry) -> Job {
    let corpus = corpus(cfg);
    spark_with_corpus(cfg, machine, reg, &corpus)
}

/// Builds the Spark WordCount job on an explicit corpus — the entry point of
/// the text-input sensitivity study (the paper's stated future work).
pub fn spark_with_corpus(
    cfg: &WorkloadConfig,
    machine: &mut Machine,
    reg: &mut MethodRegistry,
    corpus: &Corpus,
) -> Job {
    let sm = SparkMethods::intern(reg);
    let tokenize_fn = reg.intern("org.bigdatabench.wc.TokenizeFn.apply", OpClass::Map);
    let sum_fn = reg.intern("org.bigdatabench.wc.SumFn.apply", OpClass::Reduce);
    let leaves = FusedLeaves::intern(reg, tokenize_fn);
    let hashes = word_hashes(corpus);
    let ranges = partition_ranges(corpus.len(), cfg.partitions);

    let mut reducer_inputs: Vec<Vec<(u16, i64)>> = vec![Vec::new(); cfg.reducers];
    let mut map_tasks = Vec::with_capacity(ranges.len());
    for (p, &range) in ranges.iter().enumerate() {
        let seed = cfg.sub_seed(100 + p as u64);
        let bytes = corpus.bytes(range.0..range.1);
        let mut items = Vec::new();

        // The fused map-side combine (read + tokenize + probe interleaved,
        // read stalls overlapped record by record — Fig. 14's structure).
        let in_region = machine.alloc(bytes.max(64));
        let (combined, fused_items) = fused_scan_combine(
            corpus,
            range,
            in_region,
            cfg.hdfs.read_stall(bytes),
            machine,
            &sm,
            &leaves,
            seed,
        );
        items.extend(fused_items);

        let out_bytes = combined.len() as u64 * 16;
        items.push(spill_item(
            &cfg.hdfs,
            machine,
            out_bytes,
            vec![sm.shuffle_writer_write, sm.serialize_object],
            seed,
        ));
        for (w, c) in combined {
            reducer_inputs[route(hashes[usize::from(w)], cfg.reducers)].push((w, c));
        }
        map_tasks.push(Task::new(sm.shuffle_map_base(), items));
    }

    let mut reduce_tasks = Vec::with_capacity(cfg.reducers);
    for (r, pairs) in reducer_inputs.into_iter().enumerate() {
        let seed = cfg.sub_seed(200 + r as u64);
        let mut items = Vec::new();
        let fetch_bytes = pairs.len() as u64 * 16;
        let fetch_stall = cfg.shuffle_fetch_stall(fetch_bytes);
        let (final_map, combine_items) = ops::hash_combine(
            pairs,
            |a, b| *a += b,
            ENTRY_BYTES,
            BATCH,
            vec![sm.combine_combiners_by_key, sum_fn],
            AccessPattern::Zipf,
            machine,
            seed,
        );
        let mut combine_items = combine_items;
        overlap_stall(&mut combine_items, fetch_stall);
        mark_shuffle_fetch(&mut combine_items, fetch_bytes);
        items.extend(combine_items);
        let out = final_map.len() as u64 * 14;
        items.push(hdfs_write_item(&cfg.hdfs, machine, out, vec![sm.dfs_write], seed));
        reduce_tasks.push(Task::new(sm.result_base(), items));
    }

    Job::new(vec![Stage::new("wc-sp-stage0", map_tasks), Stage::new("wc-sp-stage1", reduce_tasks)])
}

/// Builds the Hadoop WordCount job.
pub fn hadoop(cfg: &WorkloadConfig, machine: &mut Machine, reg: &mut MethodRegistry) -> Job {
    let hm = HadoopMethods::intern(reg);
    let mapper = reg.intern("org.bigdatabench.wc.TokenizerMapper.map", OpClass::Map);
    let reducer_m = reg.intern("org.bigdatabench.wc.IntSumReducer.reduce", OpClass::Reduce);
    let corpus = corpus(cfg);
    let hashes = word_hashes(&corpus);
    let ranges = partition_ranges(corpus.len(), cfg.partitions);

    // Per reducer: the length of each mapper's sorted run, and the distinct
    // words its reduce sums (a word routes to one reducer, so a word is new
    // to its reducer when no mapper has emitted it before).
    let mut run_lens: Vec<Vec<usize>> = vec![Vec::with_capacity(ranges.len()); cfg.reducers];
    let mut distinct_words = vec![0u64; cfg.reducers];
    let mut seen = vec![false; corpus.vocabulary().len()];

    let mut map_tasks = Vec::with_capacity(ranges.len());
    for (p, &range) in ranges.iter().enumerate() {
        let seed = cfg.sub_seed(300 + p as u64);
        let bytes = corpus.bytes(range.0..range.1);
        let mut items = Vec::new();

        // The record reader feeds the mapper lazily: HDFS read stalls are
        // overlapped with tokenization rather than forming a prefix phase.
        let in_region = machine.alloc(bytes.max(64));
        let (tokens, tok_item) =
            tokenize(&corpus, range, vec![mapper, hm.map_output_buffer_collect], in_region, seed);
        items.push(tok_item.with_io_stall(cfg.hdfs.read_stall(bytes)));

        // sortAndSpill: the real bounded-buffer pipeline — one quicksort +
        // spill per buffer fill, plus a map-side merge when the mapper
        // overflowed its buffer more than once.
        let key_hashes: Vec<u64> = tokens.iter().map(|&t| hashes[usize::from(t)]).collect();
        items.extend(super::map_side_sort_spill(
            key_hashes,
            &cfg.hdfs,
            machine,
            vec![hm.sort_and_spill, hm.quick_sort],
            vec![hm.sort_and_spill, hm.ifile_writer_append],
            vec![hm.merger_merge],
            seed,
        ));

        // Combiner over the (sorted) pairs.
        let pairs = tokens.iter().map(|&t| (t, 1i64));
        let (combined, combine_items) = ops::hash_combine(
            pairs,
            |a, b| *a += b,
            ENTRY_BYTES,
            BATCH,
            vec![hm.combiner_combine, reducer_m],
            AccessPattern::Zipf,
            machine,
            seed,
        );
        items.extend(combine_items);

        // Compress + spill the combined output (§IV-A optimizations).
        let out_bytes = combined.len() as u64 * 16;
        items.push(spill_item(
            &cfg.hdfs,
            machine,
            out_bytes,
            vec![hm.codec_compress, hm.ifile_writer_append],
            seed,
        ));

        // Route real outputs to reducers; each mapper contributes one sorted
        // run per reducer.
        let mut per_r = vec![0usize; cfg.reducers];
        for (w, _) in combined {
            let r = route(hashes[usize::from(w)], cfg.reducers);
            per_r[r] += 1;
            let seen = &mut seen[usize::from(w)];
            distinct_words[r] += u64::from(!*seen);
            *seen = true;
        }
        for (lens, len) in run_lens.iter_mut().zip(per_r) {
            lens.push(len);
        }
        map_tasks.push(Task::new(hm.map_base(), items));
    }

    let mut reduce_tasks = Vec::with_capacity(cfg.reducers);
    for (r, lens) in run_lens.iter().enumerate() {
        let seed = cfg.sub_seed(400 + r as u64);
        let mut items = Vec::new();
        let total_keys: usize = lens.iter().sum();
        let fetch_bytes = total_keys as u64 * 16;
        let merge_region = machine.alloc(fetch_bytes.max(64));
        let mut merge_items = ops::merge_items(lens, merge_region, vec![hm.merger_merge], seed);
        overlap_stall(&mut merge_items, cfg.shuffle_fetch_stall(fetch_bytes));
        mark_shuffle_fetch(&mut merge_items, fetch_bytes);
        items.extend(merge_items);

        // The reduce: sum counts per word (sequential over sorted runs).
        let reduce_instrs = total_keys as u64 * 14;
        items.push(WorkItem::compute(
            vec![reducer_m],
            reduce_instrs,
            ops::costs::SEQ_APKI,
            AccessPattern::Sequential,
            merge_region,
            seed,
        ));

        let out = distinct_words[r] * 14;
        items.push(hdfs_write_item(&cfg.hdfs, machine, out, vec![hm.dfs_write], seed));
        reduce_tasks.push(Task::new(hm.reduce_base(), items));
    }

    Job::new(vec![Stage::new("wc-hp-map", map_tasks), Stage::new("wc-hp-reduce", reduce_tasks)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use simprof_sim::MachineConfig;

    fn setup() -> (WorkloadConfig, Machine, MethodRegistry) {
        let cfg = WorkloadConfig::tiny(11);
        (cfg, Machine::new(MachineConfig::scaled(2)), MethodRegistry::new())
    }

    #[test]
    fn spark_job_has_two_stages() {
        let (cfg, mut m, mut reg) = setup();
        let job = spark(&cfg, &mut m, &mut reg);
        assert_eq!(job.stages.len(), 2);
        assert_eq!(job.stages[0].tasks.len(), cfg.partitions);
        assert_eq!(job.stages[1].tasks.len(), cfg.reducers);
        assert!(job.total_instrs() > 1_000_000);
        // Map stage dominates (the Fig. 14 structure).
        assert!(job.stages[0].total_instrs() > 5 * job.stages[1].total_instrs());
    }

    #[test]
    fn hadoop_job_has_sort_items() {
        let (cfg, mut m, mut reg) = setup();
        let job = hadoop(&cfg, &mut m, &mut reg);
        assert_eq!(job.stages.len(), 2);
        let sort_id = reg.lookup("org.apache.hadoop.util.QuickSort.sort").unwrap();
        let sort_instrs: u64 = job.stages[0]
            .tasks
            .iter()
            .flat_map(|t| &t.items)
            .filter(|i| i.path.contains(&sort_id))
            .map(|i| i.instrs)
            .sum();
        assert!(sort_instrs > 100_000, "hadoop map wave quicksorts: {sort_instrs}");
    }

    #[test]
    fn fused_combine_counts_match_naive_recount() {
        let cfg = WorkloadConfig::tiny(41);
        let corpus = corpus(&cfg);
        let mut m = Machine::new(MachineConfig::scaled(1));
        let mut reg = MethodRegistry::new();
        let sm = SparkMethods::intern(&mut reg);
        let tok = reg.intern("t", OpClass::Map);
        let leaves = FusedLeaves::intern(&mut reg, tok);
        let region = m.alloc(1024);
        let lines = (0, corpus.len());
        let (combined, items) =
            fused_scan_combine(&corpus, lines, region, 0, &mut m, &sm, &leaves, 1);
        // Independent recount over the rendered text.
        let text: Vec<String> = (0..corpus.len()).map(|i| corpus.render(i)).collect();
        let mut naive: std::collections::HashMap<&str, i64> = Default::default();
        for l in &text {
            for w in l.split_whitespace() {
                *naive.entry(w).or_insert(0) += 1;
            }
        }
        assert_eq!(combined.len(), naive.len());
        for &(w, c) in &combined {
            assert_eq!(naive[corpus.word(w)], c, "count for {}", corpus.word(w));
        }
        // Sorted by word, alternating scan/probe items.
        assert!(combined.windows(2).all(|w| corpus.word(w[0].0) < corpus.word(w[1].0)));
        assert!(items.len() >= 4 && items.len() % 2 == 0);
    }

    #[test]
    fn tokenize_counts_real_tokens() {
        let corpus = Corpus::from_lines(&["the quick brown", "fox jumps over"]);
        let (tokens, item) = tokenize(&corpus, (0, 2), vec![], Region::new(0x10_000, 1024), 1);
        let words: Vec<&str> = tokens.iter().map(|&id| corpus.word(id)).collect();
        assert_eq!(words, ["the", "quick", "brown", "fox", "jumps", "over"]);
        let bytes = 15 + 14;
        assert_eq!(item.instrs, bytes * ops::costs::TOKENIZE_PER_BYTE + 6 * ops::costs::TOKEN_EMIT);
        assert_eq!(item.pattern, AccessPattern::Sequential);
    }

    #[test]
    fn deterministic_construction() {
        let (cfg, mut m1, mut r1) = setup();
        let j1 = spark(&cfg, &mut m1, &mut r1);
        let (cfg2, mut m2, mut r2) = setup();
        let j2 = spark(&cfg2, &mut m2, &mut r2);
        assert_eq!(j1, j2);
    }

    #[test]
    fn frameworks_share_corpus_but_differ_in_structure() {
        let (cfg, mut m, mut reg) = setup();
        let sp = spark(&cfg, &mut m, &mut reg);
        let hp = hadoop(&cfg, &mut m, &mut reg);
        // Hadoop runs the explicit sort, so its job is bigger.
        assert!(hp.total_instrs() > sp.total_instrs());
    }
}
