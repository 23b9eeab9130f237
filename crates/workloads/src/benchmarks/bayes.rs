//! NaiveBayes — train a multinomial classifier on a labelled corpus, then
//! classify held-out documents (BigDataBench's machine-learning workload).
//!
//! Training is a WordCount-shaped aggregation over `(class, word)` pairs;
//! classification is a scoring scan whose per-token model lookups are random
//! probes over the whole model table — a second, distinctly
//! memory-behaviour-different phase. On Hadoop the two steps are two
//! chained MapReduce jobs (four stages); on Spark, three stages of one job.

use simprof_engine::hadoop::HadoopMethods;
use simprof_engine::ops::FxHashMap;
use simprof_engine::spark::SparkMethods;
use simprof_engine::{ops, Job, MethodRegistry, OpClass, Stage, Task, WorkItem};
use simprof_sim::{AccessPattern, Machine, Region};

use super::{
    fnv1a, fnv1a_extend, hdfs_write_item, mark_shuffle_fetch, overlap_stall, partition_ranges,
    route, spill_item, synth, word_hashes,
};
use crate::config::WorkloadConfig;
use crate::synth::text::{LabeledCorpus, TextSynth};

/// Number of document classes.
pub const CLASSES: usize = 4;
const ENTRY_BYTES: u64 = 56;
const BATCH: usize = 4_096;
/// Instructions per token scored during classification.
const SCORE_PER_TOKEN: u64 = CLASSES as u64 * 18;
// Classes print as one digit, so `(class, word)` tuple order equals the
// byte order of the `"class:word"` shuffle key.
const _: () = assert!(CLASSES <= 10);

fn corpus(cfg: &WorkloadConfig) -> LabeledCorpus {
    synth(|| {
        let synth = TextSynth::new(5_000, 1.0, 9, cfg.sub_seed(0xBA1E5));
        LabeledCorpus::generate(&synth, CLASSES, cfg.text_bytes / 2, cfg.sub_seed(5))
    })
}

/// The trained model: per-class document counts, the number of distinct
/// `(class, word-hash)` entries, and each vocabulary word's per-class
/// log-likelihood terms.
#[derive(Debug, Clone)]
pub struct BayesModel {
    /// Distinct `(class, word-hash)` entries seen in training.
    entries: usize,
    class_docs: [i64; CLASSES],
    /// `ln((count + 1) / denom_c)` for each class `c`, by word id; a word no
    /// class has seen gets the `count = 0` terms.
    terms: Vec<[f64; CLASSES]>,
}

impl BayesModel {
    /// Trains the Laplace-smoothed multinomial model on every document of
    /// `docs`; `hashes` holds each vocabulary word's FNV-1a hash.
    ///
    /// Words are counted per `(class, word-hash)` entry, so two words that
    /// shared a hash would share their counts and terms exactly as a
    /// hash-keyed count table merges them.
    fn train(docs: &LabeledCorpus, hashes: &[u64]) -> Self {
        let corpus = &docs.corpus;
        let mut class_docs = [0i64; CLASSES];
        let mut class_tokens = [0i64; CLASSES];
        let mut by_id = vec![[0i64; CLASSES]; hashes.len()];
        for (i, &class) in docs.labels.iter().enumerate() {
            class_docs[class] += 1;
            for &id in corpus.line(i) {
                by_id[usize::from(id)][class] += 1;
                class_tokens[class] += 1;
            }
        }
        let mut counts: FxHashMap<(usize, u64), i64> = FxHashMap::default();
        for (row, &h) in by_id.iter().zip(hashes) {
            for (c, &count) in row.iter().enumerate().filter(|&(_, &count)| count > 0) {
                *counts.entry((c, h)).or_insert(0) += count;
            }
        }

        let vocab = counts.len() as f64 + 1.0;
        let denom: [f64; CLASSES] = std::array::from_fn(|c| class_tokens[c] as f64 + vocab);
        let term = |c: usize, count: i64| ((count as f64 + 1.0) / denom[c]).ln();
        let unseen: [f64; CLASSES] = std::array::from_fn(|c| term(c, 0));
        let mut by_hash: FxHashMap<u64, [f64; CLASSES]> = FxHashMap::default();
        for (&(c, h), &count) in &counts {
            by_hash.entry(h).or_insert(unseen)[c] = term(c, count);
        }
        let terms = hashes.iter().map(|h| by_hash.get(h).copied().unwrap_or(unseen)).collect();
        Self { entries: counts.len(), class_docs, terms }
    }

    /// Classifies a document (its word ids) by maximum log-likelihood with
    /// Laplace smoothing. Each class's score sums its prior and then the
    /// document's word terms in document order.
    pub fn classify(&self, doc: &[u16]) -> usize {
        let total_docs: i64 = self.class_docs.iter().sum::<i64>().max(1);
        let mut scores: [f64; CLASSES] =
            std::array::from_fn(|c| (self.class_docs[c].max(1) as f64 / total_docs as f64).ln());
        for &id in doc {
            for (score, term) in scores.iter_mut().zip(&self.terms[usize::from(id)]) {
                *score += term;
            }
        }
        let mut best = (0usize, f64::NEG_INFINITY);
        for (c, &score) in scores.iter().enumerate() {
            if score > best.1 {
                best = (c, score);
            }
        }
        best.0
    }

    /// Model table size (distinct `(class, word)` entries).
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Whether the model is empty.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }
}

/// The FNV-1a hash of the `"class:word"` shuffle key of a combined
/// `(class, word)` pair: FNV continued over the class digit, `':'` and the
/// word's bytes, with no key string built.
fn class_word_hash(class: usize, word: &str) -> u64 {
    fnv1a_extend(fnv1a_extend(fnv1a(""), &[b'0' + class as u8, b':']), word.as_bytes())
}

/// The tokenize item of documents `lo..hi` as `"class document"` input
/// records (one class digit, a space, the document), counted without
/// building them.
fn labeled_tokenize_item(
    docs: &LabeledCorpus,
    (lo, hi): (usize, usize),
    path: Vec<simprof_engine::MethodId>,
    in_region: Region,
    seed: u64,
) -> WorkItem {
    let n = (hi - lo) as u64;
    let bytes = docs.corpus.bytes(lo..hi) + n;
    let tokens = n * (docs.corpus.words_per_line() as u64 + 1);
    ops::tokenize_item(bytes, tokens, path, in_region, seed)
}

/// The `((class, word id), 1)` records of documents `lo..hi`.
fn labeled_pairs(
    docs: &LabeledCorpus,
    (lo, hi): (usize, usize),
) -> impl Iterator<Item = ((usize, u16), i64)> + '_ {
    (lo..hi).flat_map(move |i| {
        let class = docs.labels[i];
        docs.corpus.line(i).iter().map(move |&id| ((class, id), 1i64))
    })
}

/// Classification items for one partition of documents: a streaming scan
/// plus random model probes, and the real predicted labels.
#[allow(clippy::too_many_arguments)]
fn classify_items(
    docs: &LabeledCorpus,
    (lo, hi): (usize, usize),
    model: &BayesModel,
    model_region: Region,
    scan_path: Vec<simprof_engine::MethodId>,
    probe_path: Vec<simprof_engine::MethodId>,
    in_region: Region,
    read_stall: u64,
    seed: u64,
) -> (Vec<usize>, Vec<WorkItem>) {
    let tokens = ((hi - lo) * docs.corpus.words_per_line()) as u64;
    let bytes = docs.corpus.bytes(lo..hi);
    let predictions: Vec<usize> = (lo..hi).map(|i| model.classify(docs.corpus.line(i))).collect();
    let items = vec![
        WorkItem::compute(
            scan_path,
            bytes * 2,
            ops::costs::SEQ_APKI,
            AccessPattern::Sequential,
            in_region,
            seed,
        )
        .with_io_stall(read_stall),
        WorkItem::compute(
            probe_path,
            tokens * SCORE_PER_TOKEN,
            ops::costs::HASH_APKI,
            AccessPattern::Zipf,
            model_region,
            seed ^ 1,
        ),
    ];
    (predictions, items)
}

/// Builds the Spark NaiveBayes job: train map, train reduce, classify.
pub fn spark(cfg: &WorkloadConfig, machine: &mut Machine, reg: &mut MethodRegistry) -> Job {
    let sm = SparkMethods::intern(reg);
    let emit_fn = reg.intern("org.bigdatabench.bayes.LabeledTokenFn.apply", OpClass::Map);
    let agg_fn = reg.intern("org.bigdatabench.bayes.CountAggFn.apply", OpClass::Reduce);
    let train_fn = reg.intern("org.bigdatabench.bayes.NaiveBayes.train", OpClass::Reduce);
    let predict_fn = reg.intern("org.bigdatabench.bayes.NaiveBayesModel.predict", OpClass::Map);

    let docs = corpus(cfg);
    let hashes = word_hashes(&docs.corpus);
    let model = BayesModel::train(&docs, &hashes);
    let model_region = machine.alloc(model.len() as u64 * ENTRY_BYTES);
    let ranges = partition_ranges(docs.corpus.len(), cfg.partitions);

    // Stage 0: tokenize + map-side combine of (class:word, 1). Keys are
    // `(class, word id)`: one-digit classes and id order make their order
    // the `"class:word"` key's byte order.
    let mut reducer_inputs: Vec<Vec<((usize, u16), i64)>> = vec![Vec::new(); cfg.reducers];
    let mut map_tasks = Vec::with_capacity(ranges.len());
    for (p, &range) in ranges.iter().enumerate() {
        let seed = cfg.sub_seed(1100 + p as u64);
        let bytes = docs.corpus.bytes(range.0..range.1);
        let mut items = Vec::new();
        let in_region = machine.alloc(bytes.max(64));
        let tok_item = labeled_tokenize_item(
            &docs,
            range,
            vec![sm.map_partitions_with_index, emit_fn],
            in_region,
            seed,
        );
        items.push(tok_item.with_io_stall(cfg.hdfs.read_stall(bytes)));
        let (combined, combine_items) = ops::hash_combine(
            labeled_pairs(&docs, range),
            |a, b| *a += b,
            ENTRY_BYTES,
            BATCH,
            vec![sm.combine_values_by_key, sm.append_only_map_change_value],
            AccessPattern::Zipf,
            machine,
            seed,
        );
        items.extend(combine_items);
        let out = combined.len() as u64 * 18;
        items.push(spill_item(
            &cfg.hdfs,
            machine,
            out,
            vec![sm.shuffle_writer_write, sm.serialize_object],
            seed,
        ));
        for ((class, w), v) in combined {
            let r = route(class_word_hash(class, docs.corpus.word(w)), cfg.reducers);
            reducer_inputs[r].push(((class, w), v));
        }
        map_tasks.push(Task::new(sm.shuffle_map_base(), items));
    }

    // Stage 1: aggregate counts and finalize the model.
    let mut agg_tasks = Vec::with_capacity(cfg.reducers);
    for (r, pairs) in reducer_inputs.into_iter().enumerate() {
        let seed = cfg.sub_seed(1200 + r as u64);
        let mut items = Vec::new();
        let fetch_bytes = pairs.len() as u64 * 18;
        let fetch_stall = cfg.shuffle_fetch_stall(fetch_bytes);
        let (final_counts, combine_items) = ops::hash_combine(
            pairs,
            |a, b| *a += b,
            ENTRY_BYTES,
            BATCH,
            vec![sm.combine_combiners_by_key, agg_fn],
            AccessPattern::Zipf,
            machine,
            seed,
        );
        let mut combine_items = combine_items;
        overlap_stall(&mut combine_items, fetch_stall);
        mark_shuffle_fetch(&mut combine_items, fetch_bytes);
        items.extend(combine_items);
        // Likelihood computation over this reducer's share of the model.
        items.push(WorkItem::compute(
            vec![train_fn],
            final_counts.len() as u64 * 40,
            ops::costs::SEQ_APKI,
            AccessPattern::Sequential,
            model_region,
            seed,
        ));
        let out = final_counts.len() as u64 * 20;
        items.push(hdfs_write_item(&cfg.hdfs, machine, out, vec![sm.dfs_write], seed));
        agg_tasks.push(Task::new(sm.result_base(), items));
    }

    // Stage 2: classify every document against the trained model.
    let mut classify_tasks = Vec::with_capacity(ranges.len());
    for (p, &(lo, hi)) in ranges.iter().enumerate() {
        let seed = cfg.sub_seed(1300 + p as u64);
        let bytes = docs.corpus.bytes(lo..hi);
        let mut items = Vec::new();
        let in_region = machine.alloc(bytes.max(64));
        let read_stall = cfg.hdfs.read_stall(bytes);
        let (_preds, score_items) = classify_items(
            &docs,
            (lo, hi),
            &model,
            model_region,
            vec![sm.map_partitions_with_index, emit_fn],
            vec![sm.map_partitions_with_index, predict_fn],
            in_region,
            read_stall,
            seed,
        );
        items.extend(score_items);
        items.push(hdfs_write_item(
            &cfg.hdfs,
            machine,
            (hi - lo) as u64 * 4,
            vec![sm.dfs_write],
            seed,
        ));
        classify_tasks.push(Task::new(sm.result_base(), items));
    }

    Job::new(vec![
        Stage::new("bayes-sp-stage0", map_tasks),
        Stage::new("bayes-sp-stage1", agg_tasks),
        Stage::new("bayes-sp-stage2", classify_tasks),
    ])
}

/// Builds the Hadoop NaiveBayes job: two chained MR jobs (train, classify).
pub fn hadoop(cfg: &WorkloadConfig, machine: &mut Machine, reg: &mut MethodRegistry) -> Job {
    let hm = HadoopMethods::intern(reg);
    let mapper = reg.intern("org.bigdatabench.bayes.LabeledTokenMapper.map", OpClass::Map);
    let reducer_m = reg.intern("org.bigdatabench.bayes.CountSumReducer.reduce", OpClass::Reduce);
    let score_mapper = reg.intern("org.bigdatabench.bayes.ScoreMapper.map", OpClass::Map);

    let docs = corpus(cfg);
    let hashes = word_hashes(&docs.corpus);
    let model = BayesModel::train(&docs, &hashes);
    let model_region = machine.alloc(model.len() as u64 * ENTRY_BYTES);
    let ranges = partition_ranges(docs.corpus.len(), cfg.partitions);

    // --- Job 1: train ---
    // Per reducer: the length of each mapper's sorted run.
    let mut run_lens: Vec<Vec<usize>> = vec![Vec::with_capacity(ranges.len()); cfg.reducers];
    let mut map_tasks = Vec::with_capacity(ranges.len());
    for (p, &range) in ranges.iter().enumerate() {
        let seed = cfg.sub_seed(1400 + p as u64);
        let bytes = docs.corpus.bytes(range.0..range.1);
        let mut items = Vec::new();
        let in_region = machine.alloc(bytes.max(64));
        let tok_item = labeled_tokenize_item(
            &docs,
            range,
            vec![mapper, hm.map_output_buffer_collect],
            in_region,
            seed,
        );
        items.push(tok_item.with_io_stall(cfg.hdfs.read_stall(bytes)));
        // Spill sort over emitted (class:word) key hashes, with the real
        // bounded-buffer multi-spill pipeline.
        let key_hashes: Vec<u64> = labeled_pairs(&docs, range)
            .map(|((class, w), _)| hashes[usize::from(w)] ^ (class as u64) << 56)
            .collect();
        items.extend(super::map_side_sort_spill(
            key_hashes,
            &cfg.hdfs,
            machine,
            vec![hm.sort_and_spill, hm.quick_sort],
            vec![hm.sort_and_spill, hm.ifile_writer_append],
            vec![hm.merger_merge],
            seed,
        ));
        // Combine.
        let (combined, combine_items) = ops::hash_combine(
            labeled_pairs(&docs, range),
            |a, b| *a += b,
            ENTRY_BYTES,
            BATCH,
            vec![hm.combiner_combine, reducer_m],
            AccessPattern::Zipf,
            machine,
            seed,
        );
        items.extend(combine_items);
        let out = combined.len() as u64 * 18;
        items.push(spill_item(
            &cfg.hdfs,
            machine,
            out,
            vec![hm.codec_compress, hm.ifile_writer_append],
            seed,
        ));
        let mut per_r = vec![0usize; cfg.reducers];
        for ((class, w), _) in combined {
            per_r[route(class_word_hash(class, docs.corpus.word(w)), cfg.reducers)] += 1;
        }
        for (lens, len) in run_lens.iter_mut().zip(per_r) {
            lens.push(len);
        }
        map_tasks.push(Task::new(hm.map_base(), items));
    }

    let mut reduce_tasks = Vec::with_capacity(cfg.reducers);
    for (r, lens) in run_lens.iter().enumerate() {
        let seed = cfg.sub_seed(1500 + r as u64);
        let mut items = Vec::new();
        let count = lens.iter().sum::<usize>() as u64;
        let fetch_bytes = count * 18;
        let merge_region = machine.alloc(fetch_bytes.max(64));
        let mut merge_items = ops::merge_items(lens, merge_region, vec![hm.merger_merge], seed);
        overlap_stall(&mut merge_items, cfg.shuffle_fetch_stall(fetch_bytes));
        mark_shuffle_fetch(&mut merge_items, fetch_bytes);
        items.extend(merge_items);
        items.push(WorkItem::compute(
            vec![reducer_m],
            count * 30,
            ops::costs::SEQ_APKI,
            AccessPattern::Sequential,
            merge_region,
            seed,
        ));
        items.push(hdfs_write_item(&cfg.hdfs, machine, count * 20, vec![hm.dfs_write], seed));
        reduce_tasks.push(Task::new(hm.reduce_base(), items));
    }

    // --- Job 2: classify ---
    let mut classify_tasks = Vec::with_capacity(ranges.len());
    for (p, &(lo, hi)) in ranges.iter().enumerate() {
        let seed = cfg.sub_seed(1600 + p as u64);
        let bytes = docs.corpus.bytes(lo..hi);
        let mut items = Vec::new();
        let in_region = machine.alloc(bytes.max(64));
        let read_stall = cfg.hdfs.read_stall(bytes);
        let (_preds, score_items) = classify_items(
            &docs,
            (lo, hi),
            &model,
            model_region,
            vec![score_mapper, hm.map_output_buffer_collect],
            vec![score_mapper],
            in_region,
            read_stall,
            seed,
        );
        items.extend(score_items);
        items.push(spill_item(
            &cfg.hdfs,
            machine,
            (hi - lo) as u64 * 4,
            vec![hm.ifile_writer_append],
            seed,
        ));
        classify_tasks.push(Task::new(hm.map_base(), items));
    }

    // Tiny collect wave for the classification counts.
    let seed = cfg.sub_seed(1700);
    let collect = vec![Task::new(
        hm.reduce_base(),
        vec![
            {
                let bytes = docs.corpus.len() as u64 * 4;
                let region = machine.alloc(bytes.max(64));
                WorkItem::io(
                    vec![hm.fetcher_copy],
                    bytes / 6 + 1,
                    cfg.shuffle_fetch_stall(bytes),
                    region,
                    seed,
                )
                .with_shuffle_bytes(bytes)
            },
            hdfs_write_item(&cfg.hdfs, machine, CLASSES as u64 * 16, vec![hm.dfs_write], seed),
        ],
    )];

    Job::new(vec![
        Stage::new("bayes-hp-train-map", map_tasks),
        Stage::new("bayes-hp-train-reduce", reduce_tasks),
        Stage::new("bayes-hp-classify-map", classify_tasks),
        Stage::new("bayes-hp-classify-reduce", collect),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use simprof_sim::MachineConfig;

    #[test]
    fn model_learns_classes() {
        let cfg = WorkloadConfig::tiny(23);
        let docs = corpus(&cfg);
        let model = BayesModel::train(&docs, &word_hashes(&docs.corpus));
        assert!(!model.is_empty());
        // Training-set accuracy should beat chance (25 %) comfortably —
        // the class-marker vocabulary makes classes learnable.
        let n = docs.corpus.len();
        let correct = (0..n).filter(|&i| model.classify(docs.corpus.line(i)) == docs.labels[i]);
        let acc = correct.count() as f64 / n as f64;
        assert!(acc > 0.5, "accuracy {acc}");
    }

    #[test]
    fn class_word_hash_is_the_key_strings_hash() {
        for (class, word) in [(0, "ba"), (3, "kelo"), (9, "")] {
            assert_eq!(class_word_hash(class, word), fnv1a(&format!("{class}:{word}")));
        }
    }

    #[test]
    fn spark_has_three_stages() {
        let cfg = WorkloadConfig::tiny(23);
        let mut m = Machine::new(MachineConfig::scaled(2));
        let mut reg = MethodRegistry::new();
        let job = spark(&cfg, &mut m, &mut reg);
        assert_eq!(job.stages.len(), 3);
    }

    #[test]
    fn hadoop_has_two_chained_jobs() {
        let cfg = WorkloadConfig::tiny(23);
        let mut m = Machine::new(MachineConfig::scaled(2));
        let mut reg = MethodRegistry::new();
        let job = hadoop(&cfg, &mut m, &mut reg);
        assert_eq!(job.stages.len(), 4);
        // Classification probes the model randomly.
        let scorer = reg.lookup("org.bigdatabench.bayes.ScoreMapper.map").unwrap();
        let probe = job.stages[2]
            .tasks
            .iter()
            .flat_map(|t| &t.items)
            .find(|i| i.path == vec![scorer])
            .expect("score item");
        assert_eq!(probe.pattern, AccessPattern::Zipf);
    }
}
