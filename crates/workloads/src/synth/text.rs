//! Zipfian text synthesis, as vocabulary ids.
//!
//! Word frequencies in natural-language corpora follow Zipf's law; the
//! BigDataBench text synthesizer preserves this when scaling seed inputs.
//! [`TextSynth`] draws words from a synthetic vocabulary with
//! `P(rank r) ∝ 1 / r^s`, producing corpora whose distinct-word growth and
//! skew drive the hash-combine and sort behaviour of the text benchmarks.
//! [`LabeledCorpus`] adds per-class vocabulary bias for NaiveBayes.
//!
//! A corpus is its word-id stream ([`Corpus`]): `words_per_line` ids per
//! line, over a vocabulary held in `str` order, so **id order is string
//! order** and sorting ids sorts words. No line string is ever assembled.
//! Everything a text job reads of a line is a function of its ids: its
//! length is the sum of its words' lengths plus the separators, and any
//! per-word quantity (a hash, "contains the grep needle") is a
//! per-vocabulary table looked up by id. The rendered text — ids mapped to
//! words and joined by single spaces — is byte-identical to the line
//! strings earlier releases built from the same RNG stream (pinned by
//! `crates/workloads/tests/corpus_equivalence.rs`).

use std::ops::Range;

use rand::RngExt;

use simprof_stats::{seeded, split_seed, SeedRng};

/// Buckets of the rank-draw guide table. A power of two, so `x · GUIDE` is
/// exact for every `f64` in `[0, 1)` and the bucket of a draw is exact too.
const GUIDE: usize = 65_536;

/// Seeded Zipfian text generator.
#[derive(Debug, Clone)]
pub struct TextSynth {
    /// Words per line (at least 1).
    words_per_line: usize,
    ranks: RankTable,
    /// The vocabulary in `str` order (index = id).
    words: Vec<String>,
    /// Byte length of each word, by id.
    word_len: Vec<u8>,
    /// The id of the word at each Zipf rank.
    id_of_rank: Vec<u16>,
}

/// Cumulative distribution of `P(rank r) ∝ 1 / r^s` over `vocab` ranks.
fn zipf_cdf(vocab: usize, exponent: f64) -> Vec<f64> {
    let mut weights: Vec<f64> = (1..=vocab).map(|r| 1.0 / (r as f64).powf(exponent)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    for w in &mut weights {
        acc += *w / total;
        *w = acc;
    }
    weights
}

/// Inverse-CDF lookup from a uniform draw to a rank, bracketed by a guide
/// table.
#[derive(Debug, Clone)]
struct RankTable {
    /// Cumulative distribution over ranks, followed by `window` entries of
    /// `+∞`.
    cdf: Vec<f64>,
    /// `guide[b]` is the first rank whose cumulative probability reaches
    /// `b / GUIDE` (`GUIDE + 1` entries).
    guide: Vec<u32>,
    /// The most ranks any guide bucket spans.
    window: usize,
}

impl RankTable {
    /// Builds the table in one merge walk over buckets and ranks: the CDF
    /// is non-decreasing, so `guide[b]` is where `partition_point` for the
    /// edge `b / GUIDE` lands, and it never moves left as `b` grows.
    fn new(mut cdf: Vec<f64>) -> Self {
        let mut rank = 0usize;
        let guide: Vec<u32> = (0..=GUIDE)
            .map(|b| {
                let edge = b as f64 / GUIDE as f64;
                while rank < cdf.len() && cdf[rank] < edge {
                    rank += 1;
                }
                u32::try_from(rank).expect("vocabulary fits u32")
            })
            .collect();
        let window = guide.windows(2).map(|g| (g[1] - g[0]) as usize).max().unwrap_or(0);
        cdf.resize(cdf.len() + window, f64::INFINITY);
        Self { cdf, guide, window }
    }

    /// The first rank whose cumulative probability reaches `x ∈ [0, 1)`:
    /// `cdf.partition_point(|&c| c < x)`, which is the vocabulary size when
    /// the last entry rounds below `x`. For `x` in bucket `b`, entries below
    /// `b / GUIDE` are below `x` and entries reaching `(b + 1) / GUIDE`
    /// reach `x`, so the answer lies in `guide[b] ..= guide[b + 1]`, at most
    /// `window` past `guide[b]`. Searching that fixed-width (`+∞`-padded)
    /// window takes the same steps for every draw.
    fn rank(&self, x: f64) -> usize {
        let lo = self.guide[(x * GUIDE as f64) as usize] as usize;
        lo + self.cdf[lo..lo + self.window].partition_point(|&c| c < x)
    }
}

impl TextSynth {
    /// Builds a generator with a `vocab`-word synthetic vocabulary and Zipf
    /// exponent `exponent` (1.0 ≈ natural language).
    ///
    /// # Panics
    ///
    /// Panics when `vocab` is 0 or above 65 536 (ids are stored as `u16`),
    /// or when `words_per_line` is 0.
    pub fn new(vocab: usize, exponent: f64, words_per_line: usize, seed: u64) -> Self {
        assert!(vocab > 0, "vocabulary must be non-empty");
        assert!(vocab <= 1 << 16, "vocabulary must fit u16 ranks (at most 65 536 words)");
        assert!(words_per_line > 0, "lines must hold at least one word");
        let ranks = RankTable::new(zipf_cdf(vocab, exponent));
        // Rank order is generation order; ids are positions in `str` order.
        let by_rank = Self::make_words(vocab, seed);
        let mut order: Vec<usize> = (0..vocab).collect();
        order.sort_unstable_by(|&a, &b| by_rank[a].cmp(&by_rank[b]));
        let mut id_of_rank = vec![0u16; vocab];
        for (id, &rank) in order.iter().enumerate() {
            id_of_rank[rank] = id as u16;
        }
        let words: Vec<String> = order.iter().map(|&rank| by_rank[rank].clone()).collect();
        let word_len =
            words.iter().map(|w| u8::try_from(w.len()).expect("words are short")).collect();
        Self { words_per_line, ranks, words, word_len, id_of_rank }
    }

    /// Synthesizes a vocabulary of distinct pronounceable-ish words, in
    /// rank order.
    fn make_words(vocab: usize, seed: u64) -> Vec<String> {
        const C: &[u8] = b"bcdfghjklmnprstvz";
        const V: &[u8] = b"aeiou";
        let mut rng = seeded(split_seed(seed, 0x7E47));
        let mut out = Vec::with_capacity(vocab);
        let mut seen = std::collections::HashSet::new();
        while out.len() < vocab {
            let syllables = 1 + rng.random_range(0..3usize);
            let mut w = String::new();
            for _ in 0..=syllables {
                w.push(C[rng.random_range(0..C.len())] as char);
                w.push(V[rng.random_range(0..V.len())] as char);
            }
            if seen.insert(w.clone()) {
                out.push(w);
            }
        }
        out
    }

    /// The id of the word at Zipf rank `rank` (clamped to the last rank).
    fn id_at(&self, rank: usize) -> u16 {
        self.id_of_rank[rank.min(self.id_of_rank.len() - 1)]
    }

    /// Draws one word's id.
    fn draw_id(&self, rng: &mut SeedRng) -> u16 {
        let x: f64 = rng.random();
        self.id_at(self.ranks.rank(x))
    }

    /// The vocabulary word at Zipf rank `rank` (0 = most frequent). Used by
    /// grep to pick a needle of known rarity.
    pub fn word_at(&self, rank: usize) -> &str {
        &self.words[usize::from(self.id_at(rank))]
    }

    /// An empty corpus over this generator's vocabulary.
    fn empty_corpus(&self) -> Corpus {
        Corpus {
            words: self.words.clone(),
            word_len: self.word_len.clone(),
            words_per_line: self.words_per_line,
            ids: Vec::new(),
        }
    }

    /// Generates lines totalling approximately `bytes` of text: whole lines
    /// of `words_per_line` Zipf draws (consuming the RNG stream in line
    /// order) until the produced bytes — words, separators and newlines —
    /// reach `bytes`.
    pub fn corpus(&self, bytes: usize, seed: u64) -> Corpus {
        let mut rng = seeded(split_seed(seed, 0x11E5));
        let mut corpus = self.empty_corpus();
        let mut produced = 0usize;
        while produced < bytes {
            for _ in 0..self.words_per_line {
                corpus.ids.push(self.draw_id(&mut rng));
            }
            produced += corpus.line_len(corpus.len() - 1) + 1;
        }
        corpus
    }
}

/// A text corpus as a word-id stream: `words_per_line` ids per line, row
/// major, over a vocabulary sorted in `str` order (id = position), so id
/// order equals string order. Line `i` renders as its words joined by
/// single spaces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Corpus {
    /// The vocabulary in `str` order.
    words: Vec<String>,
    /// Byte length of each word, by id.
    word_len: Vec<u8>,
    words_per_line: usize,
    ids: Vec<u16>,
}

impl Corpus {
    /// Builds a corpus from line strings of whitespace-separated words, all
    /// with the same number of words; the vocabulary is their distinct
    /// words. The lines render back to their words joined by single spaces.
    ///
    /// # Panics
    ///
    /// Panics when `lines` is empty, a line has no words or a different
    /// word count than the first, a word is longer than 255 bytes, or there
    /// are more than 65 536 distinct words.
    pub fn from_lines<S: AsRef<str>>(lines: &[S]) -> Self {
        let tokens: Vec<Vec<&str>> =
            lines.iter().map(|l| l.as_ref().split_whitespace().collect()).collect();
        let words_per_line = tokens.first().map_or(0, Vec::len);
        assert!(words_per_line > 0, "lines must hold at least one word");
        assert!(
            tokens.iter().all(|t| t.len() == words_per_line),
            "every line must hold the same number of words"
        );
        let mut words: Vec<String> = tokens.iter().flatten().map(|&w| w.to_owned()).collect();
        words.sort_unstable();
        words.dedup();
        assert!(words.len() <= 1 << 16, "vocabulary must fit u16 ids");
        let ids = tokens
            .iter()
            .flatten()
            .map(|w| words.binary_search_by(|v| v.as_str().cmp(w)).expect("word is in vocabulary"))
            .map(|id| id as u16)
            .collect();
        let word_len = words.iter().map(|w| u8::try_from(w.len()).expect("short word")).collect();
        Self { words, word_len, words_per_line, ids }
    }

    /// Number of lines.
    pub fn len(&self) -> usize {
        self.ids.len() / self.words_per_line
    }

    /// Whether the corpus has no lines.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Words per line.
    pub fn words_per_line(&self) -> usize {
        self.words_per_line
    }

    /// The vocabulary in `str` order: word `id` is `vocabulary()[id]`.
    pub fn vocabulary(&self) -> &[String] {
        &self.words
    }

    /// The word with id `id`.
    pub fn word(&self, id: u16) -> &str {
        &self.words[usize::from(id)]
    }

    /// The word ids of line `i`.
    pub fn line(&self, i: usize) -> &[u16] {
        self.lines(i..i + 1)
    }

    /// The word ids of `lines`, row major.
    pub fn lines(&self, lines: Range<usize>) -> &[u16] {
        let wpl = self.words_per_line;
        &self.ids[lines.start * wpl..lines.end * wpl]
    }

    /// Byte length of line `i` without its newline: its words' lengths
    /// plus `words_per_line − 1` separators.
    pub fn line_len(&self, i: usize) -> usize {
        self.word_bytes(self.line(i)) + self.words_per_line - 1
    }

    /// Bytes of `lines` as text, each line with its newline.
    pub fn bytes(&self, lines: Range<usize>) -> u64 {
        let n = (lines.end - lines.start) * self.words_per_line;
        (self.word_bytes(self.lines(lines)) + n) as u64
    }

    fn word_bytes(&self, ids: &[u16]) -> usize {
        ids.iter().map(|&id| usize::from(self.word_len[usize::from(id)])).sum()
    }

    /// `f` applied once to every vocabulary word, indexed by id: the
    /// per-vocabulary table that replaces per-token string work.
    pub fn word_table<T>(&self, f: impl FnMut(&String) -> T) -> Vec<T> {
        self.words.iter().map(f).collect()
    }

    /// Whether each line contains `needle`. Lines join words with single
    /// spaces, so for a needle without a space a line matches exactly when
    /// one of its words contains it.
    ///
    /// # Panics
    ///
    /// Panics when `needle` contains a space.
    pub fn lines_containing(&self, needle: &str) -> Vec<bool> {
        assert!(!needle.contains(' '), "needle must not span words");
        let hit = self.word_table(|w| w.contains(needle));
        self.ids
            .chunks_exact(self.words_per_line)
            .map(|line| line.iter().any(|&id| hit[usize::from(id)]))
            .collect()
    }

    /// Line `i` as text (without its newline).
    pub fn render(&self, i: usize) -> String {
        let words: Vec<&str> = self.line(i).iter().map(|&id| self.word(id)).collect();
        words.join(" ")
    }
}

/// The text-input catalog for the text-workload input-sensitivity study —
/// the paper's stated future work (§IV-E: "for WordCount, the inputs with
/// different frequencies of words should be used"). Each variant changes
/// the corpus statistic that drives WordCount's memory behaviour: word-
/// frequency skew (the Zipf exponent) or vocabulary size (the hash-map
/// footprint).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TextInput {
    /// The training input: natural-language-like skew (s = 1.0, 4 K words).
    Base,
    /// Heavier skew — a few words dominate (s = 1.3).
    Skewed,
    /// Flatter frequencies (s = 0.7): the hot set is much larger.
    Flat,
    /// Small vocabulary (1 K words): the whole map is cache resident.
    SmallVocab,
    /// Large vocabulary (16 K words): the map far exceeds the LLC.
    LargeVocab,
    /// Longer lines (30 words): scan-to-probe ratio shifts.
    LongLines,
}

impl TextInput {
    /// All inputs, training input first.
    pub const ALL: [TextInput; 6] = [
        TextInput::Base,
        TextInput::Skewed,
        TextInput::Flat,
        TextInput::SmallVocab,
        TextInput::LargeVocab,
        TextInput::LongLines,
    ];

    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            TextInput::Base => "Base",
            TextInput::Skewed => "Skewed",
            TextInput::Flat => "Flat",
            TextInput::SmallVocab => "SmallVocab",
            TextInput::LargeVocab => "LargeVocab",
            TextInput::LongLines => "LongLines",
        }
    }

    /// `(vocab, zipf exponent, words per line)` of the variant.
    pub fn params(self) -> (usize, f64, usize) {
        match self {
            TextInput::Base => (4_000, 1.0, 10),
            TextInput::Skewed => (4_000, 1.3, 10),
            TextInput::Flat => (4_000, 0.7, 10),
            TextInput::SmallVocab => (1_000, 1.0, 10),
            TextInput::LargeVocab => (16_000, 1.0, 10),
            TextInput::LongLines => (4_000, 1.0, 30),
        }
    }

    /// Synthesizes `bytes` of this input.
    pub fn corpus(self, bytes: usize, seed: u64) -> Corpus {
        let (vocab, exponent, wpl) = self.params();
        TextSynth::new(vocab, exponent, wpl, split_seed(seed, 0x7E87 + self as u64))
            .corpus(bytes, split_seed(seed, 0x11E5 + self as u64))
    }
}

/// A labelled corpus for NaiveBayes: each document (line) belongs to one of
/// `classes` classes, and each class biases a disjoint slice of the
/// vocabulary so the classes are actually learnable.
#[derive(Debug, Clone)]
pub struct LabeledCorpus {
    /// Each document's class, by line of [`corpus`](Self::corpus).
    pub labels: Vec<usize>,
    /// The documents.
    pub corpus: Corpus,
    /// Number of classes.
    pub classes: usize,
}

impl LabeledCorpus {
    /// Generates `bytes` of labelled documents over `classes` classes. Each
    /// document draws its class, then its words in order: every third word
    /// from the class's marker slice of the vocabulary (by rank), the rest
    /// from the global distribution.
    pub fn generate(synth: &TextSynth, classes: usize, bytes: usize, seed: u64) -> Self {
        assert!(classes > 0);
        let mut rng = seeded(split_seed(seed, 0xBA7E5));
        let mut corpus = synth.empty_corpus();
        let mut labels = Vec::new();
        let mut produced = 0usize;
        let marker_stride = synth.words.len().div_ceil(classes).max(1);
        while produced < bytes {
            let class = rng.random_range(0..classes);
            for i in 0..synth.words_per_line {
                let id = if i % 3 == 0 {
                    synth.id_at(class * marker_stride + rng.random_range(0..marker_stride))
                } else {
                    synth.draw_id(&mut rng)
                };
                corpus.ids.push(id);
            }
            produced += corpus.line_len(corpus.len() - 1) + 1;
            labels.push(class);
        }
        Self { labels, corpus, classes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    #[test]
    #[should_panic(expected = "at least one word")]
    fn empty_lines_are_rejected() {
        let _ = TextSynth::new(100, 1.0, 0, 1);
    }

    #[test]
    #[should_panic(expected = "fit u16 ranks")]
    fn oversized_vocabulary_is_rejected() {
        let _ = TextSynth::new((1 << 16) + 1, 1.0, 10, 1);
    }

    /// The plain inverse-CDF search the guide table brackets.
    fn plain_rank(cdf: &[f64], x: f64) -> usize {
        cdf.partition_point(|&c| c < x)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// The guided draw equals the plain search for random draws, for
        /// draws exactly on bucket edges `k / GUIDE`, and on Zipf CDFs of
        /// any size and skew.
        #[test]
        fn guided_rank_matches_plain_search(
            vocab in 1usize..20_000,
            exponent in 0.3f64..2.0,
            xs in proptest::collection::vec(0.0f64..1.0, 64),
            edges in proptest::collection::vec(0usize..GUIDE, 64),
        ) {
            let cdf = zipf_cdf(vocab, exponent);
            let table = RankTable::new(cdf.clone());
            let edge_xs = edges.iter().map(|&k| k as f64 / GUIDE as f64);
            for x in xs.iter().copied().chain(edge_xs) {
                proptest::prop_assert_eq!(table.rank(x), plain_rank(&cdf, x), "x = {}", x);
            }
        }
    }

    #[test]
    fn guided_rank_handles_a_cdf_ending_below_one() {
        // The last entry rounds below 1.0: draws above it land one past the
        // last rank, exactly as the plain search does (the caller clamps).
        let cdf = vec![0.25, 0.5, 0.75, 1.0 - 1e-12];
        let table = RankTable::new(cdf.clone());
        assert_eq!(table.guide[GUIDE] as usize, cdf.len());
        let top = 1.0 - f64::EPSILON / 2.0;
        for x in [0.0, 0.25, 0.25 + 1e-17, 0.6, 0.75, 1.0 - 1e-12, 1.0 - 5e-13, top] {
            assert_eq!(table.rank(x), plain_rank(&cdf, x), "x = {x}");
        }
        assert_eq!(table.rank(top), cdf.len());
        for k in 0..GUIDE {
            let x = k as f64 / GUIDE as f64;
            assert_eq!(table.rank(x), plain_rank(&cdf, x), "edge {k}");
        }
    }

    #[test]
    fn lines_reach_requested_bytes() {
        let c = TextSynth::new(500, 1.0, 8, 1).corpus(10_000, 2);
        let total = c.bytes(0..c.len());
        assert!(total >= 10_000);
        assert!(total < 12_000, "should not wildly overshoot: {total}");
        let rendered: usize = (0..c.len()).map(|i| c.render(i).len() + 1).sum();
        assert_eq!(rendered as u64, total);
    }

    #[test]
    fn zipf_skew_present() {
        let c = TextSynth::new(1000, 1.0, 10, 3).corpus(200_000, 4);
        let mut counts: HashMap<u16, usize> = HashMap::new();
        for &id in c.lines(0..c.len()) {
            *counts.entry(id).or_insert(0) += 1;
        }
        let mut freqs: Vec<usize> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        // Top word should be far more frequent than the median word.
        assert!(
            freqs[0] > 20 * freqs[freqs.len() / 2],
            "{} vs {}",
            freqs[0],
            freqs[freqs.len() / 2]
        );
        // But the distribution has a long tail of distinct words.
        assert!(counts.len() > 300, "{}", counts.len());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = TextSynth::new(200, 1.0, 6, 7).corpus(5_000, 9);
        let b = TextSynth::new(200, 1.0, 6, 7).corpus(5_000, 9);
        let c = TextSynth::new(200, 1.0, 6, 7).corpus(5_000, 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn vocabulary_is_distinct_and_in_str_order() {
        let s = TextSynth::new(300, 1.0, 5, 11);
        assert_eq!(s.words.len(), 300);
        assert!(s.words.windows(2).all(|w| w[0] < w[1]), "ids follow string order");
        let ranks: HashSet<u16> = s.id_of_rank.iter().copied().collect();
        assert_eq!(ranks.len(), 300, "rank → id is a permutation");
    }

    #[test]
    fn from_lines_round_trips() {
        let lines = ["ba bab  b", "bab b ba", "a ba bab"];
        let c = Corpus::from_lines(&lines);
        assert_eq!(c.vocabulary(), ["a", "b", "ba", "bab"]);
        assert_eq!((c.len(), c.words_per_line()), (3, 3));
        assert_eq!(c.render(0), "ba bab b");
        assert_eq!(c.line(2), [0, 2, 3]);
        assert_eq!(c.line_len(0), 8);
        assert_eq!(c.bytes(1..3), 9 + 9);
        assert_eq!(c.lines_containing("ab"), [true, true, true]);
        assert_eq!(c.lines_containing("a"), [true, true, true]);
        assert_eq!(c.lines_containing("bb"), [false, false, false]);
    }

    #[test]
    #[should_panic(expected = "same number of words")]
    fn ragged_lines_are_rejected() {
        let _ = Corpus::from_lines(&["a b", "c"]);
    }

    #[test]
    #[should_panic(expected = "span words")]
    fn needles_with_spaces_are_rejected() {
        let _ = Corpus::from_lines(&["a b"]).lines_containing("a b");
    }

    #[test]
    fn text_inputs_differ_in_their_driving_statistic() {
        let distinct = |input: TextInput| {
            let c = input.corpus(400_000, 3);
            c.lines(0..c.len()).iter().collect::<HashSet<_>>().len()
        };
        let base = distinct(TextInput::Base);
        assert!(distinct(TextInput::SmallVocab) < base / 2);
        assert!(
            distinct(TextInput::LargeVocab) as f64 > base as f64 * 1.5,
            "{} vs {}",
            distinct(TextInput::LargeVocab),
            base
        );
        assert!(distinct(TextInput::Skewed) < base, "heavier skew → fewer distinct words seen");
    }

    #[test]
    fn labeled_corpus_classes_learnable() {
        let s = TextSynth::new(600, 1.0, 9, 5);
        let c = LabeledCorpus::generate(&s, 3, 60_000, 6);
        assert_eq!(c.classes, 3);
        assert_eq!(c.labels.len(), c.corpus.len());
        assert!(c.labels.len() > 100);
        // Every class appears.
        for class in 0..3 {
            assert!(c.labels.contains(&class));
        }
        // A class-0 marker word (rank slice [0, 200)) that is globally rare
        // (rank 150) appears more often in class-0 docs than class-1 docs.
        let marker = s.id_at(150);
        let count = |class: usize| {
            (0..c.corpus.len())
                .filter(|&i| c.labels[i] == class)
                .flat_map(|i| c.corpus.line(i))
                .filter(|&&id| id == marker)
                .count()
        };
        assert!(count(0) >= count(1), "{} vs {}", count(0), count(1));
    }
}
