//! Zipfian text synthesis.
//!
//! Word frequencies in natural-language corpora follow Zipf's law; the
//! BigDataBench text synthesizer preserves this when scaling seed inputs.
//! [`TextSynth`] draws words from a synthetic vocabulary with
//! `P(rank r) ∝ 1 / r^s`, producing corpora whose distinct-word growth and
//! skew drive the hash-combine and sort behaviour of the text benchmarks.
//! [`LabeledCorpus`] adds per-class vocabulary bias for NaiveBayes.

use rand::RngExt;
use rayon::prelude::*;

use simprof_stats::{seeded, split_seed, SeedRng};

/// Buckets of the rank-draw guide table. A power of two, so `x · GUIDE` is
/// exact for every `f64` in `[0, 1)` and the bucket of a draw is exact too.
const GUIDE: usize = 4096;

/// Seeded Zipfian text generator.
#[derive(Debug, Clone)]
pub struct TextSynth {
    /// Vocabulary size (1 ..= 65 536).
    vocab: usize,
    /// Words per line (at least 1).
    words_per_line: usize,
    ranks: RankTable,
    words: Vec<String>,
    /// Byte length of each vocabulary word.
    word_len: Vec<u8>,
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
    fn new(mut cdf: Vec<f64>) -> Self {
        let guide: Vec<u32> = (0..=GUIDE)
            .map(|b| {
                let edge = b as f64 / GUIDE as f64;
                u32::try_from(cdf.partition_point(|&c| c < edge)).expect("vocabulary fits u32")
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
    /// Panics when `vocab` is 0 or above 65 536 (ranks are stored as `u16`),
    /// or when `words_per_line` is 0.
    pub fn new(vocab: usize, exponent: f64, words_per_line: usize, seed: u64) -> Self {
        assert!(vocab > 0, "vocabulary must be non-empty");
        assert!(vocab <= 1 << 16, "vocabulary must fit u16 ranks (at most 65 536 words)");
        assert!(words_per_line > 0, "lines must hold at least one word");
        let ranks = RankTable::new(zipf_cdf(vocab, exponent));
        let words = Self::make_words(vocab, seed);
        let word_len =
            words.iter().map(|w| u8::try_from(w.len()).expect("words are short")).collect();
        Self { vocab, words_per_line, ranks, words, word_len }
    }

    /// Synthesizes a vocabulary of distinct pronounceable-ish words.
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

    fn draw_rank(&self, rng: &mut SeedRng) -> usize {
        let x: f64 = rng.random();
        self.ranks.rank(x).min(self.vocab - 1)
    }

    /// Draws one word.
    pub fn word<'a>(&'a self, rng: &mut SeedRng) -> &'a str {
        &self.words[self.draw_rank(rng)]
    }

    /// The vocabulary word at Zipf rank `rank` (0 = most frequent). Used by
    /// grep to pick a needle of known rarity.
    pub fn word_at(&self, rank: usize) -> &str {
        &self.words[rank.min(self.vocab - 1)]
    }

    /// Generates lines totalling approximately `bytes` of text.
    ///
    /// Two passes, bit-identical at any worker count: pass 1 draws Zipf
    /// ranks sequentially into one flat buffer (`words_per_line` per line,
    /// consuming the RNG stream in line order) and tracks produced bytes
    /// from the word-length table; pass 2 assembles each line's string in
    /// parallel (pure lookups, order preserved by the pool).
    pub fn lines(&self, bytes: usize, seed: u64) -> Vec<String> {
        let wpl = self.words_per_line;
        let mut rng = seeded(split_seed(seed, 0x11E5));
        let mut ranks: Vec<u16> = Vec::new();
        let mut produced = 0usize;
        while produced < bytes {
            // `wpl` word lengths, `wpl - 1` separators and the newline.
            let mut len = wpl;
            for _ in 0..wpl {
                let r = self.draw_rank(&mut rng);
                len += usize::from(self.word_len[r]);
                ranks.push(r as u16);
            }
            produced += len;
        }
        (0..ranks.len() / wpl)
            .into_par_iter()
            .map(|i| {
                let line = &ranks[i * wpl..(i + 1) * wpl];
                let len =
                    line.iter().map(|&r| usize::from(self.word_len[usize::from(r)])).sum::<usize>();
                let mut out = String::with_capacity(len + wpl - 1);
                for (j, &r) in line.iter().enumerate() {
                    if j > 0 {
                        out.push(' ');
                    }
                    out.push_str(&self.words[usize::from(r)]);
                }
                out
            })
            .collect()
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
    pub fn lines(self, bytes: usize, seed: u64) -> Vec<String> {
        let (vocab, exponent, wpl) = self.params();
        TextSynth::new(vocab, exponent, wpl, split_seed(seed, 0x7E87 + self as u64))
            .lines(bytes, split_seed(seed, 0x11E5 + self as u64))
    }
}

/// A labelled corpus for NaiveBayes: each document belongs to one of
/// `classes` classes, and each class biases a disjoint slice of the
/// vocabulary so the classes are actually learnable.
#[derive(Debug, Clone)]
pub struct LabeledCorpus {
    /// Documents as `(class, line)` pairs.
    pub docs: Vec<(usize, String)>,
    /// Number of classes.
    pub classes: usize,
}

impl LabeledCorpus {
    /// Generates `bytes` of labelled documents over `classes` classes.
    pub fn generate(synth: &TextSynth, classes: usize, bytes: usize, seed: u64) -> Self {
        assert!(classes > 0);
        let mut rng = seeded(split_seed(seed, 0xBA7E5));
        let mut docs = Vec::new();
        let mut produced = 0usize;
        let marker_stride = synth.vocab.div_ceil(classes).max(1);
        while produced < bytes {
            let class = rng.random_range(0..classes);
            let mut line = String::new();
            for i in 0..synth.words_per_line {
                if i > 0 {
                    line.push(' ');
                }
                // Every third word is drawn from the class's marker slice of
                // the vocabulary, the rest from the global distribution.
                if i % 3 == 0 {
                    let idx = class * marker_stride + rng.random_range(0..marker_stride);
                    line.push_str(&synth.words[idx.min(synth.vocab - 1)]);
                } else {
                    line.push_str(synth.word(&mut rng));
                }
            }
            produced += line.len() + 1;
            docs.push((class, line));
        }
        Self { docs, classes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

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
        /// draws exactly on bucket edges `k / 4096`, and on Zipf CDFs of
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
        let s = TextSynth::new(500, 1.0, 8, 1);
        let lines = s.lines(10_000, 2);
        let total: usize = lines.iter().map(|l| l.len() + 1).sum();
        assert!(total >= 10_000);
        assert!(total < 12_000, "should not wildly overshoot: {total}");
    }

    #[test]
    fn zipf_skew_present() {
        let s = TextSynth::new(1000, 1.0, 10, 3);
        let lines = s.lines(200_000, 4);
        let mut counts: HashMap<&str, usize> = HashMap::new();
        for l in &lines {
            for w in l.split_whitespace() {
                *counts.entry(w).or_insert(0) += 1;
            }
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
        let a = TextSynth::new(200, 1.0, 6, 7).lines(5_000, 9);
        let b = TextSynth::new(200, 1.0, 6, 7).lines(5_000, 9);
        let c = TextSynth::new(200, 1.0, 6, 7).lines(5_000, 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn vocabulary_is_distinct() {
        let s = TextSynth::new(300, 1.0, 5, 11);
        let set: std::collections::HashSet<&String> = s.words.iter().collect();
        assert_eq!(set.len(), 300);
    }

    #[test]
    fn text_inputs_differ_in_their_driving_statistic() {
        use std::collections::HashSet;
        let distinct = |input: TextInput| {
            let lines = input.lines(400_000, 3);
            lines.iter().flat_map(|l| l.split_whitespace()).collect::<HashSet<_>>().len()
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
        assert!(c.docs.len() > 100);
        // Every class appears.
        for class in 0..3 {
            assert!(c.docs.iter().any(|&(cl, _)| cl == class));
        }
        // A class-0 marker word (vocab slice [0, 200)) that is globally rare
        // (rank 150) appears more often in class-0 docs than class-1 docs.
        let marker = &s.words[150];
        let count = |class: usize| {
            c.docs
                .iter()
                .filter(|&&(cl, _)| cl == class)
                .flat_map(|(_, l)| l.split_whitespace())
                .filter(|w| w == marker)
                .count()
        };
        assert!(count(0) >= count(1), "{} vs {}", count(0), count(1));
    }
}
