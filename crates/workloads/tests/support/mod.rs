//! The string text synthesizer the text workloads were built from before
//! corpora became word-id streams: vocabulary in rank (generation) order,
//! ranks drawn by a plain inverse-CDF search, and every line assembled as a
//! `String`. Kept as the reference a [`simprof_workloads::Corpus`] must
//! render to, byte for byte.

use rand::RngExt;

use simprof_stats::{seeded, split_seed, SeedRng};

/// Seeded Zipfian line generator over a rank-ordered vocabulary.
pub struct RefTextSynth {
    vocab: usize,
    words_per_line: usize,
    cdf: Vec<f64>,
    /// The vocabulary; index = Zipf rank.
    words: Vec<String>,
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

impl RefTextSynth {
    pub fn new(vocab: usize, exponent: f64, words_per_line: usize, seed: u64) -> Self {
        let cdf = zipf_cdf(vocab, exponent);
        let words = Self::make_words(vocab, seed);
        Self { vocab, words_per_line, cdf, words }
    }

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
        self.cdf.partition_point(|&c| c < x).min(self.vocab - 1)
    }

    /// The vocabulary word at Zipf rank `rank`.
    pub fn word_at(&self, rank: usize) -> &str {
        &self.words[rank.min(self.vocab - 1)]
    }

    /// Lines of `words_per_line` words joined by spaces until the produced
    /// bytes (newlines included) reach `bytes`.
    pub fn lines(&self, bytes: usize, seed: u64) -> Vec<String> {
        let mut rng = seeded(split_seed(seed, 0x11E5));
        let mut out = Vec::new();
        let mut produced = 0usize;
        while produced < bytes {
            let mut line = String::new();
            for i in 0..self.words_per_line {
                if i > 0 {
                    line.push(' ');
                }
                line.push_str(&self.words[self.draw_rank(&mut rng)]);
            }
            produced += line.len() + 1;
            out.push(line);
        }
        out
    }

    /// Labelled documents as `(class, line)` pairs: each draws its class,
    /// then every third word from the class's marker slice of the
    /// vocabulary and the rest from the global distribution.
    pub fn labeled(&self, classes: usize, bytes: usize, seed: u64) -> Vec<(usize, String)> {
        let mut rng = seeded(split_seed(seed, 0xBA7E5));
        let mut docs = Vec::new();
        let mut produced = 0usize;
        let marker_stride = self.vocab.div_ceil(classes).max(1);
        while produced < bytes {
            let class = rng.random_range(0..classes);
            let mut line = String::new();
            for i in 0..self.words_per_line {
                if i > 0 {
                    line.push(' ');
                }
                if i % 3 == 0 {
                    let idx = class * marker_stride + rng.random_range(0..marker_stride);
                    line.push_str(&self.words[idx.min(self.vocab - 1)]);
                } else {
                    line.push_str(&self.words[self.draw_rank(&mut rng)]);
                }
            }
            produced += line.len() + 1;
            docs.push((class, line));
        }
        docs
    }
}
