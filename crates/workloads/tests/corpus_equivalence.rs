//! Word-id corpora against the line strings they stand for.
//!
//! The text workloads never assemble a line: they read lengths, first-word
//! hashes and grep hits from per-vocabulary tables over a [`Corpus`]'s
//! word ids. These tests pin that representation to the string one:
//!
//! * a synthesized corpus, rendered (ids → words joined by `' '`), equals
//!   the reference string synthesizer's lines (`support/`), and likewise
//!   for labelled corpora;
//! * the vocabulary is in `str` order, so id order is string order;
//! * line lengths, first-word hashes and `contains` hits computed from the
//!   tables equal the string operations, on vocabularies built to trip a
//!   shortcut: prefix pairs (`ba`/`bab`), a needle inside a longer word, a
//!   needle equal to a whole word.

mod support;

use proptest::prelude::*;

use simprof_workloads::benchmarks::{fnv1a, word_hashes};
use simprof_workloads::{Corpus, LabeledCorpus, TextSynth};
use support::RefTextSynth;

/// Asserts `corpus` renders to `lines` and agrees with them on every
/// length the workloads read.
fn assert_renders(corpus: &Corpus, lines: &[String]) {
    assert_eq!(corpus.len(), lines.len());
    for (i, line) in lines.iter().enumerate() {
        assert_eq!(&corpus.render(i), line, "line {i}");
        assert_eq!(corpus.line_len(i), line.len(), "length of line {i}");
    }
    let bytes: u64 = lines.iter().map(|l| l.len() as u64 + 1).sum();
    assert_eq!(corpus.bytes(0..corpus.len()), bytes);
    assert!(
        corpus.vocabulary().windows(2).all(|w| w[0] < w[1]),
        "vocabulary must be strictly increasing in str order"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A synthesized corpus is the reference synthesizer's lines, for any
    /// vocabulary size, skew, line width, byte count and seed.
    #[test]
    fn corpus_renders_the_reference_lines(
        vocab in 1usize..5_000,
        exponent in 0.3f64..2.0,
        words_per_line in 1usize..16,
        bytes in 0usize..30_000,
        seed in any::<u64>(),
    ) {
        let synth = TextSynth::new(vocab, exponent, words_per_line, seed);
        let reference = RefTextSynth::new(vocab, exponent, words_per_line, seed);
        let corpus = synth.corpus(bytes, seed.rotate_left(7));
        assert_renders(&corpus, &reference.lines(bytes, seed.rotate_left(7)));
        for rank in [0, 1, vocab / 2, vocab - 1, vocab + 3] {
            prop_assert_eq!(synth.word_at(rank), reference.word_at(rank), "rank {}", rank);
        }
    }

    /// A labelled corpus is the reference synthesizer's `(class, line)`
    /// documents.
    #[test]
    fn labeled_corpus_renders_the_reference_documents(
        vocab in 1usize..5_000,
        exponent in 0.3f64..2.0,
        words_per_line in 1usize..16,
        classes in 1usize..8,
        bytes in 0usize..30_000,
        seed in any::<u64>(),
    ) {
        let synth = TextSynth::new(vocab, exponent, words_per_line, seed);
        let reference = RefTextSynth::new(vocab, exponent, words_per_line, seed);
        let docs = LabeledCorpus::generate(&synth, classes, bytes, seed ^ 0xD0C5);
        let expect = reference.labeled(classes, bytes, seed ^ 0xD0C5);
        let labels: Vec<usize> = expect.iter().map(|&(class, _)| class).collect();
        let lines: Vec<String> = expect.into_iter().map(|(_, line)| line).collect();
        prop_assert_eq!(&docs.labels, &labels);
        assert_renders(&docs.corpus, &lines);
    }
}

/// Lines over a vocabulary of prefix pairs and nested words.
const ADVERSARIAL: [&str; 6] =
    ["ba bab b", "bab b abab", "b b b", "abab a aba", "ab ba a", "baba bab ab"];

#[test]
fn tables_match_string_operations_on_adversarial_vocabularies() {
    let corpus = Corpus::from_lines(&ADVERSARIAL);
    let lines: Vec<String> = ADVERSARIAL.iter().map(|&l| l.to_owned()).collect();
    assert_renders(&corpus, &lines);

    // Id order is string order: sorting ids sorts the words.
    let mut by_id: Vec<u16> = (0..corpus.len()).flat_map(|i| corpus.line(i).to_vec()).collect();
    by_id.sort_unstable();
    let mut by_str: Vec<&str> = ADVERSARIAL.iter().flat_map(|l| l.split(' ')).collect();
    by_str.sort_unstable();
    assert_eq!(by_id.iter().map(|&id| corpus.word(id)).collect::<Vec<_>>(), by_str);

    // A line's first-word hash (sort's record key) from the hash table.
    let hashes = word_hashes(&corpus);
    for (i, line) in ADVERSARIAL.iter().enumerate() {
        let first = line.split_whitespace().next().unwrap();
        assert_eq!(hashes[usize::from(corpus.line(i)[0])], fnv1a(first), "line {i}");
    }

    // Grep hits: whole words (`ba`, `b`, `a`), prefixes of longer words
    // (`ba` in `bab`), needles strictly inside a word (`ab` in `bab`,
    // `aba` in `baba`) and needles no word contains.
    for needle in ["ba", "bab", "b", "a", "ab", "aba", "abab", "bb", "babab", "z"] {
        let expect: Vec<bool> = ADVERSARIAL.iter().map(|l| l.contains(needle)).collect();
        assert_eq!(corpus.lines_containing(needle), expect, "needle {needle:?}");
    }
}

/// The grep needle check on a synthesized corpus: every needle the grep
/// builder could pick (any rank) matches exactly the lines whose text
/// contains it.
#[test]
fn synthesized_grep_hits_match_line_contains() {
    let synth = TextSynth::new(400, 1.0, 10, 5);
    let reference = RefTextSynth::new(400, 1.0, 10, 5);
    let corpus = synth.corpus(40_000, 6);
    let lines = reference.lines(40_000, 6);
    for rank in [0, 7, 50, 300, 399] {
        let needle = synth.word_at(rank);
        let expect: Vec<bool> = lines.iter().map(|l| l.contains(needle)).collect();
        assert_eq!(corpus.lines_containing(needle), expect, "needle {needle:?} (rank {rank})");
    }
}
