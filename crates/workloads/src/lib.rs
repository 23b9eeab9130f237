//! BigDataBench-style workloads for SimProf (Table I of the paper).
//!
//! Six benchmarks — Sort, WordCount, Grep, NaiveBayes, Connected Components,
//! PageRank — each implemented on both the Spark-like and the Hadoop-like
//! engine of [`simprof_engine`], plus the data synthesizers the paper uses:
//! a Zipfian text generator (standing in for BigDataBench's text
//! synthesizer) and a Kronecker graph generator with per-input initiator
//! matrices (standing in for the SNAP-derived Kronecker graphs of Table II).
//!
//! Every benchmark does *real* computation on the synthesized data (real
//! tokenization, counting, sorting, label propagation, PageRank iterations)
//! while emitting the machine-model cost trace; see the engine crate docs
//! for the execution-model split.
//!
//! * [`config`] — scale presets tying machine, profiler, and data sizes.
//! * [`synth`] — text and Kronecker graph synthesizers.
//! * [`catalog`] — the `Benchmark × Framework` matrix and its runner.
//! * [`benchmarks`] — the twelve job builders.

pub mod benchmarks;
pub mod catalog;
pub mod config;
pub mod synth;

pub use catalog::{Benchmark, Framework, RunOutput, WorkloadId};
pub use config::WorkloadConfig;
pub use synth::kronecker::{GraphInput, Kronecker, SynthGraph};
pub use synth::text::{Corpus, LabeledCorpus, TextInput, TextSynth};
