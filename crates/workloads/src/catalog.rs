//! The Table I benchmark matrix and its runner.
//!
//! `Benchmark × Framework` enumerates the paper's twelve workloads
//! (`sort_hp`, `sort_sp`, `wc_hp`, …). [`Benchmark::run`] builds the job
//! (under a `workloads.build` span), schedules it on a fresh machine with the
//! sampling profiler attached, and returns the
//! [`simprof_profiler::ProfileTrace`] plus the method registry.

use serde::{Deserialize, Serialize};

use simprof_engine::spark::SparkMethods;
use simprof_engine::{Job, MethodRegistry, Scheduler};
use simprof_profiler::{ProfileTrace, SamplingManager, UnitSink};
use simprof_sim::Machine;

use crate::benchmarks::{bayes, cc, grep, pagerank, sort, wordcount};
use crate::config::WorkloadConfig;
use crate::synth::kronecker::SynthGraph;
use crate::synth::text::Corpus;

/// The six BigDataBench benchmarks the paper evaluates (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Benchmark {
    /// TeraSort-style ordering (microbenchmark).
    Sort,
    /// WordCount (microbenchmark).
    WordCount,
    /// Grep (microbenchmark).
    Grep,
    /// NaiveBayes (machine learning).
    NaiveBayes,
    /// Connected Components (graph analytics).
    ConnectedComponents,
    /// PageRank (graph analytics).
    PageRank,
}

impl Benchmark {
    /// All benchmarks, in Table I order.
    pub const ALL: [Benchmark; 6] = [
        Benchmark::Sort,
        Benchmark::WordCount,
        Benchmark::Grep,
        Benchmark::NaiveBayes,
        Benchmark::ConnectedComponents,
        Benchmark::PageRank,
    ];

    /// The paper's abbreviation (sort, wc, grep, bayes, cc, rank).
    pub fn abbrev(self) -> &'static str {
        match self {
            Benchmark::Sort => "sort",
            Benchmark::WordCount => "wc",
            Benchmark::Grep => "grep",
            Benchmark::NaiveBayes => "bayes",
            Benchmark::ConnectedComponents => "cc",
            Benchmark::PageRank => "rank",
        }
    }

    /// Whether the benchmark consumes a graph input (cc, rank) rather than
    /// text.
    pub fn is_graph(self) -> bool {
        matches!(self, Benchmark::ConnectedComponents | Benchmark::PageRank)
    }

    /// Builds the job for one framework.
    pub fn build(
        self,
        framework: Framework,
        cfg: &WorkloadConfig,
        machine: &mut Machine,
        registry: &mut MethodRegistry,
    ) -> Job {
        match (self, framework) {
            (Benchmark::Sort, Framework::Spark) => sort::spark(cfg, machine, registry),
            (Benchmark::Sort, Framework::Hadoop) => sort::hadoop(cfg, machine, registry),
            (Benchmark::WordCount, Framework::Spark) => wordcount::spark(cfg, machine, registry),
            (Benchmark::WordCount, Framework::Hadoop) => wordcount::hadoop(cfg, machine, registry),
            (Benchmark::Grep, Framework::Spark) => grep::spark(cfg, machine, registry),
            (Benchmark::Grep, Framework::Hadoop) => grep::hadoop(cfg, machine, registry),
            (Benchmark::NaiveBayes, Framework::Spark) => bayes::spark(cfg, machine, registry),
            (Benchmark::NaiveBayes, Framework::Hadoop) => bayes::hadoop(cfg, machine, registry),
            (Benchmark::ConnectedComponents, Framework::Spark) => cc::spark(cfg, machine, registry),
            (Benchmark::ConnectedComponents, Framework::Hadoop) => {
                cc::hadoop(cfg, machine, registry)
            }
            (Benchmark::PageRank, Framework::Spark) => pagerank::spark(cfg, machine, registry),
            (Benchmark::PageRank, Framework::Hadoop) => pagerank::hadoop(cfg, machine, registry),
        }
    }

    /// Builds, schedules, and profiles the workload, returning trace +
    /// registry (+ machine end-state statistics).
    pub fn run_full(self, framework: Framework, cfg: &WorkloadConfig) -> RunOutput {
        self.run_full_with_sinks(framework, cfg, Vec::new())
    }

    /// Like [`run_full`](Self::run_full), but attaches the given
    /// [`UnitSink`]s to the profiler before the run: each sampling unit is
    /// emitted to every sink the moment it closes, while the engine is still
    /// executing — the hook the streaming trace writer uses to put units on
    /// disk without a whole-trace buffer.
    pub fn run_full_with_sinks(
        self,
        framework: Framework,
        cfg: &WorkloadConfig,
        sinks: Vec<Box<dyn UnitSink>>,
    ) -> RunOutput {
        let mut machine = Machine::new(cfg.machine);
        let mut registry = MethodRegistry::new();
        let job = traced_build(|| self.build(framework, cfg, &mut machine, &mut registry));
        let trace = profile_job_with_sinks(&job, cfg, &mut machine, &mut registry, sinks);
        RunOutput {
            trace,
            registry,
            total_tasks: job.total_tasks(),
            total_instrs: job.total_instrs(),
        }
    }

    /// Convenience: run and return just the trace.
    pub fn run(self, framework: Framework, cfg: &WorkloadConfig) -> ProfileTrace {
        self.run_full(framework, cfg).trace
    }

    /// Runs a *graph* benchmark (cc, rank) on the Spark engine with an
    /// explicit input graph — the §IV-E input-sensitivity entry point.
    ///
    /// # Panics
    ///
    /// Panics for text benchmarks, which have no graph input.
    pub fn run_spark_on_graph(self, cfg: &WorkloadConfig, graph: &SynthGraph) -> RunOutput {
        self.run_on_graph(Framework::Spark, cfg, graph)
    }

    /// Runs WordCount on the Spark engine with an explicit text corpus —
    /// the text-input sensitivity entry point (paper future work).
    ///
    /// # Panics
    ///
    /// Panics for benchmarks other than WordCount.
    pub fn run_spark_on_text(self, cfg: &WorkloadConfig, corpus: &Corpus) -> RunOutput {
        assert!(
            self == Benchmark::WordCount,
            "text-input sensitivity is implemented for WordCount"
        );
        let mut machine = Machine::new(cfg.machine);
        let mut registry = MethodRegistry::new();
        let job =
            traced_build(|| wordcount::spark_with_corpus(cfg, &mut machine, &mut registry, corpus));
        let trace = profile_job(&job, cfg, &mut machine, &mut registry);
        RunOutput {
            trace,
            registry,
            total_tasks: job.total_tasks(),
            total_instrs: job.total_instrs(),
        }
    }

    /// Runs a *graph* benchmark on either framework with an explicit input
    /// graph.
    ///
    /// # Panics
    ///
    /// Panics for text benchmarks, which have no graph input.
    pub fn run_on_graph(
        self,
        framework: Framework,
        cfg: &WorkloadConfig,
        graph: &SynthGraph,
    ) -> RunOutput {
        assert!(self.is_graph(), "only graph benchmarks take a graph input");
        let mut machine = Machine::new(cfg.machine);
        let mut registry = MethodRegistry::new();
        let job = traced_build(|| match (self, framework) {
            (Benchmark::ConnectedComponents, Framework::Spark) => {
                let sm = SparkMethods::intern(&mut registry);
                cc::spark_on_graph(cfg, &mut machine, &mut registry, &sm, graph)
            }
            (Benchmark::PageRank, Framework::Spark) => {
                let sm = SparkMethods::intern(&mut registry);
                pagerank::spark_on_graph(cfg, &mut machine, &mut registry, &sm, graph)
            }
            (Benchmark::ConnectedComponents, Framework::Hadoop) => {
                cc::hadoop_on_graph(cfg, &mut machine, &mut registry, graph)
            }
            (Benchmark::PageRank, Framework::Hadoop) => {
                pagerank::hadoop_on_graph(cfg, &mut machine, &mut registry, graph)
            }
            _ => unreachable!(),
        });
        let trace = profile_job(&job, cfg, &mut machine, &mut registry);
        RunOutput {
            trace,
            registry,
            total_tasks: job.total_tasks(),
            total_instrs: job.total_instrs(),
        }
    }
}

/// The two computing frameworks (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Framework {
    /// The Hadoop-MapReduce-like engine (`_hp` suffix in the paper).
    Hadoop,
    /// The Spark-like engine (`_sp` suffix).
    Spark,
}

impl Framework {
    /// Both frameworks, Hadoop first (the paper's figure order).
    pub const ALL: [Framework; 2] = [Framework::Hadoop, Framework::Spark];

    /// The paper's suffix ("hp" / "sp").
    pub fn suffix(self) -> &'static str {
        match self {
            Framework::Hadoop => "hp",
            Framework::Spark => "sp",
        }
    }
}

/// One workload of the 12-cell matrix, with its paper-style label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct WorkloadId {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// The framework.
    pub framework: Framework,
}

impl WorkloadId {
    /// All twelve workloads, grouped by benchmark (Table I order), Hadoop
    /// before Spark within each.
    pub fn all() -> Vec<WorkloadId> {
        Benchmark::ALL
            .iter()
            .flat_map(|&b| {
                Framework::ALL.iter().map(move |&f| WorkloadId { benchmark: b, framework: f })
            })
            .collect()
    }

    /// The paper-style label, e.g. `wc_hp`.
    pub fn label(self) -> String {
        format!("{}_{}", self.benchmark.abbrev(), self.framework.suffix())
    }

    /// Runs this workload.
    pub fn run_full(self, cfg: &WorkloadConfig) -> RunOutput {
        self.benchmark.run_full(self.framework, cfg)
    }

    /// Runs this workload with [`UnitSink`]s attached to the profiler (see
    /// [`Benchmark::run_full_with_sinks`]).
    pub fn run_full_with_sinks(
        self,
        cfg: &WorkloadConfig,
        sinks: Vec<Box<dyn UnitSink>>,
    ) -> RunOutput {
        self.benchmark.run_full_with_sinks(self.framework, cfg, sinks)
    }
}

/// Everything a benchmark run produces.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// The profiled sampling units.
    pub trace: ProfileTrace,
    /// Method registry for name/class lookups.
    pub registry: MethodRegistry,
    /// Number of tasks the job contained.
    pub total_tasks: usize,
    /// Total instructions the job described.
    pub total_instrs: u64,
}

/// A probe that measures counters over one instruction window on core 0.
struct WindowProbe {
    start: u64,
    end: u64,
    at_start: Option<simprof_sim::Counters>,
    at_end: Option<simprof_sim::Counters>,
}

impl simprof_engine::ExecListener for WindowProbe {
    fn on_progress(
        &mut self,
        core: usize,
        instrs: u64,
        _stack: &[simprof_engine::MethodId],
        m: &Machine,
    ) {
        if core != 0 {
            return;
        }
        if self.at_start.is_none() && instrs >= self.start {
            self.at_start = Some(m.counters(0));
        }
        if self.at_end.is_none() && instrs >= self.end {
            self.at_end = Some(m.counters(0));
        }
    }
}

impl WorkloadId {
    /// Replays one sampling unit the way a detailed simulator would: rebuild
    /// the (deterministic) job, fast-forward, flush all caches `warmup`
    /// instructions before the unit, and measure the unit's CPI.
    ///
    /// Returns `None` when the window was never reached (unit id past the
    /// end of the job).
    pub fn replay_unit(
        self,
        cfg: &WorkloadConfig,
        unit: u64,
        unit_instrs: u64,
        warmup: u64,
    ) -> Option<f64> {
        let mut machine = Machine::new(cfg.machine);
        let mut registry = MethodRegistry::new();
        let job =
            traced_build(|| self.benchmark.build(self.framework, cfg, &mut machine, &mut registry));
        let start = unit * unit_instrs;
        let mut sched = cfg.sched;
        sched.cold_restart = Some((0, start.saturating_sub(warmup)));
        let mut probe =
            WindowProbe { start, end: start + unit_instrs, at_start: None, at_end: None };
        Scheduler::new(sched).run(&mut machine, &job, &mut probe);
        match (probe.at_start, probe.at_end) {
            (Some(a), Some(b)) => Some((b - a).cpi()),
            _ => None,
        }
    }
}

/// Constructs a job under the `workloads.build` span, so input synthesis
/// and the build-time kernels show up in run reports as their own layer.
fn traced_build(build: impl FnOnce() -> Job) -> Job {
    let _span = simprof_obs::span!("workloads.build");
    build()
}

fn profile_job(
    job: &Job,
    cfg: &WorkloadConfig,
    machine: &mut Machine,
    registry: &mut MethodRegistry,
) -> ProfileTrace {
    profile_job_with_sinks(job, cfg, machine, registry, Vec::new())
}

fn profile_job_with_sinks(
    job: &Job,
    cfg: &WorkloadConfig,
    machine: &mut Machine,
    registry: &mut MethodRegistry,
    sinks: Vec<Box<dyn UnitSink>>,
) -> ProfileTrace {
    let sched = cfg.run_sched(registry);
    let mut manager = SamplingManager::new(cfg.profiler);
    for sink in sinks {
        manager.add_sink(sink);
    }
    Scheduler::new(sched).run(machine, job, &mut manager);
    manager.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_workloads() {
        let all = WorkloadId::all();
        assert_eq!(all.len(), 12);
        let labels: Vec<String> = all.iter().map(|w| w.label()).collect();
        assert!(labels.contains(&"wc_hp".to_owned()));
        assert!(labels.contains(&"rank_sp".to_owned()));
        let set: std::collections::HashSet<&String> = labels.iter().collect();
        assert_eq!(set.len(), 12);
    }

    #[test]
    fn every_workload_produces_units() {
        let cfg = WorkloadConfig::tiny(1);
        for w in WorkloadId::all() {
            let out = w.run_full(&cfg);
            assert!(
                out.trace.units.len() >= 10,
                "{} produced only {} units",
                w.label(),
                out.trace.units.len()
            );
            assert!(out.trace.oracle_cpi() > 0.4, "{} cpi {}", w.label(), out.trace.oracle_cpi());
            assert!(out.registry.len() > 10, "{}", w.label());
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = WorkloadConfig::tiny(9);
        let a = Benchmark::WordCount.run(Framework::Spark, &cfg);
        let b = Benchmark::WordCount.run(Framework::Spark, &cfg);
        assert_eq!(a, b);
        let c = Benchmark::WordCount.run(Framework::Spark, &WorkloadConfig::tiny(10));
        assert_ne!(a, c);
    }

    #[test]
    fn graph_entry_point_accepts_inputs() {
        use crate::synth::kronecker::{GraphInput, Kronecker};
        let cfg = WorkloadConfig::tiny(2);
        let g = Kronecker::for_input(GraphInput::Road, cfg.graph_scale, cfg.graph_degree)
            .generate(cfg.sub_seed(8));
        let out = Benchmark::ConnectedComponents.run_spark_on_graph(&cfg, &g);
        assert!(!out.trace.units.is_empty());
    }

    #[test]
    #[should_panic(expected = "graph benchmarks")]
    fn graph_entry_point_rejects_text_benchmarks() {
        use crate::synth::kronecker::{GraphInput, Kronecker};
        let cfg = WorkloadConfig::tiny(2);
        let g = Kronecker::for_input(GraphInput::Road, 8, 4).generate(1);
        let _ = Benchmark::Grep.run_spark_on_graph(&cfg, &g);
    }
}
