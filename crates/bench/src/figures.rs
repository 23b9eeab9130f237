//! Computations behind every table and figure of the paper's evaluation
//! (§IV), its extension experiments and its ablations. Each function
//! returns plain data, so `all_figures` only formats, and the computations
//! themselves are unit/integration testable.

use serde::Serialize;

use simprof_core::sampling::strata_of;
use simprof_core::{
    baselines, classify_units, estimate_hybrid, estimate_stratified, homogeneity,
    input_sensitivity, phase_type_distribution, relative_error, second_points_by_cycles,
    srs_points, systematic_points, FeatureSpace, SamplerKind, SimProf, SimProfConfig,
};
use simprof_engine::{FaultPlan, MethodId, MethodRegistry, OpClass, SchedConfig, Scheduler};
use simprof_profiler::SamplingManager;
use simprof_sim::Machine;
use simprof_stats::{
    choose_k, choose_k_bic, proportional_allocation, seeded, split_seed, srs_indices,
};
use simprof_workloads::{Benchmark, Framework, GraphInput, Kronecker, TextInput, WorkloadId};

use crate::harness::{run_workload, EvalConfig, WorkloadRun};

/// Table I row: the benchmark suite.
#[derive(Debug, Clone, Serialize)]
pub struct Table1Row {
    /// Paper-style workload label.
    pub label: String,
    /// Benchmark category (microbench / ML / graph).
    pub category: &'static str,
    /// Input description.
    pub input: String,
    /// Sampling units profiled.
    pub units: usize,
    /// Total tasks in the job.
    pub tasks: usize,
    /// Total instructions in the job description.
    pub instrs: u64,
}

/// Computes Table I with measured job statistics.
pub fn table1(runs: &[WorkloadRun], cfg: &EvalConfig) -> Vec<Table1Row> {
    runs.iter()
        .map(|r| {
            let category = match r.id.benchmark {
                Benchmark::Sort | Benchmark::WordCount | Benchmark::Grep => "Microbench",
                Benchmark::NaiveBayes => "Machine Learning",
                Benchmark::ConnectedComponents | Benchmark::PageRank => "Graph Analytics",
            };
            let input = if r.id.benchmark.is_graph() {
                format!("2^{} nodes", cfg.workload.graph_scale)
            } else {
                format!("{} KiB text", cfg.workload.text_bytes / 1024)
            };
            Table1Row {
                label: r.label.clone(),
                category,
                input,
                units: r.output.trace.units.len(),
                tasks: r.output.total_tasks,
                instrs: r.output.total_instrs,
            }
        })
        .collect()
}

/// Table II row: one synthesized graph input.
#[derive(Debug, Clone, Serialize)]
pub struct Table2Row {
    /// Input name (Google, Facebook, …).
    pub name: &'static str,
    /// Input family description.
    pub kind: &'static str,
    /// Role in the sensitivity study.
    pub role: &'static str,
    /// Vertices.
    pub nodes: usize,
    /// Edges.
    pub edges: usize,
    /// Maximum out-degree (skew signal).
    pub max_degree: usize,
}

/// Computes Table II by synthesizing every input at the evaluation scale.
pub fn table2(cfg: &EvalConfig) -> Vec<Table2Row> {
    GraphInput::ALL
        .iter()
        .map(|&input| {
            let g =
                Kronecker::for_input(input, cfg.workload.graph_scale, cfg.workload.graph_degree)
                    .generate(graph_seed(cfg, input));
            let kind = match input {
                GraphInput::Google | GraphInput::Stanford => "Web graph",
                GraphInput::Facebook => "Social network",
                GraphInput::Flickr => "Online communities",
                GraphInput::Wikipedia => "Online encyclopedia",
                GraphInput::Dblp => "CS bibliography",
                GraphInput::Amazon => "Co-purchasing network",
                GraphInput::Road => "Road network",
            };
            Table2Row {
                name: input.label(),
                kind,
                role: if input == GraphInput::Google {
                    "training input"
                } else {
                    "reference input"
                },
                nodes: g.n,
                edges: g.edge_count(),
                max_degree: g.max_degree(),
            }
        })
        .collect()
}

fn graph_seed(cfg: &EvalConfig, input: GraphInput) -> u64 {
    split_seed(cfg.workload.seed, 0x6120 + input as u64)
}

/// Fig. 6 row: CoV of CPIs.
#[derive(Debug, Clone, Serialize)]
pub struct Fig06Row {
    /// Workload label.
    pub label: String,
    /// CoV over all sampling units.
    pub population: f64,
    /// Per-phase CoV weighted by phase size.
    pub weighted: f64,
    /// Largest per-phase CoV.
    pub max: f64,
}

/// Computes Fig. 6 (population / weighted / max CoV per workload).
pub fn fig06(runs: &[WorkloadRun]) -> Vec<Fig06Row> {
    runs.iter()
        .map(|r| Fig06Row {
            label: r.label.clone(),
            population: r.analysis.cov.population,
            weighted: r.analysis.cov.weighted,
            max: r.analysis.cov.max,
        })
        .collect()
}

/// Fig. 7 row: CPI sampling error of the four approaches.
#[derive(Debug, Clone, Serialize)]
pub struct Fig07Row {
    /// Workload label ("average" for the summary row).
    pub label: String,
    /// SECOND error.
    pub second: f64,
    /// SRS error (mean absolute over repetitions).
    pub srs: f64,
    /// CODE error.
    pub code: f64,
    /// SimProf error (mean absolute over repetitions).
    pub simprof: f64,
}

impl Fig07Row {
    /// Error of the given sampler kind, or `None` for samplers that are not
    /// part of the paper's Fig. 7 (the systematic baseline lives in
    /// [`ext_systematic`] instead).
    pub fn of(&self, kind: SamplerKind) -> Option<f64> {
        match kind {
            SamplerKind::Second => Some(self.second),
            SamplerKind::Srs => Some(self.srs),
            SamplerKind::Code => Some(self.code),
            SamplerKind::SimProf => Some(self.simprof),
            SamplerKind::Systematic => None,
        }
    }
}

/// Computes Fig. 7: the CPI sampling error of SECOND / SRS / CODE / SimProf
/// per workload, with the average row appended last.
pub fn fig07(runs: &[WorkloadRun], cfg: &EvalConfig) -> Vec<Fig07Row> {
    let mut rows: Vec<Fig07Row> = runs
        .iter()
        .map(|r| {
            let trace = &r.output.trace;
            let oracle = trace.oracle_cpi();
            let n = cfg.fig7_sample_size;

            let second = second_points_by_cycles(trace, cfg.second_cycles);
            let second_err = relative_error(second.predicted_cpi, oracle);

            let code = baselines::code_points(&r.analysis.model, trace);
            let code_err = relative_error(code.predicted_cpi, oracle);

            let mut srs_err = 0.0;
            let mut simprof_err = 0.0;
            for rep in 0..cfg.fig7_reps {
                let seed = split_seed(cfg.simprof.seed, 0xF167 + rep);
                srs_err += relative_error(srs_points(trace, n, seed).predicted_cpi, oracle);
                let sp = baselines::simprof_points(&r.analysis.model, trace, n, seed);
                simprof_err += relative_error(sp.predicted_cpi, oracle);
            }
            srs_err /= cfg.fig7_reps as f64;
            simprof_err /= cfg.fig7_reps as f64;

            Fig07Row {
                label: r.label.clone(),
                second: second_err,
                srs: srs_err,
                code: code_err,
                simprof: simprof_err,
            }
        })
        .collect();

    let n = rows.len().max(1) as f64;
    rows.push(Fig07Row {
        label: "average".into(),
        second: rows.iter().map(|r| r.second).sum::<f64>() / n,
        srs: rows.iter().map(|r| r.srs).sum::<f64>() / n,
        code: rows.iter().map(|r| r.code).sum::<f64>() / n,
        simprof: rows.iter().map(|r| r.simprof).sum::<f64>() / n,
    });
    rows
}

/// Fig. 8 row: required sample sizes.
#[derive(Debug, Clone, Serialize)]
pub struct Fig08Row {
    /// Workload label ("average" for the summary row).
    pub label: String,
    /// SimProf sample size for 5 % error at 99.7 % confidence.
    pub simprof_5pct: usize,
    /// SimProf sample size for 2 % error at 99.7 % confidence.
    pub simprof_2pct: usize,
    /// Units covered by the SECOND interval.
    pub second_units: usize,
}

/// Computes Fig. 8: SimProf's required sample sizes (99.7 % CI, 5 %/2 %
/// error) against the unit count of the SECOND interval.
pub fn fig08(runs: &[WorkloadRun], cfg: &EvalConfig) -> Vec<Fig08Row> {
    let mut rows: Vec<Fig08Row> = runs
        .iter()
        .map(|r| Fig08Row {
            label: r.label.clone(),
            simprof_5pct: r.analysis.required_size(3.0, 0.05),
            simprof_2pct: r.analysis.required_size(3.0, 0.02),
            second_units: second_points_by_cycles(&r.output.trace, cfg.second_cycles).points.len(),
        })
        .collect();
    let n = rows.len().max(1);
    rows.push(Fig08Row {
        label: "average".into(),
        simprof_5pct: rows.iter().map(|r| r.simprof_5pct).sum::<usize>() / n,
        simprof_2pct: rows.iter().map(|r| r.simprof_2pct).sum::<usize>() / n,
        second_units: rows.iter().map(|r| r.second_units).sum::<usize>() / n,
    });
    rows
}

/// Fig. 9 row: phase count.
#[derive(Debug, Clone, Serialize)]
pub struct Fig09Row {
    /// Workload label.
    pub label: String,
    /// Number of phases the silhouette rule chose.
    pub phases: usize,
}

/// Computes Fig. 9 (number of phases per workload).
pub fn fig09(runs: &[WorkloadRun]) -> Vec<Fig09Row> {
    runs.iter().map(|r| Fig09Row { label: r.label.clone(), phases: r.analysis.k() }).collect()
}

/// Fig. 10 row: phase-type distribution.
#[derive(Debug, Clone, Serialize)]
pub struct Fig10Row {
    /// Workload label.
    pub label: String,
    /// Fraction of sampling units in map-dominated phases.
    pub map: f64,
    /// … reduce-dominated phases.
    pub reduce: f64,
    /// … sort-dominated phases.
    pub sort: f64,
    /// … IO-dominated phases.
    pub io: f64,
    /// … framework-only phases (rare).
    pub framework: f64,
}

/// Computes Fig. 10 (phase-type breakdown, weighted by sampling units).
pub fn fig10(runs: &[WorkloadRun]) -> Vec<Fig10Row> {
    runs.iter()
        .map(|r| {
            let dist =
                phase_type_distribution(&r.analysis.model, &r.output.trace, &r.output.registry);
            let share = |c: OpClass| dist.iter().find(|d| d.class == c).map_or(0.0, |d| d.share);
            Fig10Row {
                label: r.label.clone(),
                map: share(OpClass::Map),
                reduce: share(OpClass::Reduce),
                sort: share(OpClass::Sort),
                io: share(OpClass::Io),
                framework: share(OpClass::Framework),
            }
        })
        .collect()
}

/// Fig. 11 row: one phase of cc_sp under optimal allocation.
#[derive(Debug, Clone, Serialize)]
pub struct Fig11Row {
    /// Phase index (sorted by weight, descending — the paper's ordering).
    pub phase: usize,
    /// Share of the simulation points allocated to this phase.
    pub sample_size_ratio: f64,
    /// CoV of CPI within the phase.
    pub cov: f64,
    /// Phase weight `N_h / N`.
    pub weight: f64,
    /// The phase's heaviest method (the paper names `aggregateUsingIndex`
    /// and `mapPartitionsWithIndex` for phases 0 and 1).
    pub top_method: String,
}

/// Computes Fig. 11: how optimal allocation distributes `n` simulation
/// points across cc_sp's phases.
pub fn fig11(run: &WorkloadRun, n: usize, seed: u64) -> Vec<Fig11Row> {
    let a = &run.analysis;
    let points = a.select_points(n, seed);
    let ratios = points.phase_ratios();
    let mut order: Vec<usize> = (0..a.k()).collect();
    order.sort_by(|&x, &y| a.weights[y].partial_cmp(&a.weights[x]).unwrap());
    order
        .into_iter()
        .enumerate()
        .map(|(rank, h)| {
            let top = a.model.top_methods(h, 1);
            let top_method = top
                .first()
                .map(|&(m, _)| run.output.registry.name(MethodId(m as u32)).to_owned())
                .unwrap_or_default();
            Fig11Row {
                phase: rank,
                sample_size_ratio: ratios[h],
                cov: a.stats[h].cov,
                weight: a.weights[h],
                top_method,
            }
        })
        .collect()
}

/// Figs. 12–13 row: input-sensitivity outcome for one graph workload.
#[derive(Debug, Clone, Serialize)]
pub struct SensitivityRow {
    /// Workload label (cc_hp, cc_sp, rank_hp, rank_sp).
    pub label: String,
    /// Fraction of simulation points in input-sensitive phases (Fig. 12's
    /// reference-input sample size; `1 −` this is the reduction).
    pub sensitive_point_fraction: f64,
    /// Number of input-sensitive phases (Fig. 13).
    pub sensitive_phases: usize,
    /// Number of input-insensitive phases (Fig. 13).
    pub insensitive_phases: usize,
}

/// Runs the §IV-E input-sensitivity study: for each graph workload, train on
/// the Google input, classify the seven reference inputs, apply the Eq. 6
/// test, and measure the simulation-point reduction for `n` points.
pub fn fig12_13(cfg: &EvalConfig, n_points: usize) -> Vec<SensitivityRow> {
    // The sensitivity study runs at double the graph scale of the main
    // matrix: Algorithm 1 compares per-phase statistics of *classified*
    // reference units, which need enough units per phase per input to be
    // meaningful (the paper's graphs are 2^20–2^24 nodes).
    let mut cfg = *cfg;
    cfg.workload.graph_scale += 1;
    cfg.workload.graph_degree += 2;
    let cfg = &cfg;
    let mut rows = Vec::new();
    for benchmark in [Benchmark::ConnectedComponents, Benchmark::PageRank] {
        for framework in Framework::ALL {
            let id = WorkloadId { benchmark, framework };
            // Training input (Google) — same seed as the main runs.
            let train = run_workload(id, cfg);
            // Reference inputs.
            let refs: Vec<_> = GraphInput::ALL
                .iter()
                .filter(|&&i| i != GraphInput::Google)
                .map(|&input| {
                    let g = Kronecker::for_input(
                        input,
                        cfg.workload.graph_scale,
                        cfg.workload.graph_degree,
                    )
                    .generate(graph_seed(cfg, input));
                    benchmark.run_on_graph(framework, &cfg.workload, &g).trace
                })
                .collect();
            let ref_refs: Vec<&_> = refs.iter().collect();
            let report =
                input_sensitivity(&train.analysis.model, &train.output.trace, &ref_refs, 0.10);
            let points = train.analysis.select_points(n_points, cfg.simprof.seed);
            rows.push(SensitivityRow {
                label: train.label,
                sensitive_point_fraction: report.sensitive_point_fraction(&points),
                sensitive_phases: report.sensitive_count(),
                insensitive_phases: report.insensitive_count(),
            });
        }
    }
    rows
}

/// Figs. 14–15 point: one sampling unit in the phase-sorted CPI scatter.
#[derive(Debug, Clone, Serialize)]
pub struct ScatterPoint {
    /// Position after sorting units by phase id (the paper's x-axis).
    pub order: usize,
    /// Original unit id.
    pub unit: u64,
    /// The unit's CPI (left y-axis, blue dots).
    pub cpi: f64,
    /// The unit's phase id (right y-axis, red line).
    pub phase: usize,
}

/// Computes the Fig. 14/15 series: units sorted by phase id, carrying CPI
/// and phase id.
pub fn fig14_15(run: &WorkloadRun) -> Vec<ScatterPoint> {
    let a = &run.analysis;
    let mut idx: Vec<usize> = (0..a.cpis.len()).collect();
    idx.sort_by_key(|&i| (a.model.assignments[i], i));
    idx.into_iter()
        .enumerate()
        .map(|(order, i)| ScatterPoint {
            order,
            unit: run.output.trace.units[i].id,
            cpi: a.cpis[i],
            phase: a.model.assignments[i],
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Extension experiments and ablations (beyond the paper's published
// evaluation). Each returns the rows of one `EXPERIMENTS.md` section.
// ---------------------------------------------------------------------------

/// Finds the run of `id` in the evaluation matrix.
fn run_of(runs: &[WorkloadRun], id: WorkloadId) -> &WorkloadRun {
    runs.iter().find(|r| r.id == id).expect("every workload is in the matrix")
}

/// Systematic-baseline row: SMARTS-style systematic sampling against SRS
/// and SimProf at the same budget (related work, §V).
#[derive(Debug, Clone, Serialize)]
pub struct SystematicRow {
    /// Workload label ("average" for the summary row).
    pub label: String,
    /// Systematic error, mean over the scheme's start offsets.
    pub systematic: f64,
    /// SRS error (mean absolute over repetitions).
    pub srs: f64,
    /// SimProf error (mean absolute over repetitions).
    pub simprof: f64,
}

/// Computes the systematic baseline at n = 20 per workload, with the
/// average row appended last. Systematic sampling needs no call stacks but
/// is blind to code structure.
pub fn ext_systematic(runs: &[WorkloadRun], cfg: &EvalConfig) -> Vec<SystematicRow> {
    let n = 20;
    let reps = 30u64;
    let offsets = 10u64;
    let mut rows: Vec<SystematicRow> = runs
        .iter()
        .map(|r| {
            let trace = &r.output.trace;
            let oracle = r.analysis.oracle_cpi();
            // Systematic: average error over offsets (the scheme's only freedom).
            let mut systematic = 0.0;
            for off in 0..offsets {
                let s = systematic_points(trace, n, off as usize);
                systematic += relative_error(s.predicted_cpi, oracle);
            }
            let mut srs = 0.0;
            let mut simprof = 0.0;
            for rep in 0..reps {
                let seed = split_seed(cfg.simprof.seed, 0x5457 + rep);
                srs += relative_error(srs_points(trace, n, seed).predicted_cpi, oracle);
                let sp = baselines::simprof_points(&r.analysis.model, trace, n, seed);
                simprof += relative_error(sp.predicted_cpi, oracle);
            }
            SystematicRow {
                label: r.label.clone(),
                systematic: systematic / offsets as f64,
                srs: srs / reps as f64,
                simprof: simprof / reps as f64,
            }
        })
        .collect();
    let n = rows.len().max(1) as f64;
    rows.push(SystematicRow {
        label: "average".into(),
        systematic: rows.iter().map(|r| r.systematic).sum::<f64>() / n,
        srs: rows.iter().map(|r| r.srs).sum::<f64>() / n,
        simprof: rows.iter().map(|r| r.simprof).sum::<f64>() / n,
    });
    rows
}

/// Sub-unit strides of the hybrid extension; stride 1 simulates whole
/// points.
pub const HYBRID_STRIDES: [usize; 4] = [1, 2, 5, 10];

/// Hybrid row: SimProf's points, each simulated only every `stride`-th
/// intra-unit slice (the paper's future work, §III-C).
#[derive(Debug, Clone, Serialize)]
pub struct HybridRow {
    /// Workload label ("average" for the summary row).
    pub label: String,
    /// CPI error per stride of [`HYBRID_STRIDES`].
    pub error: [f64; 4],
    /// Detailed-simulation reduction from slicing, per stride.
    pub reduction: [f64; 4],
}

/// Computes the SimProf × systematic sub-unit sampling extension: 20
/// stratified points per workload, estimated from every `stride`-th slice,
/// averaged over 30 selections. The average row is appended last.
pub fn ext_hybrid(runs: &[WorkloadRun], cfg: &EvalConfig) -> Vec<HybridRow> {
    let reps = 30u64;
    let mut rows: Vec<HybridRow> = runs
        .iter()
        .map(|r| {
            let a = &r.analysis;
            let oracle = a.oracle_cpi();
            let mut row =
                HybridRow { label: r.label.clone(), error: [0.0; 4], reduction: [0.0; 4] };
            for (si, &stride) in HYBRID_STRIDES.iter().enumerate() {
                for rep in 0..reps {
                    let pts = a.select_points(20, split_seed(cfg.simprof.seed, 0x4871D + rep));
                    let h =
                        estimate_hybrid(&r.output.trace, &a.model.assignments, &pts, stride, 3.0);
                    row.error[si] += relative_error(h.mean_cpi, oracle);
                    row.reduction[si] += h.slice_reduction();
                }
                row.error[si] /= reps as f64;
                row.reduction[si] /= reps as f64;
            }
            row
        })
        .collect();
    let n = rows.len().max(1) as f64;
    let mut avg = HybridRow { label: "average".into(), error: [0.0; 4], reduction: [0.0; 4] };
    for si in 0..HYBRID_STRIDES.len() {
        avg.error[si] = rows.iter().map(|r| r.error[si]).sum::<f64>() / n;
        avg.reduction[si] = rows.iter().map(|r| r.reduction[si]).sum::<f64>() / n;
    }
    rows.push(avg);
    rows
}

/// Fault-injection row: one wc_hp run under a seeded runtime [`FaultPlan`].
#[derive(Debug, Clone, Serialize)]
pub struct FaultRow {
    /// Combined fault rate, as printed.
    pub rate: &'static str,
    /// Executor crashes (attempts re-queued).
    pub crashes: usize,
    /// Stragglers raced by speculative twins.
    pub stragglers: usize,
    /// Lost shuffle fetches (re-fetched).
    pub lost_fetches: usize,
    /// Sampling units profiled.
    pub units: usize,
    /// Units cut short by a crash.
    pub truncated_units: usize,
    /// Profiler snapshots dropped.
    pub dropped_snapshots: u64,
    /// Full-trace CPI.
    pub oracle_cpi: f64,
    /// Phases formed.
    pub phases: usize,
    /// Weighted per-phase CoV of CPI.
    pub weighted_cov: f64,
    /// SimProf error at n = 20, mean over 20 selections.
    pub error: f64,
}

/// Runs wc_hp under runtime fault injection at 0/10/20/40 % combined
/// rates: executors crash and are re-queued, stragglers are raced by
/// speculative twins, shuffle fetches get lost, and the profiler drops
/// snapshots. Recovered work repeats the same call stacks, so phase
/// formation and the stratified estimate should stay stable.
pub fn ext_faults(cfg: &EvalConfig) -> Vec<FaultRow> {
    // More tasks than the default matrix so percent-level fault rates hit a
    // meaningful number of attempts.
    let mut wl = cfg.workload;
    wl.partitions = 32;
    wl.reducers = 8;
    let id = WorkloadId { benchmark: Benchmark::WordCount, framework: Framework::Hadoop };
    [("0%", 0u32), ("10%", 100_000), ("20%", 200_000), ("40%", 400_000)]
        .into_iter()
        .map(|(rate, ppm)| {
            // Milder slowdown than the default 4x: wc_hp stragglers at 4x are
            // outliers extreme enough to merge phases, which is a clustering
            // stress test rather than the recovery stress this experiment is
            // after.
            let plan = FaultPlan { straggler_factor: 2, ..FaultPlan::uniform(ppm, 99) };
            let mut machine = Machine::new(wl.machine);
            let mut registry = MethodRegistry::new();
            let job = id.benchmark.build(id.framework, &wl, &mut machine, &mut registry);
            let mut manager = SamplingManager::new(wl.profiler).with_faults(plan);
            let sched = Scheduler::new(SchedConfig { faults: plan, ..wl.sched });
            let log = sched.run(&mut machine, &job, &mut manager);
            let trace = manager.finish();
            let analysis =
                SimProf::new(cfg.simprof).analyze(&trace).expect("workload trace is valid");
            let oracle = analysis.oracle_cpi();
            let reps = 20u64;
            let mut err = 0.0;
            for rep in 0..reps {
                let pts = analysis.select_points(20, 800 + rep);
                err += relative_error(analysis.estimate(&pts, 3.0).mean_cpi, oracle);
            }
            FaultRow {
                rate,
                crashes: log.crashes(),
                stragglers: log.stragglers(),
                lost_fetches: log.lost_fetches(),
                units: trace.units.len(),
                truncated_units: trace.truncated_units(),
                dropped_snapshots: trace.dropped_snapshots(),
                oracle_cpi: oracle,
                phases: analysis.k(),
                weighted_cov: analysis.cov.weighted,
                error: err / reps as f64,
            }
        })
        .collect()
}

/// Text input-sensitivity study: wc_sp trained on the Base corpus,
/// Algorithm 1 applied across corpora that vary word-frequency skew,
/// vocabulary size and line length (the paper's future work, §IV-E).
#[derive(Debug, Clone, Serialize)]
pub struct TextSensitivity {
    /// Sampling units of the training (Base) run.
    pub train_units: usize,
    /// Phases of the training run.
    pub train_phases: usize,
    /// Full-trace CPI of the training run.
    pub train_oracle_cpi: f64,
    /// One row per reference corpus.
    pub references: Vec<TextReferenceRow>,
    /// One row per training phase.
    pub phases: Vec<TextPhaseRow>,
    /// Share of a 20-point selection in input-sensitive phases.
    pub sensitive_point_fraction: f64,
}

/// One reference corpus of the text sensitivity study.
#[derive(Debug, Clone, Serialize)]
pub struct TextReferenceRow {
    /// Corpus label.
    pub input: &'static str,
    /// Sampling units profiled on it.
    pub units: usize,
    /// Its full-trace CPI.
    pub oracle_cpi: f64,
}

/// One training phase of the text sensitivity study.
#[derive(Debug, Clone, Serialize)]
pub struct TextPhaseRow {
    /// Phase id.
    pub phase: usize,
    /// Phase weight `N_h / N`.
    pub weight: f64,
    /// The phase's heaviest method.
    pub top_method: String,
    /// Reference corpora whose units move this phase (empty: insensitive).
    pub moved_by: Vec<&'static str>,
}

/// Runs the text input-sensitivity study.
pub fn ext_text_sensitivity(cfg: &EvalConfig) -> TextSensitivity {
    let wl = cfg.workload;
    let train_corpus = TextInput::Base.corpus(wl.text_bytes, wl.seed);
    let train = Benchmark::WordCount.run_spark_on_text(&wl, &train_corpus);
    let analysis =
        SimProf::new(cfg.simprof).analyze(&train.trace).expect("workload trace is valid");
    let mut names = Vec::new();
    let mut refs = Vec::new();
    let mut references = Vec::new();
    for input in TextInput::ALL.into_iter().filter(|&i| i != TextInput::Base) {
        let corpus = input.corpus(wl.text_bytes, wl.seed);
        let out = Benchmark::WordCount.run_spark_on_text(&wl, &corpus);
        references.push(TextReferenceRow {
            input: input.label(),
            units: out.trace.units.len(),
            oracle_cpi: out.trace.oracle_cpi(),
        });
        refs.push(out.trace);
        names.push(input.label());
    }
    let rr: Vec<&_> = refs.iter().collect();
    let report = input_sensitivity(&analysis.model, &train.trace, &rr, 0.10);
    let phases = (0..analysis.k())
        .map(|h| TextPhaseRow {
            phase: h,
            weight: analysis.weights[h],
            top_method: analysis
                .model
                .top_methods(h, 1)
                .first()
                .map(|&(m, _)| train.registry.name(MethodId(m as u32)).to_owned())
                .unwrap_or_default(),
            moved_by: report
                .per_reference
                .iter()
                .zip(&names)
                .filter(|(p, _)| p[h])
                .map(|(_, &n)| n)
                .collect(),
        })
        .collect();
    let points = analysis.select_points(20, 7);
    TextSensitivity {
        train_units: train.trace.units.len(),
        train_phases: analysis.k(),
        train_oracle_cpi: train.trace.oracle_cpi(),
        references,
        phases,
        sensitive_point_fraction: report.sensitive_point_fraction(&points),
    }
}

/// Ablation 1 row: one allocation policy on wc_hp's phase model.
#[derive(Debug, Clone, Serialize)]
pub struct PolicyRow {
    /// Policy name.
    pub policy: String,
    /// Mean absolute CPI error.
    pub error: f64,
}

/// Ablation 1: Neyman (SimProf) vs proportional allocation over the same
/// phases and stratified estimator (wc_hp, n = 20, 40 reps), plus CODE's
/// one point per phase (the paper's central design choice, §III-C).
pub fn ablation_allocation(runs: &[WorkloadRun]) -> Vec<PolicyRow> {
    let run =
        run_of(runs, WorkloadId { benchmark: Benchmark::WordCount, framework: Framework::Hadoop });
    let a = &run.analysis;
    let oracle = a.oracle_cpi();
    let n = 20;
    let reps = 40u64;
    let strata = strata_of(&a.cpis, &a.model.assignments, a.k());
    let mut rows = Vec::new();
    for (name, proportional) in [("Neyman (SimProf)", false), ("proportional", true)] {
        let mut err = 0.0;
        for rep in 0..reps {
            let mut points = a.select_points(n, 900 + rep);
            if proportional {
                // Re-draw with proportional allocation.
                let alloc = proportional_allocation(n, &strata);
                let mut members: Vec<Vec<u64>> = vec![Vec::new(); a.k()];
                for (i, &ph) in a.model.assignments.iter().enumerate() {
                    members[ph].push(i as u64);
                }
                let mut rng = seeded(900 + rep);
                points.per_phase = members
                    .iter()
                    .zip(&alloc)
                    .map(|(ids, &nh)| {
                        srs_indices(ids.len(), nh, &mut rng).into_iter().map(|i| ids[i]).collect()
                    })
                    .collect();
                points.allocation = alloc;
                points.points = points.per_phase.iter().flatten().copied().collect();
            }
            let est = estimate_stratified(&a.cpis, &a.model.assignments, &points, 3.0);
            err += relative_error(est.mean_cpi, oracle);
        }
        rows.push(PolicyRow { policy: name.to_string(), error: err / reps as f64 });
    }
    let code = baselines::code_points(&a.model, &run.output.trace);
    rows.push(PolicyRow {
        policy: format!("CODE (1/phase, {} pts)", code.points.len()),
        error: relative_error(code.predicted_cpi, oracle),
    });
    rows
}

/// Ablation row: one variant's phase structure, and its error where the
/// variant is judged on it.
#[derive(Debug, Clone, Serialize)]
pub struct VariantRow {
    /// Variant label, as printed.
    pub variant: String,
    /// Sampling units profiled.
    pub units: usize,
    /// Call-stack snapshots in the first unit.
    pub snapshots_per_unit: u32,
    /// Phases formed.
    pub phases: usize,
    /// Weighted per-phase CoV of CPI.
    pub weighted_cov: f64,
    /// Largest per-phase CoV of CPI.
    pub max_cov: f64,
    /// SimProf error at n = 20, mean over 20 selections (`None` where the
    /// ablation compares phase structure only).
    pub error: Option<f64>,
}

/// Analyzes `trace` under `simprof`; with `seed0`, also measures the mean
/// SimProf error at n = 20 over 20 selections seeded `seed0 + rep`.
fn variant(
    label: &str,
    trace: &simprof_profiler::ProfileTrace,
    simprof: SimProfConfig,
    seed0: Option<u64>,
) -> VariantRow {
    let a = SimProf::new(simprof).analyze(trace).expect("workload trace is valid");
    let error = seed0.map(|seed0| {
        let oracle = a.oracle_cpi();
        let reps = 20u64;
        let mut err = 0.0;
        for rep in 0..reps {
            let pts = a.select_points(20.min(trace.units.len()), seed0 + rep);
            err += relative_error(a.estimate(&pts, 3.0).mean_cpi, oracle);
        }
        err / reps as f64
    });
    VariantRow {
        variant: label.to_string(),
        units: trace.units.len(),
        snapshots_per_unit: trace.units.first().map_or(0, |u| u.snapshots),
        phases: a.k(),
        weighted_cov: a.cov.weighted,
        max_cov: a.cov.max,
        error,
    }
}

/// Ablation 2: the feature-selection K sweep (10 / 50 / 100 / all) on
/// cc_sp (§III-B sets K = 100).
pub fn ablation_feature_k(runs: &[WorkloadRun], cfg: &EvalConfig) -> Vec<VariantRow> {
    let run = run_of(
        runs,
        WorkloadId { benchmark: Benchmark::ConnectedComponents, framework: Framework::Spark },
    );
    [("10", 10usize), ("50", 50), ("100", 100), ("all", 10_000)]
        .into_iter()
        .map(|(label, k)| {
            variant(label, &run.output.trace, SimProfConfig { top_k: k, ..cfg.simprof }, Some(300))
        })
        .collect()
}

/// Ablation 3: snapshot frequency unit/5, unit/10 (the paper's), unit/50
/// on wc_hp (§III-A tuning).
pub fn ablation_snapshot_frequency(cfg: &EvalConfig) -> Vec<VariantRow> {
    [("unit/5", 5u64), ("unit/10 (paper)", 10), ("unit/50", 50)]
        .into_iter()
        .map(|(label, divisor)| {
            let mut wl = cfg.workload;
            wl.profiler.snapshot_instrs = (wl.profiler.unit_instrs / divisor).max(1);
            let out = Benchmark::WordCount.run_full(Framework::Hadoop, &wl);
            variant(label, &out.trace, cfg.simprof, None)
        })
        .collect()
}

/// Ablation 4: OS-noise perturbations off / paper-like / strong on wc_sp
/// (§III-B-1's heterogeneity sources).
pub fn ablation_perturbations(cfg: &EvalConfig) -> Vec<VariantRow> {
    [("off", 0u8), ("on (paper-like noise)", 1), ("strong (migrate every 400k instrs)", 2)]
        .into_iter()
        .map(|(label, level)| {
            let mut wl = cfg.workload;
            match level {
                0 => {
                    wl.sched.perturbations = simprof_sim::Perturbations::default();
                    wl.gc_noise_ppm = 0;
                }
                2 => {
                    wl.sched.perturbations = simprof_sim::Perturbations::with_period(400_000, 99);
                    wl.gc_noise_ppm = 120_000;
                }
                _ => {}
            }
            let out = Benchmark::WordCount.run_full(Framework::Spark, &wl);
            variant(label, &out.trace, cfg.simprof, None)
        })
        .collect()
}

/// Ablation 5: sampling-unit size 25k / 50k / 100k instructions on wc_sp.
/// The paper picks 100 M instructions "to avoid the simulation start-up
/// effect"; this shows the trade-off between unit count and per-unit
/// stability at this scale.
pub fn ablation_unit_size(cfg: &EvalConfig) -> Vec<VariantRow> {
    [("25k", 25_000u64), ("50k (default)", 50_000), ("100k", 100_000)]
        .into_iter()
        .map(|(label, unit)| {
            let mut wl = cfg.workload;
            wl.profiler = simprof_profiler::ProfilerConfig::with_unit(unit);
            let out = Benchmark::WordCount.run_full(Framework::Spark, &wl);
            variant(label, &out.trace, cfg.simprof, Some(40))
        })
        .collect()
}

/// Ablation 6 row: the paper's silhouette rule against the BIC rule.
#[derive(Debug, Clone, Serialize)]
pub struct KRuleRow {
    /// Workload label.
    pub label: String,
    /// k chosen by the silhouette-90 % rule.
    pub silhouette_k: usize,
    /// Weighted CoV of the silhouette clustering.
    pub silhouette_cov: f64,
    /// k chosen by the SimPoint/X-means BIC rule.
    pub bic_k: usize,
    /// Weighted CoV of the BIC clustering.
    pub bic_cov: f64,
}

/// Ablation 6: k-selection by the paper's silhouette-90 % rule vs the
/// SimPoint/X-means BIC rule (Perelman et al., related work §V), in
/// catalog order.
pub fn ablation_k_selection(runs: &[WorkloadRun], cfg: &EvalConfig) -> Vec<KRuleRow> {
    WorkloadId::all()
        .into_iter()
        .map(|id| {
            let trace = &run_of(runs, id).output.trace;
            let (_, projected) = FeatureSpace::fit(trace, cfg.simprof.top_k);
            let sil = choose_k(&projected, 20, 0.9, 0.25, cfg.simprof.seed);
            let bic = choose_k_bic(&projected, 20, 0.9, cfg.simprof.seed);
            let cpis = trace.cpis();
            KRuleRow {
                label: id.label(),
                silhouette_k: sil.k,
                silhouette_cov: homogeneity(&cpis, &sil.result.assignments).weighted,
                bic_k: bic.k,
                bic_cov: homogeneity(&cpis, &bic.result.assignments).weighted,
            }
        })
        .collect()
}

/// Classifies a reference trace against a training model (shared by the
/// integration tests and the sensitivity example).
pub fn classify_reference(
    train: &WorkloadRun,
    reference: &simprof_profiler::ProfileTrace,
) -> Vec<usize> {
    classify_units(&train.analysis.model, reference)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run_all_workloads;

    fn runs() -> (Vec<WorkloadRun>, EvalConfig) {
        let cfg = EvalConfig::tiny(5);
        (run_all_workloads(&cfg), cfg)
    }

    #[test]
    fn tables_and_figures_have_twelve_rows() {
        let (runs, cfg) = runs();
        assert_eq!(table1(&runs, &cfg).len(), 12);
        assert_eq!(fig06(&runs).len(), 12);
        assert_eq!(fig09(&runs).len(), 12);
        assert_eq!(fig10(&runs).len(), 12);
        assert_eq!(fig07(&runs, &cfg).len(), 13, "12 + average");
        assert_eq!(fig08(&runs, &cfg).len(), 13);
        assert_eq!(ext_systematic(&runs, &cfg).len(), 13);
        assert_eq!(ext_hybrid(&runs, &cfg).len(), 13);
    }

    #[test]
    fn ablations_reuse_the_matrix_runs() {
        let (runs, cfg) = runs();
        let k_rule = ablation_k_selection(&runs, &cfg);
        let catalog: Vec<String> = WorkloadId::all().into_iter().map(|id| id.label()).collect();
        assert_eq!(k_rule.iter().map(|r| r.label.clone()).collect::<Vec<_>>(), catalog);
        // At the matrix's own K, the feature sweep re-derives the run's analysis.
        let cc_sp = runs.iter().find(|r| r.label == "cc_sp").unwrap();
        let k100 = &ablation_feature_k(&runs, &cfg)[2];
        assert_eq!((k100.variant.as_str(), k100.phases), ("100", cc_sp.analysis.k()));
        assert_eq!(k100.weighted_cov.to_bits(), cc_sp.analysis.cov.weighted.to_bits());
        let policies = ablation_allocation(&runs);
        assert_eq!(policies.len(), 3);
        assert!(policies.iter().all(|p| p.error.is_finite()));
    }

    #[test]
    fn table2_has_eight_graphs_google_training() {
        let cfg = EvalConfig::tiny(5);
        let t2 = table2(&cfg);
        assert_eq!(t2.len(), 8);
        assert_eq!(t2[0].name, "Google");
        assert_eq!(t2[0].role, "training input");
        assert!(t2.iter().skip(1).all(|r| r.role == "reference input"));
        assert!(t2.iter().all(|r| r.edges > 0));
    }

    #[test]
    fn fig10_shares_sum_to_one() {
        let (runs, _) = runs();
        for row in fig10(&runs) {
            let sum = row.map + row.reduce + row.sort + row.io + row.framework;
            assert!((sum - 1.0).abs() < 1e-9, "{}: {sum}", row.label);
        }
    }

    #[test]
    fn fig11_ratios_sum_to_one() {
        let (runs, cfg) = runs();
        let cc_sp = runs.iter().find(|r| r.label == "cc_sp").unwrap();
        let rows = fig11(cc_sp, 20, cfg.simprof.seed);
        let total: f64 = rows.iter().map(|r| r.sample_size_ratio).sum();
        assert!((total - 1.0).abs() < 1e-9);
        let wsum: f64 = rows.iter().map(|r| r.weight).sum();
        assert!((wsum - 1.0).abs() < 1e-9);
        // Sorted by weight descending.
        assert!(rows.windows(2).all(|w| w[0].weight >= w[1].weight));
    }

    #[test]
    fn fig14_sorts_by_phase() {
        let (runs, _) = runs();
        let wc_sp = runs.iter().find(|r| r.label == "wc_sp").unwrap();
        let pts = fig14_15(wc_sp);
        assert_eq!(pts.len(), wc_sp.output.trace.units.len());
        assert!(pts.windows(2).all(|w| w[0].phase <= w[1].phase));
    }
}
