//! End-to-end convenience API: [`SimProf`] bundles the whole §III pipeline.

use serde::{Deserialize, Serialize};

use simprof_engine::MethodId;
use simprof_profiler::{MemStream, ProfileTrace, SamplingUnit, UnitStream};
use simprof_stats::{seeded, CovTriple, Matrix, Summary};

use crate::features::{FeatureSpace, FeatureStats};
use crate::live::LiveConfig;
use crate::phases::{form_phases_in_space, homogeneity, phase_stats, phase_weights, PhaseModel};
use crate::sampling::{
    estimate_stratified, required_sample_size, select_points, Estimate, SimulationPoints,
};

/// Pipeline parameters, defaulting to the paper's published settings.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimProfConfig {
    /// Number of regression-selected features (the paper uses K = 100).
    pub top_k: usize,
    /// Maximum number of phases swept (the paper caps at 20).
    pub k_max: usize,
    /// Silhouette threshold: smallest k within this fraction of the best
    /// score wins (the paper uses 90 %).
    pub silhouette_threshold: f64,
    /// Minimum best silhouette for any multi-phase structure to be accepted;
    /// below it the trace forms a single phase.
    pub min_structure: f64,
    /// Seed for clustering and sampling randomness.
    pub seed: u64,
    /// Opt-in scalable phase formation for very large traces (`None`, the
    /// default, keeps the exact sweep at every size). The exact silhouette
    /// sweep visits all `n²` unit pairs, which stops being an option around
    /// 10⁵ units; this mode bounds its time by choosing k on a
    /// deterministic subsample and fitting the full-trace model with
    /// mini-batch k-means.
    #[serde(default)]
    pub minibatch: Option<MinibatchPhases>,
    /// Opt-in live-mode parameters (warmup window, drift threshold,
    /// early-stopping targets). `None` keeps every entry point strictly
    /// offline; only [`crate::live::LiveAnalyzer`] reads this.
    #[serde(default)]
    pub live: Option<LiveConfig>,
}

/// Parameters of the opt-in mini-batch phase-formation mode
/// ([`SimProfConfig::minibatch`]). Only applies to traces with more than
/// `sweep_units` sampling units; smaller traces keep the exact sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MinibatchPhases {
    /// Unit-count budget of the k-selection sweep: k is chosen by the exact
    /// silhouette rule on a systematic subsample of this many units, so the
    /// sweep's distance pass visits `sweep_units²` pairs instead of `n²`.
    pub sweep_units: usize,
    /// Mini-batch size of the full-trace k-means fit.
    pub batch_size: usize,
}

impl Default for MinibatchPhases {
    /// 2 000 sweep units (4 million distance pairs) and 4 096-unit batches.
    fn default() -> Self {
        Self { sweep_units: 2_000, batch_size: 4_096 }
    }
}

impl Default for SimProfConfig {
    fn default() -> Self {
        Self {
            top_k: 100,
            k_max: 20,
            silhouette_threshold: 0.9,
            min_structure: 0.25,
            seed: 0,
            minibatch: None,
            live: None,
        }
    }
}

/// Why a [`ProfileTrace`] cannot be analyzed.
///
/// Degenerate traces used to slip through and poison the analysis with
/// NaN/∞ CPIs; validation now rejects them up front with a typed error.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceError {
    /// The trace holds no sampling units (nothing ran on the profiled core,
    /// or every unit was a discarded partial tail).
    EmptyTrace,
    /// A sampling unit retired zero instructions, so its CPI is undefined.
    ZeroInstructionUnit {
        /// The offending unit's id.
        unit: u64,
    },
    /// The trace's declared unit size is zero, which breaks every
    /// instruction-budget computation downstream.
    ZeroUnitSize,
    /// The unit stream failed mid-analysis (I/O error, corrupt chunk, …).
    Stream {
        /// The underlying stream error.
        message: String,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::EmptyTrace => write!(f, "profile trace contains no sampling units"),
            Self::ZeroInstructionUnit { unit } => {
                write!(f, "sampling unit {unit} retired zero instructions (CPI undefined)")
            }
            Self::ZeroUnitSize => write!(f, "trace declares a zero sampling-unit size"),
            Self::Stream { message } => write!(f, "trace stream failed: {message}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// Validates that `trace` is analyzable: non-empty, positive unit size, and
/// every unit retired at least one instruction.
pub fn validate_trace(trace: &ProfileTrace) -> Result<(), TraceError> {
    if trace.unit_instrs == 0 {
        return Err(TraceError::ZeroUnitSize);
    }
    if trace.units.is_empty() {
        return Err(TraceError::EmptyTrace);
    }
    if let Some(u) = trace.units.iter().find(|u| u.counters.instructions == 0) {
        return Err(TraceError::ZeroInstructionUnit { unit: u.id });
    }
    Ok(())
}

/// The SimProf pipeline.
#[derive(Debug, Clone, Default)]
pub struct SimProf {
    config: SimProfConfig,
}

impl SimProf {
    /// Creates the pipeline with the given configuration.
    pub fn new(config: SimProfConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimProfConfig {
        &self.config
    }

    /// Runs phase formation + homogeneity analysis on a trace and returns a
    /// self-contained [`Analysis`], or a [`TraceError`] if the trace is
    /// degenerate (empty, zero unit size, or a zero-instruction unit).
    ///
    /// Routes through the same one-scan streaming pipeline as
    /// [`analyze_stream`](Self::analyze_stream) (over a [`MemStream`]), so a
    /// trace analyzed in memory and the same trace streamed from disk
    /// produce bit-identical results.
    pub fn analyze(&self, trace: &ProfileTrace) -> Result<Analysis, TraceError> {
        self.analyze_stream(&mut MemStream::new(trace))
    }

    /// Runs the full analysis over a rewindable unit stream without ever
    /// materializing the trace. One scan accumulates per-method sufficient
    /// statistics for feature selection, the per-unit CPIs and a sparse
    /// record of every unit's histogram; the reduced `units × K` matrix the
    /// k-means sweep needs is then projected from that record. A record
    /// that would outgrow the reduced matrix (more than `top_k` histogram
    /// entries per unit so far) is dropped, and the rows are projected
    /// from a second read of the rewound stream instead.
    pub fn analyze_stream(&self, stream: &mut dyn UnitStream) -> Result<Analysis, TraceError> {
        self.analyze_stream_with(stream, true)
    }

    /// [`analyze_stream`](Self::analyze_stream) that never keeps the sparse
    /// record, so every row is projected from a rewound stream. The analysis
    /// is bit-identical to `analyze_stream`'s; this entry point exists for
    /// the tests that pin that.
    #[doc(hidden)]
    pub fn analyze_stream_rescanning(
        &self,
        stream: &mut dyn UnitStream,
    ) -> Result<Analysis, TraceError> {
        self.analyze_stream_with(stream, false)
    }

    fn analyze_stream_with(
        &self,
        stream: &mut dyn UnitStream,
        keep_record: bool,
    ) -> Result<Analysis, TraceError> {
        let _span = simprof_obs::span!("core.analyze");
        if stream.unit_instrs() == 0 {
            return Err(TraceError::ZeroUnitSize);
        }
        let _form_span = simprof_obs::span!("core.form_phases");
        let (space, projected, cpis) = {
            let _span = simprof_obs::span!("core.feature_fit");

            // The scan: sufficient statistics (Σx, Σx², Σxy per method),
            // CPIs and the sparse record; the dense units × universe matrix
            // is never built.
            let scan_span = simprof_obs::span!("core.scan");
            stream.rewind().map_err(|message| TraceError::Stream { message })?;
            let mut stats = FeatureStats::new();
            let mut cpis = Vec::new();
            let mut record = keep_record.then(HistogramRecord::default);
            loop {
                let unit = match stream.next_unit() {
                    Ok(Some(u)) => u,
                    Ok(None) => break,
                    Err(message) => return Err(TraceError::Stream { message }),
                };
                if unit.counters.instructions == 0 {
                    return Err(TraceError::ZeroInstructionUnit { unit: unit.id });
                }
                stats.push(unit);
                cpis.push(unit.cpi());
                if record.as_mut().is_some_and(|r| !r.push(unit, self.config.top_k)) {
                    record = None;
                }
            }
            if cpis.is_empty() {
                return Err(TraceError::EmptyTrace);
            }
            let space = stats.into_space(self.config.top_k);
            drop(scan_span);

            let _span = simprof_obs::span!("core.project");
            let mut projected = Matrix::zeros(cpis.len(), space.dim());
            match record {
                Some(record) => record.project(&space, &mut projected),
                None => {
                    simprof_obs::counter_add("core.stream_rescans", 1);
                    project_rescan(stream, &space, &mut projected)?;
                }
            }
            (space, projected, cpis)
        };
        let model = form_phases_in_space(space, &projected, &self.config);
        drop(_form_span);
        let k = model.k();
        let stats = phase_stats(&cpis, &model.assignments, k);
        let weights = phase_weights(&model.assignments, k);
        let cov = homogeneity(&cpis, &model.assignments);
        simprof_obs::gauge_set("core.phases", k as f64);
        simprof_obs::counter_add("core.units_analyzed", cpis.len() as u64);
        Ok(Analysis { config: self.config, model, cpis, stats, weights, cov })
    }
}

/// The scan's copy of every unit's `snapshots` and `histogram`: one flat
/// entry list, each unit's end offset into it, and its snapshot count.
///
/// Its entries are kept to at most `units × top_k` — the cell count of the
/// reduced matrix when `top_k` columns survive — so holding it next to the
/// matrix at most doubles what projection holds, whatever the method
/// universe.
#[derive(Debug, Default)]
struct HistogramRecord {
    entries: Vec<(MethodId, u32)>,
    ends: Vec<u32>,
    snapshots: Vec<u32>,
}

impl HistogramRecord {
    /// Records `unit`, or returns `false` (recording nothing) when its
    /// entries would take the record past `units × top_k`, counting this
    /// unit, or past `u32` offsets.
    fn push(&mut self, unit: &SamplingUnit, top_k: usize) -> bool {
        let len = self.entries.len() + unit.histogram.len();
        let budget = (self.ends.len() + 1).saturating_mul(top_k);
        let Ok(end) = u32::try_from(len) else { return false };
        if len > budget {
            return false;
        }
        self.entries.extend_from_slice(&unit.histogram);
        self.ends.push(end);
        self.snapshots.push(unit.snapshots);
        true
    }

    /// Projects every recorded unit into its row of `projected`.
    fn project(&self, space: &FeatureSpace, projected: &mut Matrix) {
        let mut start = 0;
        for (i, (&end, &snapshots)) in self.ends.iter().zip(&self.snapshots).enumerate() {
            let end = end as usize;
            space.project_into(snapshots, &self.entries[start..end], projected.row_mut(i));
            start = end;
        }
    }
}

/// Rewinds `stream` and projects each unit into its row of `projected`,
/// which has one row per unit the scan counted.
fn project_rescan(
    stream: &mut dyn UnitStream,
    space: &FeatureSpace,
    projected: &mut Matrix,
) -> Result<(), TraceError> {
    let units = projected.rows();
    stream.rewind().map_err(|message| TraceError::Stream { message })?;
    let mut i = 0;
    loop {
        let unit = match stream.next_unit() {
            Ok(Some(u)) => u,
            Ok(None) => break,
            Err(message) => return Err(TraceError::Stream { message }),
        };
        if i >= units {
            return Err(TraceError::Stream {
                message: format!("stream yielded more units on pass 2 than pass 1 ({units})"),
            });
        }
        space.project_unit_into(unit, projected.row_mut(i));
        i += 1;
    }
    if i != units {
        return Err(TraceError::Stream {
            message: format!("stream yielded {i} units on pass 2, {units} on pass 1"),
        });
    }
    Ok(())
}

/// The result of phase formation on one trace, with everything needed to
/// sample, estimate, and report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Analysis {
    /// The configuration the analysis ran with.
    pub config: SimProfConfig,
    /// The fitted phase model (feature space + centers + assignments).
    pub model: PhaseModel,
    /// Per-unit CPIs of the analyzed trace.
    pub cpis: Vec<f64>,
    /// Per-phase CPI summaries.
    pub stats: Vec<Summary>,
    /// Per-phase weights `N_h / N`.
    pub weights: Vec<f64>,
    /// Fig. 6 homogeneity triple (population / weighted / max CoV).
    pub cov: CovTriple,
}

/// One row of the Eq. 1 allocation table: how a phase's population size and
/// CPI spread translated into simulation-point budget.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AllocationRow {
    /// Phase (stratum) id `h`.
    pub phase: usize,
    /// Population size `N_h` (sampling units in the phase).
    pub units: usize,
    /// Phase weight `N_h / N`.
    pub weight: f64,
    /// Population CPI standard deviation `σ_h`.
    pub stddev: f64,
    /// Allocated sample size `n_h` (Eq. 1, after floors and caps).
    pub allocated: usize,
}

impl Analysis {
    /// Number of phases.
    pub fn k(&self) -> usize {
        self.model.k()
    }

    /// The Eq. 1 allocation table for a selected point set: one
    /// [`AllocationRow`] per phase, pairing `N_h`/`σ_h` with the `n_h` the
    /// allocator granted. Used verbatim as the `allocation` section of a run
    /// report.
    pub fn allocation_table(&self, points: &SimulationPoints) -> Vec<AllocationRow> {
        (0..self.k())
            .map(|h| AllocationRow {
                phase: h,
                units: self.stats[h].n,
                weight: self.weights[h],
                stddev: self.stats[h].stddev,
                allocated: points.allocation.get(h).copied().unwrap_or(0),
            })
            .collect()
    }

    /// Oracle CPI (mean over all sampling units).
    pub fn oracle_cpi(&self) -> f64 {
        simprof_stats::mean(&self.cpis)
    }

    /// Selects `n` simulation points by stratified random sampling with
    /// optimal allocation (§III-C).
    pub fn select_points(&self, n: usize, seed: u64) -> SimulationPoints {
        select_points(&self.cpis, &self.model.assignments, self.k(), n, &mut seeded(seed))
    }

    /// Stratified CPI estimate from a set of points, with its Eq. 4
    /// confidence interval at z-score `z`.
    pub fn estimate(&self, points: &SimulationPoints, z: f64) -> Estimate {
        estimate_stratified(&self.cpis, &self.model.assignments, points, z)
    }

    /// Required sample size for a relative error of `rel_err` at z-score `z`
    /// (the Fig. 8 solver; the paper uses z = 3 for the 99.7 % interval).
    pub fn required_size(&self, z: f64, rel_err: f64) -> usize {
        required_sample_size(&self.cpis, &self.model.assignments, self.k(), z, rel_err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simprof_sim::Counters;

    fn trace() -> ProfileTrace {
        let units = (0..50u64)
            .map(|i| {
                let early = i < 30;
                let jitter = (i % 6) * 25;
                let (m, cycles) = if early { (1, 1000 + jitter) } else { (2, 2600 + 10 * jitter) };
                SamplingUnit {
                    id: i,
                    histogram: vec![(MethodId(0), 10), (MethodId(m), 9)],
                    snapshots: 10,
                    counters: Counters { instructions: 1000, cycles, ..Default::default() },
                    slices: Vec::new(),
                    truncated: false,
                    dropped_snapshots: 0,
                }
            })
            .collect();
        ProfileTrace { unit_instrs: 1000, snapshot_instrs: 100, core: 0, units }
    }

    #[test]
    fn analyze_end_to_end() {
        let t = trace();
        let analysis =
            SimProf::new(SimProfConfig { seed: 4, ..Default::default() }).analyze(&t).unwrap();
        assert_eq!(analysis.k(), 2);
        assert_eq!(analysis.weights.iter().sum::<f64>(), 1.0);
        assert!(analysis.cov.weighted < analysis.cov.population);

        let points = analysis.select_points(15, 7);
        assert_eq!(points.len(), 15);
        let est = analysis.estimate(&points, 3.0);
        let oracle = analysis.oracle_cpi();
        assert!((est.mean_cpi - oracle).abs() / oracle < 0.25);

        let n5 = analysis.required_size(3.0, 0.05);
        let n2 = analysis.required_size(3.0, 0.02);
        assert!(n2 >= n5);
        assert!(n5 >= analysis.k());
    }

    #[test]
    fn analysis_serde_roundtrip() {
        let t = trace();
        let analysis =
            SimProf::new(SimProfConfig { seed: 4, ..Default::default() }).analyze(&t).unwrap();
        let json = serde_json::to_string(&analysis).unwrap();
        let back: Analysis = serde_json::from_str(&json).unwrap();
        assert_eq!(back.k(), analysis.k());
        assert_eq!(back.cpis, analysis.cpis);
    }

    #[test]
    fn degenerate_traces_are_rejected_typed() {
        let sp = SimProf::default();
        let empty =
            ProfileTrace { unit_instrs: 1000, snapshot_instrs: 100, core: 0, units: vec![] };
        assert!(matches!(sp.analyze(&empty), Err(TraceError::EmptyTrace)));
        let mut zero_unit = trace();
        zero_unit.unit_instrs = 0;
        assert!(matches!(sp.analyze(&zero_unit), Err(TraceError::ZeroUnitSize)));
        let mut dead = trace();
        dead.units[3].counters.instructions = 0;
        assert!(matches!(sp.analyze(&dead), Err(TraceError::ZeroInstructionUnit { unit: 3 })));
        // Errors render human-readable messages and serde-roundtrip.
        let e = TraceError::ZeroInstructionUnit { unit: 3 };
        assert!(e.to_string().contains("unit 3"));
        let back: TraceError = serde_json::from_str(&serde_json::to_string(&e).unwrap()).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn default_config_matches_paper() {
        let c = SimProfConfig::default();
        assert_eq!(c.top_k, 100);
        assert_eq!(c.k_max, 20);
        assert_eq!(c.silhouette_threshold, 0.9);
    }
}
