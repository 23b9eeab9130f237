//! Live (online) phase formation with adaptive early-stopping (DESIGN.md
//! §16, ROADMAP item 1 — the Pac-Sim direction).
//!
//! The offline pipeline is strictly two-pass: profile everything, then
//! analyze. [`LiveAnalyzer`] is a [`UnitSink`] that rides the profiler's
//! streaming emission path and does the paper's §III machinery *while the
//! engine runs*:
//!
//! 1. **Warmup** — the first `warmup_units` closed units are buffered while
//!    incremental per-method feature moments ([`FeatureStats`]) accumulate.
//! 2. **Seeding** — at the warmup boundary the feature space is frozen from
//!    the moments seen so far, k is chosen by the exact silhouette sweep
//!    over the warmup window, and phase centers are fitted with the
//!    existing mini-batch k-means ([`kmeans_minibatch`]).
//! 3. **Tracking** — each subsequent unit is classified against the
//!    evolving centers and pulls its center toward itself with the
//!    mini-batch `1/count` learning rate.
//! 4. **Re-formation** — a drift statistic (normalized center movement
//!    since the last formation plus the assignment-churn rate of a recent
//!    window) exceeding `drift_threshold` triggers a fresh
//!    `choose_k` + mini-batch fit over the recent window, after which every
//!    buffered unit is reclassified so the live CI stays coherent.
//! 5. **Stopping** — the Eq. 2–4 stratified CI is tracked from per-phase
//!    streaming moments; once the live half-width meets the target the
//!    analyzer raises [`UnitSink::stop_requested`] and the sampling manager
//!    stops collecting (the engine itself runs to completion).
//!
//! **Equivalence contract** (the discipline PRs 4 and 7 established): the
//! live machinery drives only the *stop decision* and the emitted events.
//! The analyzer buffers every accepted unit, and [`LiveAnalyzer::finalize`]
//! routes the buffer through the canonical [`SimProf::analyze`] streaming
//! path — so with stopping disabled the final output is bit-identical to an
//! offline `analyze_stream` over the same trace, at any thread count, by
//! construction.
//!
//! **Stopping-rule soundness**: the live interval treats the remaining run
//! as an infinite population (no fpc) — the job could keep producing units
//! — so the live half-width is an upper bound on the finite-population
//! half-width the offline estimator would state for the same sample. The
//! rule only fires once every non-empty live phase holds ≥ 2 units, since
//! a one-unit phase has no variance estimate to trust.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use simprof_profiler::{ProfileTrace, ProfilerConfig, SamplingUnit, UnitSink};
use simprof_stats::{choose_k, kmeans_minibatch, split_seed, KMeans, Matrix};

use crate::features::{FeatureSpace, FeatureStats};
use crate::pipeline::{Analysis, SimProf, SimProfConfig, TraceError};

/// Parameters of live mode ([`SimProfConfig::live`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LiveConfig {
    /// Units buffered before the first phase formation (the window W).
    pub warmup_units: usize,
    /// Re-form phases when the drift statistic (normalized center movement
    /// + assignment-churn rate) exceeds this. Both addends live in `[0, ~1]`.
    pub drift_threshold: f64,
    /// Absolute CI half-width target: profiling stops once the live
    /// half-width `z · SE` is at or below it. `0.0` disables the rule.
    pub target_half_width: f64,
    /// Relative target: stop once the half-width is at or below this
    /// fraction of the running mean CPI. `0.0` disables the rule.
    pub target_rel_err: f64,
    /// z-score of the live confidence interval.
    pub z: f64,
}

impl Default for LiveConfig {
    /// 64-unit warmup, re-formation past drift 0.5, stopping disabled,
    /// z = 3 (the paper's 99.7 % interval).
    fn default() -> Self {
        Self {
            warmup_units: 64,
            drift_threshold: 0.5,
            target_half_width: 0.0,
            target_rel_err: 0.0,
            z: 3.0,
        }
    }
}

impl LiveConfig {
    /// Whether either stopping rule is armed.
    pub fn stopping_enabled(&self) -> bool {
        self.target_half_width > 0.0 || self.target_rel_err > 0.0
    }
}

/// What the live analyzer observed, reported alongside the final
/// [`Analysis`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LiveReport {
    /// Units profiled (equals the full budget unless stopping fired).
    pub units_profiled: usize,
    /// Whether the early-stopping rule fired.
    pub stopped_early: bool,
    /// Id of the unit at which the stop was requested.
    pub stop_unit: Option<u64>,
    /// Number of phases the live model tracked at the end.
    pub live_k: usize,
    /// Running mean CPI of the live model.
    pub live_mean: f64,
    /// Last live CI half-width (`None` until every phase holds ≥ 2 units).
    pub live_half_width: Option<f64>,
    /// Phase re-formations triggered by drift.
    pub reformations: u64,
    /// Last value of the drift statistic.
    pub drift: f64,
}

/// A [`UnitSink`] that forms phases and tracks the stratified CI live,
/// requesting an early stop once the target half-width is met. See the
/// module docs for the architecture and the equivalence contract.
#[derive(Debug)]
pub struct LiveAnalyzer {
    config: SimProfConfig,
    live: LiveConfig,
    profiler: ProfilerConfig,

    // The full buffer: finalize() replays it through the canonical offline
    // pipeline, which is what makes the equivalence contract hold by
    // construction.
    units: Vec<SamplingUnit>,
    cpis: Vec<f64>,
    feature_stats: FeatureStats,

    // The live model. The feature space freezes at the warmup boundary so
    // center coordinates stay comparable across the whole run.
    space: Option<FeatureSpace>,
    centers: Matrix,
    centers_at_reform: Matrix,
    assignments: Vec<usize>,

    // Per-phase streaming moments (n, Σx, Σx²) driving both the `1/count`
    // center learning rate and the live Eq. 2–4 interval.
    ph_n: Vec<u64>,
    ph_sum: Vec<f64>,
    ph_sumsq: Vec<f64>,

    churn: VecDeque<bool>,
    units_since_reform: usize,
    reformations: u64,
    last_drift: f64,
    last_half_width: Option<f64>,

    scratch: Vec<f64>,
    stop: bool,
    stop_unit: Option<u64>,
}

impl LiveAnalyzer {
    /// Creates a live analyzer. `config.live` supplies the live parameters
    /// (defaults when `None`); `profiler` describes the unit geometry of the
    /// trace being profiled, needed to finalize the buffered units.
    pub fn new(config: SimProfConfig, profiler: ProfilerConfig) -> Self {
        let live = config.live.unwrap_or_default();
        Self {
            config,
            live,
            profiler,
            units: Vec::new(),
            cpis: Vec::new(),
            feature_stats: FeatureStats::new(),
            space: None,
            centers: Matrix::zeros(0, 0),
            centers_at_reform: Matrix::zeros(0, 0),
            assignments: Vec::new(),
            ph_n: Vec::new(),
            ph_sum: Vec::new(),
            ph_sumsq: Vec::new(),
            churn: VecDeque::new(),
            units_since_reform: 0,
            reformations: 0,
            last_drift: 0.0,
            last_half_width: None,
            scratch: Vec::new(),
            stop: false,
            stop_unit: None,
        }
    }

    /// Units accepted so far.
    pub fn units_seen(&self) -> usize {
        self.units.len()
    }

    /// Number of live phases (0 before the warmup boundary).
    pub fn live_k(&self) -> usize {
        self.centers.rows()
    }

    /// The live per-unit phase assignments (empty before warmup completes).
    pub fn live_assignments(&self) -> &[usize] {
        &self.assignments
    }

    /// The current live CI half-width (`z · SE` over the per-phase
    /// streaming moments), or `None` while any non-empty phase holds fewer
    /// than 2 units. No finite-population correction is applied: the run
    /// could keep producing units, so the live population is treated as
    /// unbounded — which makes this an upper bound on the offline Eq. 4
    /// half-width for the same sample.
    pub fn live_half_width(&self) -> Option<f64> {
        let n: u64 = self.ph_n.iter().sum();
        if n == 0 {
            return None;
        }
        let mut se2 = 0.0;
        for h in 0..self.ph_n.len() {
            let nh = self.ph_n[h];
            if nh == 0 {
                continue;
            }
            if nh < 2 {
                return None;
            }
            let nh_f = nh as f64;
            let mean = self.ph_sum[h] / nh_f;
            let var = ((self.ph_sumsq[h] - nh_f * mean * mean) / (nh_f - 1.0)).max(0.0);
            let w = nh_f / n as f64;
            se2 += w * w * var / nh_f;
        }
        Some(self.live.z * se2.sqrt())
    }

    /// Running mean CPI of the live model (weighted by live phase counts,
    /// which equals the plain mean over assigned units).
    pub fn live_mean(&self) -> f64 {
        let n: u64 = self.ph_n.iter().sum();
        if n == 0 {
            return 0.0;
        }
        self.ph_sum.iter().sum::<f64>() / n as f64
    }

    /// The live observation report (valid at any point during the run).
    pub fn report(&self) -> LiveReport {
        LiveReport {
            units_profiled: self.units.len(),
            stopped_early: self.stop,
            stop_unit: self.stop_unit,
            live_k: self.live_k(),
            live_mean: self.live_mean(),
            live_half_width: self.last_half_width,
            reformations: self.reformations,
            drift: self.last_drift,
        }
    }

    /// Finalizes: replays the buffered units through the canonical offline
    /// pipeline ([`SimProf::analyze`], i.e. the same one-scan
    /// `analyze_stream` route every other entry point uses) and returns the
    /// analysis with the live report. With stopping disabled the result is
    /// bit-identical to analyzing the full trace offline.
    pub fn finalize(&mut self) -> Result<(Analysis, LiveReport), TraceError> {
        let report = self.report();
        let trace = ProfileTrace {
            unit_instrs: self.profiler.unit_instrs,
            snapshot_instrs: self.profiler.snapshot_instrs,
            core: self.profiler.core,
            units: std::mem::take(&mut self.units),
        };
        let analysis = SimProf::new(self.config).analyze(&trace)?;
        Ok((analysis, report))
    }

    /// Warmup boundary: freeze the feature space from the moments seen so
    /// far, choose k on the warmup window with the exact silhouette sweep,
    /// fit centers with mini-batch k-means.
    fn form_initial(&mut self) {
        let space = self.feature_stats.clone().into_space(self.config.top_k);
        self.space = Some(space);
        let centers = self.fit_window(self.units.len(), self.config.seed);
        self.install_centers(centers);
    }

    /// `choose_k` + mini-batch fit over the last `window` buffered units,
    /// projected into the frozen live space.
    fn fit_window(&mut self, window: usize, seed: u64) -> Matrix {
        let space = self.space.as_ref().expect("live space fitted");
        let start = self.units.len().saturating_sub(window.max(3));
        let recent = &self.units[start..];
        let mut projected = Matrix::zeros(recent.len(), space.dim());
        for (i, u) in recent.iter().enumerate() {
            space.project_unit_into(u, projected.row_mut(i));
        }
        let selection = choose_k(
            &projected,
            self.config.k_max,
            self.config.silhouette_threshold,
            self.config.min_structure,
            seed,
        );
        let batch = self.config.minibatch.map(|m| m.batch_size).unwrap_or(256).max(8);
        kmeans_minibatch(&projected, KMeans::new(selection.k, seed), batch).centers
    }

    /// Installs a fresh center set: every buffered unit is reclassified by
    /// nearest center and the per-phase moments are rebuilt, so the live CI
    /// after a re-formation describes exactly the current stratification.
    fn install_centers(&mut self, centers: Matrix) {
        let k = centers.rows();
        self.assignments.clear();
        self.ph_n = vec![0; k];
        self.ph_sum = vec![0.0; k];
        self.ph_sumsq = vec![0.0; k];
        let space = self.space.as_ref().expect("live space fitted");
        self.scratch.resize(space.dim(), 0.0);
        for (i, u) in self.units.iter().enumerate() {
            space.project_unit_into(u, &mut self.scratch);
            let a = Matrix::nearest_row(&centers, &self.scratch).unwrap_or(0);
            self.assignments.push(a);
            let c = self.cpis[i];
            self.ph_n[a] += 1;
            self.ph_sum[a] += c;
            self.ph_sumsq[a] += c * c;
        }
        self.centers_at_reform = centers.clone();
        self.centers = centers;
        self.churn.clear();
        self.units_since_reform = 0;
    }

    /// Tracks one post-warmup unit: classify, update moments, pull the
    /// winning center with the `1/count` mini-batch learning rate, record
    /// churn against the reform-time centers.
    fn track(&mut self, cpi: f64) {
        // `scratch` already holds the unit's projection (set by `accept`).
        let a = Matrix::nearest_row(&self.centers, &self.scratch).unwrap_or(0);
        self.assignments.push(a);
        self.ph_n[a] += 1;
        self.ph_sum[a] += cpi;
        self.ph_sumsq[a] += cpi * cpi;

        // Churn: would the centers frozen at the last formation have
        // classified this unit differently?
        let a0 = Matrix::nearest_row(&self.centers_at_reform, &self.scratch).unwrap_or(0);
        self.churn.push_back(a != a0);
        let window = self.live.warmup_units.max(8);
        while self.churn.len() > window {
            self.churn.pop_front();
        }

        // Incremental center update, the mini-batch `1/count` rate: the
        // center converges to the running mean of its members.
        let eta = 1.0 / self.ph_n[a] as f64;
        let row = self.centers.row_mut(a);
        for (c, &x) in row.iter_mut().zip(self.scratch.iter()) {
            *c += eta * (x - *c);
        }
        self.units_since_reform += 1;
    }

    /// The drift statistic: normalized center movement since the last
    /// formation plus the assignment-churn rate of the recent window.
    fn drift(&self) -> f64 {
        let k = self.centers.rows();
        if k == 0 {
            return 0.0;
        }
        let churned = self.churn.iter().filter(|&&b| b).count();
        let churn_rate =
            if self.churn.is_empty() { 0.0 } else { churned as f64 / self.churn.len() as f64 };
        let mut movement = 0.0;
        let mut scale = 0.0;
        for h in 0..k {
            let now = self.centers.row(h);
            let then = self.centers_at_reform.row(h);
            movement += Matrix::sq_dist(now, then).sqrt();
            scale += then.iter().map(|v| v * v).sum::<f64>().sqrt();
        }
        let movement_norm = if scale > 0.0 { movement / scale } else { movement };
        churn_rate + movement_norm
    }

    /// Re-forms phases when drift exceeds the threshold (at most once per
    /// warmup-window of units, so formation cost stays amortized).
    fn maybe_reform(&mut self) {
        self.last_drift = self.drift();
        if self.units_since_reform < self.live.warmup_units.max(8)
            || self.last_drift <= self.live.drift_threshold
        {
            return;
        }
        let old_k = self.centers.rows();
        let drift = self.last_drift;
        let seed = split_seed(self.config.seed, 0x11FE + self.reformations);
        let centers = self.fit_window(self.live.warmup_units.max(8), seed);
        self.install_centers(centers);
        self.reformations += 1;
        simprof_obs::phase_reformed(
            self.units.len() as u64,
            old_k as u64,
            self.centers.rows() as u64,
            drift,
        );
    }

    /// Arms the stop latch once the live half-width meets either target.
    fn update_stop(&mut self) {
        self.last_half_width = self.live_half_width();
        if self.stop || !self.live.stopping_enabled() {
            return;
        }
        let Some(hw) = self.last_half_width else { return };
        let mean = self.live_mean();
        let abs_met = self.live.target_half_width > 0.0 && hw <= self.live.target_half_width;
        let rel_met = self.live.target_rel_err > 0.0 && hw <= self.live.target_rel_err * mean;
        if abs_met || rel_met {
            self.stop = true;
            self.stop_unit = self.units.last().map(|u| u.id);
            let target =
                if abs_met { self.live.target_half_width } else { self.live.target_rel_err * mean };
            simprof_obs::early_stop(self.units.len() as u64, hw, target);
        }
    }
}

impl UnitSink for LiveAnalyzer {
    fn accept(&mut self, unit: &SamplingUnit) {
        self.units.push(unit.clone());
        let cpi = if unit.counters.instructions == 0 { 0.0 } else { unit.cpi() };
        self.cpis.push(cpi);
        self.feature_stats.push(unit);
        match &self.space {
            None => {
                if self.units.len() >= self.live.warmup_units.max(4) {
                    self.form_initial();
                    self.update_stop();
                }
            }
            Some(space) => {
                self.scratch.resize(space.dim(), 0.0);
                space.project_unit_into(unit, &mut self.scratch);
                self.track(cpi);
                self.maybe_reform();
                self.update_stop();
            }
        }
    }

    fn finish(&mut self) {
        simprof_obs::gauge_set("live.k", self.live_k() as f64);
        simprof_obs::counter_add("live.units", self.units.len() as u64);
        simprof_obs::counter_add("live.reformations", self.reformations);
        if self.stop {
            simprof_obs::counter_add("live.early_stops", 1);
        }
    }

    fn stop_requested(&self) -> bool {
        self.stop
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simprof_engine::MethodId;
    use simprof_sim::Counters;

    fn unit(id: u64, method: u32, cycles: u64) -> SamplingUnit {
        SamplingUnit {
            id,
            histogram: vec![(MethodId(0), 10), (MethodId(method), 9)],
            snapshots: 10,
            counters: Counters { instructions: 1000, cycles, ..Default::default() },
            slices: Vec::new(),
            truncated: false,
            dropped_snapshots: 0,
        }
    }

    /// Two behaviours with small CPI jitter: method 1 around CPI 1.0,
    /// method 2 around CPI 3.1.
    fn two_phase_units(n: usize) -> Vec<SamplingUnit> {
        (0..n)
            .map(|i| {
                let jitter = (i % 5) as u64 * 7;
                if i % 2 == 0 {
                    unit(i as u64, 1, 1000 + jitter)
                } else {
                    unit(i as u64, 2, 3100 + jitter)
                }
            })
            .collect()
    }

    fn config(live: LiveConfig) -> SimProfConfig {
        SimProfConfig { seed: 42, live: Some(live), ..Default::default() }
    }

    fn feed(analyzer: &mut LiveAnalyzer, units: &[SamplingUnit]) {
        for u in units {
            if analyzer.stop_requested() {
                break;
            }
            analyzer.accept(u);
        }
    }

    #[test]
    fn live_without_stopping_is_bit_identical_to_offline() {
        let units = two_phase_units(200);
        let trace =
            ProfileTrace { unit_instrs: 1000, snapshot_instrs: 100, core: 0, units: units.clone() };
        let cfg = config(LiveConfig::default());
        let offline = SimProf::new(cfg).analyze(&trace).unwrap();

        let mut live = LiveAnalyzer::new(cfg, ProfilerConfig::with_unit(1000));
        feed(&mut live, &units);
        assert!(!live.stop_requested(), "stopping is disabled");
        let (analysis, report) = live.finalize().unwrap();
        assert_eq!(report.units_profiled, 200);
        assert!(!report.stopped_early);
        assert_eq!(analysis.cpis, offline.cpis);
        assert_eq!(analysis.model.assignments, offline.model.assignments);
        assert_eq!(analysis.model.centers, offline.model.centers);
        assert_eq!(analysis.stats, offline.stats);
    }

    #[test]
    fn warmup_forms_phases_and_classifies_the_tail() {
        let units = two_phase_units(120);
        let live_cfg = LiveConfig { warmup_units: 40, ..Default::default() };
        let mut live = LiveAnalyzer::new(config(live_cfg), ProfilerConfig::with_unit(1000));
        feed(&mut live, &units);
        assert_eq!(live.live_k(), 2, "two clear behaviours");
        assert_eq!(live.live_assignments().len(), 120);
        // Even units (method 1) all share one live phase.
        let a0 = live.live_assignments()[0];
        assert!(live.live_assignments().iter().step_by(2).all(|&a| a == a0));
        assert_ne!(live.live_assignments()[1], a0);
    }

    #[test]
    fn early_stop_fires_on_a_low_variance_workload_and_is_sound() {
        let units = two_phase_units(400);
        let live_cfg =
            LiveConfig { warmup_units: 32, target_rel_err: 0.05, z: 3.0, ..Default::default() };
        let mut live = LiveAnalyzer::new(config(live_cfg), ProfilerConfig::with_unit(1000));
        feed(&mut live, &units);
        assert!(live.stop_requested(), "low-variance workload must stop early");
        let report = live.report();
        assert!(report.stopped_early);
        assert!(report.units_profiled < 400, "stopped at {}", report.units_profiled);

        // Soundness: recompute the stated half-width from scratch (two-pass,
        // same no-fpc formula) over exactly the units seen at stop, and
        // check it really meets the stated target.
        let n = report.units_profiled;
        let asg = live.live_assignments().to_vec();
        let k = live.live_k();
        let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); k];
        for i in 0..n {
            let cpi = units[i].counters.cycles as f64 / units[i].counters.instructions as f64;
            buckets[asg[i]].push(cpi);
        }
        let mut se2 = 0.0;
        for b in &buckets {
            if b.is_empty() {
                continue;
            }
            assert!(b.len() >= 2, "stop must not fire with a 1-unit phase");
            let m = simprof_stats::mean(b);
            let var = b.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (b.len() - 1) as f64;
            let w = b.len() as f64 / n as f64;
            se2 += w * w * var / b.len() as f64;
        }
        let oracle_hw = 3.0 * se2.sqrt();
        let stated = report.live_half_width.expect("half-width computed at stop");
        assert!(
            (stated - oracle_hw).abs() <= 1e-9 * oracle_hw.max(1e-12),
            "streaming hw {stated} must match two-pass {oracle_hw}"
        );
        let mean_cpi = simprof_stats::mean(&buckets.concat());
        assert!(
            oracle_hw <= 0.05 * mean_cpi + 1e-12,
            "stop fired before the target was met: {oracle_hw} vs {}",
            0.05 * mean_cpi
        );
    }

    #[test]
    fn drift_triggers_reformation() {
        // Phase behaviour changes completely after unit 100: method 3 at a
        // new CPI plateau the warmup never saw.
        let mut units = two_phase_units(100);
        for i in 100..260u64 {
            units.push(unit(i, 3, 7000 + (i % 4) * 11));
        }
        let live_cfg = LiveConfig { warmup_units: 32, drift_threshold: 0.2, ..Default::default() };
        let mut live = LiveAnalyzer::new(config(live_cfg), ProfilerConfig::with_unit(1000));
        feed(&mut live, &units);
        assert!(live.report().reformations > 0, "regime change must trigger re-formation");
        // The final output is still the canonical offline analysis.
        let trace =
            ProfileTrace { unit_instrs: 1000, snapshot_instrs: 100, core: 0, units: units.clone() };
        let offline = SimProf::new(config(live_cfg)).analyze(&trace).unwrap();
        let (analysis, _) = live.finalize().unwrap();
        assert_eq!(analysis.model.assignments, offline.model.assignments);
        assert_eq!(analysis.cpis, offline.cpis);
    }

    #[test]
    fn degenerate_single_behaviour_stays_single_phase() {
        let units: Vec<SamplingUnit> = (0..80).map(|i| unit(i as u64, 1, 1000)).collect();
        let live_cfg = LiveConfig { warmup_units: 16, ..Default::default() };
        let mut live = LiveAnalyzer::new(config(live_cfg), ProfilerConfig::with_unit(1000));
        feed(&mut live, &units);
        assert_eq!(live.live_k(), 1);
        assert_eq!(live.report().reformations, 0, "nothing drifts");
    }

    #[test]
    fn live_config_serde_roundtrip_through_simprof_config() {
        let cfg = config(LiveConfig { warmup_units: 10, ..Default::default() });
        let json = serde_json::to_string(&cfg).unwrap();
        let back: SimProfConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
        // And a config without the field still parses (serde default).
        let old: SimProfConfig =
            serde_json::from_str(&serde_json::to_string(&SimProfConfig::default()).unwrap())
                .unwrap();
        assert_eq!(old.live, None);
    }
}
