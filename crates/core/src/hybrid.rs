//! SimProf × systematic sampling — the paper's stated future work (§III-C):
//!
//! > "Since SimProf uses the large size of sampling units, the simulation
//! > time can still be significant, users can combine other sampling
//! > approaches, e.g., systematic sampling \[SMARTS\] to reduce the simulation
//! > time of each simulation point."
//!
//! The profiler records per-snapshot-interval counter slices inside every
//! sampling unit (10 per unit at the paper's ratio). The hybrid estimator
//! simulates only every `stride`-th slice of each *selected* simulation
//! point — SMARTS-style systematic sampling nested inside SimProf's
//! stratified selection — cutting the detailed-simulation budget by ~stride×
//! on top of the stratified reduction, at a small accuracy cost measured by
//! the `hybrid` extension experiment.

use serde::{Deserialize, Serialize};

use simprof_profiler::ProfileTrace;
use simprof_stats::{confidence_interval, mean, stddev, stratified_se, StratumStats};

use crate::sampling::{strata_of, SimulationPoints};

/// Result of a hybrid (stratified × systematic) estimate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HybridEstimate {
    /// Stratified CPI estimate built from sliced per-point CPIs.
    pub mean_cpi: f64,
    /// Eq. 4 standard error of the stratified layer (the systematic layer's
    /// within-unit error is folded into the per-phase sample stddevs).
    pub se: f64,
    /// z-score of the confidence interval.
    pub z: f64,
    /// Confidence interval.
    pub ci: (f64, f64),
    /// Instructions that must be simulated in detail under this scheme.
    pub simulated_instrs: u64,
    /// Instructions the same points would cost without sub-unit sampling.
    pub full_instrs: u64,
}

impl HybridEstimate {
    /// Detailed-simulation reduction from the systematic layer
    /// (`1 − simulated/full`).
    pub fn slice_reduction(&self) -> f64 {
        if self.full_instrs == 0 {
            0.0
        } else {
            1.0 - self.simulated_instrs as f64 / self.full_instrs as f64
        }
    }
}

/// Estimates CPI from `points`, simulating only every `stride`-th
/// intra-unit slice of each point (offset deterministically varied per
/// point so slice positions do not align across points).
///
/// `stride = 1` degenerates to the plain stratified estimator over full
/// units. Units profiled without slices fall back to their full CPI.
pub fn estimate_hybrid(
    trace: &ProfileTrace,
    assignments: &[usize],
    points: &SimulationPoints,
    stride: usize,
    z: f64,
) -> HybridEstimate {
    let cpis: Vec<f64> = trace.units.iter().map(|u| u.cpi()).collect();
    let k = points.per_phase.len();
    let strata = strata_of(&cpis, assignments, k);
    let total_units: usize = strata.iter().map(|s| s.units).sum();

    let mut est = 0.0;
    let mut se_strata = Vec::with_capacity(k);
    let mut sizes = Vec::with_capacity(k);
    let mut simulated = 0u64;
    let mut full = 0u64;
    for (h, stratum) in strata.iter().enumerate() {
        let sample: Vec<f64> = points.per_phase[h]
            .iter()
            .map(|&id| {
                let unit = &trace.units[id as usize];
                simulated += unit.sliced_instrs(stride, id as usize);
                full += unit.counters.instructions;
                unit.sliced_cpi(stride, id as usize)
            })
            .collect();
        let w = stratum.units as f64 / total_units.max(1) as f64;
        est += w * mean(&sample);
        let s_h = if sample.len() >= 2 { stddev(&sample) } else { stratum.stddev };
        se_strata.push(StratumStats { units: stratum.units, stddev: s_h });
        sizes.push(sample.len());
    }
    let se = stratified_se(&se_strata, &sizes);
    HybridEstimate {
        mean_cpi: est,
        se,
        z,
        ci: confidence_interval(est, se, z),
        simulated_instrs: simulated,
        full_instrs: full,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::select_points;
    use simprof_engine::MethodId;
    use simprof_profiler::SamplingUnit;
    use simprof_sim::Counters;
    use simprof_stats::seeded;

    /// 40 units, two phases; every unit carries 10 slices whose CPIs wobble
    /// around the unit CPI.
    fn trace() -> (ProfileTrace, Vec<usize>) {
        let mut units = Vec::new();
        let mut assignments = Vec::new();
        for i in 0..40u64 {
            let first = i < 24;
            let base_cycles = if first { 1000 } else { 3000 + (i % 5) * 100 };
            let slices: Vec<(u64, u64)> = (0..10u64)
                .map(|j| {
                    // Slice CPIs alternate ±20 % around the unit mean.
                    let wobble = if j % 2 == 0 { 120 } else { 80 };
                    (100, base_cycles * wobble / 1000)
                })
                .collect();
            let cycles: u64 = slices.iter().map(|&(_, c)| c).sum();
            units.push(SamplingUnit {
                id: i,
                histogram: vec![(MethodId(if first { 1 } else { 2 }), 10)],
                snapshots: 10,
                counters: Counters { instructions: 1000, cycles, ..Default::default() },
                slices,
                truncated: false,
                dropped_snapshots: 0,
            });
            assignments.push(usize::from(!first));
        }
        (ProfileTrace { unit_instrs: 1000, snapshot_instrs: 100, core: 0, units }, assignments)
    }

    #[test]
    fn stride_one_matches_plain_stratified() {
        let (t, asg) = trace();
        let cpis = t.cpis();
        let pts = select_points(&cpis, &asg, 2, 12, &mut seeded(3));
        let plain = crate::sampling::estimate_stratified(&cpis, &asg, &pts, 3.0);
        let hybrid = estimate_hybrid(&t, &asg, &pts, 1, 3.0);
        assert!((hybrid.mean_cpi - plain.mean_cpi).abs() < 1e-12);
        assert_eq!(hybrid.simulated_instrs, hybrid.full_instrs);
        assert_eq!(hybrid.slice_reduction(), 0.0);
    }

    #[test]
    fn larger_strides_cut_simulated_instructions() {
        let (t, asg) = trace();
        let cpis = t.cpis();
        let pts = select_points(&cpis, &asg, 2, 12, &mut seeded(3));
        let h2 = estimate_hybrid(&t, &asg, &pts, 2, 3.0);
        let h5 = estimate_hybrid(&t, &asg, &pts, 5, 3.0);
        assert!((h2.slice_reduction() - 0.5).abs() < 0.05, "{}", h2.slice_reduction());
        assert!((h5.slice_reduction() - 0.8).abs() < 0.05, "{}", h5.slice_reduction());
        // The estimate stays near the oracle despite the wobble.
        let oracle = t.oracle_cpi();
        assert!((h5.mean_cpi - oracle).abs() / oracle < 0.25, "{} vs {oracle}", h5.mean_cpi);
    }

    #[test]
    fn ci_still_brackets_estimate() {
        let (t, asg) = trace();
        let cpis = t.cpis();
        let pts = select_points(&cpis, &asg, 2, 10, &mut seeded(9));
        let h = estimate_hybrid(&t, &asg, &pts, 2, 3.0);
        assert!(h.ci.0 <= h.mean_cpi && h.mean_cpi <= h.ci.1);
        assert!(h.se >= 0.0);
    }

    #[test]
    fn sliceless_units_fall_back_to_full_cpi() {
        let (mut t, asg) = trace();
        for u in &mut t.units {
            u.slices.clear();
        }
        let cpis = t.cpis();
        let pts = select_points(&cpis, &asg, 2, 8, &mut seeded(1));
        let plain = crate::sampling::estimate_stratified(&cpis, &asg, &pts, 3.0);
        let h = estimate_hybrid(&t, &asg, &pts, 5, 3.0);
        assert!((h.mean_cpi - plain.mean_cpi).abs() < 1e-12);
        assert_eq!(h.slice_reduction(), 0.0, "no slices → no reduction to claim");
    }
}
