//! Phase formation (§III-B) and homogeneity analysis (§III-B-1, Fig. 6).
//!
//! Sampling units with similar call stacks are clustered into phases:
//! k-means over the selected feature space, with the number of phases chosen
//! by the silhouette rule (smallest k within 90 % of the best score,
//! k ≤ 20). The resulting [`PhaseModel`] carries the centers — which are
//! also what the input-sensitivity test classifies reference inputs against
//! — and per-phase CPI statistics.
//!
//! Phase formation is the pipeline's hot path. The `choose_k` sweep inside
//! [`form_phases`] warm-starts each k from the previous solution and then
//! scores every candidate in one fused pairwise-distance pass that keeps no
//! `n²` matrix (see `simprof_stats::silhouette`), and both the sweep and
//! [`classify_units`] run on the workspace's deterministic parallel
//! substrate — output is bit-identical at every thread count (DESIGN.md
//! §10).

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use simprof_profiler::ProfileTrace;
use simprof_stats::{
    choose_k, cov_triple, kmeans_minibatch, systematic_indices, CovTriple, KMeans, Matrix, Summary,
};

use crate::features::FeatureSpace;
use crate::pipeline::{MinibatchPhases, SimProfConfig};

/// A fitted phase model: the training input's phases.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseModel {
    /// The feature space phases were formed in.
    pub space: FeatureSpace,
    /// Cluster centers (`k × space.dim()`), saved for unit classification.
    pub centers: Matrix,
    /// Phase assignment of each training sampling unit.
    pub assignments: Vec<usize>,
    /// `(k, silhouette)` scores of the k-selection sweep.
    pub k_scores: Vec<(usize, f64)>,
}

impl PhaseModel {
    /// Number of phases.
    pub fn k(&self) -> usize {
        self.centers.rows()
    }

    /// Units per phase.
    pub fn phase_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.k()];
        for &a in &self.assignments {
            sizes[a] += 1;
        }
        sizes
    }

    /// The `top_n` most *characteristic* feature columns of a phase center,
    /// as `(method_id, weight)` — the paper's way of tracing which methods
    /// characterize a phase (§III-D-2).
    ///
    /// Methods whose weight is nearly identical across every center
    /// (executor/task framework methods present in all stacks) carry no
    /// phase information, so ranking is by the method's weight in this
    /// center *in excess of its mean weight across centers*; the reported
    /// weight is still the raw center weight.
    pub fn top_methods(&self, phase: usize, top_n: usize) -> Vec<(usize, f64)> {
        let k = self.k().max(1) as f64;
        let center = self.centers.row(phase);
        let mut cols: Vec<(usize, f64, f64)> = self
            .space
            .columns
            .iter()
            .enumerate()
            .map(|(j, &method)| {
                let mean_across: f64 =
                    (0..self.k()).map(|h| self.centers.get(h, j)).sum::<f64>() / k;
                (method, center[j], center[j] - mean_across)
            })
            .collect();
        cols.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
        cols.truncate(top_n);
        cols.into_iter().map(|(m, w, _)| (m, w)).collect()
    }
}

/// Forms phases on a training trace.
///
/// Steps: vectorize → top-K regression feature selection → k-means sweep with
/// silhouette selection. Returns a model even for degenerate traces (a trace
/// with < 3 units gets a single phase).
pub fn form_phases(trace: &ProfileTrace, config: &SimProfConfig) -> PhaseModel {
    let _span = simprof_obs::span!("core.form_phases");
    let (space, projected) = {
        let _span = simprof_obs::span!("core.feature_fit");
        FeatureSpace::fit(trace, config.top_k)
    };
    form_phases_in_space(space, &projected, config)
}

/// Forms phases on an already-fitted feature space and its projected unit
/// matrix — the k-means sweep half of [`form_phases`].
///
/// The streaming pipeline calls this after its scan and projection produce
/// `space` and `projected` without a dense matrix; [`form_phases`] calls it after a
/// batch fit. Opens no spans of its own (callers own the `core.form_phases`
/// / `core.feature_fit` structure; `choose_k` reports its own).
pub fn form_phases_in_space(
    space: FeatureSpace,
    projected: &Matrix,
    config: &SimProfConfig,
) -> PhaseModel {
    if let Some(mb) = config.minibatch {
        if projected.rows() > mb.sweep_units.max(2) {
            return form_phases_minibatch(space, projected, config, mb);
        }
    }
    let selection = choose_k(
        projected,
        config.k_max,
        config.silhouette_threshold,
        config.min_structure,
        config.seed,
    );
    PhaseModel {
        space,
        centers: selection.result.centers,
        assignments: selection.result.assignments,
        k_scores: selection.scores,
    }
}

/// The opt-in large-trace path ([`SimProfConfig::minibatch`]): the exact
/// silhouette sweep — whose distance pass is `O(n²)` time — runs on a
/// deterministic systematic subsample of `sweep_units` units to choose k,
/// then mini-batch k-means fits centers over the *full* projected matrix and
/// hard-assigns every unit. Deterministic and thread-count-independent like
/// the exact path, but the sweep's time stays `O(sweep_units²)` instead of
/// `O(n²)`.
fn form_phases_minibatch(
    space: FeatureSpace,
    projected: &Matrix,
    config: &SimProfConfig,
    mb: MinibatchPhases,
) -> PhaseModel {
    let _span = simprof_obs::span!("core.minibatch_phases");
    let n = projected.rows();
    let idx = systematic_indices(n, mb.sweep_units.max(3), config.seed as usize);
    let sample_rows: Vec<Vec<f64>> = idx.iter().map(|&i| projected.row(i).to_vec()).collect();
    let sample = Matrix::from_rows(&sample_rows);
    drop(sample_rows);
    let selection = choose_k(
        &sample,
        config.k_max,
        config.silhouette_threshold,
        config.min_structure,
        config.seed,
    );
    let result = kmeans_minibatch(projected, KMeans::new(selection.k, config.seed), mb.batch_size);
    simprof_obs::counter_add("core.minibatch_units", n as u64);
    PhaseModel {
        space,
        centers: result.centers,
        assignments: result.assignments,
        k_scores: selection.scores,
    }
}

/// Classifies a (reference) trace's units into the model's phases by nearest
/// center (§III-D-1). Ties break toward the lower phase id. Parallel over
/// units; the per-unit decisions are independent, so output order and
/// content match the sequential scan.
pub fn classify_units(model: &PhaseModel, trace: &ProfileTrace) -> Vec<usize> {
    let projected = model.space.project(trace);
    (0..projected.rows())
        .into_par_iter()
        .map(|i| Matrix::nearest_row(&model.centers, projected.row(i)).unwrap_or(0))
        .collect()
}

/// Per-phase CPI summaries (`n`, mean, stddev, CoV) for `k` phases.
pub fn phase_stats(cpis: &[f64], assignments: &[usize], k: usize) -> Vec<Summary> {
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); k];
    for (&c, &a) in cpis.iter().zip(assignments) {
        buckets[a].push(c);
    }
    buckets.iter().map(|b| Summary::of(b)).collect()
}

/// Phase weights `N_h / N`.
pub fn phase_weights(assignments: &[usize], k: usize) -> Vec<f64> {
    let mut counts = vec![0usize; k];
    for &a in assignments {
        counts[a] += 1;
    }
    let n = assignments.len().max(1) as f64;
    counts.into_iter().map(|c| c as f64 / n).collect()
}

/// The Fig. 6 triple: population / weighted / max CoV of CPI under the given
/// phase assignment.
pub fn homogeneity(cpis: &[f64], assignments: &[usize]) -> CovTriple {
    cov_triple(cpis, assignments)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simprof_engine::MethodId;
    use simprof_profiler::SamplingUnit;
    use simprof_sim::Counters;

    /// Builds a synthetic two-phase trace: phase A units run method 1 with
    /// low CPI, phase B units run method 2 with high CPI. Method 0 is a
    /// framework method in every stack.
    fn two_phase_trace(n_a: usize, n_b: usize) -> ProfileTrace {
        let mut units = Vec::new();
        for i in 0..(n_a + n_b) {
            let is_a = i < n_a;
            let jitter = (i % 5) as u64 * 7;
            let (hist, cycles) = if is_a {
                (vec![(MethodId(0), 10), (MethodId(1), 9)], 900 + jitter)
            } else {
                (vec![(MethodId(0), 10), (MethodId(2), 9)], 3100 + jitter)
            };
            units.push(SamplingUnit {
                id: i as u64,
                histogram: hist,
                snapshots: 10,
                counters: Counters { instructions: 1000, cycles, ..Default::default() },
                slices: Vec::new(),
                truncated: false,
                dropped_snapshots: 0,
            });
        }
        ProfileTrace { unit_instrs: 1000, snapshot_instrs: 100, core: 0, units }
    }

    fn config() -> SimProfConfig {
        SimProfConfig { seed: 42, ..Default::default() }
    }

    #[test]
    fn forms_two_phases() {
        let t = two_phase_trace(20, 15);
        let m = form_phases(&t, &config());
        assert_eq!(m.k(), 2, "scores: {:?}", m.k_scores);
        let sizes = m.phase_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 35);
        assert!(sizes.contains(&20) && sizes.contains(&15));
        // All phase-A units share one assignment.
        assert!(m.assignments[..20].iter().all(|&a| a == m.assignments[0]));
    }

    #[test]
    fn single_behaviour_single_phase() {
        let t = two_phase_trace(25, 0);
        let m = form_phases(&t, &config());
        assert_eq!(m.k(), 1);
    }

    #[test]
    fn classify_is_consistent_with_training() {
        let t = two_phase_trace(12, 12);
        let m = form_phases(&t, &config());
        let reclassified = classify_units(&m, &t);
        assert_eq!(reclassified, m.assignments);
    }

    #[test]
    fn classify_handles_novel_methods() {
        let t = two_phase_trace(12, 12);
        let m = form_phases(&t, &config());
        // A reference trace with an extra, unknown method id 7.
        let mut r = two_phase_trace(4, 4);
        for u in &mut r.units {
            u.histogram.push((MethodId(7), 10));
        }
        let assigned = classify_units(&m, &r);
        assert_eq!(assigned.len(), 8);
        // Known-method structure still dominates: A-units and B-units split.
        assert_eq!(assigned[..4], assigned[..4].to_vec());
        assert_ne!(assigned[0], assigned[4]);
    }

    #[test]
    fn phase_stats_and_weights() {
        let cpis = [1.0, 1.2, 3.0, 3.4, 3.2];
        let asg = [0, 0, 1, 1, 1];
        let stats = phase_stats(&cpis, &asg, 2);
        assert_eq!(stats[0].n, 2);
        assert_eq!(stats[1].n, 3);
        assert!((stats[0].mean - 1.1).abs() < 1e-12);
        let w = phase_weights(&asg, 2);
        assert!((w[0] - 0.4).abs() < 1e-12);
        assert!((w[1] - 0.6).abs() < 1e-12);
    }

    #[test]
    fn homogeneity_improves_with_correct_split() {
        let t = two_phase_trace(20, 20);
        let m = form_phases(&t, &config());
        let h = homogeneity(&t.cpis(), &m.assignments);
        assert!(h.weighted < h.population, "weighted {} < population {}", h.weighted, h.population);
    }

    #[test]
    fn top_methods_name_phase_signature() {
        let t = two_phase_trace(15, 15);
        let m = form_phases(&t, &config());
        // Find the phase holding unit 0 (method 1 phase).
        let phase_a = m.assignments[0];
        let top = m.top_methods(phase_a, 1);
        assert_eq!(top[0].0, 1, "phase A is characterized by method 1: {top:?}");
        let phase_b = m.assignments[t.units.len() - 1];
        let top_b = m.top_methods(phase_b, 1);
        assert_eq!(top_b[0].0, 2);
    }

    #[test]
    fn minibatch_mode_recovers_phases_on_large_traces() {
        use crate::pipeline::MinibatchPhases;
        // 1200 units, two clear behaviours — large enough to trip the
        // opt-in threshold, small enough for a unit test.
        let t = two_phase_trace(700, 500);
        let cfg = SimProfConfig {
            minibatch: Some(MinibatchPhases { sweep_units: 200, batch_size: 64 }),
            ..config()
        };
        let m = form_phases(&t, &cfg);
        assert_eq!(m.k(), 2, "scores: {:?}", m.k_scores);
        let sizes = m.phase_sizes();
        assert!(sizes.contains(&700) && sizes.contains(&500), "sizes: {sizes:?}");
        // Deterministic: same config, same model.
        let m2 = form_phases(&t, &cfg);
        assert_eq!(m.assignments, m2.assignments);
        assert_eq!(m.centers, m2.centers);
        // Below the threshold the exact sweep still runs (identical to the
        // no-minibatch config).
        let small = two_phase_trace(20, 15);
        let exact = form_phases(&small, &config());
        let gated = form_phases(&small, &cfg);
        assert_eq!(exact.assignments, gated.assignments);
        assert_eq!(exact.centers, gated.centers);
    }

    #[test]
    fn empty_trace_degenerates_gracefully() {
        let t = ProfileTrace { unit_instrs: 1, snapshot_instrs: 1, core: 0, units: vec![] };
        let m = form_phases(&t, &config());
        assert!(m.assignments.is_empty());
        assert!(classify_units(&m, &t).is_empty());
    }
}
