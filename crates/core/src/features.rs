//! Vectorization and feature selection (§III-B, Fig. 5).
//!
//! Each sampling unit becomes a feature vector whose dimensions are methods
//! and whose values are the fraction of the unit's call-stack snapshots that
//! contained the method (normalizing by snapshot count makes units with
//! different snapshot counts comparable). The dimensionality is the number
//! of unique methods in the whole job, so every vector has the same shape.
//!
//! Because "a feature vector can easily have thousands of dimensions", the
//! paper selects the top-K (= 100) methods most correlated with performance
//! (IPC) using the univariate linear-regression test, which also eliminates
//! the executor-startup methods present in every stack.

use serde::{Deserialize, Serialize};

use simprof_engine::MethodId;
use simprof_profiler::{ProfileTrace, SamplingUnit};
use simprof_stats::{f_score_from_moments, top_k_features, ColumnMoments, Matrix};

/// Vectorizes a trace into the full (unselected) feature matrix:
/// `units × method_universe`.
pub fn vectorize(trace: &ProfileTrace) -> Matrix {
    vectorize_with_dim(trace, trace.method_universe())
}

/// Vectorizes with an explicit dimensionality.
///
/// Used to classify a *reference* input's units in the *training* input's
/// feature space: methods unknown to the training run (ids ≥ `dim`) are
/// dropped, which mirrors the paper's unit classification — only methods the
/// phase centers know about can influence the distance.
pub fn vectorize_with_dim(trace: &ProfileTrace, dim: usize) -> Matrix {
    let mut m = Matrix::zeros(trace.units.len(), dim);
    for (i, unit) in trace.units.iter().enumerate() {
        if unit.snapshots == 0 {
            continue;
        }
        let inv = 1.0 / unit.snapshots as f64;
        let row = m.row_mut(i);
        for &(method, count) in &unit.histogram {
            if method.index() < dim {
                row[method.index()] = count as f64 * inv;
            }
        }
    }
    m
}

/// Streaming sufficient statistics for feature selection (the scan of the
/// sparse streaming pipeline).
///
/// Folding a unit updates only the columns present in its histogram (plus
/// the global response moments), so memory is `O(method_universe)` — one
/// [`ColumnMoments`] per method — instead of the dense `units × universe`
/// matrix [`vectorize`] builds. Because the fold touches exactly the values
/// the dense matrix would hold (absent methods contribute an exact `0.0` to
/// every sum), a batch fit routed through this accumulator and a streaming
/// fit over the same units produce bit-identical scores.
#[derive(Debug, Clone, Default)]
pub struct FeatureStats {
    n: usize,
    sum_y: f64,
    sum_yy: f64,
    moments: Vec<ColumnMoments>,
}

impl FeatureStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one sampling unit: response `y` is the unit's IPC, features are
    /// the unit's snapshot-normalized method frequencies.
    pub fn push(&mut self, unit: &SamplingUnit) {
        let y = unit.ipc();
        self.n += 1;
        self.sum_y += y;
        self.sum_yy += y * y;
        // The universe must cover every method seen, even in units whose
        // snapshot count is zero (their feature row is all zeros but they
        // still widen the dense matrix).
        if let Some(max) = unit.histogram.iter().map(|&(m, _)| m.index()).max() {
            if max >= self.moments.len() {
                self.moments.resize(max + 1, ColumnMoments::default());
            }
        }
        if unit.snapshots == 0 {
            return;
        }
        let inv = 1.0 / unit.snapshots as f64;
        for &(m, count) in &unit.histogram {
            self.moments[m.index()].push(count as f64 * inv, y);
        }
    }

    /// Units folded so far.
    pub fn units(&self) -> usize {
        self.n
    }

    /// Method-universe dimensionality observed so far.
    pub fn full_dim(&self) -> usize {
        self.moments.len()
    }

    /// F-score of every method column against IPC.
    pub fn scores(&self) -> Vec<f64> {
        self.moments
            .iter()
            .map(|m| f_score_from_moments(m, self.n, self.sum_y, self.sum_yy))
            .collect()
    }

    /// Selects the top-`k` columns, consuming the accumulator.
    pub fn into_space(self, k: usize) -> FeatureSpace {
        let columns = top_k_features(&self.scores(), k);
        FeatureSpace { full_dim: self.moments.len(), columns }
    }
}

/// A fitted feature space: which method columns survived selection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureSpace {
    /// Dimensionality of the full vectors this space was fitted on.
    pub full_dim: usize,
    /// Kept column indices (method ids), in descending score order.
    pub columns: Vec<usize>,
}

impl FeatureSpace {
    /// Fits the space on a training trace: scores every method column
    /// against per-unit IPC and keeps the top `k`.
    ///
    /// Both this batch entry point and the streaming pipeline accumulate the
    /// same [`FeatureStats`] in the same unit order, so a trace analyzed in
    /// memory and the same trace streamed from disk select identical columns
    /// and produce a bit-identical projected matrix.
    pub fn fit(trace: &ProfileTrace, k: usize) -> (Self, Matrix) {
        let mut stats = FeatureStats::new();
        for unit in &trace.units {
            stats.push(unit);
        }
        let space = stats.into_space(k);
        let projected = space.project(trace);
        (space, projected)
    }

    /// Projects a trace into this space (handles traces whose method
    /// universe differs from the training run's) by building the reduced
    /// `units × dim()` matrix directly — the full-universe matrix is never
    /// materialized (the projection step of the streaming pipeline).
    pub fn project(&self, trace: &ProfileTrace) -> Matrix {
        let mut m = Matrix::zeros(trace.units.len(), self.columns.len());
        for (i, unit) in trace.units.iter().enumerate() {
            self.project_unit_into(unit, m.row_mut(i));
        }
        m
    }

    /// Writes one unit's reduced feature vector into `row` (length
    /// [`dim()`](Self::dim)). Methods outside the fitted universe are
    /// dropped, mirroring [`vectorize_with_dim`].
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.dim()`.
    pub fn project_unit_into(&self, unit: &SamplingUnit, row: &mut [f64]) {
        self.project_into(unit.snapshots, &unit.histogram, row);
    }

    /// Writes the reduced feature vector of a unit with `snapshots`
    /// call-stack snapshots and `histogram` `(method, count)` pairs into
    /// `row`. Every projection — from a [`SamplingUnit`], from the analysis
    /// scan's sparse record, or from a rewound stream — goes through this
    /// one function, so the same integers always give the same bits.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.dim()`.
    pub fn project_into(&self, snapshots: u32, histogram: &[(MethodId, u32)], row: &mut [f64]) {
        assert_eq!(row.len(), self.columns.len(), "row length must match selected dim");
        row.fill(0.0);
        if snapshots == 0 {
            return;
        }
        let inv = 1.0 / snapshots as f64;
        for &(method, count) in histogram {
            if method.index() >= self.full_dim {
                continue;
            }
            // The selected column set is small (K ≤ 100), so a linear scan
            // beats building a universe-sized lookup per call.
            if let Some(j) = self.columns.iter().position(|&c| c == method.index()) {
                row[j] = count as f64 * inv;
            }
        }
    }

    /// Number of selected features.
    pub fn dim(&self) -> usize {
        self.columns.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simprof_sim::Counters;

    fn unit(id: u64, hist: Vec<(u32, u32)>, snapshots: u32, cycles: u64) -> SamplingUnit {
        SamplingUnit {
            id,
            histogram: hist.into_iter().map(|(m, c)| (MethodId(m), c)).collect(),
            snapshots,
            counters: Counters { instructions: 1000, cycles, ..Default::default() },
            slices: Vec::new(),
            truncated: false,
            dropped_snapshots: 0,
        }
    }

    fn trace(units: Vec<SamplingUnit>) -> ProfileTrace {
        ProfileTrace { unit_instrs: 1000, snapshot_instrs: 100, core: 0, units }
    }

    #[test]
    fn vectorize_normalizes_by_snapshots() {
        let t = trace(vec![unit(0, vec![(0, 5), (2, 10)], 10, 1000)]);
        let m = vectorize(&t);
        assert_eq!(m.rows(), 1);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.row(0), &[0.5, 0.0, 1.0]);
    }

    #[test]
    fn vectorize_zero_snapshot_unit_is_zero_row() {
        let t = trace(vec![unit(0, vec![], 0, 1000), unit(1, vec![(1, 1)], 1, 1000)]);
        let m = vectorize(&t);
        assert_eq!(m.row(0), &[0.0, 0.0]);
        assert_eq!(m.row(1), &[0.0, 1.0]);
    }

    #[test]
    fn vectorize_with_dim_drops_unknown_methods() {
        let t = trace(vec![unit(0, vec![(0, 1), (5, 1)], 1, 1000)]);
        let m = vectorize_with_dim(&t, 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.row(0), &[1.0, 0.0]);
    }

    #[test]
    fn fit_selects_performance_correlated_method() {
        // Method 0 present in all units (framework-like, constant).
        // Method 1 tracks fast units, method 2 tracks slow units.
        let units = (0..12)
            .map(|i| {
                let slow = i % 2 == 0;
                let cycles =
                    if slow { 3000 + (i as u64 % 3) * 10 } else { 900 + (i as u64 % 3) * 10 };
                let hist = if slow { vec![(0, 10), (2, 9)] } else { vec![(0, 10), (1, 9)] };
                unit(i as u64, hist, 10, cycles)
            })
            .collect();
        let t = trace(units);
        let (space, projected) = FeatureSpace::fit(&t, 2);
        assert_eq!(space.dim(), 2);
        assert!(space.columns.contains(&1) && space.columns.contains(&2), "{:?}", space.columns);
        assert!(!space.columns.contains(&0), "constant method must be eliminated");
        assert_eq!(projected.cols(), 2);
        assert_eq!(projected.rows(), 12);
    }

    #[test]
    fn project_matches_fit_on_same_trace() {
        let t = trace(vec![
            unit(0, vec![(0, 10), (1, 5)], 10, 1000),
            unit(1, vec![(0, 10), (1, 1)], 10, 2500),
            unit(2, vec![(0, 10), (1, 6)], 10, 1100),
            unit(3, vec![(0, 10)], 10, 2400),
        ]);
        let (space, fitted) = FeatureSpace::fit(&t, 5);
        let projected = space.project(&t);
        assert_eq!(fitted, projected);
    }

    #[test]
    fn serde_roundtrip() {
        let s = FeatureSpace { full_dim: 10, columns: vec![3, 7] };
        let back: FeatureSpace = serde_json::from_str(&serde_json::to_string(&s).unwrap()).unwrap();
        assert_eq!(back, s);
    }
}
