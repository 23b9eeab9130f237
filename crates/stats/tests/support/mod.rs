//! The dense pairwise-distance matrix and the silhouette read from it: the
//! reference arithmetic the fused `silhouette_scores` pass is pinned to.
//!
//! `choose_k` never builds this matrix. Its candidates are scored by
//! `silhouette_scores`, which computes distances on the fly, once per
//! distinct row, and must return the bits of [`DistCache::build`] +
//! [`silhouette_score_cached`] on every clustering (checked here and in
//! `tests/parallel_equivalence.rs`, which includes this file), the way the
//! accelerated Lloyd loop is pinned to `kmeans_from_centers_reference`.
//!
//! The build uses the fused distance kernel `Matrix::sq_dists_to_rows`
//! (the identity `‖x − y‖² = ‖x‖² + ‖y‖² − 2·x·y` over
//! `Matrix::row_sq_norms`) and forces the diagonal to `0.0`. Rows are
//! computed independently, so the parallel build is deterministic at any
//! worker count, and — because `dot` and `+` are bitwise commutative — the
//! matrix is exactly symmetric. Memory is `n² × 8` bytes, which is why no
//! production path uses it.

#![allow(dead_code)] // each including test binary uses a different subset

use rayon::prelude::*;
use simprof_stats::Matrix;

/// Points per silhouette chunk; must match the library's `SIL_CHUNK`.
const SIL_CHUNK: usize = 64;

/// A dense `n × n` matrix of Euclidean distances between the rows of one
/// [`Matrix`].
#[derive(Debug, Clone)]
pub struct DistCache {
    d: Vec<f64>,
    n: usize,
}

impl DistCache {
    /// Builds the full pairwise-distance matrix for `data`'s rows
    /// (parallel over rows; deterministic at any worker count).
    pub fn build(data: &Matrix) -> Self {
        let n = data.rows();
        let norms = data.row_sq_norms();
        let rows: Vec<Vec<f64>> = (0..n)
            .into_par_iter()
            .map(|i| {
                let mut row = vec![0.0f64; n];
                Matrix::sq_dists_to_rows(data.row(i), norms[i], data, &norms, &mut row);
                for (j, out) in row.iter_mut().enumerate() {
                    *out = if j == i { 0.0 } else { out.sqrt() };
                }
                row
            })
            .collect();
        Self { d: rows.concat(), n }
    }

    /// Number of rows (= points) the cache covers.
    pub fn n(&self) -> usize {
        self.n
    }

    /// All distances from point `i`, as a slice of length `n`.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.d[i * self.n..(i + 1) * self.n]
    }

    /// Distance between points `i` and `j`.
    pub fn dist(&self, i: usize, j: usize) -> f64 {
        self.d[i * self.n + j]
    }
}

/// Mean silhouette coefficient read from a prebuilt [`DistCache`].
///
/// Per-cluster sums start at `+0.0` and add `d(i, j)` for `j ≠ i` in
/// ascending `j`; per-point silhouettes add in ascending `i` from `0.0`
/// within fixed [`SIL_CHUNK`]-point chunks, and the chunk partials are
/// summed in chunk order. Returns `0.0` for fewer than 2 points or fewer
/// than 2 non-empty clusters; a singleton cluster's point scores `0`.
pub fn silhouette_score_cached(cache: &DistCache, assignments: &[usize]) -> f64 {
    let n = cache.n();
    assert_eq!(assignments.len(), n, "assignment length mismatch");
    let k = assignments.iter().copied().max().map_or(0, |m| m + 1);
    let mut sizes = vec![0usize; k];
    for &a in assignments {
        sizes[a] += 1;
    }
    if n < 2 || sizes.iter().filter(|&&s| s > 0).count() < 2 {
        return 0.0;
    }
    let point = |i: usize| {
        let own = assignments[i];
        if sizes[own] <= 1 {
            return 0.0;
        }
        let mut sum = vec![0.0f64; k];
        for (j, &d) in cache.row(i).iter().enumerate() {
            if j != i {
                sum[assignments[j]] += d;
            }
        }
        let a = sum[own] / (sizes[own] - 1) as f64;
        let b = (0..k)
            .filter(|&c| c != own && sizes[c] > 0)
            .map(|c| sum[c] / sizes[c] as f64)
            .fold(f64::INFINITY, f64::min);
        let denom = a.max(b);
        if denom == 0.0 {
            0.0
        } else {
            (b - a) / denom
        }
    };
    let partials: Vec<f64> = (0..n.div_ceil(SIL_CHUNK))
        .into_par_iter()
        .map(|c| (c * SIL_CHUNK..((c + 1) * SIL_CHUNK).min(n)).fold(0.0, |p, i| p + point(i)))
        .collect();
    partials.iter().sum::<f64>() / n as f64
}
