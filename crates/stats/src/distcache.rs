//! Dense pairwise-distance matrix: the reference arithmetic of the
//! silhouette sweep.
//!
//! `choose_k` no longer builds this matrix. Its candidates are scored by
//! [`crate::silhouette_scores`], which computes every distance on the fly in
//! one pass and is pinned bit for bit to [`DistCache::build`] +
//! [`crate::silhouette_score_cached`] (see `tests/parallel_equivalence.rs`),
//! the way the accelerated Lloyd loop is pinned to
//! [`crate::kmeans_from_centers_reference`].
//!
//! The build uses the fused distance kernel [`Matrix::sq_dists_to_rows`]
//! (the identity `‖x − y‖² = ‖x‖² + ‖y‖² − 2·x·y` of
//! `Matrix::norm_sq_dist` with the row-norm cache from
//! [`Matrix::row_sq_norms`]). Rows are computed independently (each row does
//! its own full `n`-column pass), so the parallel build is deterministic at
//! any worker count, and — because `dot` and `+` are bitwise commutative —
//! the matrix is exactly symmetric.
//!
//! Memory is `n² × 8` bytes (a 2,000-unit trace needs 32 MB), which is why
//! the production sweep does not use it.

use rayon::prelude::*;

use crate::matrix::Matrix;

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
        let mut d = Vec::with_capacity(n * n);
        for row in rows {
            d.extend_from_slice(&row);
        }
        Self { d, n }
    }

    /// Number of rows (= points) the cache covers.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// All distances from point `i`, as a slice of length `n`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.n);
        &self.d[i * self.n..(i + 1) * self.n]
    }

    /// Distance between points `i` and `j`.
    #[inline]
    pub fn dist(&self, i: usize, j: usize) -> f64 {
        self.d[i * self.n + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wavy(n: usize, d: usize) -> Matrix {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..d).map(|j| ((i * d + j) as f64 * 0.13).sin() * 3.0).collect())
            .collect();
        Matrix::from_rows(&rows)
    }

    #[test]
    fn matches_naive_distance() {
        let m = wavy(17, 5);
        let c = DistCache::build(&m);
        for i in 0..17 {
            for j in 0..17 {
                let naive = Matrix::dist(m.row(i), m.row(j));
                assert!(
                    (c.dist(i, j) - naive).abs() <= 1e-12 * naive.max(1.0),
                    "({i},{j}): {} vs {naive}",
                    c.dist(i, j)
                );
            }
        }
    }

    #[test]
    fn symmetric_with_zero_diagonal() {
        let m = wavy(11, 7);
        let c = DistCache::build(&m);
        for i in 0..11 {
            assert_eq!(c.dist(i, i), 0.0);
            for j in 0..11 {
                assert_eq!(c.dist(i, j).to_bits(), c.dist(j, i).to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn coincident_points_clamp_to_zero() {
        let m = Matrix::from_rows(&vec![vec![1e8, -1e8, 3.0]; 4]);
        let c = DistCache::build(&m);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(c.dist(i, j), 0.0);
            }
        }
    }

    #[test]
    fn empty_matrix() {
        let c = DistCache::build(&Matrix::zeros(0, 3));
        assert_eq!(c.n(), 0);
    }
}
