//! A minimal flat, row-major `f64` matrix.
//!
//! Feature vectors flow through the whole SimProf pipeline (vectorization →
//! feature selection → clustering → classification), so they are stored in a
//! single contiguous allocation for cache-friendly row scans rather than as a
//! `Vec<Vec<f64>>`.

use serde::{Deserialize, Serialize};

/// A dense row-major matrix of `f64`.
///
/// Rows are observations (sampling units), columns are features (methods).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    data: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { data: vec![0.0; rows * cols], rows, cols }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_flat(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "flat buffer does not match rows*cols");
        Self { data, rows, cols }
    }

    /// Creates a matrix from a slice of equally sized rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let n = rows.len();
        let cols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(n * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "inconsistent row lengths");
            data.extend_from_slice(r);
        }
        Self { data, rows: n, cols }
    }

    /// Number of rows (observations).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (features).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Borrows row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.cols + j]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.cols + j] = v;
    }

    /// Borrows the row-major buffer.
    #[inline]
    pub(crate) fn as_flat(&self) -> &[f64] {
        &self.data
    }

    /// Iterates over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> + '_ {
        self.data.chunks_exact(self.cols.max(1)).take(self.rows)
    }

    /// Extracts column `j` into a new vector.
    pub fn column(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self.get(i, j)).collect()
    }

    /// Builds a new matrix keeping only the given columns, in the given order.
    ///
    /// This is how the pipeline projects full method-frequency vectors down to
    /// the top-K regression-selected features.
    pub fn select_columns(&self, keep: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(self.rows, keep.len());
        for i in 0..self.rows {
            let src = self.row(i);
            let dst = out.row_mut(i);
            for (d, &j) in dst.iter_mut().zip(keep) {
                *d = src[j];
            }
        }
        out
    }

    /// Squared Euclidean distance between two equally sized slices.
    #[inline]
    pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        // Same 16-lane chunked shape as [`Matrix::dot`]: independent lane
        // accumulators the compiler can vectorize (a naive `.sum()` is a
        // serial dependency chain), reduced in a fixed tree order plus a
        // scalar tail so the result is deterministic for a given length.
        const LANES: usize = 16;
        let split = a.len() - a.len() % LANES;
        let mut acc = [0.0f64; LANES];
        for (xa, xb) in a[..split].chunks_exact(LANES).zip(b[..split].chunks_exact(LANES)) {
            for l in 0..LANES {
                let d = xa[l] - xb[l];
                acc[l] += d * d;
            }
        }
        let mut tail = 0.0;
        for (x, y) in a[split..].iter().zip(&b[split..]) {
            let d = x - y;
            tail += d * d;
        }
        let q0 = (acc[0] + acc[1]) + (acc[2] + acc[3]);
        let q1 = (acc[4] + acc[5]) + (acc[6] + acc[7]);
        let q2 = (acc[8] + acc[9]) + (acc[10] + acc[11]);
        let q3 = (acc[12] + acc[13]) + (acc[14] + acc[15]);
        (q0 + q1) + (q2 + q3) + tail
    }

    /// Dot product of two equally sized slices, computed with a fixed
    /// 16-lane chunked kernel.
    ///
    /// The independent lane accumulators let the compiler auto-vectorize the
    /// inner loop and keep enough FMA chains in flight to hide latency; the
    /// lanes are reduced in a fixed tree order plus a scalar tail, so the
    /// result is deterministic for a given input length.
    #[inline]
    pub fn dot(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        const LANES: usize = 16;
        let split = a.len() - a.len() % LANES;
        let mut acc = [0.0f64; LANES];
        for (xa, xb) in a[..split].chunks_exact(LANES).zip(b[..split].chunks_exact(LANES)) {
            for l in 0..LANES {
                acc[l] += xa[l] * xb[l];
            }
        }
        let mut tail = 0.0;
        for (x, y) in a[split..].iter().zip(&b[split..]) {
            tail += x * y;
        }
        let q0 = (acc[0] + acc[1]) + (acc[2] + acc[3]);
        let q1 = (acc[4] + acc[5]) + (acc[6] + acc[7]);
        let q2 = (acc[8] + acc[9]) + (acc[10] + acc[11]);
        let q3 = (acc[12] + acc[13]) + (acc[14] + acc[15]);
        (q0 + q1) + (q2 + q3) + tail
    }

    /// Fused distance kernel: squared Euclidean distances from `point` to
    /// every row of `rows`, written into `out`, via the norm identity
    /// `‖x − y‖² = ‖x‖² + ‖y‖² − 2·x·y`.
    ///
    /// One pass per row through the [`Matrix::dot`] kernel with the norm
    /// combination fused into the same loop — no intermediate dot vector is
    /// materialized. Cancellation can drive the identity slightly negative
    /// for near-coincident points; results are clamped at `0`. Callers
    /// supply `point_sq_norm = dot(point, point)` and
    /// `row_norms = rows.row_sq_norms()` so the norms are paid once across
    /// many kernel calls.
    ///
    /// # Panics
    ///
    /// Panics (debug) on any length mismatch.
    pub fn sq_dists_to_rows(
        point: &[f64],
        point_sq_norm: f64,
        rows: &Matrix,
        row_norms: &[f64],
        out: &mut [f64],
    ) {
        debug_assert_eq!(point.len(), rows.cols());
        debug_assert_eq!(row_norms.len(), rows.rows());
        debug_assert_eq!(out.len(), rows.rows());
        for ((o, r), &nr) in out.iter_mut().zip(rows.iter_rows()).zip(row_norms) {
            *o = Self::norm_sq_dist(point, point_sq_norm, r, nr);
        }
    }

    /// Squared Euclidean distance between `a` and `b` via the norm identity
    /// `‖a‖² + ‖b‖² − 2·a·b`, clamped at `0` (cancellation can drive it
    /// slightly negative for near-coincident points). `a_sq_norm` and
    /// `b_sq_norm` are the callers' cached [`Matrix::dot`] self-products.
    ///
    /// The one definition of the identity's arithmetic: the fused kernel
    /// above and the silhouette pass both call it, so their distances agree
    /// bit for bit.
    #[inline]
    pub(crate) fn norm_sq_dist(a: &[f64], a_sq_norm: f64, b: &[f64], b_sq_norm: f64) -> f64 {
        let sq = a_sq_norm + b_sq_norm - 2.0 * Self::dot(a, b);
        if sq > 0.0 {
            sq
        } else {
            0.0
        }
    }

    /// Squared Euclidean norm of every row (`‖x_i‖²`), via [`Matrix::dot`].
    ///
    /// Computed once per silhouette pass so pairwise distances reduce to
    /// `‖x‖² + ‖y‖² − 2·x·y` (`Matrix::norm_sq_dist`) — one dot product
    /// instead of a subtract-square pass per pair.
    pub fn row_sq_norms(&self) -> Vec<f64> {
        (0..self.rows).map(|i| Self::dot(self.row(i), self.row(i))).collect()
    }

    /// Euclidean distance between two equally sized slices.
    #[inline]
    pub fn dist(a: &[f64], b: &[f64]) -> f64 {
        Self::sq_dist(a, b).sqrt()
    }

    /// Index of the row in `centers` closest (squared Euclidean) to `point`.
    ///
    /// Ties break toward the lower index, which keeps classification
    /// deterministic. Returns `None` when `centers` is empty.
    pub fn nearest_row(centers: &Matrix, point: &[f64]) -> Option<usize> {
        let mut best = None;
        let mut best_d = f64::INFINITY;
        for (idx, c) in centers.iter_rows().enumerate() {
            let d = Self::sq_dist(c, point);
            if d < best_d {
                best_d = d;
                best = Some(idx);
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert!(m.iter_rows().all(|r| r.iter().all(|&v| v == 0.0)));
    }

    #[test]
    fn from_rows_roundtrip() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.column(1), vec![2.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "inconsistent row lengths")]
    fn from_rows_rejects_ragged() {
        let _ = Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn select_columns_projects() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let p = m.select_columns(&[2, 0]);
        assert_eq!(p.row(0), &[3.0, 1.0]);
        assert_eq!(p.row(1), &[6.0, 4.0]);
    }

    #[test]
    fn distances() {
        assert_eq!(Matrix::sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(Matrix::dist(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
    }

    #[test]
    fn dot_kernel_matches_naive_at_every_length() {
        // Cover the tail path (len % 16 ≠ 0) and multi-chunk lengths.
        for len in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 64, 100] {
            let a: Vec<f64> = (0..len).map(|i| (i as f64 * 0.37).sin()).collect();
            let b: Vec<f64> = (0..len).map(|i| (i as f64 * 0.71).cos()).collect();
            let naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            let kernel = Matrix::dot(&a, &b);
            assert!((kernel - naive).abs() <= 1e-12 * naive.abs().max(1.0), "len {len}");
        }
    }

    #[test]
    fn dot_is_bitwise_symmetric() {
        let a: Vec<f64> = (0..23).map(|i| (i as f64 * 0.9).tan()).collect();
        let b: Vec<f64> = (0..23).map(|i| (i as f64 * 1.3).sin()).collect();
        assert_eq!(Matrix::dot(&a, &b).to_bits(), Matrix::dot(&b, &a).to_bits());
    }

    #[test]
    fn fused_sq_dists_match_sq_dist_and_clamp_nonnegative() {
        let rows: Vec<Vec<f64>> = (0..9)
            .map(|i| (0..21).map(|j| ((i * 13 + j * 5) as f64 * 0.29).sin() * 3.0).collect())
            .collect();
        let m = Matrix::from_rows(&rows);
        let norms = m.row_sq_norms();
        let mut out = vec![0.0; m.rows()];
        for p in 0..m.rows() {
            let point = m.row(p).to_vec();
            Matrix::sq_dists_to_rows(&point, Matrix::dot(&point, &point), &m, &norms, &mut out);
            for (j, &sq) in out.iter().enumerate() {
                let naive = Matrix::sq_dist(&point, m.row(j));
                assert!(sq >= 0.0, "fused kernel must clamp at zero");
                assert!(
                    (sq - naive).abs() <= 1e-9 * naive.max(1.0),
                    "p {p} j {j}: {sq} vs {naive}"
                );
            }
        }
    }

    #[test]
    fn row_sq_norms_match_sq_dist_to_origin() {
        let m = Matrix::from_rows(&[vec![3.0, 4.0], vec![1.0, 1.0], vec![0.0, 0.0]]);
        let norms = m.row_sq_norms();
        assert_eq!(norms, vec![25.0, 2.0, 0.0]);
    }

    #[test]
    fn nearest_row_breaks_ties_low() {
        let centers = Matrix::from_rows(&[vec![1.0], vec![1.0], vec![5.0]]);
        assert_eq!(Matrix::nearest_row(&centers, &[1.0]), Some(0));
        assert_eq!(Matrix::nearest_row(&centers, &[4.5]), Some(2));
        assert_eq!(Matrix::nearest_row(&Matrix::zeros(0, 1), &[1.0]), None);
    }

    #[test]
    fn row_mut_writes_through() {
        let mut m = Matrix::zeros(2, 2);
        m.row_mut(1)[0] = 7.0;
        assert_eq!(m.get(1, 0), 7.0);
        m.set(0, 1, 2.0);
        assert_eq!(m.row(0), &[0.0, 2.0]);
    }
}
