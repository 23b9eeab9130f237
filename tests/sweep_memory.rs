//! Memory bound of the k-selection sweep: `choose_k` scores its candidates
//! in one fused distance pass and must never hold an `n × n` buffer, and
//! its per-distinct-row state must not make duplicate-heavy input cost
//! more than all-distinct input.
//!
//! Heap is measured with `TrackingAllocator` as this binary's global
//! allocator, so the file holds a single test (peaks are process-wide).

use simprof::obs::{current_alloc_bytes, peak_alloc_bytes, reset_peak, TrackingAllocator};
use simprof::stats::{choose_k, Matrix};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

/// `n` points in `cols` dimensions around four separated centers, with a
/// deterministic jitter so no two points coincide.
fn four_blobs(n: usize, cols: usize) -> Matrix {
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let blob = i % 4;
            (0..cols)
                .map(|j| {
                    let center = if j % 4 == blob { 8.0 } else { 0.0 };
                    center + ((i * 31 + j * 17) % 97) as f64 * 1e-2
                })
                .collect()
        })
        .collect();
    Matrix::from_rows(&rows)
}

/// [`four_blobs`] quantized to `distinct` rows: row `i` repeats row
/// `i % distinct`, so the matrix has `distinct` distinct rows.
fn repeated_blobs(n: usize, cols: usize, distinct: usize) -> Matrix {
    let pool = four_blobs(distinct, cols);
    let rows: Vec<Vec<f64>> = (0..n).map(|i| pool.row(i % distinct).to_vec()).collect();
    Matrix::from_rows(&rows)
}

#[test]
fn choose_k_peak_heap_stays_far_below_a_distance_matrix() {
    let n = 2_000;
    let data = four_blobs(n, 10);
    let base = current_alloc_bytes();
    reset_peak();
    let sel = choose_k(&data, 20, 0.9, 0.25, 42);
    let peak = peak_alloc_bytes().saturating_sub(base);

    assert_eq!(sel.scores.len(), 19, "every k in 2..=20 is scored");
    assert_eq!(sel.k, 4, "scores: {:?}", sel.scores);
    let matrix_bytes = n * n * 8;
    assert!(
        peak < matrix_bytes / 8,
        "sweep peak {peak} B reaches an eighth of the {matrix_bytes} B distance matrix"
    );

    let repeated = repeated_blobs(n, 10, 40);
    let base = current_alloc_bytes();
    reset_peak();
    let sel = choose_k(&repeated, 20, 0.9, 0.25, 42);
    let repeated_peak = peak_alloc_bytes().saturating_sub(base);
    assert_eq!(sel.scores.len(), 19, "every k in 2..=20 is scored");
    assert!(
        repeated_peak <= peak,
        "sweep peak on 40 distinct rows {repeated_peak} B exceeds the all-distinct {peak} B"
    );
}
