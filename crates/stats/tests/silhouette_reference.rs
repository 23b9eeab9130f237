//! The fused silhouette pass and the grouped Lloyd loop against their
//! per-point references: the dense [`DistCache`] with
//! [`silhouette_score_cached`] (see `support`), and
//! `kmeans_from_centers_reference`. Covers the reference itself, then
//! duplicate-heavy inputs where rows are scored once per distinct row.

mod support;

use simprof_stats::{
    choose_k, kmeans_from_centers, kmeans_from_centers_reference, kmeans_sweep, silhouette_score,
    silhouette_scores, KMeansResult, Matrix,
};
use support::{silhouette_score_cached, DistCache};

fn wavy(n: usize, d: usize) -> Matrix {
    let rows: Vec<Vec<f64>> =
        (0..n).map(|i| (0..d).map(|j| ((i * d + j) as f64 * 0.13).sin() * 3.0).collect()).collect();
    Matrix::from_rows(&rows)
}

fn blobs(centers: &[(f64, f64)], per: usize) -> Matrix {
    let mut rows = Vec::new();
    for (ci, &(cx, cy)) in centers.iter().enumerate() {
        for i in 0..per {
            let jitter = (i as f64 * 0.017 + ci as f64 * 0.005) % 0.1;
            rows.push(vec![cx + jitter, cy - jitter]);
        }
    }
    Matrix::from_rows(&rows)
}

#[test]
fn cache_matches_naive_distance() {
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
fn cache_is_symmetric_with_zero_diagonal() {
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
fn cache_clamps_coincident_points_to_zero() {
    let m = Matrix::from_rows(&vec![vec![1e8, -1e8, 3.0]; 4]);
    let c = DistCache::build(&m);
    for i in 0..4 {
        for j in 0..4 {
            assert_eq!(c.dist(i, j), 0.0);
        }
    }
}

#[test]
fn cache_of_empty_matrix() {
    let c = DistCache::build(&Matrix::zeros(0, 3));
    assert_eq!(c.n(), 0);
}

/// Regression: the distance-cache scoring path must match the naive
/// implementation to 1e-12 (the cache computes distances via the norm
/// identity, so exact bit equality is not expected).
#[test]
fn cached_silhouette_matches_naive_to_1e12() {
    for (centers, per, k) in [
        (vec![(0.0, 0.0), (10.0, 10.0)], 15usize, 2usize),
        (vec![(0.0, 0.0), (8.0, 0.0), (0.0, 8.0)], 11, 3),
        (vec![(1.0, 2.0), (1.5, 2.5), (9.0, -4.0), (20.0, 20.0)], 7, 4),
    ] {
        let data = blobs(&centers, per);
        let n = data.rows();
        let assignments: Vec<usize> = (0..n).map(|i| i % k).collect();
        let naive = silhouette_score(&data, &assignments);
        let cached = silhouette_score_cached(&DistCache::build(&data), &assignments);
        assert!((naive - cached).abs() <= 1e-12, "naive {naive} vs cached {cached} (k = {k})");
    }
}

#[test]
fn cached_silhouette_degenerate_cases_match_naive() {
    let data = blobs(&[(0.0, 0.0)], 10);
    let cache = DistCache::build(&data);
    assert_eq!(silhouette_score_cached(&cache, &[0usize; 10]), 0.0);
    let tiny = Matrix::from_rows(&[vec![1.0]]);
    assert_eq!(silhouette_score_cached(&DistCache::build(&tiny), &[0]), 0.0);
}

/// Asserts the fused scores of `clusterings` carry the reference's bits.
fn assert_fused_matches_cached(data: &Matrix, clusterings: &[&[usize]]) -> Vec<f64> {
    let fused = silhouette_scores(data, clusterings);
    let cache = DistCache::build(data);
    for (t, (a, &s)) in clusterings.iter().zip(&fused).enumerate() {
        assert_eq!(s.to_bits(), silhouette_score_cached(&cache, a).to_bits(), "clustering {t}");
    }
    fused
}

#[test]
fn fused_scores_match_cached_reference_bitwise() {
    // 150 points: two full chunks plus a ragged one, and a ragged last
    // lane block. Clusterings cover singletons, an empty middle cluster
    // and a degenerate one-cluster labelling.
    let data = blobs(&[(0.0, 0.0), (6.0, 1.0), (2.0, 9.0)], 50);
    let n = data.rows();
    let striped: Vec<usize> = (0..n).map(|i| i % 3).collect();
    let blocked: Vec<usize> = (0..n).map(|i| i / 50).collect();
    let singletons: Vec<usize> = (0..n).map(|i| if i < 4 { i } else { 4 + i % 2 }).collect();
    let gap: Vec<usize> = (0..n).map(|i| if i % 2 == 0 { 0 } else { 3 }).collect();
    let one = vec![2usize; n];
    let fused = assert_fused_matches_cached(&data, &[&striped, &blocked, &singletons, &gap, &one]);
    assert_eq!(fused[4], 0.0);
    assert!(fused[1] > 0.9, "blocked labelling scores {}", fused[1]);
}

/// The accelerated, grouped Lloyd loop carries the per-point reference
/// scan's bits from the same start.
fn assert_lloyd_matches_reference(data: &Matrix, k: usize) {
    let init: Vec<Vec<f64>> = (0..k).map(|i| data.row(i * data.rows() / k).to_vec()).collect();
    let fast = kmeans_from_centers(data, Matrix::from_rows(&init), 100);
    let slow = kmeans_from_centers_reference(data, Matrix::from_rows(&init), 100);
    let bits = |r: &KMeansResult| -> Vec<u64> {
        (0..r.centers.rows()).flat_map(|c| r.centers.row(c).to_vec()).map(f64::to_bits).collect()
    };
    assert_eq!(fast.assignments, slow.assignments, "k = {k}");
    assert_eq!(bits(&fast), bits(&slow), "k = {k}");
    assert_eq!(fast.iterations, slow.iterations, "k = {k}");
    if slow.inertia.is_finite() {
        assert_eq!(fast.inertia.to_bits(), slow.inertia.to_bits(), "k = {k}");
    } else {
        // A point whose distance to every center is NaN keeps `∞` as its
        // assignment-step distance; the reference sums those (`∞`) while an
        // accelerated run that skipped a bound check recomputes (`NaN`).
        assert!(!fast.inertia.is_finite(), "k = {k}: {} vs {}", fast.inertia, slow.inertia);
    }
}

/// Every sweep candidate plus a labelling that splits duplicates across
/// clusters, scored fused vs reference.
fn assert_sweep_scores_match(data: &Matrix, seed: u64) {
    let mut clusterings: Vec<Vec<usize>> =
        kmeans_sweep(data, 8, seed).into_iter().map(|r| r.assignments).collect();
    clusterings.push((0..data.rows()).map(|i| (i * i + i / 3) % 4).collect());
    let refs: Vec<&[usize]> = clusterings.iter().map(Vec::as_slice).collect();
    assert_fused_matches_cached(data, &refs);
}

#[test]
fn all_identical_rows_fall_back_to_one_phase() {
    let data = Matrix::from_rows(&vec![vec![0.3, 1.7, 0.0]; 90]);
    let sel = choose_k(&data, 20, 0.9, 0.25, 42);
    assert_eq!(sel.k, 1);
    assert_eq!(sel.scores.len(), 19);
    assert!(sel.scores.iter().all(|&(_, s)| s == 0.0), "scores: {:?}", sel.scores);
    assert_eq!(sel.result.centers.rows(), 1);
    assert_sweep_scores_match(&data, 42);
    for k in 1..5 {
        assert_lloyd_matches_reference(&data, k);
    }
}

#[test]
fn duplicates_with_one_outlier() {
    let patterns = [vec![0.0, 1.0, 0.2], vec![0.1, 1.0, 0.2], vec![3.0, 0.0, 0.5]];
    let mut rows: Vec<Vec<f64>> = (0..200).map(|i| patterns[(i * 7 + i / 5) % 3].clone()).collect();
    rows[137] = vec![40.0, -9.0, 7.5];
    let data = Matrix::from_rows(&rows);
    let sel = choose_k(&data, 20, 0.9, 0.25, 7);
    // The outlier splits off alone; the rest is one phase.
    assert_eq!(sel.k, 2, "scores: {:?}", sel.scores);
    assert_eq!(sel.result.cluster_sizes()[sel.result.assignments[137]], 1);
    assert_sweep_scores_match(&data, 7);
    for k in 1..6 {
        assert_lloyd_matches_reference(&data, k);
    }
}

#[test]
fn nan_bearing_row_matches_the_references() {
    let mut rows: Vec<Vec<f64>> =
        (0..120).map(|i| vec![(i % 4) as f64, ((i % 3) * 2) as f64]).collect();
    rows[5] = vec![f64::NAN, 1.0];
    rows[77] = vec![f64::NAN, 1.0];
    let data = Matrix::from_rows(&rows);
    let a = choose_k(&data, 10, 0.9, 0.25, 3);
    let b = choose_k(&data, 10, 0.9, 0.25, 3);
    assert_eq!(a.k, b.k);
    assert_eq!(a.result.assignments, b.result.assignments);
    assert!(a.scores.iter().all(|&(_, s)| s.is_finite()), "scores: {:?}", a.scores);
    assert_sweep_scores_match(&data, 3);
    for k in 1..6 {
        assert_lloyd_matches_reference(&data, k);
    }
}
