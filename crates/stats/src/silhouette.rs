//! Silhouette-coefficient model selection.
//!
//! The paper (§III-B) scores each candidate phase count `k ∈ 1..=20` with the
//! silhouette coefficient and picks "the smallest k which has at least 90 % of
//! the highest score among all k". The silhouette of point `i` is
//! `(b_i - a_i) / max(a_i, b_i)` where `a_i` is the mean distance to points in
//! its own cluster and `b_i` the smallest mean distance to another cluster.
//!
//! The silhouette is undefined at `k = 1`; SimProf needs `k = 1` to be
//! selectable (grep on Spark forms a single phase). We define structure as
//! present only when the best silhouette over `k ≥ 2` reaches a minimum
//! (`min_structure`, default 0.25). Below that — or when the data has no
//! variance at all — the selector returns `k = 1`.
//!
//! # Performance
//!
//! `choose_k` runs in two stages. [`kmeans_sweep`] runs the warm-started
//! k-means chain (each k starts from the previous k's centers plus one
//! ++-seeded center) and keeps every candidate; no warm start depends on a
//! score, so scoring waits until the chain ends. [`silhouette_scores`] then
//! scores every candidate in **one distance pass**: each pairwise distance is
//! computed once, on the fly, and scattered into per-(candidate, cluster,
//! lane) sums — `O(n²·d + n²·Σk)` time, `O(threads · Σk · LANES)` scratch,
//! and no `n × n` matrix.
//!
//! The pass is pinned bit for bit to the reference arithmetic of
//! [`DistCache::build`] + [`silhouette_score_cached`]: the same
//! `Matrix::norm_sq_dist` distance, per-cluster sums from `+0.0` in
//! ascending `j`, per-point silhouettes summed in ascending `i` within fixed
//! [`SIL_CHUNK`]-sized chunks, and the chunk partials folded in chunk order.
//! The chunking never depends on the worker count, so every score is
//! bit-identical at every thread count.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::distcache::DistCache;
use crate::kmeans::{kmeans, kmeans_from_centers, KMeans, KMeansResult};
use crate::matrix::Matrix;
use crate::rng::{seeded, split_seed};

/// Points per silhouette chunk: fixed (never derived from the worker count)
/// so the partial-sum association — and therefore the score bits — is the
/// same at every thread count.
const SIL_CHUNK: usize = 64;

/// Points scored side by side in the fused pass: every distance from point
/// `j` lands in `LANES` adjacent accumulators per cluster, so the adds are
/// independent (no FP-add latency chain) and vectorize.
const LANES: usize = 8;

/// Cold k-means++ restarts per candidate k when a warm start is also
/// available; the first k of the sweep (no warm start yet) uses the full
/// [`KMeans::new`] default. One cold restart racing the warm start keeps
/// the sweep deterministic while halving the Lloyd work per k — on the
/// reference benchmarks the warm start wins or ties the extra cold
/// restart's inertia, so the chosen k is unchanged.
const SWEEP_COLD_RESTARTS: usize = 1;

/// Per-cluster point counts, sized by the largest label in `assignments`.
fn cluster_sizes(assignments: &[usize]) -> Vec<usize> {
    let k = assignments.iter().copied().max().map_or(0, |m| m + 1);
    let mut sizes = vec![0usize; k];
    for &a in assignments {
        sizes[a] += 1;
    }
    sizes
}

/// Whether the degeneracy rule scores a clustering `0`: fewer than 2
/// non-empty clusters.
fn too_few_clusters(sizes: &[usize]) -> bool {
    sizes.iter().filter(|&&s| s > 0).count() < 2
}

/// The silhouette of a point in cluster `own` (of size ≥ 2) from its
/// per-cluster distance sums `sum(c)`.
#[inline]
fn silhouette_from_sums(own: usize, sizes: &[usize], sum: impl Fn(usize) -> f64) -> f64 {
    let a = sum(own) / (sizes[own] - 1) as f64;
    let b = (0..sizes.len())
        .filter(|&c| c != own && sizes[c] > 0)
        .map(|c| sum(c) / sizes[c] as f64)
        .fold(f64::INFINITY, f64::min);
    let denom = a.max(b);
    if denom == 0.0 {
        0.0
    } else {
        (b - a) / denom
    }
}

/// The silhouette of point `i` given its row of distances to all points.
/// `dist_sum` is the caller's scratch buffer (one per chunk, reused).
#[inline]
fn point_silhouette(
    row: impl Fn(usize) -> f64,
    i: usize,
    n: usize,
    assignments: &[usize],
    sizes: &[usize],
    dist_sum: &mut [f64],
) -> f64 {
    let own = assignments[i];
    if sizes[own] <= 1 {
        return 0.0; // singleton convention
    }
    dist_sum.fill(0.0);
    for j in 0..n {
        if i == j {
            continue;
        }
        dist_sum[assignments[j]] += row(j);
    }
    silhouette_from_sums(own, sizes, |c| dist_sum[c])
}

/// Mean silhouette over all points, parallel over fixed-size point chunks.
/// `row_of(i)(j)` yields the distance from `i` to `j`.
fn silhouette_chunked<R, D>(n: usize, assignments: &[usize], sizes: &[usize], row_of: R) -> f64
where
    R: Fn(usize) -> D + Sync,
    D: Fn(usize) -> f64,
{
    let k = sizes.len();
    let partials: Vec<f64> = (0..n.div_ceil(SIL_CHUNK))
        .into_par_iter()
        .map(|c| {
            let mut dist_sum = vec![0.0f64; k];
            let mut partial = 0.0;
            for i in c * SIL_CHUNK..((c + 1) * SIL_CHUNK).min(n) {
                partial += point_silhouette(row_of(i), i, n, assignments, sizes, &mut dist_sum);
            }
            partial
        })
        .collect();
    partials.iter().sum::<f64>() / n as f64
}

/// Mean silhouette coefficient of a clustering, computing distances on the
/// fly.
///
/// Returns `0.0` when the clustering has fewer than 2 non-empty clusters or
/// fewer than 2 points. Singleton clusters contribute a silhouette of `0` for
/// their point, per the standard convention.
///
/// This is the textbook implementation (`Matrix::dist` per pair); the
/// `choose_k` sweep scores through [`silhouette_scores`] instead, which uses
/// the norm identity and so agrees with this one to floating-point noise.
pub fn silhouette_score(data: &Matrix, assignments: &[usize]) -> f64 {
    let n = data.rows();
    assert_eq!(assignments.len(), n, "assignment length mismatch");
    if n < 2 {
        return 0.0;
    }
    let sizes = cluster_sizes(assignments);
    if too_few_clusters(&sizes) {
        return 0.0;
    }
    silhouette_chunked(n, assignments, &sizes, |i| {
        let xi = data.row(i);
        move |j| Matrix::dist(xi, data.row(j))
    })
}

/// Mean silhouette coefficient read from a prebuilt [`DistCache`].
///
/// The reference arithmetic the fused [`silhouette_scores`] pass is pinned
/// to: both must return the same bits for every clustering (see
/// `tests/parallel_equivalence.rs`). It needs `n² × 8` bytes for the cache,
/// so prefer [`silhouette_scores`] for real work. Same conventions as
/// [`silhouette_score`].
pub fn silhouette_score_cached(cache: &DistCache, assignments: &[usize]) -> f64 {
    let n = cache.n();
    assert_eq!(assignments.len(), n, "assignment length mismatch");
    if n < 2 {
        return 0.0;
    }
    let sizes = cluster_sizes(assignments);
    if too_few_clusters(&sizes) {
        return 0.0;
    }
    silhouette_chunked(n, assignments, &sizes, |i| {
        let row = cache.row(i);
        move |j| row[j]
    })
}

/// One clustering taking part in the fused pass.
struct Scored<'a> {
    /// Index into the caller's clustering list.
    index: usize,
    assignments: &'a [usize],
    sizes: Vec<usize>,
    /// First cluster row of this clustering in the accumulator block.
    base: usize,
}

/// Mean silhouette coefficients of several clusterings of the same `data`,
/// in one pass over the pairwise distances.
///
/// Each distance is computed once and never stored: every chunk of
/// [`SIL_CHUNK`] points is walked in blocks of [`LANES`] points against all
/// `j`, adding each distance into per-(clustering, cluster, lane) sums. The
/// result is bit-identical to [`silhouette_score_cached`] on each clustering
/// at every worker count, including its degeneracy rules (`0.0` for fewer
/// than 2 points or fewer than 2 non-empty clusters).
///
/// # Panics
///
/// Panics if any clustering's length differs from `data.rows()`.
pub fn silhouette_scores(data: &Matrix, clusterings: &[&[usize]]) -> Vec<f64> {
    let _span = simprof_obs::span!("stats.silhouette");
    let n = data.rows();
    let mut scores = vec![0.0; clusterings.len()];
    let mut scored: Vec<Scored<'_>> = Vec::new();
    let mut width = 0;
    for (index, &assignments) in clusterings.iter().enumerate() {
        assert_eq!(assignments.len(), n, "assignment length mismatch");
        let sizes = cluster_sizes(assignments);
        // Fewer than 2 points never make 2 non-empty clusters.
        if !too_few_clusters(&sizes) {
            let base = width;
            width += sizes.len();
            scored.push(Scored { index, assignments, sizes, base });
        }
    }
    if scored.is_empty() {
        return scores;
    }

    let norms = data.row_sq_norms();
    // Point j's accumulator row in every clustering, laid out point-major
    // so the scatter for one j reads one contiguous run.
    let slots: Vec<usize> = (0..n)
        .flat_map(|j| scored.iter().map(move |s| (s.base + s.assignments[j]) * LANES))
        .collect();
    let per_point = scored.len();

    let partials: Vec<Vec<f64>> = (0..n.div_ceil(SIL_CHUNK))
        .into_par_iter()
        .map(|chunk| {
            let end = ((chunk + 1) * SIL_CHUNK).min(n);
            let mut sums = vec![0.0f64; width * LANES];
            let mut partial = vec![0.0f64; per_point];
            for i0 in (chunk * SIL_CHUNK..end).step_by(LANES) {
                let lanes = (end - i0).min(LANES);
                // A short last block repeats its last point in the spare
                // lanes; their sums are never read.
                let block: [usize; LANES] = std::array::from_fn(|l| (i0 + l).min(end - 1));
                sums.fill(0.0);
                for j in 0..n {
                    let xj = data.row(j);
                    let mut d: [f64; LANES] = std::array::from_fn(|l| {
                        let i = block[l];
                        Matrix::norm_sq_dist(data.row(i), norms[i], xj, norms[j])
                    });
                    for v in &mut d {
                        *v = v.sqrt();
                    }
                    // The reference skips `j == i`; adding +0.0 to a sum of
                    // non-negative distances leaves it unchanged bit for bit.
                    if (i0..i0 + lanes).contains(&j) {
                        d[j - i0] = 0.0;
                    }
                    for &slot in &slots[j * per_point..(j + 1) * per_point] {
                        let acc: &mut [f64; LANES] =
                            (&mut sums[slot..slot + LANES]).try_into().expect("LANES-wide slot");
                        for (a, &dl) in acc.iter_mut().zip(&d) {
                            *a += dl;
                        }
                    }
                }
                for l in 0..lanes {
                    for (p, s) in partial.iter_mut().zip(&scored) {
                        let own = s.assignments[i0 + l];
                        *p += if s.sizes[own] <= 1 {
                            0.0 // singleton convention
                        } else {
                            silhouette_from_sums(own, &s.sizes, |c| sums[(s.base + c) * LANES + l])
                        };
                    }
                }
            }
            partial
        })
        .collect();

    for (t, s) in scored.iter().enumerate() {
        scores[s.index] = partials.iter().map(|p| p[t]).sum::<f64>() / n as f64;
    }
    scores
}

/// Outcome of the k-selection sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KSelection {
    /// Chosen number of clusters.
    pub k: usize,
    /// Clustering result for the chosen `k`.
    pub result: KMeansResult,
    /// `(k, silhouette)` pairs for every candidate evaluated (`k ≥ 2`).
    pub scores: Vec<(usize, f64)>,
}

/// Extends a converged `(k−1)`-center solution to `k` centers with one
/// ++-seeded addition: the new center is drawn with probability proportional
/// to squared distance from the nearest existing center.
fn extend_centers(data: &Matrix, prev: &Matrix, seed: u64) -> Matrix {
    use rand::RngExt;
    let n = data.rows();
    let d2: Vec<f64> = (0..n)
        .map(|i| {
            (0..prev.rows())
                .map(|c| Matrix::sq_dist(data.row(i), prev.row(c)))
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let mut rng = seeded(seed);
    let total: f64 = d2.iter().sum();
    let pick = if total <= 0.0 {
        rng.random_range(0..n)
    } else {
        let mut target = rng.random::<f64>() * total;
        let mut chosen = n - 1;
        for (i, &d) in d2.iter().enumerate() {
            target -= d;
            if target <= 0.0 {
                chosen = i;
                break;
            }
        }
        chosen
    };
    let mut centers = Matrix::zeros(prev.rows() + 1, prev.cols());
    for c in 0..prev.rows() {
        centers.row_mut(c).copy_from_slice(prev.row(c));
    }
    centers.row_mut(prev.rows()).copy_from_slice(data.row(pick));
    centers
}

/// The clustering chain behind [`choose_k`]: one k-means result per
/// candidate `k ∈ 2..=min(k_max, n)`, in ascending `k`.
///
/// `k = 2` runs the full [`KMeans::new`] default; each later `k` races a
/// warm start (previous centers + one ++-seeded center) against
/// [`SWEEP_COLD_RESTARTS`] cold restarts and keeps whichever converges to
/// the lower inertia. Deterministic in `seed` and bit-identical at every
/// worker count.
pub fn kmeans_sweep(data: &Matrix, k_max: usize, seed: u64) -> Vec<KMeansResult> {
    let k_max = k_max.min(data.rows());
    let mut candidates: Vec<KMeansResult> = Vec::with_capacity(k_max.saturating_sub(1));
    for k in 2..=k_max {
        let mut config = KMeans::new(k, seed);
        let result = match candidates.last() {
            None => kmeans(data, config),
            Some(prev) => {
                config.n_init = SWEEP_COLD_RESTARTS;
                let cold = kmeans(data, config);
                let init = extend_centers(data, &prev.centers, split_seed(seed, 0x3A9E ^ k as u64));
                let warm = kmeans_from_centers(data, init, config.max_iter);
                if warm.inertia < cold.inertia {
                    warm
                } else {
                    cold
                }
            }
        };
        simprof_obs::histogram_observe("stats.kmeans.iterations", result.iterations as f64);
        candidates.push(result);
    }
    candidates
}

/// Sweeps `k ∈ 2..=k_max`, scores each clustering with the silhouette
/// coefficient, and applies the paper's rule: the smallest `k` whose score is
/// at least `threshold` (e.g. 0.9) times the best score.
///
/// Falls back to `k = 1` when the data shows no cluster structure (best
/// silhouette below `min_structure`) or has fewer than 3 rows.
///
/// The candidates come from [`kmeans_sweep`] and are scored together by
/// [`silhouette_scores`] in one distance pass, with no `n²` memory.
/// Everything is deterministic in `seed` and bit-identical at every worker
/// count.
pub fn choose_k(
    data: &Matrix,
    k_max: usize,
    threshold: f64,
    min_structure: f64,
    seed: u64,
) -> KSelection {
    let _span = simprof_obs::span!("stats.choose_k");
    let n = data.rows();
    if n < 3 || k_max.min(n) < 2 {
        simprof_obs::gauge_set("stats.chosen_k", 1.0);
        return KSelection { k: 1, result: kmeans(data, KMeans::new(1, seed)), scores: Vec::new() };
    }

    let candidates = kmeans_sweep(data, k_max, seed);
    let clusterings: Vec<&[usize]> = candidates.iter().map(|r| r.assignments.as_slice()).collect();
    let scores: Vec<(usize, f64)> = (2..).zip(silhouette_scores(data, &clusterings)).collect();
    let best = scores.iter().map(|&(_, s)| s).fold(f64::NEG_INFINITY, f64::max);

    if best < min_structure {
        simprof_obs::gauge_set("stats.chosen_k", 1.0);
        return KSelection { k: 1, result: kmeans(data, KMeans::new(1, seed)), scores };
    }

    let (chosen, result) = scores
        .iter()
        .zip(candidates)
        .find(|&(&(_, s), _)| s >= threshold * best)
        .map(|(&(k, _), result)| (k, result))
        .expect("at least the best-scoring k satisfies the threshold");
    simprof_obs::gauge_set("stats.chosen_k", chosen as f64);
    KSelection { k: chosen, result, scores }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn silhouette_high_for_separated_blobs() {
        let data = blobs(&[(0.0, 0.0), (10.0, 10.0)], 15);
        let assignments: Vec<usize> = (0..30).map(|i| i / 15).collect();
        let s = silhouette_score(&data, &assignments);
        assert!(s > 0.9, "score {s}");
    }

    #[test]
    fn silhouette_poor_for_bad_split() {
        let data = blobs(&[(0.0, 0.0), (10.0, 10.0)], 15);
        // Split orthogonally to the real structure.
        let assignments: Vec<usize> = (0..30).map(|i| i % 2).collect();
        let s = silhouette_score(&data, &assignments);
        assert!(s < 0.2, "score {s}");
    }

    #[test]
    fn silhouette_single_cluster_is_zero() {
        let data = blobs(&[(0.0, 0.0)], 10);
        let assignments = vec![0usize; 10];
        assert_eq!(silhouette_score(&data, &assignments), 0.0);
    }

    #[test]
    fn silhouette_handles_singletons() {
        let data = Matrix::from_rows(&[vec![0.0], vec![0.1], vec![10.0]]);
        let assignments = vec![0, 0, 1];
        let s = silhouette_score(&data, &assignments);
        assert!(s > 0.0 && s.is_finite());
    }

    #[test]
    fn choose_k_finds_three_blobs() {
        let data = blobs(&[(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)], 12);
        let sel = choose_k(&data, 8, 0.9, 0.25, 42);
        assert_eq!(sel.k, 3, "scores: {:?}", sel.scores);
    }

    #[test]
    fn choose_k_collapses_to_one_without_structure() {
        // A single tight blob: no k >= 2 split is meaningfully better.
        let data = Matrix::from_rows(&vec![vec![5.0, 5.0]; 20]);
        let sel = choose_k(&data, 6, 0.9, 0.25, 42);
        assert_eq!(sel.k, 1);
        assert_eq!(sel.result.centers.rows(), 1);
    }

    #[test]
    fn choose_k_prefers_smallest_within_threshold() {
        // Two well separated blobs; k=2 scores near-best so the rule must not
        // return a larger k even if it scores marginally higher.
        let data = blobs(&[(0.0, 0.0), (50.0, 50.0)], 20);
        let sel = choose_k(&data, 10, 0.9, 0.25, 7);
        assert_eq!(sel.k, 2, "scores: {:?}", sel.scores);
    }

    #[test]
    fn choose_k_tiny_input() {
        let data = Matrix::from_rows(&[vec![1.0], vec![2.0]]);
        let sel = choose_k(&data, 20, 0.9, 0.25, 1);
        assert_eq!(sel.k, 1);
    }

    #[test]
    fn scores_are_recorded_for_all_candidates() {
        let data = blobs(&[(0.0, 0.0), (10.0, 10.0)], 10);
        let sel = choose_k(&data, 5, 0.9, 0.25, 3);
        let ks: Vec<usize> = sel.scores.iter().map(|&(k, _)| k).collect();
        assert_eq!(ks, vec![2, 3, 4, 5]);
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
        let clusterings: Vec<&[usize]> = vec![&striped, &blocked, &singletons, &gap, &one];
        let fused = silhouette_scores(&data, &clusterings);
        let cache = DistCache::build(&data);
        for (a, &s) in clusterings.iter().zip(&fused) {
            assert_eq!(s.to_bits(), silhouette_score_cached(&cache, a).to_bits());
        }
        assert_eq!(fused[4], 0.0);
        assert!(fused[1] > 0.9, "blocked labelling scores {}", fused[1]);
    }

    #[test]
    fn fused_scores_degenerate_inputs() {
        assert!(silhouette_scores(&blobs(&[(0.0, 0.0)], 5), &[]).is_empty());
        let tiny = Matrix::from_rows(&[vec![1.0]]);
        assert_eq!(silhouette_scores(&tiny, &[&[0]]), vec![0.0]);
        let empty = Matrix::zeros(0, 2);
        assert_eq!(silhouette_scores(&empty, &[&[]]), vec![0.0]);
    }

    #[test]
    fn choose_k_scores_are_the_fused_scores_of_the_sweep() {
        let data = blobs(&[(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)], 12);
        let sel = choose_k(&data, 8, 0.9, 0.25, 42);
        let sweep = kmeans_sweep(&data, 8, 42);
        let clusterings: Vec<&[usize]> = sweep.iter().map(|r| r.assignments.as_slice()).collect();
        let fused = silhouette_scores(&data, &clusterings);
        assert_eq!(sel.scores.len(), sweep.len());
        for (&(k, s), (r, f)) in sel.scores.iter().zip(sweep.iter().zip(&fused)) {
            assert_eq!(r.centers.rows(), k);
            assert_eq!(s.to_bits(), f.to_bits(), "k = {k}");
        }
        let chosen = &sweep[sel.k - 2];
        assert_eq!(sel.result.assignments, chosen.assignments);
        assert_eq!(sel.result.inertia.to_bits(), chosen.inertia.to_bits());
    }

    #[test]
    #[should_panic(expected = "assignment length mismatch")]
    fn fused_scores_reject_mismatched_assignments() {
        let data = blobs(&[(0.0, 0.0), (10.0, 0.0)], 8);
        let _ = silhouette_scores(&data, &[&[0, 1, 0]]);
    }

    #[test]
    fn warm_started_sweep_still_finds_structure() {
        // A sweep deep enough that warm starts kick in for most candidates.
        let data = blobs(&[(0.0, 0.0), (12.0, 0.0), (0.0, 12.0), (12.0, 12.0)], 9);
        let sel = choose_k(&data, 10, 0.9, 0.25, 13);
        assert_eq!(sel.k, 4, "scores: {:?}", sel.scores);
        assert_eq!(sel.result.assignments.len(), 36);
    }
}
