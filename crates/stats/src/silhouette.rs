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
//! score, so scoring waits until the chain ends. Only the warm start needs
//! the previous k: each k's cold restart runs beside it (`rayon::join`),
//! and `k = 2`'s restarts run as one parallel map, so the chain uses a
//! second thread without any run's bits depending on which thread ran it.
//! [`kmeans_sweep_reference`] keeps the serial, per-point, unaccelerated
//! chain as reference arithmetic. [`silhouette_scores`] then
//! scores every candidate in **one distance pass**: each pairwise distance
//! from a scored row is computed once, on the fly, and scattered into
//! per-(candidate, cluster, lane) sums — no `n × n` matrix.
//!
//! The pass is pinned bit for bit to a reference arithmetic: a dense
//! distance matrix of the same `Matrix::norm_sq_dist` distances with a
//! forced `0.0` diagonal, per-cluster sums from `+0.0` in ascending `j`,
//! per-point silhouettes summed in ascending `i` within fixed
//! [`SIL_CHUNK`]-sized chunks, and the chunk partials folded in chunk
//! order. The chunking never depends on the worker count, so every score
//! is bit-identical at every thread count. (The reference lives with the
//! tests that check it.)
//!
//! # Distinct rows
//!
//! Feature rows repeat heavily (a unit's vector comes from ten call-stack
//! snapshots), so the pass scores each *distinct* row once. Two rows with
//! identical bits see an identical sequence of distances to every `j`. The
//! one place they could differ is the diagonal: the reference forces
//! `d(i, i) = 0.0`, while the pass computes a row's distance to its
//! duplicate as `(‖x‖² + ‖x‖²) − 2·dot(x, x)`. `Matrix::row_sq_norms`
//! uses the same `Matrix::dot`, so that is `2s − 2s`, exactly `+0.0` for
//! finite `s`, and the clamp in `norm_sq_dist` turns the `∞ − ∞` and NaN
//! cases into `0.0` too. Adding `+0.0` to a sum of non-negative distances
//! started at `+0.0` never changes it, so every duplicate's
//! per-(candidate, cluster) sums equal its representative's, bit for bit.
//! A member's silhouette also depends on its own cluster, so rows are
//! grouped by bits *and* by their label in every scored clustering; within
//! such a group every silhouette is the representative's. The per-point
//! values are then folded in the unchanged `SIL_CHUNK` order. A sweep's
//! k-means labels never split a bit-identical group, so on SimProf traces
//! the pass costs `O(u · n · (d + Σk))` for `u` distinct rows instead of
//! `O(n² · (d + Σk))`.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::groups::RowGroups;
use crate::kmeans::{
    kmeans_from_centers_in, kmeans_from_centers_reference, kmeans_in, kmeans_reference,
    sample_by_sq_dist, KMeans, KMeansResult,
};
use crate::matrix::Matrix;
use crate::rng::{seeded, split_seed};

/// Points per silhouette chunk: fixed (never derived from the worker count)
/// so the partial-sum association — and therefore the score bits — is the
/// same at every thread count.
const SIL_CHUNK: usize = 64;

/// Rows scored side by side in the fused pass: every distance from point
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

/// The silhouette of a point in cluster `own` from its per-cluster
/// distance sums `sum(c)`; `0` for a singleton cluster.
#[inline]
fn silhouette_from_sums(own: usize, sizes: &[usize], sum: impl Fn(usize) -> f64) -> f64 {
    if sizes[own] <= 1 {
        return 0.0; // singleton convention
    }
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

/// Mean silhouette coefficient of a clustering, computing distances on the
/// fly.
///
/// Returns `0.0` when the clustering has fewer than 2 non-empty clusters or
/// fewer than 2 points. Singleton clusters contribute a silhouette of `0` for
/// their point, per the standard convention.
///
/// This is the textbook implementation (`Matrix::dist` per pair, ascending
/// `i` within `SIL_CHUNK`-point chunks); the `choose_k` sweep scores
/// through [`silhouette_scores`] instead, which uses the norm identity and
/// so agrees with this one to floating-point noise.
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
    let partials: Vec<f64> = (0..n.div_ceil(SIL_CHUNK))
        .into_par_iter()
        .map(|c| {
            let mut dist_sum = vec![0.0f64; sizes.len()];
            let mut partial = 0.0;
            for i in c * SIL_CHUNK..((c + 1) * SIL_CHUNK).min(n) {
                let own = assignments[i];
                if sizes[own] > 1 {
                    let xi = data.row(i);
                    dist_sum.fill(0.0);
                    for j in (0..n).filter(|&j| j != i) {
                        dist_sum[assignments[j]] += Matrix::dist(xi, data.row(j));
                    }
                }
                partial += silhouette_from_sums(own, &sizes, |c| dist_sum[c]);
            }
            partial
        })
        .collect();
    partials.iter().sum::<f64>() / n as f64
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
/// Each distance is computed once and never stored: the distinct rows are
/// walked in blocks of [`LANES`] against all `j`, adding each distance into
/// per-(clustering, cluster, lane) sums, and every point takes the
/// silhouettes of its group (see the module docs). The result is
/// bit-identical to the dense-matrix reference on each clustering at every
/// worker count, including its degeneracy rules (`0.0` for fewer than 2
/// points or fewer than 2 non-empty clusters).
///
/// # Panics
///
/// Panics if any clustering's length differs from `data.rows()`.
pub fn silhouette_scores(data: &Matrix, clusterings: &[&[usize]]) -> Vec<f64> {
    silhouette_scores_in(data, &RowGroups::of(data), clusterings)
}

/// [`silhouette_scores`] over `data`'s precomputed row groups.
fn silhouette_scores_in(data: &Matrix, rows: &RowGroups, clusterings: &[&[usize]]) -> Vec<f64> {
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

    // Same bits and same cluster in every scored clustering ⇒ same
    // silhouettes, bit for bit. A sweep's labels never split a row group,
    // so the row groups usually serve as they are.
    let labels = |i: usize| scored.iter().map(move |s| s.assignments[i]);
    let split;
    let groups = if (0..n).all(|i| labels(i).eq(labels(rows.reps[rows.group[i]]))) {
        rows
    } else {
        split = RowGroups::by(n, |a, b| {
            rows.group[a].cmp(&rows.group[b]).then_with(|| labels(a).cmp(labels(b)))
        });
        &split
    };
    let norms = data.row_sq_norms();
    let per_row = scored.len();
    let u = groups.len();

    // Silhouettes of each block of LANES representatives, `per_row` per
    // representative.
    let blocks: Vec<Vec<f64>> = (0..u.div_ceil(LANES))
        .into_par_iter()
        .map(|block| {
            let g0 = block * LANES;
            let lanes = (u - g0).min(LANES);
            // A short last block repeats its last representative in the
            // spare lanes; their sums are never read.
            let reps: [usize; LANES] = std::array::from_fn(|l| groups.reps[g0 + l.min(lanes - 1)]);
            let mut sums = vec![0.0f64; width * LANES];
            for j in 0..n {
                let xj = data.row(j);
                // `d(i, i)` comes out exactly +0.0 (see the module docs).
                let mut d: [f64; LANES] = std::array::from_fn(|l| {
                    let i = reps[l];
                    Matrix::norm_sq_dist(data.row(i), norms[i], xj, norms[j])
                });
                for v in &mut d {
                    *v = v.sqrt();
                }
                for s in &scored {
                    let slot = (s.base + s.assignments[j]) * LANES;
                    let acc: &mut [f64; LANES] =
                        (&mut sums[slot..slot + LANES]).try_into().expect("LANES-wide slot");
                    for (a, &dl) in acc.iter_mut().zip(&d) {
                        *a += dl;
                    }
                }
            }
            let mut out = Vec::with_capacity(lanes * per_row);
            for (l, &i) in reps[..lanes].iter().enumerate() {
                out.extend(scored.iter().map(|s| {
                    silhouette_from_sums(s.assignments[i], &s.sizes, |c| {
                        sums[(s.base + c) * LANES + l]
                    })
                }));
            }
            out
        })
        .collect();

    let silhouette = |i: usize, t: usize| {
        let g = groups.group[i];
        blocks[g / LANES][(g % LANES) * per_row + t]
    };
    for (t, s) in scored.iter().enumerate() {
        let chunk_sums = (0..n)
            .step_by(SIL_CHUNK)
            .map(|c0| (c0..(c0 + SIL_CHUNK).min(n)).fold(0.0, |p, i| p + silhouette(i, t)));
        scores[s.index] = chunk_sums.sum::<f64>() / n as f64;
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
fn extend_centers(data: &Matrix, rows: &RowGroups, prev: &Matrix, seed: u64) -> Matrix {
    let d2: Vec<f64> = rows
        .reps
        .iter()
        .map(|&r| {
            (0..prev.rows())
                .map(|c| Matrix::sq_dist(data.row(r), prev.row(c)))
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let pick = sample_by_sq_dist(rows, &d2, &mut seeded(seed));
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
/// the lower inertia. The cold run depends only on the seed, so it runs
/// beside the warm start (`rayon::join`). Deterministic in `seed` and
/// bit-identical to [`kmeans_sweep_reference`] at every worker count.
pub fn kmeans_sweep(data: &Matrix, k_max: usize, seed: u64) -> Vec<KMeansResult> {
    kmeans_sweep_in(data, &RowGroups::of(data), k_max, seed)
}

/// [`kmeans_sweep`] over `data`'s precomputed row groups.
fn kmeans_sweep_in(data: &Matrix, rows: &RowGroups, k_max: usize, seed: u64) -> Vec<KMeansResult> {
    let k_max = k_max.min(data.rows());
    let mut candidates: Vec<KMeansResult> = Vec::with_capacity(k_max.saturating_sub(1));
    for k in 2..=k_max {
        let mut config = KMeans::new(k, seed);
        let result = match candidates.last() {
            None => kmeans_in(data, rows, config),
            Some(prev) => {
                config.n_init = SWEEP_COLD_RESTARTS;
                let (cold, warm) = rayon::join(
                    || kmeans_in(data, rows, config),
                    || {
                        let init = extend_centers(data, rows, &prev.centers, warm_seed(seed, k));
                        kmeans_from_centers_in(data, rows, init, config.max_iter)
                    },
                );
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

/// The seed of the ++ draw that extends the `k − 1` solution to `k`.
fn warm_seed(seed: u64, k: usize) -> u64 {
    split_seed(seed, 0x3A9E ^ k as u64)
}

/// The reference arithmetic of [`kmeans_sweep`]: the same chain run one
/// step after another on the calling thread, with every row its own group
/// and every Lloyd run the per-point, unaccelerated loop
/// ([`kmeans_from_centers_reference`]), which recomputes every center and
/// reseeds by scanning points. Exists so the sweep can be property-tested
/// bit-identical against it (`tests/parallel_equivalence.rs`); prefer
/// [`kmeans_sweep`] for real work.
pub fn kmeans_sweep_reference(data: &Matrix, k_max: usize, seed: u64) -> Vec<KMeansResult> {
    let rows = RowGroups::identity(data.rows());
    let k_max = k_max.min(data.rows());
    let mut candidates: Vec<KMeansResult> = Vec::with_capacity(k_max.saturating_sub(1));
    for k in 2..=k_max {
        let mut config = KMeans::new(k, seed);
        let result = match candidates.last() {
            None => kmeans_reference(data, config),
            Some(prev) => {
                config.n_init = SWEEP_COLD_RESTARTS;
                let cold = kmeans_reference(data, config);
                let init = extend_centers(data, &rows, &prev.centers, warm_seed(seed, k));
                let warm = kmeans_from_centers_reference(data, init, config.max_iter);
                if warm.inertia < cold.inertia {
                    warm
                } else {
                    cold
                }
            }
        };
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
/// The rows are grouped by bit pattern once (gauge `stats.distinct_rows`)
/// and every stage does its per-row work once per distinct row. The
/// candidates come from [`kmeans_sweep`] (span `stats.kmeans_sweep`) and
/// are scored together by [`silhouette_scores`] (span `stats.silhouette`)
/// in one distance pass, with no `n²` memory. Everything is deterministic
/// in `seed` and bit-identical at every worker count.
pub fn choose_k(
    data: &Matrix,
    k_max: usize,
    threshold: f64,
    min_structure: f64,
    seed: u64,
) -> KSelection {
    let _span = simprof_obs::span!("stats.choose_k");
    let rows = RowGroups::of(data);
    simprof_obs::gauge_set("stats.distinct_rows", rows.len() as f64);
    let single = |scores| {
        simprof_obs::gauge_set("stats.chosen_k", 1.0);
        KSelection { k: 1, result: kmeans_in(data, &rows, KMeans::new(1, seed)), scores }
    };
    let n = data.rows();
    if n < 3 || k_max.min(n) < 2 {
        return single(Vec::new());
    }

    let candidates = {
        let _span = simprof_obs::span!("stats.kmeans_sweep");
        kmeans_sweep_in(data, &rows, k_max, seed)
    };
    let clusterings: Vec<&[usize]> = candidates.iter().map(|r| r.assignments.as_slice()).collect();
    let scores: Vec<(usize, f64)> =
        (2..).zip(silhouette_scores_in(data, &rows, &clusterings)).collect();
    let best = scores.iter().map(|&(_, s)| s).fold(f64::NEG_INFINITY, f64::max);

    if best < min_structure {
        return single(scores);
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
