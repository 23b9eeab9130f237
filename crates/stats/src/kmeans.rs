//! K-means clustering with k-means++ seeding and triangle-inequality
//! acceleration.
//!
//! Phase formation (§III-B) clusters sampling-unit feature vectors with
//! k-means. The implementation is deterministic given a seed: k-means++
//! initialization draws from a seeded RNG, Lloyd iterations are synchronous,
//! ties in assignment break toward the lower center index, and empty clusters
//! are reseeded to the farthest points from their current centers (distinct
//! points when several clusters empty in one iteration).
//!
//! The assignment step uses Hamerly-style distance bounds to skip most
//! point-center evaluations while producing **bit-identical** results to the
//! plain Lloyd scan: a point is only skipped when its (conservatively
//! inflated) upper bound to its own center is *strictly* below both its lower
//! bound to every other center and half the separation to the nearest other
//! center — which certifies its center is the unique minimum, so the
//! tie-break can never be exercised. Points that fail the test fall back to
//! the exact scan Lloyd would run. [`kmeans_from_centers_reference`] exposes
//! the unaccelerated loop so equivalence stays property-testable
//! (DESIGN.md §15).
//!
//! [`kmeans_from_centers`] runs the Lloyd loop from explicit initial centers;
//! the `choose_k` sweep uses it to warm-start each k from the previous
//! solution. [`kmeans_minibatch`] is an opt-in stochastic variant for the
//! streaming path.
//!
//! Distance computations over all points are parallelized with rayon when the
//! step is large enough to repay a pool region; results are identical to the
//! sequential computation because each point's assignment is independent.
//!
//! A Lloyd run that never converges often settles into an exact cycle of
//! states (empty clusters reseeded, emptied again, …). The accelerated loop
//! detects the repeat and jumps over whole periods to `max_iter`, which
//! leaves every output bit as the full walk would (DESIGN.md §15.2).
//!
//! # Distinct rows
//!
//! Per-row work runs once per distinct row (`RowGroups`). Duplicate rows
//! enter Lloyd's first iteration with the same `(assignment, upper, lower,
//! last_sq)` state, and every step maps a row's bits and its state to its
//! next state, so duplicates stay in lockstep: the assignment step, the
//! bound maintenance and the reseed distances are computed per group and
//! read back through `group[i]`, as are the ++-seeding distances.
//! Everything that *adds* across points still walks the points in
//! ascending order (the center sums, the `d2` totals and sampling scans,
//! the reseed pick and the inertia sum), so no addition is reassociated
//! and every result keeps its bits. [`kmeans_from_centers_reference`]
//! groups nothing, which keeps it a per-point oracle.

use rand::RngExt;
use rayon::prelude::*;
use rayon::SUM_CHUNK;
use serde::{Deserialize, Serialize};

use crate::groups::RowGroups;
use crate::matrix::Matrix;
use crate::rng::{seeded, SeedRng};

/// Configuration for one k-means run.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct KMeans {
    /// Number of clusters.
    pub k: usize,
    /// Maximum number of Lloyd iterations.
    pub max_iter: usize,
    /// RNG seed for k-means++ initialization.
    pub seed: u64,
    /// Number of independent k-means++ restarts; the run with the lowest
    /// inertia wins (scikit-learn-style `n_init`).
    pub n_init: usize,
}

impl KMeans {
    /// Creates a configuration with the workspace defaults of 100 iterations
    /// and 4 restarts.
    pub fn new(k: usize, seed: u64) -> Self {
        Self { k, max_iter: 100, seed, n_init: 4 }
    }
}

/// Result of a k-means run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KMeansResult {
    /// Cluster centers, one row per cluster (`k × cols`).
    pub centers: Matrix,
    /// Cluster assignment per input row.
    pub assignments: Vec<usize>,
    /// Sum of squared distances of every point to its center.
    pub inertia: f64,
    /// Number of Lloyd iterations executed.
    pub iterations: usize,
}

impl KMeansResult {
    /// Number of points assigned to each cluster.
    pub fn cluster_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.centers.rows()];
        for &a in &self.assignments {
            sizes[a] += 1;
        }
        sizes
    }
}

/// Runs k-means++ + Lloyd iterations on `data`, taking the best of
/// `config.n_init` seeded restarts by inertia.
///
/// `k` is clamped to the number of rows. With `k == 0` or an empty matrix the
/// result has no centers and no assignments.
///
/// # Examples
///
/// ```
/// use simprof_stats::{kmeans, KMeans, Matrix};
///
/// let data = Matrix::from_rows(&[
///     vec![0.0, 0.1], vec![0.1, 0.0],    // blob A
///     vec![9.0, 9.1], vec![9.1, 9.0],    // blob B
/// ]);
/// let result = kmeans(&data, KMeans::new(2, 42));
/// assert_eq!(result.centers.rows(), 2);
/// assert_eq!(result.assignments[0], result.assignments[1]);
/// assert_ne!(result.assignments[0], result.assignments[2]);
/// ```
pub fn kmeans(data: &Matrix, config: KMeans) -> KMeansResult {
    kmeans_in(data, &RowGroups::of(data), config)
}

/// [`kmeans`] over `data`'s precomputed row groups.
pub(crate) fn kmeans_in(data: &Matrix, rows: &RowGroups, config: KMeans) -> KMeansResult {
    let restarts = config.n_init.max(1);
    let mut best: Option<KMeansResult> = None;
    for r in 0..restarts {
        let seed = config.seed.wrapping_add((r as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let result = kmeans_once(data, rows, KMeans { seed, n_init: 1, ..config });
        if best.as_ref().is_none_or(|b| result.inertia < b.inertia) {
            best = Some(result);
        }
    }
    best.expect("restarts >= 1")
}

fn kmeans_once(data: &Matrix, rows: &RowGroups, config: KMeans) -> KMeansResult {
    let n = data.rows();
    let k = config.k.min(n);
    if k == 0 || n == 0 {
        return KMeansResult {
            centers: Matrix::zeros(0, data.cols()),
            assignments: Vec::new(),
            inertia: 0.0,
            iterations: 0,
        };
    }

    let mut rng = seeded(config.seed);
    let centers = plus_plus_init(data, rows, k, &mut rng);
    lloyd_impl(data, rows, centers, config.max_iter, true)
}

/// Runs synchronous Lloyd iterations from the given initial `centers` until
/// the assignment stabilizes (or `max_iter`).
///
/// This is the warm-start entry point of the `choose_k` sweep: seeding with
/// the previous k's converged centers plus one fresh center typically
/// converges in a handful of iterations instead of a full cold run.
///
/// # Panics
///
/// Panics if `centers` has more rows than `data` or a different column count
/// (a center per point is the densest meaningful clustering).
pub fn kmeans_from_centers(data: &Matrix, centers: Matrix, max_iter: usize) -> KMeansResult {
    kmeans_from_centers_in(data, &RowGroups::of(data), centers, max_iter)
}

/// [`kmeans_from_centers`] over `data`'s precomputed row groups.
pub(crate) fn kmeans_from_centers_in(
    data: &Matrix,
    rows: &RowGroups,
    centers: Matrix,
    max_iter: usize,
) -> KMeansResult {
    kmeans_from_centers_impl(data, rows, centers, max_iter, true)
}

/// The unaccelerated reference Lloyd loop: a full `nearest_row` scan for
/// every point in every iteration, no distance bounds, and no row grouping
/// (every point is its own group).
///
/// Exists so the Hamerly-accelerated default ([`kmeans_from_centers`]) can be
/// property-tested bit-identical against it (see
/// `tests/parallel_equivalence.rs`); prefer the accelerated entry points for
/// real work.
pub fn kmeans_from_centers_reference(
    data: &Matrix,
    centers: Matrix,
    max_iter: usize,
) -> KMeansResult {
    kmeans_from_centers_impl(data, &RowGroups::identity(data.rows()), centers, max_iter, false)
}

fn kmeans_from_centers_impl(
    data: &Matrix,
    rows: &RowGroups,
    centers: Matrix,
    max_iter: usize,
    accel: bool,
) -> KMeansResult {
    assert!(centers.rows() <= data.rows(), "more centers than points");
    assert_eq!(centers.cols(), data.cols(), "center/point dimension mismatch");
    if centers.rows() == 0 || data.rows() == 0 {
        return KMeansResult {
            centers: Matrix::zeros(0, data.cols()),
            assignments: Vec::new(),
            inertia: 0.0,
            iterations: 0,
        };
    }
    lloyd_impl(data, rows, centers, max_iter, accel)
}

/// Multiplicative safety margins for the Hamerly bounds. Every upper bound is
/// inflated and every lower bound deflated by ~1e-9 relative at each update,
/// which dwarfs the accumulated floating-point rounding of the bound
/// arithmetic (≲ 100 iterations × machine epsilon ≈ 2e-14 relative) while
/// still skipping essentially every stable point. The margins make the skip
/// test conservative: a skip certifies the assigned center is the *strict*
/// minimum under Lloyd's own computed `sq_dist` comparisons, so the
/// accelerated loop can never diverge from the reference scan.
const BOUND_UP: f64 = 1.0 + 1e-9;
const BOUND_DOWN: f64 = 1.0 - 1e-9;

/// Below this much assignment work (`groups × k × cols`, the multiply-adds
/// of an exact scan of every group) the assignment step maps on the calling
/// thread instead of entering a pool region. Measured on a 2-vCPU VM at 2
/// threads, an exact scan of every group took 63 µs serially against 67 µs
/// in a region at 84 000 multiply-adds, and 99 against 73 µs at 140 000;
/// after the first iteration the bounds skip most groups, so the real step
/// is smaller than this estimate. Both paths collect in group order, so the
/// choice never changes a bit.
const SERIAL_ASSIGN_WORK: usize = 1 << 17;

/// Brent's cycle detection over the Lloyd state after each update step:
/// the center bits and the per-group `owner`. One saved state, taken at
/// iteration `at` and overwritten in place whenever the distance to it
/// reaches `power` (a power of two), so a cycle of period `p` entered at
/// iteration `μ` is found by iteration `μ + 2p` or so, with no allocation
/// after the first save.
#[derive(Default)]
struct CycleCheck {
    centers: Vec<f64>,
    owner: Vec<usize>,
    at: usize,
    /// 0 until the first save.
    power: usize,
}

impl CycleCheck {
    /// Records the state after iteration `iter`; returns the period when it
    /// repeats the saved state bit for bit.
    fn observe(&mut self, centers: &Matrix, owner: &[usize], iter: usize) -> Option<usize> {
        if self.power > 0 {
            let same_centers =
                self.centers.iter().zip(centers.as_flat()).all(|(a, b)| a.to_bits() == b.to_bits());
            if self.owner == owner && same_centers {
                return Some(iter - self.at);
            }
            if iter - self.at < self.power {
                return None;
            }
        }
        self.centers.clear();
        self.centers.extend_from_slice(centers.as_flat());
        self.owner.clear();
        self.owner.extend_from_slice(owner);
        self.at = iter;
        self.power = (self.power * 2).max(1);
        None
    }
}

/// The Lloyd loop shared by cold (k-means++) and warm starts. `k ≥ 1` and
/// `n ≥ k` are the caller's invariants.
///
/// With `accel`, the assignment step keeps Hamerly-style per-point bounds —
/// `upper[i]` ≥ distance to the assigned center, `lower[i]` ≤ distance to
/// every other center — and skips the full scan whenever
/// `upper[i] < max(lower[i], s[a])` (with `s[a]` half the distance from
/// center `a` to its nearest other center). Both conditions are strict and
/// margin-padded, so a skipped point provably keeps the exact assignment the
/// reference scan would produce (tie-breaks only arise on the exact path,
/// which *is* the reference scan). Center updates are byte-for-byte the same
/// code in both modes, so identical assignments yield identical centers,
/// iteration counts, and inertia bits. With `accel` the loop also jumps over
/// whole periods once its `(centers, owner)` state cycles ([`CycleCheck`]),
/// counting them in `stats.kmeans.skipped_iterations`; `iterations` still
/// reports every iteration the walk would have run.
///
/// The assignment state lives per row group (`owner`, `upper`, `lower`,
/// `last_sq` are indexed by group); `assignments` is its per-point
/// expansion, which the center update walks in ascending point order.
fn lloyd_impl(
    data: &Matrix,
    rows: &RowGroups,
    mut centers: Matrix,
    max_iter: usize,
    accel: bool,
) -> KMeansResult {
    let n = data.rows();
    let k = centers.rows();
    let u = rows.len();
    let mut assignments = vec![0usize; n];
    let mut iterations = 0;
    let mut owner = vec![0usize; u];
    let mut upper = vec![0.0f64; u];
    let mut lower = vec![0.0f64; u]; // 0 ⇒ the first iteration evaluates exactly
    let mut last_sq = vec![0.0f64; u];
    let mut converged = false;
    let mut reseed_in_last = false;
    let mut all_exact_last = false;
    let cols = data.cols();
    let serial = u * k * cols < SERIAL_ASSIGN_WORK;
    let last = max_iter.max(1);
    let mut cycle = accel.then(CycleCheck::default);
    let mut skipped = 0;

    let mut iter = 0;
    while iter < last {
        iterations = iter + 1;
        // Assignment step (deterministic tie-break to lower index). Each
        // group either proves its assignment unchanged from the bounds or
        // falls back to the exact scan, returning
        // (assignment, upper, lower, assigned sq-dist, was-exact).
        let skip_ok = accel && iter > 0;
        let s = if skip_ok { half_separation(&centers) } else { Vec::new() };
        let eval = |g: usize| {
            let a = owner[g];
            if skip_ok {
                let guard = if lower[g] > s[a] { lower[g] } else { s[a] };
                if upper[g] < guard {
                    return (a, upper[g], lower[g], last_sq[g], false);
                }
            }
            let (best, best_sq, second_sq) = nearest_two(&centers, data.row(rows.reps[g]));
            (best, best_sq.sqrt() * BOUND_UP, second_sq.sqrt() * BOUND_DOWN, best_sq, true)
        };
        let evals: Vec<(usize, f64, f64, f64, bool)> = if serial {
            (0..u).map(eval).collect()
        } else {
            (0..u).into_par_iter().map(eval).collect()
        };
        let all_exact = evals.iter().all(|e| e.4);
        let mut changed = false;
        for (g, e) in evals.into_iter().enumerate() {
            changed |= owner[g] != e.0;
            owner[g] = e.0;
            upper[g] = e.1;
            lower[g] = e.2;
            last_sq[g] = e.3;
        }
        for (a, &g) in assignments.iter_mut().zip(&rows.group) {
            *a = owner[g];
        }

        // Update step.
        let mut sums = Matrix::zeros(k, cols);
        let mut counts = vec![0usize; k];
        for (i, &a) in assignments.iter().enumerate() {
            counts[a] += 1;
            let row = data.row(i);
            let acc = sums.row_mut(a);
            for (s, &v) in acc.iter_mut().zip(row) {
                *s += v;
            }
        }
        // Empty clusters reseed to the farthest point from its current
        // center; `taken` keeps the picks distinct when several clusters go
        // empty in the same iteration (reusing one point would collapse them
        // right back together). At most k−1 clusters can be empty and k ≤ n,
        // so a distinct point always exists. The distances are the same for
        // every empty cluster, so the first one computes them for all, once
        // per row group.
        let mut far_sq: Vec<f64> = Vec::new();
        let mut taken: Vec<bool> = Vec::new();
        #[allow(clippy::needless_range_loop)] // `c` also indexes `sums` rows
        for c in 0..k {
            if counts[c] == 0 {
                if far_sq.is_empty() {
                    far_sq = (0..u)
                        .map(|g| Matrix::sq_dist(data.row(rows.reps[g]), centers.row(owner[g])))
                        .collect();
                    taken = vec![false; n];
                }
                let far_of = |i: usize| far_sq[rows.group[i]];
                let far = (0..n)
                    .filter(|&i| !taken[i])
                    .max_by(|&a, &b| {
                        far_of(a).partial_cmp(&far_of(b)).unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .expect("more points than empty clusters");
                taken[far] = true;
                sums.row_mut(c).copy_from_slice(data.row(far));
                counts[c] = 1;
            }
            let inv = 1.0 / counts[c] as f64;
            for v in sums.row_mut(c) {
                *v *= inv;
            }
        }

        if accel {
            // Bound maintenance: each center's drift loosens the bounds of
            // the points it serves (upper grows by its own center's drift,
            // lower shrinks by the largest drift of any center), with the
            // same margin padding. A reseeded center simply shows up as a
            // large drift — no special case needed.
            let mut max_drift = 0.0f64;
            let drifts: Vec<f64> = (0..k)
                .map(|c| {
                    let d = Matrix::dist(centers.row(c), sums.row(c)) * BOUND_UP;
                    if d > max_drift {
                        max_drift = d;
                    }
                    d
                })
                .collect();
            for (g, &a) in owner.iter().enumerate() {
                upper[g] = (upper[g] + drifts[a]) * BOUND_UP;
                let l = (lower[g] - max_drift) * BOUND_DOWN;
                lower[g] = if l > 0.0 { l } else { 0.0 };
            }
        }
        centers = sums;

        if !changed && iter > 0 {
            converged = true;
            reseed_in_last = !far_sq.is_empty();
            all_exact_last = all_exact;
            break;
        }

        // Cycle skip (DESIGN.md §15.2): once the state after this update
        // repeats an earlier one, the run walks that period with `changed`
        // set until `max_iter`, so whole periods are jumped over and only
        // the remainder runs.
        if let Some(period) = cycle.as_mut().and_then(|c| c.observe(&centers, &owner, iter)) {
            skipped = (last - 1 - iter) / period * period;
            iter += skipped;
            iterations += skipped;
            cycle = None;
        }
        iter += 1;
    }
    // The saved state is dead; free it before the final pass allocates.
    drop(cycle);
    if skipped > 0 {
        simprof_obs::counter_add("stats.kmeans.skipped_iterations", skipped as u64);
    }

    // Final inertia. On a convergence exit with no reseed in the final
    // update, the assignments did not change, so that update recomputed the
    // same sums as the previous one and the centers are bitwise the ones the
    // last assignment step measured against — the assignment-step distances
    // *are* the final distances, no second pass needed (when the whole final
    // step ran exactly). Either way the same per-point sum follows, so both
    // paths produce the same bits.
    if !(converged && !reseed_in_last && all_exact_last) {
        last_sq = (0..u)
            .map(|g| Matrix::sq_dist(data.row(rows.reps[g]), centers.row(owner[g])))
            .collect();
    }
    // One lookup per point is too little work for a pool region, so the sum
    // runs here with the pool's association: `SUM_CHUNK`-point partials,
    // folded in order.
    let inertia = (0..n)
        .step_by(SUM_CHUNK)
        .map(|s| (s..n.min(s + SUM_CHUNK)).map(|i| last_sq[rows.group[i]]).sum::<f64>())
        .sum();

    KMeansResult { centers, assignments, inertia, iterations }
}

/// Exact assignment scan: bit-compatible with [`Matrix::nearest_row`]
/// (same iteration order, same strict `<` tie-break toward the lower index),
/// additionally returning the best and second-best squared distances for the
/// Hamerly bounds. `second` is `∞` when `k == 1`.
fn nearest_two(centers: &Matrix, point: &[f64]) -> (usize, f64, f64) {
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    let mut second_d = f64::INFINITY;
    for (idx, c) in centers.iter_rows().enumerate() {
        let d = Matrix::sq_dist(c, point);
        if d < best_d {
            second_d = best_d;
            best_d = d;
            best = idx;
        } else if d < second_d {
            second_d = d;
        }
    }
    (best, best_d, second_d)
}

/// Half the distance from each center to its nearest other center, deflated
/// by the bound margin: if a point is strictly closer to its center than
/// `s[a]`, no other center can be closer. `∞` when there is a single center.
fn half_separation(centers: &Matrix) -> Vec<f64> {
    let k = centers.rows();
    (0..k)
        .map(|c| {
            let mut min_d = f64::INFINITY;
            for j in 0..k {
                if j != c {
                    let d = Matrix::dist(centers.row(c), centers.row(j));
                    if d < min_d {
                        min_d = d;
                    }
                }
            }
            0.5 * min_d * BOUND_DOWN
        })
        .collect()
}

/// k-means++ seeding: first center uniform, subsequent centers sampled with
/// probability proportional to squared distance from the nearest chosen
/// center. Distances are computed per row group; the totals and the
/// sampling scan walk every point.
fn plus_plus_init(data: &Matrix, rows: &RowGroups, k: usize, rng: &mut SeedRng) -> Matrix {
    let n = data.rows();
    let cols = data.cols();
    let mut centers = Matrix::zeros(k, cols);
    let first = rng.random_range(0..n);
    centers.row_mut(0).copy_from_slice(data.row(first));

    let mut d2: Vec<f64> =
        rows.reps.iter().map(|&r| Matrix::sq_dist(data.row(r), centers.row(0))).collect();
    for c in 1..k {
        let pick = sample_by_sq_dist(rows, &d2, rng);
        centers.row_mut(c).copy_from_slice(data.row(pick));
        for (d, &r) in d2.iter_mut().zip(&rows.reps) {
            let nd = Matrix::sq_dist(data.row(r), centers.row(c));
            if nd < *d {
                *d = nd;
            }
        }
    }
    centers
}

/// The ++ draw: a point with probability proportional to its squared
/// distance `d2[group]` from the nearest chosen center, or uniformly when
/// every point sits on a center. The total and the scan add per point in
/// ascending order.
pub(crate) fn sample_by_sq_dist(rows: &RowGroups, d2: &[f64], rng: &mut SeedRng) -> usize {
    let n = rows.group.len();
    let total: f64 = rows.group.iter().map(|&g| d2[g]).sum();
    if total <= 0.0 {
        return rng.random_range(0..n);
    }
    let mut target = rng.random::<f64>() * total;
    for (i, &g) in rows.group.iter().enumerate() {
        target -= d2[g];
        if target <= 0.0 {
            return i;
        }
    }
    n - 1
}

/// Opt-in mini-batch k-means (Sculley-style) for the future streaming path.
///
/// Each of up to `config.max_iter` rounds draws `batch_size` seeded random
/// samples and takes one incremental step per sample with learning rate
/// `1 / count(c)`, which keeps every center at the running mean of the
/// samples it has absorbed. Deterministic given `config.seed` (samples are
/// drawn and applied serially); stops early when a whole batch moves the
/// centers by less than 1e-12. The returned assignments and inertia come
/// from one final full hard-assignment pass against the learned centers.
///
/// This trades the exact-Lloyd guarantees of [`kmeans`] for `O(batch)` work
/// per round — use it when the data no longer fits a full pass per
/// iteration, not as a drop-in replacement.
pub fn kmeans_minibatch(data: &Matrix, config: KMeans, batch_size: usize) -> KMeansResult {
    let n = data.rows();
    let k = config.k.min(n);
    if k == 0 || n == 0 {
        return KMeansResult {
            centers: Matrix::zeros(0, data.cols()),
            assignments: Vec::new(),
            inertia: 0.0,
            iterations: 0,
        };
    }
    let mut rng = seeded(config.seed);
    let mut centers = plus_plus_init(data, &RowGroups::of(data), k, &mut rng);
    let b = batch_size.clamp(1, n);
    let mut counts = vec![0u64; k];
    let mut iterations = 0;
    for _ in 0..config.max_iter.max(1) {
        iterations += 1;
        let mut moved_sq = 0.0f64;
        for _ in 0..b {
            let i = rng.random_range(0..n);
            let x = data.row(i);
            let c = Matrix::nearest_row(&centers, x).expect("k >= 1");
            counts[c] += 1;
            let eta = 1.0 / counts[c] as f64;
            for (cv, &xv) in centers.row_mut(c).iter_mut().zip(x) {
                let step = eta * (xv - *cv);
                moved_sq += step * step;
                *cv += step;
            }
        }
        if moved_sq <= 1e-24 {
            break;
        }
    }

    let assignments: Vec<usize> = (0..n)
        .into_par_iter()
        .map(|i| Matrix::nearest_row(&centers, data.row(i)).expect("k >= 1"))
        .collect();
    let inertia = (0..n)
        .into_par_iter()
        .map(|i| Matrix::sq_dist(data.row(i), centers.row(assignments[i])))
        .sum();
    KMeansResult { centers, assignments, inertia, iterations }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> Matrix {
        let mut rows = Vec::new();
        for i in 0..20 {
            rows.push(vec![0.0 + (i as f64) * 0.01, 0.0]);
            rows.push(vec![10.0 + (i as f64) * 0.01, 10.0]);
        }
        Matrix::from_rows(&rows)
    }

    #[test]
    fn separates_two_blobs() {
        let data = two_blobs();
        let r = kmeans(&data, KMeans::new(2, 42));
        assert_eq!(r.centers.rows(), 2);
        // All even rows (blob A) share a cluster, all odd rows (blob B) the other.
        let a = r.assignments[0];
        let b = r.assignments[1];
        assert_ne!(a, b);
        for i in 0..40 {
            assert_eq!(r.assignments[i], if i % 2 == 0 { a } else { b });
        }
        assert!(r.inertia < 1.0, "inertia {}", r.inertia);
    }

    #[test]
    fn deterministic_per_seed() {
        let data = two_blobs();
        let r1 = kmeans(&data, KMeans::new(3, 7));
        let r2 = kmeans(&data, KMeans::new(3, 7));
        assert_eq!(r1.assignments, r2.assignments);
        assert_eq!(r1.centers, r2.centers);
    }

    #[test]
    fn k_clamped_to_n() {
        let data = Matrix::from_rows(&[vec![1.0], vec![2.0]]);
        let r = kmeans(&data, KMeans::new(5, 1));
        assert_eq!(r.centers.rows(), 2);
        assert_eq!(r.assignments.len(), 2);
    }

    #[test]
    fn k_zero_or_empty() {
        let data = Matrix::from_rows(&[vec![1.0]]);
        let r = kmeans(&data, KMeans::new(0, 1));
        assert!(r.assignments.is_empty());
        let empty = Matrix::zeros(0, 3);
        let r = kmeans(&empty, KMeans::new(2, 1));
        assert!(r.assignments.is_empty());
    }

    #[test]
    fn identical_points_single_effective_cluster() {
        let data = Matrix::from_rows(&vec![vec![3.0, 3.0]; 10]);
        let r = kmeans(&data, KMeans::new(3, 11));
        // All points distance 0 from every center; inertia must be 0.
        assert_eq!(r.inertia, 0.0);
        assert_eq!(r.assignments.len(), 10);
    }

    #[test]
    fn k1_center_is_mean() {
        let data = Matrix::from_rows(&[vec![0.0], vec![2.0], vec![4.0]]);
        let r = kmeans(&data, KMeans::new(1, 3));
        assert!((r.centers.get(0, 0) - 2.0).abs() < 1e-12);
        assert_eq!(r.cluster_sizes(), vec![3]);
    }

    #[test]
    fn inertia_decreases_with_k() {
        let data = two_blobs();
        let i1 = kmeans(&data, KMeans::new(1, 5)).inertia;
        let i2 = kmeans(&data, KMeans::new(2, 5)).inertia;
        assert!(i2 < i1);
    }

    #[test]
    fn cluster_sizes_sum_to_n() {
        let data = two_blobs();
        let r = kmeans(&data, KMeans::new(4, 9));
        assert_eq!(r.cluster_sizes().iter().sum::<usize>(), 40);
    }

    #[test]
    fn simultaneous_empty_clusters_reseed_to_distinct_points() {
        // Initial centers: center 0 sits on the data, centers 1–3 are so far
        // away that every point assigns to center 0 — three clusters go
        // empty in the same iteration. The reseed must hand each a
        // *different* point or they collapse into duplicates.
        let data = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]);
        let init = Matrix::from_rows(&[vec![0.0], vec![1000.0], vec![2000.0], vec![3000.0]]);
        let r = kmeans_from_centers(&data, init, 50);
        let sizes = r.cluster_sizes();
        assert!(sizes.iter().all(|&s| s == 1), "each point its own cluster: {sizes:?}");
        for a in 0..4 {
            for b in (a + 1)..4 {
                assert_ne!(r.centers.row(a), r.centers.row(b), "centers {a} and {b} collapsed");
            }
        }
        assert_eq!(r.inertia, 0.0);
    }

    #[test]
    fn empty_cluster_reseed_tie_goes_to_the_last_farthest_point() {
        // Center 1 starts empty; points 0 and 1 tie as the farthest from
        // their center (distance 1 each). `max_by` keeps the last maximum,
        // so center 1 reseeds onto point 1 and every point ends up alone.
        let data = Matrix::from_rows(&[vec![-1.0], vec![1.0], vec![10.0]]);
        let init = Matrix::from_rows(&[vec![0.0], vec![100.0], vec![10.0]]);
        for r in [
            kmeans_from_centers(&data, init.clone(), 50),
            kmeans_from_centers_reference(&data, init, 50),
        ] {
            assert_eq!(r.assignments, vec![0, 1, 2]);
            assert_eq!(r.centers, data);
        }
    }

    #[test]
    fn warm_start_converges_and_matches_quality() {
        let data = two_blobs();
        let cold = kmeans(&data, KMeans::new(2, 42));
        // Warm-start from slightly perturbed converged centers.
        let mut init = cold.centers.clone();
        for v in init.row_mut(0) {
            *v += 0.05;
        }
        let warm = kmeans_from_centers(&data, init, 100);
        assert_eq!(warm.assignments, cold.assignments);
        assert!(warm.iterations <= cold.iterations);
        assert!((warm.inertia - cold.inertia).abs() < 1e-9);
    }

    #[test]
    fn accelerated_matches_reference_bitwise() {
        // Same init ⇒ the Hamerly loop and the plain scan must agree on every
        // bit: assignments, centers, iteration count, inertia.
        let data = two_blobs();
        for seed in [1u64, 7, 42, 1234] {
            for k in [1usize, 2, 3, 5] {
                let init = plus_plus_init(&data, &RowGroups::of(&data), k, &mut seeded(seed));
                let fast = kmeans_from_centers(&data, init.clone(), 100);
                let slow = kmeans_from_centers_reference(&data, init, 100);
                assert_eq!(fast.assignments, slow.assignments, "seed {seed} k {k}");
                assert_eq!(fast.centers, slow.centers, "seed {seed} k {k}");
                assert_eq!(fast.iterations, slow.iterations, "seed {seed} k {k}");
                assert_eq!(fast.inertia.to_bits(), slow.inertia.to_bits(), "seed {seed} k {k}");
            }
        }
    }

    #[test]
    fn accelerated_matches_reference_on_identical_points() {
        // Everything ties everywhere: the bounds all sit at zero, so every
        // point must take the exact path and reproduce the tie-breaks.
        let data = Matrix::from_rows(&vec![vec![2.0, 2.0]; 8]);
        let init = plus_plus_init(&data, &RowGroups::of(&data), 3, &mut seeded(9));
        let fast = kmeans_from_centers(&data, init.clone(), 50);
        let slow = kmeans_from_centers_reference(&data, init, 50);
        assert_eq!(fast.assignments, slow.assignments);
        assert_eq!(fast.inertia.to_bits(), slow.inertia.to_bits());
    }

    #[test]
    fn converged_inertia_reuse_matches_recompute() {
        // The reference path reuses assignment-step distances on a
        // convergence exit; an independent recomputation must agree exactly.
        let data = two_blobs();
        let r = kmeans(&data, KMeans::new(2, 42));
        let recomputed: f64 = (0..data.rows())
            .map(|i| Matrix::sq_dist(data.row(i), r.centers.row(r.assignments[i])))
            .sum();
        assert!((r.inertia - recomputed).abs() <= 1e-12 * recomputed.max(1.0));
    }

    #[test]
    fn minibatch_deterministic_and_separates_blobs() {
        let data = two_blobs();
        let config = KMeans::new(2, 42);
        let r1 = kmeans_minibatch(&data, config, 16);
        let r2 = kmeans_minibatch(&data, config, 16);
        assert_eq!(r1.assignments, r2.assignments);
        assert_eq!(r1.centers, r2.centers);
        assert_eq!(r1.inertia.to_bits(), r2.inertia.to_bits());
        let a = r1.assignments[0];
        let b = r1.assignments[1];
        assert_ne!(a, b);
        for i in 0..40 {
            assert_eq!(r1.assignments[i], if i % 2 == 0 { a } else { b });
        }
        // Stochastic centers land near the Lloyd optimum on clean blobs.
        let full = kmeans(&data, config);
        assert!(r1.inertia <= full.inertia * 4.0 + 1.0, "{} vs {}", r1.inertia, full.inertia);
    }

    #[test]
    fn minibatch_degenerate_inputs() {
        let r = kmeans_minibatch(&Matrix::zeros(0, 3), KMeans::new(2, 1), 8);
        assert!(r.assignments.is_empty());
        let data = Matrix::from_rows(&[vec![1.0], vec![2.0]]);
        let r = kmeans_minibatch(&data, KMeans::new(5, 1), 100);
        assert_eq!(r.centers.rows(), 2);
        assert_eq!(r.assignments.len(), 2);
    }

    #[test]
    fn from_centers_rejects_mismatched_dims() {
        let data = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let init = Matrix::from_rows(&[vec![1.0]]);
        assert!(std::panic::catch_unwind(|| kmeans_from_centers(&data, init, 10)).is_err());
    }
}
