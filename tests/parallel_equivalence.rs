//! Parallel/sequential equivalence: the threaded substrate must produce
//! **bit-identical** results to 1-thread mode for every analysis entry point
//! and for a full profiling run (DESIGN.md §10's determinism contract),
//! across random data and seeds.
//!
//! These tests mutate the process-wide worker-count override, so they all
//! live in this one integration-test binary (its own process) and serialize
//! on a lock.

use std::sync::Mutex;

use proptest::prelude::*;

use simprof::engine::FaultPlan;
use simprof::stats::{
    choose_k, kmeans_from_centers, kmeans_from_centers_reference, kmeans_sweep,
    kmeans_sweep_reference, silhouette_score, silhouette_scores, KMeansResult, Matrix,
};
use simprof::workloads::{Benchmark, Framework, WorkloadConfig};

/// The dense-matrix silhouette reference, shared with `simprof-stats`'s own
/// suite.
#[path = "../crates/stats/tests/support/mod.rs"]
mod support;
use support::{silhouette_score_cached, DistCache};

/// Serializes tests that flip the global worker-count override.
static THREADS_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` twice — pinned to 1 worker and to `threads` workers — and
/// returns both results, restoring the default afterwards.
fn one_vs_many<R>(threads: usize, f: impl Fn() -> R) -> (R, R) {
    let _guard = THREADS_LOCK.lock().unwrap();
    rayon::set_threads(1);
    let one = f();
    rayon::set_threads(threads);
    let many = f();
    rayon::set_threads(0);
    (one, many)
}

/// Runs `f` pinned to `threads` workers, restoring the default afterwards.
fn at_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let _guard = THREADS_LOCK.lock().unwrap();
    rayon::set_threads(threads);
    let r = f();
    rayon::set_threads(0);
    r
}

/// Strategy: a feature matrix with latent block structure — `rows` points,
/// `cols` features, values loud on one band per latent behaviour. Rows
/// reach past several 64-point silhouette chunks (and are mostly not
/// multiples of the 8-point lane block); columns cover both `Matrix::dot`
/// shapes, tail only (< 16) and full 16-lane blocks (≥ 16).
fn matrix_strategy() -> impl Strategy<Value = Matrix> {
    (3usize..150, 1usize..40, 2usize..5, any::<u64>())
        .prop_map(|(rows, cols, bands, seed)| banded(rows, cols, bands, seed))
}

/// The banded matrix behind [`matrix_strategy`]: row `i` is loud on the
/// columns `j ≡ i (mod bands)`, plus a small seeded noise that keeps the
/// rows distinct.
fn banded(rows: usize, cols: usize, bands: usize, seed: u64) -> Matrix {
    let data: Vec<Vec<f64>> = (0..rows)
        .map(|i| {
            (0..cols)
                .map(|j| {
                    let loud = j % bands == i % bands;
                    let noise = ((i * 31 + j * 7) as u64 ^ seed).wrapping_mul(0x9E37_79B9) % 1000;
                    if loud {
                        5.0 + noise as f64 * 1e-3
                    } else {
                        noise as f64 * 1e-3
                    }
                })
                .collect()
        })
        .collect();
    Matrix::from_rows(&data)
}

/// Strategy: a duplicate-heavy feature matrix like a profiled trace's —
/// 3..300 rows drawn with repetition from a pool of 1..40 patterns whose
/// values are multiples of 0.1, with column counts on both `Matrix::dot`
/// shapes. The first and last pattern differ only in the sign of a zero,
/// which the row grouping must keep apart.
fn quantized_matrix_strategy() -> impl Strategy<Value = Matrix> {
    (3usize..300, 1usize..40, 1usize..40, any::<u64>()).prop_map(|(rows, cols, patterns, seed)| {
        let mix = |x: u64| ((x ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize;
        let mut pool: Vec<Vec<f64>> = (0..patterns)
            .map(|p| (0..cols).map(|j| (mix((p * 64 + j) as u64) % 50) as f64 * 0.1).collect())
            .collect();
        pool[0][0] = 0.0;
        if patterns > 1 {
            pool[patterns - 1] = pool[0].clone();
            pool[patterns - 1][0] = -0.0;
        }
        let data: Vec<Vec<f64>> =
            (0..rows).map(|i| pool[mix((i as u64) << 20) % patterns].clone()).collect();
        Matrix::from_rows(&data)
    })
}

/// Strategy: 3..200 rows drawn from a pool of 1..7 patterns, with a `k_max`
/// of one to six above the pattern count, so the sweep's later runs empty
/// clusters, reseed them and cycle. With `nan`, one entry of one row is
/// NaN, which makes the reseed distances NaN and sends the reseed back to
/// the point scan.
fn few_distinct_strategy(nan: bool) -> impl Strategy<Value = (Matrix, usize)> {
    (3usize..200, 1usize..20, 1usize..7, any::<u64>()).prop_map(
        move |(rows, cols, patterns, seed)| {
            let mix = |x: u64| ((x ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize;
            let pool: Vec<Vec<f64>> = (0..patterns)
                .map(|p| (0..cols).map(|j| (mix((p * 64 + j) as u64) % 50) as f64 * 0.1).collect())
                .collect();
            let mut data: Vec<Vec<f64>> =
                (0..rows).map(|i| pool[mix((i as u64) << 20) % patterns].clone()).collect();
            if nan {
                data[mix(1 << 50) % rows][mix(1 << 51) % cols] = f64::NAN;
            }
            (Matrix::from_rows(&data), patterns + 1 + seed as usize % 6)
        },
    )
}

/// Holds `kmeans_sweep` and `choose_k` at 1, 2 and 8 threads to the serial,
/// per-point, unaccelerated `kmeans_sweep_reference`, bit for bit: every
/// candidate's assignments, centers, inertia and iteration count, every
/// score, and the chosen clustering.
fn assert_sweep_matches_reference(m: &Matrix, k_max: usize, seed: u64) {
    let reference = kmeans_sweep_reference(m, k_max, seed);
    let labels: Vec<&[usize]> = reference.iter().map(|r| r.assignments.as_slice()).collect();
    let scores = silhouette_scores(m, &labels);
    for threads in [1, 2, 8] {
        let (sweep, sel) = at_threads(threads, || {
            (kmeans_sweep(m, k_max, seed), choose_k(m, k_max, 0.9, 0.25, seed))
        });
        assert_eq!(sweep.len(), reference.len());
        for (k, (got, want)) in (2..).zip(sweep.iter().zip(&reference)) {
            assert_eq!(got.assignments, want.assignments, "{threads} threads, k = {k}");
            assert_eq!(center_bits(got), center_bits(want), "{threads} threads, k = {k}");
            assert_eq!(got.inertia.to_bits(), want.inertia.to_bits(), "{threads} threads, k = {k}");
            assert_eq!(got.iterations, want.iterations, "{threads} threads, k = {k}");
        }
        assert_eq!(sel.scores.len(), scores.len());
        for (&(k, got), want) in sel.scores.iter().zip(&scores) {
            assert_eq!(got.to_bits(), want.to_bits(), "{threads} threads, score at k = {k}");
        }
        if sel.k >= 2 {
            let want = &reference[sel.k - 2];
            assert_eq!(sel.result.assignments, want.assignments, "{threads} threads");
            assert_eq!(center_bits(&sel.result), center_bits(want), "{threads} threads");
            assert_eq!(sel.result.inertia.to_bits(), want.inertia.to_bits(), "{threads} threads");
        }
    }
}

/// The bits of a k-means result's centers (NaN-safe, unlike `==`).
fn center_bits(r: &KMeansResult) -> Vec<u64> {
    (0..r.centers.rows()).flat_map(|c| r.centers.row(c).to_vec()).map(f64::to_bits).collect()
}

/// A labelling of `n` points with a singleton cluster (label 0, point 0),
/// an empty cluster (label 1 is never used), `groups` scattered clusters,
/// and a trailing singleton when `n` allows.
fn ragged_labels(n: usize, groups: usize, salt: u64) -> Vec<usize> {
    (0..n)
        .map(|i| match i {
            0 => 0,
            _ if i + 1 == n && n > 3 => 2 + groups,
            _ => {
                2 + ((i as u64 ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize % groups
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `choose_k` — the whole phase-formation sweep, including the distance
    /// cache, warm starts, and the parallel Lloyd iterations — is
    /// bit-identical between 1-thread and N-thread runs.
    #[test]
    fn choose_k_bit_identical_across_thread_counts(
        m in matrix_strategy(),
        seed in any::<u64>(),
        threads in 2usize..6,
    ) {
        let (one, many) = one_vs_many(threads, || choose_k(&m, 8, 0.9, 0.25, seed));
        prop_assert_eq!(one.k, many.k);
        prop_assert_eq!(&one.result.assignments, &many.result.assignments);
        prop_assert_eq!(&one.result.centers, &many.result.centers);
        prop_assert_eq!(one.result.inertia.to_bits(), many.result.inertia.to_bits());
        prop_assert_eq!(one.scores.len(), many.scores.len());
        for (&(ka, sa), &(kb, sb)) in one.scores.iter().zip(&many.scores) {
            prop_assert_eq!(ka, kb);
            prop_assert_eq!(sa.to_bits(), sb.to_bits(), "score bits differ at k = {}", ka);
        }
    }

    /// Both silhouette paths (naive and distance-cached) are bit-identical
    /// across thread counts, and the cached path tracks the naive one to
    /// 1e-12.
    #[test]
    fn silhouette_bit_identical_across_thread_counts(
        m in matrix_strategy(),
        k in 2usize..5,
        threads in 2usize..6,
    ) {
        let assignments: Vec<usize> = (0..m.rows()).map(|i| i % k).collect();
        let (one, many) = one_vs_many(threads, || {
            let naive = silhouette_score(&m, &assignments);
            let cached = silhouette_score_cached(&DistCache::build(&m), &assignments);
            (naive, cached)
        });
        prop_assert_eq!(one.0.to_bits(), many.0.to_bits());
        prop_assert_eq!(one.1.to_bits(), many.1.to_bits());
        prop_assert!((one.0 - one.1).abs() <= 1e-12, "naive {} vs cached {}", one.0, one.1);
    }

    /// The fused one-pass silhouette scoring behind `choose_k` returns, for
    /// every candidate of a sweep and for a labelling with singleton and
    /// empty clusters, the exact bits of the reference `DistCache` +
    /// `silhouette_score_cached` arithmetic — at 1 thread and at N — and
    /// `choose_k` reports exactly those scores.
    #[test]
    fn fused_silhouette_bit_identical_to_cached_reference(
        m in matrix_strategy(),
        seed in any::<u64>(),
        groups in 1usize..4,
        salt in any::<u64>(),
        threads in 2usize..6,
    ) {
        let mut clusterings: Vec<Vec<usize>> =
            kmeans_sweep(&m, 8, seed).into_iter().map(|r| r.assignments).collect();
        let candidates = clusterings.len();
        clusterings.push(ragged_labels(m.rows(), groups, salt));
        let refs: Vec<&[usize]> = clusterings.iter().map(Vec::as_slice).collect();
        let (one, many) = one_vs_many(threads, || silhouette_scores(&m, &refs));
        let cache = DistCache::build(&m);
        for (t, a) in refs.iter().enumerate() {
            let reference = silhouette_score_cached(&cache, a).to_bits();
            prop_assert_eq!(one[t].to_bits(), reference, "1 thread, clustering {}", t);
            prop_assert_eq!(many[t].to_bits(), reference, "{} threads, clustering {}", threads, t);
        }
        let sel = choose_k(&m, 8, 0.9, 0.25, seed);
        prop_assert_eq!(sel.scores.len(), candidates);
        for (&(_, s), f) in sel.scores.iter().zip(&one) {
            prop_assert_eq!(s.to_bits(), f.to_bits());
        }
    }

    /// The Hamerly-accelerated Lloyd loop (the default behind `kmeans` and
    /// `choose_k`) produces **bit-identical** assignments, centers, inertia,
    /// and iteration counts to the unaccelerated reference scan from the
    /// same initial centers — the bounds only skip distance computations
    /// whose outcome is already certain.
    #[test]
    fn accelerated_kmeans_bit_identical_to_reference_lloyd(
        m in matrix_strategy(),
        k in 1usize..6,
        threads in 2usize..6,
    ) {
        let k = k.min(m.rows());
        let init: Vec<Vec<f64>> = (0..k).map(|i| m.row(i).to_vec()).collect();
        let (one, many) = one_vs_many(threads, || {
            let accel = kmeans_from_centers(&m, Matrix::from_rows(&init), 100);
            let reference = kmeans_from_centers_reference(&m, Matrix::from_rows(&init), 100);
            (accel, reference)
        });
        for (accel, reference) in [&one, &many] {
            prop_assert_eq!(&accel.assignments, &reference.assignments);
            prop_assert_eq!(&accel.centers, &reference.centers);
            prop_assert_eq!(accel.inertia.to_bits(), reference.inertia.to_bits());
            prop_assert_eq!(accel.iterations, reference.iterations);
        }
        prop_assert_eq!(one.0.inertia.to_bits(), many.0.inertia.to_bits());
        prop_assert_eq!(&one.0.assignments, &many.0.assignments);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On duplicate-heavy data, where the fused pass scores each distinct
    /// row once and every point reads its group's silhouette, the scores of
    /// every sweep candidate and of a labelling that splits duplicates
    /// across clusters carry the reference's bits at 1 and N threads.
    #[test]
    fn fused_silhouette_on_duplicate_rows_bit_identical_to_cached_reference(
        m in quantized_matrix_strategy(),
        seed in any::<u64>(),
        groups in 1usize..4,
        salt in any::<u64>(),
        threads in 2usize..6,
    ) {
        let mut clusterings: Vec<Vec<usize>> =
            kmeans_sweep(&m, 8, seed).into_iter().map(|r| r.assignments).collect();
        clusterings.push(ragged_labels(m.rows(), groups, salt));
        let refs: Vec<&[usize]> = clusterings.iter().map(Vec::as_slice).collect();
        let (one, many) = one_vs_many(threads, || silhouette_scores(&m, &refs));
        let cache = DistCache::build(&m);
        for (t, a) in refs.iter().enumerate() {
            let reference = silhouette_score_cached(&cache, a).to_bits();
            prop_assert_eq!(one[t].to_bits(), reference, "1 thread, clustering {}", t);
            prop_assert_eq!(many[t].to_bits(), reference, "{} threads, clustering {}", threads, t);
        }
    }

    /// On duplicate-heavy data the grouped, accelerated Lloyd loop carries
    /// the per-point reference scan's bits: assignments, centers, inertia
    /// and iteration counts, at 1 and N threads.
    #[test]
    fn accelerated_kmeans_on_duplicate_rows_bit_identical_to_reference_lloyd(
        m in quantized_matrix_strategy(),
        k in 1usize..8,
        threads in 2usize..6,
    ) {
        let k = k.min(m.rows());
        let init: Vec<Vec<f64>> = (0..k).map(|i| m.row(i * m.rows() / k).to_vec()).collect();
        let (one, many) = one_vs_many(threads, || {
            let accel = kmeans_from_centers(&m, Matrix::from_rows(&init), 100);
            let reference = kmeans_from_centers_reference(&m, Matrix::from_rows(&init), 100);
            (accel, reference)
        });
        for (accel, reference) in [&one, &many] {
            prop_assert_eq!(&accel.assignments, &reference.assignments);
            prop_assert_eq!(center_bits(accel), center_bits(reference));
            prop_assert_eq!(accel.inertia.to_bits(), reference.inertia.to_bits());
            prop_assert_eq!(accel.iterations, reference.iterations);
        }
        prop_assert_eq!(&one.0.assignments, &many.0.assignments);
        prop_assert_eq!(one.0.inertia.to_bits(), many.0.inertia.to_bits());
    }

    /// `choose_k` on duplicate-heavy data is bit-identical between 1 and N
    /// threads and reports exactly the reference scores of its sweep.
    #[test]
    fn choose_k_on_duplicate_rows_bit_identical_and_pinned_to_reference(
        m in quantized_matrix_strategy(),
        seed in any::<u64>(),
        threads in 2usize..6,
    ) {
        let (one, many) = one_vs_many(threads, || choose_k(&m, 8, 0.9, 0.25, seed));
        prop_assert_eq!(one.k, many.k);
        prop_assert_eq!(&one.result.assignments, &many.result.assignments);
        prop_assert_eq!(center_bits(&one.result), center_bits(&many.result));
        prop_assert_eq!(one.result.inertia.to_bits(), many.result.inertia.to_bits());
        let cache = DistCache::build(&m);
        let sweep = kmeans_sweep(&m, 8, seed);
        prop_assert_eq!(one.scores.len(), sweep.len());
        for ((&(ka, sa), &(kb, sb)), r) in one.scores.iter().zip(&many.scores).zip(&sweep) {
            prop_assert_eq!(ka, kb);
            prop_assert_eq!(sa.to_bits(), sb.to_bits(), "1-vs-N score bits differ at k = {}", ka);
            let reference = silhouette_score_cached(&cache, &r.assignments).to_bits();
            prop_assert_eq!(sa.to_bits(), reference, "score differs from reference at k = {}", ka);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Few distinct rows and more candidates than distinct rows: the runs
    /// that empty clusters reseed per row group, keep unchanged centers and
    /// cycle, and the warm and cold runs of a `k` often tie on inertia.
    #[test]
    fn sweep_on_few_distinct_rows_bit_identical_to_reference(
        (m, k_max) in few_distinct_strategy(false),
        seed in any::<u64>(),
    ) {
        assert_sweep_matches_reference(&m, k_max, seed);
    }

    /// One NaN entry: the reseed falls back to the point scan.
    #[test]
    fn sweep_with_a_nan_row_bit_identical_to_reference(
        (m, k_max) in few_distinct_strategy(true),
        seed in any::<u64>(),
    ) {
        assert_sweep_matches_reference(&m, k_max, seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// All-distinct rows wide enough that the Lloyd assignment step reaches
    /// its pool-region size at `k = 8` (`u · k · cols ≥ 2¹⁷`, the stats
    /// crate's `SERIAL_ASSIGN_WORK`); inside the sweep's `join` that region
    /// runs inline.
    #[test]
    fn sweep_on_wide_distinct_rows_bit_identical_to_reference(
        rows in 240usize..320,
        cols in 80usize..100,
        bands in 2usize..5,
        seed in any::<u64>(),
    ) {
        let m = banded(rows, cols, bands, seed);
        prop_assert!(rows * 8 * cols >= 1 << 17);
        assert_sweep_matches_reference(&m, 8, seed);
    }
}

/// The worker-thread count must leave **the trace bytes** — the serialized
/// [`simprof::profiler::ProfileTrace`], i.e. every sampling unit's
/// counters, stacks, and fault events — bit-identical to a 1-thread run,
/// here across full engine+profiler workload runs with GC noise and a
/// chaotic (non-speculative) fault plan. The scheduler runs every turn on
/// the calling thread; this pins that the workload build and the profiler
/// around it keep that property too.
#[test]
fn parallel_simulation_trace_bytes_identical_across_thread_counts() {
    let _guard = THREADS_LOCK.lock().unwrap();
    let run = || {
        let mut cfg = WorkloadConfig::tiny(7);
        cfg.sched.faults = FaultPlan { speculative: false, ..FaultPlan::uniform(90_000, 13) };
        let trace = Benchmark::WordCount.run(Framework::Spark, &cfg);
        serde_json::to_string(&trace).expect("trace serializes").into_bytes()
    };
    rayon::set_threads(1);
    let serial_bytes = run();
    for threads in [2, 8] {
        rayon::set_threads(threads);
        let parallel_bytes = run();
        assert_eq!(
            serial_bytes, parallel_bytes,
            "trace bytes diverged between 1 and {threads} threads"
        );
    }
    rayon::set_threads(0);
}
