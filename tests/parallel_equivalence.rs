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
    choose_k, kmeans_from_centers, kmeans_from_centers_reference, kmeans_sweep, silhouette_score,
    silhouette_score_cached, silhouette_scores, DistCache, Matrix,
};
use simprof::workloads::{Benchmark, Framework, WorkloadConfig};

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

/// Strategy: a feature matrix with latent block structure — `rows` points,
/// `cols` features, values loud on one band per latent behaviour. Rows
/// reach past several 64-point silhouette chunks (and are mostly not
/// multiples of the 8-point lane block); columns cover both `Matrix::dot`
/// shapes, tail only (< 16) and full 16-lane blocks (≥ 16).
fn matrix_strategy() -> impl Strategy<Value = Matrix> {
    (3usize..150, 1usize..40, 2usize..5, any::<u64>()).prop_map(|(rows, cols, bands, seed)| {
        let data: Vec<Vec<f64>> = (0..rows)
            .map(|i| {
                (0..cols)
                    .map(|j| {
                        let loud = j % bands == i % bands;
                        let noise =
                            ((i * 31 + j * 7) as u64 ^ seed).wrapping_mul(0x9E37_79B9) % 1000;
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
    })
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
