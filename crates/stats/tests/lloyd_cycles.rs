//! The Lloyd loop's cycle skip: on inputs with few distinct rows and more
//! clusters than rows, runs never converge and settle into an exact cycle
//! of states, which the accelerated loop jumps over (DESIGN.md §15.2). The
//! jump must leave every output bit as the full walk leaves it, so each
//! case here holds the accelerated loop to the unaccelerated reference,
//! which walks every iteration.
//!
//! One test flips the process-wide worker count; the others' results do
//! not depend on it.

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use simprof_obs::ObsContext;
use simprof_stats::{
    choose_k, kmeans_from_centers, kmeans_from_centers_reference, KMeansResult, Matrix,
};

const SKIPPED: &str = "stats.kmeans.skipped_iterations";

/// The bits of a k-means result's centers (NaN-safe, unlike `==`).
fn center_bits(r: &KMeansResult) -> Vec<u64> {
    (0..r.centers.rows()).flat_map(|c| r.centers.row(c).to_vec()).map(f64::to_bits).collect()
}

/// Runs `f` under a fresh observability context and returns its result with
/// the iterations the cycle skip jumped over.
fn counting_skips<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let ctx = ObsContext::new();
    let out = {
        let _installed = ctx.install();
        f()
    };
    (out, ctx.metrics_snapshot().counters.get(SKIPPED).copied().unwrap_or(0))
}

/// `copies[j]` copies of distinct row `j` (values in multiples of 0.1 over
/// `cols` columns), interleaved by a seeded shuffle.
fn few_distinct(copies: &[usize], cols: usize, seed: u64) -> Matrix {
    let mix = |x: u64| (x ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33;
    let pool: Vec<Vec<f64>> = (0..copies.len())
        .map(|p| (0..cols).map(|j| (mix((p * 64 + j) as u64) % 40) as f64 * 0.1).collect())
        .collect();
    let mut order: Vec<usize> =
        copies.iter().enumerate().flat_map(|(p, &c)| std::iter::repeat_n(p, c)).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, mix(i as u64 + 0x5EED) as usize % (i + 1));
    }
    Matrix::from_rows(&order.iter().map(|&p| pool[p].clone()).collect::<Vec<_>>())
}

/// `k` warm-start centers: the distinct rows' first copies in turn, each
/// later lap shifted by 0.05 per lap in every column.
fn warm_start(m: &Matrix, distinct: usize, k: usize) -> Matrix {
    let mut firsts: Vec<usize> = Vec::new();
    for i in 0..m.rows() {
        if firsts.len() < distinct && firsts.iter().all(|&f| m.row(f) != m.row(i)) {
            firsts.push(i);
        }
    }
    let rows: Vec<Vec<f64>> = (0..k)
        .map(|c| {
            let lap = (c / firsts.len()) as f64 * 0.05;
            m.row(firsts[c % firsts.len()]).iter().map(|v| v + lap).collect()
        })
        .collect();
    Matrix::from_rows(&rows)
}

/// Strategy: 2–8 distinct rows of 20–200 copies each over 1–14 columns, a
/// warm start with `k` from one more than the distinct rows to 20, and a
/// `max_iter` from {1, 2, 3, 7, 100}.
fn cycling_case() -> impl Strategy<Value = (Matrix, Matrix, usize)> {
    (2usize..9, 1usize..15, any::<u64>(), any::<u64>(), 0usize..5).prop_map(
        |(distinct, cols, seed, pick, iters)| {
            let copies: Vec<usize> =
                (0..distinct).map(|j| 20 + ((pick >> (j * 8)) % 181) as usize).collect();
            let m = few_distinct(&copies, cols, seed);
            let k = distinct + 1 + (pick >> 56) as usize % (20 - distinct);
            let init = warm_start(&m, distinct, k);
            (m, init, [1, 2, 3, 7, 100][iters])
        },
    )
}

fn assert_same_bits(fast: &KMeansResult, slow: &KMeansResult, what: &str) {
    assert_eq!(fast.assignments, slow.assignments, "{what}: assignments");
    assert_eq!(center_bits(fast), center_bits(slow), "{what}: center bits");
    assert_eq!(fast.inertia.to_bits(), slow.inertia.to_bits(), "{what}: inertia bits");
    assert_eq!(fast.iterations, slow.iterations, "{what}: iterations");
}

/// Over generated few-distinct-row cases, the accelerated loop (with its
/// cycle skip) carries the reference walk's bits, and the skip fires in
/// some of them.
#[test]
fn cycle_skip_bit_identical_to_reference_lloyd() {
    const CASES: u32 = 64;
    let strategy = cycling_case();
    let mut fired = 0;
    for case in 0..CASES {
        let mut rng = TestRng::for_case("lloyd_cycles::cycle_skip", case);
        let (m, init, max_iter) = strategy.generate(&mut rng);
        let (fast, skipped) = counting_skips(|| kmeans_from_centers(&m, init.clone(), max_iter));
        let slow = kmeans_from_centers_reference(&m, init, max_iter);
        assert_same_bits(&fast, &slow, &format!("case {case} (max_iter {max_iter})"));
        if skipped > 0 {
            fired += 1;
            assert_eq!(fast.iterations, max_iter, "case {case}: a skipped run ends at max_iter");
        }
    }
    println!("skip fired in {fired} of {CASES} cases");
    assert!(fired > 0, "no generated case exercised the cycle skip");
}

/// A pinned cycle: 20 copies each of 0.3 and 0.7 with a third center next
/// to 0.3. A cluster's mean of 20 copies rounds off its row, the emptied
/// cluster is reseeded exactly onto a row and takes its copies over, so the
/// three centers rotate over the two rows and the state repeats every 6
/// iterations from the first. The run never converges; the skip jumps 84 of
/// its 100 iterations. Every shorter run is held to the reference too, so
/// every remainder after the jump is exercised.
#[test]
fn pinned_cycle_matches_reference_at_every_max_iter() {
    let m = Matrix::from_rows(&(0..40).map(|i| vec![[0.3, 0.7][i % 2]]).collect::<Vec<_>>());
    let init = Matrix::from_rows(&[vec![0.3], vec![0.7], vec![0.35]]);
    for max_iter in 1..=100 {
        let (fast, _) = counting_skips(|| kmeans_from_centers(&m, init.clone(), max_iter));
        let slow = kmeans_from_centers_reference(&m, init.clone(), max_iter);
        assert_same_bits(&fast, &slow, &format!("max_iter {max_iter}"));
    }
    let (r, skipped) = counting_skips(|| kmeans_from_centers(&m, init.clone(), 100));
    assert_eq!(skipped, 84);
    assert_eq!(r.iterations, 100);
    assert_eq!(r.centers.column(0), vec![0.6999999999999997, 0.29999999999999993, 0.3]);
    let expected: Vec<usize> = (0..40).map(|i| [1, 0][i % 2]).collect();
    assert_eq!(r.assignments, expected);
    assert_eq!(r.inertia, 1.0477058897466563e-30);
}

/// `choose_k` on a few-distinct-row matrix of `grep_sp`'s fine shape (7
/// distinct rows, 14 columns, ~700 rows), where most sweep runs cycle, is
/// bit-identical at 1 and 2 threads, and the skip fires at both.
#[test]
fn choose_k_with_cycling_runs_bit_identical_across_thread_counts() {
    for seed in [3u64, 42] {
        let m = few_distinct(&[180, 20, 95, 140, 33, 150, 80], 14, seed);
        let run = |threads| {
            rayon::set_threads(threads);
            counting_skips(|| choose_k(&m, 20, 0.9, 0.25, seed))
        };
        let (one, skipped_one) = run(1);
        let (two, skipped_two) = run(2);
        rayon::set_threads(0);
        assert!(skipped_one > 0, "seed {seed}: no sweep run cycled");
        assert_eq!(skipped_one, skipped_two, "seed {seed}");
        assert_eq!(one.k, two.k, "seed {seed}");
        assert_same_bits(&one.result, &two.result, &format!("seed {seed}"));
        let bits =
            |s: &[(usize, f64)]| s.iter().map(|&(k, v)| (k, v.to_bits())).collect::<Vec<_>>();
        assert_eq!(bits(&one.scores), bits(&two.scores), "seed {seed}");
    }
}
