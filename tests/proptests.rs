//! Property-based tests on the core data structures and statistical
//! invariants, spanning crates.

use proptest::prelude::*;

#[path = "../crates/engine/tests/support/mod.rs"]
mod merge_reference;

use simprof::sim::{AccessCursor, AccessPattern, Cache, CacheConfig, Region};
use simprof::stats::{
    kmeans, mean, optimal_allocation, srs_indices_seeded, stddev, stratified_se, KMeans, Matrix,
    StratumStats,
};

proptest! {
    // ---------------- stratified sampling ----------------

    /// Optimal allocation always sums to min(n, total units), respects caps,
    /// and gives every non-empty stratum at least one slot.
    #[test]
    fn allocation_invariants(
        strata in proptest::collection::vec((0usize..200, 0.0f64..5.0), 1..10),
        n in 0usize..300,
    ) {
        let strata: Vec<StratumStats> =
            strata.into_iter().map(|(units, stddev)| StratumStats { units, stddev }).collect();
        let alloc = optimal_allocation(n, &strata);
        prop_assert_eq!(alloc.len(), strata.len());
        let cap_total: usize = strata.iter().map(|s| s.units).sum();
        let total: usize = alloc.iter().sum();
        for (a, s) in alloc.iter().zip(&strata) {
            prop_assert!(*a <= s.units);
            if n > 0 && s.units > 0 {
                prop_assert!(*a >= 1);
            }
        }
        if n >= strata.iter().filter(|s| s.units > 0).count() {
            prop_assert_eq!(total, n.min(cap_total));
        }
    }

    /// The stratified standard error shrinks (weakly) as the budget grows.
    #[test]
    fn se_monotone_in_budget(
        strata in proptest::collection::vec((1usize..100, 0.01f64..3.0), 1..6),
    ) {
        let strata: Vec<StratumStats> =
            strata.into_iter().map(|(units, stddev)| StratumStats { units, stddev }).collect();
        let cap: usize = strata.iter().map(|s| s.units).sum();
        let mut last = f64::INFINITY;
        for n in [1usize, 2, 4, 8, 16, 32, 64, 128] {
            if n > cap { break; }
            let se = stratified_se(&strata, &optimal_allocation(n, &strata));
            prop_assert!(se <= last + 1e-6, "se {} grew past {}", se, last);
            last = se;
        }
        // Full enumeration is exact.
        let full: Vec<usize> = strata.iter().map(|s| s.units).collect();
        prop_assert_eq!(stratified_se(&strata, &full), 0.0);
    }

    /// SRS draws k distinct ascending in-range indices for any (n, k, seed).
    #[test]
    fn srs_invariants(n in 0usize..500, k in 0usize..500, seed in any::<u64>()) {
        let s = srs_indices_seeded(n, k, seed);
        prop_assert_eq!(s.len(), k.min(n));
        prop_assert!(s.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(s.iter().all(|&i| i < n));
    }

    // ---------------- clustering ----------------

    /// k-means assignments are valid, every point maps to its nearest
    /// center, and inertia equals the recomputed sum.
    #[test]
    fn kmeans_invariants(
        rows in proptest::collection::vec(
            proptest::collection::vec(-10.0f64..10.0, 3), 2..40),
        k in 1usize..6,
        seed in any::<u64>(),
    ) {
        let data = Matrix::from_rows(&rows);
        let r = kmeans(&data, KMeans::new(k, seed));
        let k_eff = r.centers.rows();
        prop_assert!(k_eff <= k.min(data.rows()));
        prop_assert_eq!(r.assignments.len(), data.rows());
        let mut inertia = 0.0;
        for (i, &a) in r.assignments.iter().enumerate() {
            prop_assert!(a < k_eff);
            let d = Matrix::sq_dist(data.row(i), r.centers.row(a));
            // Assigned center is the nearest one.
            for c in 0..k_eff {
                prop_assert!(d <= Matrix::sq_dist(data.row(i), r.centers.row(c)) + 1e-9);
            }
            inertia += d;
        }
        prop_assert!((inertia - r.inertia).abs() < 1e-6 * (1.0 + inertia));
    }

    // ---------------- machine model ----------------

    /// Access cursors always stay inside their region and are line-aligned
    /// wherever the pattern promises line granularity.
    #[test]
    fn cursor_stays_in_region(
        base in 0u64..1_000_000,
        bytes in 64u64..1_000_000,
        pattern_sel in 0usize..5,
        seed in any::<u64>(),
    ) {
        let base = base & !63;
        let region = Region::new(base, bytes);
        let pattern = match pattern_sel {
            0 => AccessPattern::Sequential,
            1 => AccessPattern::Strided { stride_bytes: 192 },
            2 => AccessPattern::Random,
            3 => AccessPattern::Zipf,
            _ => AccessPattern::RandomWindow { window_bytes: bytes / 2 + 64 },
        };
        let mut cur = AccessCursor::new(region, pattern, seed);
        for _ in 0..256 {
            let a = cur.next_addr();
            prop_assert!(a >= base, "addr {a} below base {base}");
            prop_assert!(a < base + bytes.max(64) + 64, "addr {a} beyond region end");
        }
    }

    /// A cache never reports a hit for a line it has not seen since the
    /// last flush, and hit/miss accounting is consistent with probe.
    #[test]
    fn cache_probe_consistency(addrs in proptest::collection::vec(0u64..100_000, 1..200)) {
        let mut cache = Cache::new(CacheConfig::new(8 * 1024, 4));
        for &a in &addrs {
            let probed = cache.probe(a);
            let hit = cache.access(a);
            prop_assert_eq!(probed, hit, "probe must predict access outcome");
            prop_assert!(cache.probe(a), "line must be resident after access");
        }
    }

    // ---------------- descriptive stats ----------------

    /// mean and stddev basic sanity over arbitrary data.
    #[test]
    fn descriptive_sanity(xs in proptest::collection::vec(-1e6f64..1e6, 2..100)) {
        let m = mean(&xs);
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
        prop_assert!(stddev(&xs) >= 0.0);
        prop_assert!(stddev(&xs) <= (hi - lo) + 1e-9);
    }
}

// ---------------- engine properties (heavier, fewer cases) ----------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The instrumented quicksort sorts arbitrary data and emits a
    /// partition trace whose first pass covers the whole array.
    #[test]
    fn quicksort_trace_sorts(mut data in proptest::collection::vec(any::<u32>(), 0..4000)) {
        use simprof::engine::ops::quicksort_trace;
        let region = Region::new(0x1000, (data.len() as u64 * 4).max(64));
        let mut expect = data.clone();
        expect.sort_unstable();
        let items = quicksort_trace(&mut data, 4, region, vec![], 1);
        prop_assert_eq!(data, expect);
        for item in &items {
            prop_assert!(item.instrs >= 1);
            prop_assert!(item.region.base >= region.base);
        }
    }

    /// The reference heap merge merges arbitrary sorted runs correctly, and
    /// `merge_items` costs the merge exactly as it does.
    #[test]
    fn kway_merge_merges(runs in proptest::collection::vec(
        proptest::collection::vec(any::<u32>(), 0..300), 0..6)) {
        use simprof::engine::ops::merge_items;
        let runs: Vec<Vec<u32>> = runs
            .into_iter()
            .map(|mut r| {
                r.sort_unstable();
                r
            })
            .collect();
        let total: usize = runs.iter().map(Vec::len).sum();
        let region = Region::new(0, (total as u64 * 4).max(64));
        let (out, items) = merge_reference::kway_merge(&runs, region, vec![], 2);
        let lens: Vec<usize> = runs.iter().map(Vec::len).collect();
        prop_assert_eq!(merge_items(&lens, region, vec![], 2), items);
        prop_assert_eq!(out.len(), total);
        prop_assert!(out.windows(2).all(|w| w[0] <= w[1]));
        let mut expect: Vec<u32> = runs.into_iter().flatten().collect();
        expect.sort_unstable();
        prop_assert_eq!(out, expect);
    }

    /// hash_combine aggregates exactly like a reference fold, and its output
    /// is key-sorted.
    #[test]
    fn hash_combine_matches_reference(pairs in proptest::collection::vec(
        (0u32..50, 1i64..10), 0..500)) {
        use simprof::engine::ops::hash_combine;
        use simprof::sim::{Machine, MachineConfig};
        use std::collections::BTreeMap;
        let mut machine = Machine::new(MachineConfig::scaled(1));
        let (combined, items) = hash_combine(
            pairs.clone(),
            |a, b| *a += b,
            32,
            64,
            vec![],
            AccessPattern::Zipf,
            &mut machine,
            3,
        );
        let mut expect: BTreeMap<u32, i64> = BTreeMap::new();
        for (k, v) in pairs {
            *expect.entry(k).or_insert(0) += v;
        }
        let expect: Vec<(u32, i64)> = expect.into_iter().collect();
        prop_assert_eq!(combined, expect);
        // Live regions grow monotonically.
        prop_assert!(items.windows(2).all(|w| w[0].region.bytes <= w[1].region.bytes));
    }
}
