//! `ops::merge_items` against the heap k-way merge it replaced (see
//! `support`): the same cost items — count, instructions, region, path and
//! seeds — for any run lengths, including empty runs and totals at, just
//! below and just above multiples of the merge chunk.

mod support;

use proptest::prelude::*;
use simprof_engine::ops::{costs, merge_items};
use simprof_engine::MethodId;
use simprof_sim::Region;
use support::{interleaved_runs, kway_merge, CHUNK};

fn region(elems: usize) -> Region {
    Region::new(0x4_0000, (elems as u64 * 16).max(64))
}

/// Asserts that `merge_items` returns the reference merge's items for runs
/// of `lens` elements, and returns how many items there were.
fn assert_matches_reference(lens: &[usize], seed: u64) -> usize {
    let total: usize = lens.iter().sum();
    let path = vec![MethodId(7), MethodId(3)];
    let (merged, expect) = kway_merge(&interleaved_runs(lens), region(total), path.clone(), seed);
    assert_eq!(merged.len(), total);
    let items = merge_items(lens, region(total), path, seed);
    assert_eq!(items, expect, "run lengths {lens:?}");
    items.len()
}

#[test]
fn reference_merges_sorted_runs() {
    let runs = vec![vec![1u64, 4, 7], vec![2, 5, 8], vec![3, 6, 9], vec![]];
    let (out, items) = kway_merge(&runs, region(9), vec![MethodId(0)], 1);
    assert_eq!(out, vec![1, 2, 3, 4, 5, 6, 7, 8, 9]);
    assert_eq!(items.len(), 1);
    assert_eq!(items[0].instrs, 9 * (costs::MERGE_BASE + 2 * costs::MERGE_LOG));

    let runs: Vec<Vec<u64>> = (0..4).map(|r| (0..5000u64).map(|i| i * 4 + r).collect()).collect();
    let (out, items) = kway_merge(&runs, region(20_000), vec![MethodId(0)], 1);
    assert_eq!(out, (0..20_000u64).collect::<Vec<_>>());
    assert_eq!(items.len(), 3, "20000 elems / 8192 chunk → 3 items");
}

#[test]
fn chunk_boundaries_match_reference() {
    for total in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK, 2 * CHUNK + 1] {
        for runs in [1, 2, 3, 5, 12] {
            // Split `total` over `runs` runs, the first taking the remainder;
            // every run but the first is empty when `total < runs`.
            let mut lens = vec![total / runs; runs];
            lens[0] += total % runs;
            let items = assert_matches_reference(&lens, total as u64);
            assert_eq!(items, total.div_ceil(CHUNK), "{total} over {runs} runs");
        }
    }
    assert_eq!(assert_matches_reference(&[], 3), 0, "no runs, no items");
    assert_eq!(assert_matches_reference(&[0, 0, 0], 3), 0, "empty runs, no items");
}

/// One run length: empty, small, or a multiple of the chunk (0–3 chunks)
/// plus −1, 0 or +1.
fn run_len() -> impl Strategy<Value = usize> {
    (0u8..4, 0usize..300, 0usize..4, 0usize..3).prop_map(
        |(kind, small, chunks, delta)| match kind {
            0 => 0,
            1 => small,
            _ => (chunks * CHUNK + delta).saturating_sub(1),
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random run lengths (0–12 runs) give the reference's items.
    #[test]
    fn merge_items_match_heap_reference(
        lens in proptest::collection::vec(run_len(), 0..13),
        seed in any::<u64>(),
    ) {
        assert_matches_reference(&lens, seed);
    }
}
