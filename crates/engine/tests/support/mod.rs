//! The heap k-way merge that `ops::merge_items` is pinned to.
//!
//! The Hadoop builders once merged every shuffled key with this function
//! and threw the merged vector away: only its cost items reached a job. A
//! merge's items depend only on how many elements each run holds, so
//! `merge_items` computes them from the run lengths and must return
//! exactly this function's items (checked in `tests/merge_reference.rs`
//! and, with the merged output, in the workspace `tests/proptests.rs`,
//! which includes this file).

#![allow(dead_code)] // each including test binary uses a different subset

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use simprof_engine::ops::costs;
use simprof_engine::{MethodId, WorkItem};
use simprof_sim::{AccessPattern, Region};

/// Elements merged per emitted cost item; must match the library's
/// `MERGE_CHUNK`.
pub const CHUNK: usize = 8_192;

/// K-way merges sorted runs into one sorted vector with a binary heap,
/// emitting a cost item per [`CHUNK`] merged elements and one for the
/// remainder.
pub fn kway_merge<T: Ord + Clone>(
    runs: &[Vec<T>],
    region: Region,
    path: Vec<MethodId>,
    seed: u64,
) -> (Vec<T>, Vec<WorkItem>) {
    let k = runs.iter().filter(|r| !r.is_empty()).count().max(1);
    let total: usize = runs.iter().map(Vec::len).sum();
    let mut heap: BinaryHeap<Reverse<(T, usize, usize)>> = runs
        .iter()
        .enumerate()
        .filter(|(_, r)| !r.is_empty())
        .map(|(ri, r)| Reverse((r[0].clone(), ri, 0)))
        .collect();

    let mut out = Vec::with_capacity(total);
    let mut items = Vec::new();
    let per_elem = costs::MERGE_BASE
        + costs::MERGE_LOG * (k as u64).next_power_of_two().trailing_zeros() as u64;
    let mut since_item = 0usize;
    let mut emitted = 0u64;
    let mut emit = |merged: usize, items: &mut Vec<WorkItem>| {
        items.push(WorkItem::compute(
            path.clone(),
            merged as u64 * per_elem,
            costs::MERGE_APKI,
            AccessPattern::Sequential,
            region,
            seed.wrapping_add(emitted),
        ));
        emitted += 1;
    };
    while let Some(Reverse((v, ri, pos))) = heap.pop() {
        out.push(v);
        if pos + 1 < runs[ri].len() {
            heap.push(Reverse((runs[ri][pos + 1].clone(), ri, pos + 1)));
        }
        since_item += 1;
        if since_item == CHUNK {
            emit(since_item, &mut items);
            since_item = 0;
        }
    }
    if since_item > 0 {
        emit(since_item, &mut items);
    }
    (out, items)
}

/// Sorted runs of the given lengths whose keys interleave across runs
/// (run `r` holds `r, r + n, r + 2n, …` for `n` runs), so the heap
/// alternates between runs as a shuffle merge does.
pub fn interleaved_runs(lens: &[usize]) -> Vec<Vec<u64>> {
    let n = lens.len().max(1) as u64;
    lens.iter()
        .enumerate()
        .map(|(r, &len)| (0..len as u64).map(|i| i * n + r as u64).collect())
        .collect()
}
