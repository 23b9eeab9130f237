//! Instrumented kernels.
//!
//! Each kernel *really executes* its algorithm on real data at
//! job-construction time and emits the [`WorkItem`] cost trace the scheduler
//! will later replay against the machine model. Because instruction counts
//! and memory footprints are derived from the actual data (actual token
//! counts, actual hash-map growth, actual quicksort partition sizes), the
//! performance phenomena the paper reports — e.g. the non-homogeneous
//! sort phase caused by small vs. large quicksort partitions (§III-B-1) —
//! emerge mechanistically instead of being scripted.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use simprof_sim::{AccessPattern, Machine, Region};

use crate::methods::MethodId;
use crate::work::WorkItem;

/// Calibrated instruction costs (instructions per unit of work). These play
/// the role of the per-bytecode costs of a JVM interpreter/JIT profile.
pub mod costs {
    /// Instructions per input byte scanned during tokenization.
    pub const TOKENIZE_PER_BYTE: u64 = 4;
    /// Instructions per token emitted (object allocation, pair creation).
    pub const TOKEN_EMIT: u64 = 24;
    /// Instructions per hash-map insert/probe (hashing + bucket walk).
    pub const HASH_PROBE: u64 = 45;
    /// Instructions per element per quicksort partition pass.
    pub const SORT_PASS: u64 = 8;
    /// Instructions per element for insertion-sort leaves.
    pub const SORT_LEAF: u64 = 6;
    /// Base instructions per element merged in a k-way merge.
    pub const MERGE_BASE: u64 = 22;
    /// Extra instructions per element per doubling of merge fan-in.
    pub const MERGE_LOG: u64 = 8;
    /// Instructions per byte for substring scanning (grep).
    pub const SCAN_PER_BYTE: u64 = 3;
    /// Memory intensity (cache-line touches per 1000 instructions) of
    /// streaming scans — an "access" in the machine model is one line touch,
    /// so a byte-scanner at ~4 instructions/byte touches a new 64-B line
    /// every ~256 instructions.
    pub const SEQ_APKI: u32 = 8;
    /// Memory intensity of hash-map probing.
    pub const HASH_APKI: u32 = 50;
    /// Memory intensity of in-place sorting passes.
    pub const SORT_APKI: u32 = 18;
    /// Memory intensity of k-way merging.
    pub const MERGE_APKI: u32 = 30;
}

/// The Fx multiply–rotate hasher (as used inside rustc) for the
/// build-time aggregation maps.
///
/// Their keys are synthesized words and vertex ids, never bytes from
/// outside the program, so hash-flooding resistance buys nothing; and every
/// map's contents are sorted before they reach a job, so the hasher cannot
/// change a job's bytes — only how fast it is built.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("chunks_exact yields 8 bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `HashMap` with the [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// The cost item of scanning `bytes` of input text into `tokens` tokens
/// (tokenization: a byte scan plus a per-token emit).
pub fn tokenize_item(
    bytes: u64,
    tokens: u64,
    path: Vec<MethodId>,
    input_region: Region,
    seed: u64,
) -> WorkItem {
    WorkItem::compute(
        path,
        bytes * costs::TOKENIZE_PER_BYTE + tokens * costs::TOKEN_EMIT,
        costs::SEQ_APKI,
        AccessPattern::Sequential,
        input_region,
        seed,
    )
}

/// The cost item of scanning `bytes` of input text for a literal substring
/// (grep) that `matches` lines contain: a byte scan plus a per-match emit.
pub fn scan_item(
    bytes: u64,
    matches: u64,
    path: Vec<MethodId>,
    input_region: Region,
    seed: u64,
) -> WorkItem {
    WorkItem::compute(
        path,
        bytes * costs::SCAN_PER_BYTE + matches * costs::TOKEN_EMIT,
        costs::SEQ_APKI,
        AccessPattern::Sequential,
        input_region,
        seed,
    )
}

/// Hash-aggregates `pairs` by key with `merge` (the map-side combine /
/// reduce-by-key kernel). Processes records in batches; after each batch the
/// emitted item's region covers the hash map *as it has grown so far*, so
/// early batches probe a small, cache-resident map and late batches a large
/// one — the paper's "random accesses over per-key state" reduce behaviour.
/// `pattern` sets how probes spread over the live map:
/// [`AccessPattern::Zipf`] for frequency-skewed keys (words, graph hubs),
/// [`AccessPattern::Random`] for uniform keys.
///
/// Returns the real aggregated pairs — **sorted by key**, so downstream
/// routing is deterministic regardless of map iteration order — and
/// the cost items. `entry_bytes` is the modelled in-memory footprint of one
/// map entry.
#[allow(clippy::too_many_arguments)]
pub fn hash_combine<K, V, I, F>(
    pairs: I,
    mut merge: F,
    entry_bytes: u64,
    batch: usize,
    path: Vec<MethodId>,
    pattern: AccessPattern,
    machine: &mut Machine,
    seed: u64,
) -> (Vec<(K, V)>, Vec<WorkItem>)
where
    K: Hash + Eq + Ord,
    I: IntoIterator<Item = (K, V)>,
    F: FnMut(&mut V, V),
{
    assert!(batch > 0, "batch must be positive");
    let mut map: FxHashMap<K, V> = FxHashMap::default();
    // (records processed, distinct keys after the batch) checkpoints.
    let mut checkpoints: Vec<(u64, u64)> = Vec::new();
    let mut in_batch = 0u64;
    for (k, v) in pairs {
        match map.entry(k) {
            std::collections::hash_map::Entry::Occupied(mut e) => merge(e.get_mut(), v),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(v);
            }
        }
        in_batch += 1;
        if in_batch == batch as u64 {
            checkpoints.push((in_batch, map.len() as u64));
            in_batch = 0;
        }
    }
    if in_batch > 0 {
        checkpoints.push((in_batch, map.len() as u64));
    }

    // The map's final footprint is known now; allocate it and attribute each
    // batch to the prefix that existed when the batch ran.
    let final_bytes = (map.len() as u64 * entry_bytes).max(64);
    let region = machine.alloc(final_bytes);
    let items = checkpoints
        .iter()
        .enumerate()
        .map(|(i, &(records, distinct))| {
            let live = Region::new(region.base, (distinct * entry_bytes).max(64));
            WorkItem::compute(
                path.clone(),
                records * costs::HASH_PROBE,
                costs::HASH_APKI,
                pattern,
                live,
                seed.wrapping_add(i as u64),
            )
        })
        .collect();
    let mut out: Vec<(K, V)> = map.into_iter().collect();
    out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    (out, items)
}

/// In-place quicksort that emits one cost item per partition pass.
///
/// Runs a real median-of-three Hoare quicksort over `data`; every partition
/// pass over `s` elements emits an item whose region is exactly that
/// partition's slice of `region`, so passes over partitions larger than a
/// cache level miss in it and passes over small partitions hit — the
/// mechanism behind the paper's non-homogeneous sort phases. Leaf partitions
/// (`≤ LEAF` elements) are finished with the standard library's stable sort
/// and batched into combined low-footprint items to bound the trace length.
pub fn quicksort_trace<T: Ord>(
    data: &mut [T],
    elem_bytes: u64,
    region: Region,
    path: Vec<MethodId>,
    seed: u64,
) -> Vec<WorkItem> {
    const LEAF: usize = 48;
    /// Flush accumulated leaf work once it exceeds this many instructions.
    const LEAF_FLUSH: u64 = 120_000;

    let mut items = Vec::new();
    let mut pending_leaf_instrs = 0u64;
    let mut emitted = 0u64;
    let flush_leaves = |pending: &mut u64, items: &mut Vec<WorkItem>, emitted: &mut u64| {
        if *pending == 0 {
            return;
        }
        items.push(WorkItem::compute(
            path.clone(),
            *pending,
            costs::SORT_APKI,
            AccessPattern::RandomWindow { window_bytes: (LEAF as u64 * elem_bytes).max(64) },
            region,
            seed.wrapping_add(0x5EAF).wrapping_add(*emitted),
        ));
        *emitted += 1;
        *pending = 0;
    };

    let mut stack: Vec<(usize, usize)> = vec![(0, data.len())];
    while let Some((lo, hi)) = stack.pop() {
        let s = hi - lo;
        if s <= 1 {
            continue;
        }
        if s <= LEAF {
            data[lo..hi].sort();
            pending_leaf_instrs += s as u64 * costs::SORT_LEAF * 2;
            if pending_leaf_instrs >= LEAF_FLUSH {
                flush_leaves(&mut pending_leaf_instrs, &mut items, &mut emitted);
            }
            continue;
        }
        // Cost of this partition pass, over exactly this partition's memory.
        // A pass is a two-pointer *stream* over the partition: whether it
        // hits depends on the partition still being resident from the
        // previous pass — small partitions re-hit, large ones re-miss.
        let part_region = Region::new(region.base + lo as u64 * elem_bytes, s as u64 * elem_bytes);
        items.push(WorkItem::compute(
            path.clone(),
            s as u64 * costs::SORT_PASS,
            costs::SORT_APKI,
            AccessPattern::Sequential,
            part_region,
            seed.wrapping_add(emitted),
        ));
        emitted += 1;

        // After partitioning, the pivot sits in its final position `p`:
        // recurse strictly left and right of it.
        let p = partition(data, lo, hi);
        // Process the left side next (LIFO): recursion descends into smaller
        // pieces after each big pass, reproducing the time-varying footprint.
        stack.push((p + 1, hi));
        stack.push((lo, p));
    }
    flush_leaves(&mut pending_leaf_instrs, &mut items, &mut emitted);
    items
}

/// Hoare partition with median-of-three pivot. Returns `p` such that
/// `data[lo..=p] <= data[p+1..hi]` element-wise.
fn partition<T: Ord>(data: &mut [T], lo: usize, hi: usize) -> usize {
    let mid = lo + (hi - lo) / 2;
    let last = hi - 1;
    // Median-of-three into `lo`.
    if data[mid] < data[lo] {
        data.swap(mid, lo);
    }
    if data[last] < data[lo] {
        data.swap(last, lo);
    }
    if data[last] < data[mid] {
        data.swap(last, mid);
    }
    data.swap(lo, mid); // pivot to front
    let mut i = lo;
    let mut j = hi;
    loop {
        loop {
            i += 1;
            if i >= hi || data[i] >= data[lo] {
                break;
            }
        }
        loop {
            j -= 1;
            if data[j] <= data[lo] {
                break;
            }
        }
        if i >= j {
            data.swap(lo, j);
            return j;
        }
        data.swap(i, j);
    }
}

/// Elements merged per emitted cost item.
const MERGE_CHUNK: usize = 8_192;

/// The cost items of k-way merging sorted runs of `run_lens` elements: one
/// item per [`MERGE_CHUNK`] merged elements plus one for the remainder,
/// each charged per element by the merge fan-in (the non-empty runs). The
/// k advancing read frontiers stream through the runs' combined region
/// once, so the pattern is a (prefetch-friendly) sequential walk of the
/// whole region.
///
/// A merge's cost depends only on how many elements each run holds, so
/// no key is read, copied or merged.
pub fn merge_items(
    run_lens: &[usize],
    region: Region,
    path: Vec<MethodId>,
    seed: u64,
) -> Vec<WorkItem> {
    let k = run_lens.iter().filter(|&&len| len > 0).count().max(1);
    let total: usize = run_lens.iter().sum();
    let per_elem = costs::MERGE_BASE
        + costs::MERGE_LOG * u64::from((k as u64).next_power_of_two().trailing_zeros());
    (0..total.div_ceil(MERGE_CHUNK))
        .map(|i| {
            let merged = (total - i * MERGE_CHUNK).min(MERGE_CHUNK);
            WorkItem::compute(
                path.clone(),
                merged as u64 * per_elem,
                costs::MERGE_APKI,
                AccessPattern::Sequential,
                region,
                seed.wrapping_add(i as u64),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simprof_sim::MachineConfig;

    fn path() -> Vec<MethodId> {
        vec![MethodId(0)]
    }

    fn region(bytes: u64) -> Region {
        Region::new(0x10_000, bytes)
    }

    #[test]
    fn text_scan_items_charge_bytes_and_emits() {
        let tok = tokenize_item(30, 6, path(), region(1024), 1);
        assert_eq!(tok.instrs, 30 * costs::TOKENIZE_PER_BYTE + 6 * costs::TOKEN_EMIT);
        assert_eq!(tok.pattern, AccessPattern::Sequential);
        let scan = scan_item(22, 2, path(), region(128), 1);
        assert_eq!(scan.instrs, 22 * costs::SCAN_PER_BYTE + 2 * costs::TOKEN_EMIT);
        assert_eq!(scan.pattern, AccessPattern::Sequential);
    }

    #[test]
    fn hash_combine_aggregates_correctly() {
        let mut machine = Machine::new(MachineConfig::scaled(1));
        let pairs = vec![("a", 1i64), ("b", 1), ("a", 1), ("c", 1), ("a", 1)];
        let (combined, items) = hash_combine(
            pairs,
            |acc, v| *acc += v,
            64,
            2,
            path(),
            AccessPattern::Random,
            &mut machine,
            7,
        );
        assert_eq!(combined, vec![("a", 3), ("b", 1), ("c", 1)], "sorted by key");
        // 5 records in batches of 2 → 3 items.
        assert_eq!(items.len(), 3);
        // Regions grow with distinct-key count.
        assert!(items[0].region.bytes <= items[2].region.bytes);
        assert_eq!(items.last().unwrap().region.bytes, 3 * 64);
    }

    #[test]
    fn quicksort_actually_sorts() {
        let mut data: Vec<u64> = (0..5000).map(|i| (i * 2_654_435_761u64) % 100_000).collect();
        let mut expect = data.clone();
        expect.sort_unstable();
        let items = quicksort_trace(&mut data, 8, region(5000 * 8), path(), 3);
        assert_eq!(data, expect);
        assert!(!items.is_empty());
    }

    #[test]
    fn quicksort_partition_regions_shrink_over_time() {
        let mut data: Vec<u64> = (0..20_000).map(|i| (i * 2_654_435_761u64) % 1_000_000).collect();
        let items = quicksort_trace(&mut data, 8, region(20_000 * 8), path(), 3);
        let first = items.first().unwrap().region.bytes;
        assert_eq!(first, 20_000 * 8, "first pass covers the whole array");
        let min = items.iter().map(|i| i.region.bytes).min().unwrap();
        assert!(min < first / 16, "late passes work on small partitions");
    }

    #[test]
    fn quicksort_handles_degenerate_inputs() {
        let mut empty: Vec<u64> = vec![];
        assert!(quicksort_trace(&mut empty, 8, region(64), path(), 1).is_empty());
        let mut single = vec![5u64];
        quicksort_trace(&mut single, 8, region(64), path(), 1);
        assert_eq!(single, vec![5]);
        let mut dup = vec![7u64; 3000];
        let items = quicksort_trace(&mut dup, 8, region(3000 * 8), path(), 1);
        assert_eq!(dup, vec![7u64; 3000]);
        assert!(!items.is_empty(), "all-equal keys must still terminate");
        let mut sorted: Vec<u64> = (0..3000).collect();
        quicksort_trace(&mut sorted, 8, region(3000 * 8), path(), 1);
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn merge_items_charge_the_fan_in() {
        let items = merge_items(&[3, 3, 3, 0], region(9 * 8), path(), 1);
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].instrs, 9 * (costs::MERGE_BASE + 2 * costs::MERGE_LOG));
        assert!(merge_items(&[0, 0], region(64), path(), 1).is_empty());
    }

    #[test]
    fn merge_items_chunking() {
        let items = merge_items(&[5_000; 4], region(20_000 * 8), path(), 1);
        assert_eq!(items.len(), 3, "20000 elems / 8192 chunk → 3 items");
        let per_elem = costs::MERGE_BASE + 2 * costs::MERGE_LOG;
        assert_eq!(items[0].instrs, MERGE_CHUNK as u64 * per_elem);
        assert_eq!(items[2].instrs, (20_000 - 2 * MERGE_CHUNK) as u64 * per_elem);
        assert_eq!(items[2].seed, 3);
    }
}
