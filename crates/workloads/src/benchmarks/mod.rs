//! The twelve job builders (six benchmarks × two frameworks) plus shared
//! assembly helpers.
//!
//! Each builder takes the [`crate::WorkloadConfig`], the machine (for
//! address-space allocation), and the method registry, synthesizes its input
//! data (under a `workloads.synth` span), *really executes* the benchmark's
//! computation, and returns the [`simprof_engine::Job`] cost trace to
//! schedule.
//!
//! The text builders (sort, wc, grep, bayes) work on a word-id
//! [`Corpus`]: line bytes come from word lengths, and every per-word
//! quantity — FNV-1a keys and routing hashes ([`word_hashes`]), grep hits —
//! is a per-vocabulary table indexed by id, so no line or token string is
//! built. Combines key on ids; the vocabulary is in `str` order, so their
//! id-sorted outputs are in word order. No builder enters a parallel
//! region.

pub mod bayes;
pub mod cc;
pub mod grep;
pub mod pagerank;
pub mod sort;
pub mod wordcount;

use simprof_engine::{Hdfs, MethodId, WorkItem};
use simprof_sim::Machine;

use crate::synth::text::Corpus;

/// Splits `n` elements into `p` near-equal contiguous ranges.
pub fn partition_ranges(n: usize, p: usize) -> Vec<(usize, usize)> {
    let p = p.max(1);
    let base = n / p;
    let extra = n % p;
    let mut out = Vec::with_capacity(p);
    let mut start = 0;
    for i in 0..p {
        let len = base + usize::from(i < extra);
        out.push((start, start + len));
        start += len;
    }
    out
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Deterministic FNV-1a hash, used for key routing and key sorting so runs
/// do not depend on the process's `HashMap` seed.
pub fn fnv1a(s: &str) -> u64 {
    fnv1a_extend(FNV_OFFSET, s.as_bytes())
}

/// Continues an FNV-1a hash state over `bytes`:
/// `fnv1a_extend(fnv1a(a), b) == fnv1a(a ++ b)`, so a composite key's hash
/// is its parts' bytes hashed in order, with no string built.
pub(crate) fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Which reducer a key with FNV-1a hash `hash` routes to.
pub fn route(hash: u64, reducers: usize) -> usize {
    (hash % reducers.max(1) as u64) as usize
}

/// The FNV-1a hash of every vocabulary word, by id: each word is hashed
/// once per build, however often it occurs.
pub fn word_hashes(corpus: &Corpus) -> Vec<u64> {
    corpus.word_table(|w| fnv1a(w))
}

/// Synthesizes a builder's input under a `workloads.synth` span, so input
/// synthesis shows up inside `workloads.build` as its own layer.
pub(crate) fn synth<T>(make: impl FnOnce() -> T) -> T {
    let _span = simprof_obs::span!("workloads.synth");
    make()
}

/// An HDFS-read work item over a fresh input region of `bytes`.
pub fn hdfs_read_item(
    hdfs: &Hdfs,
    machine: &mut Machine,
    bytes: u64,
    path: Vec<MethodId>,
    seed: u64,
) -> (simprof_sim::Region, WorkItem) {
    let region = machine.alloc(bytes.max(64));
    let item = WorkItem::io(path, bytes / 4 + 1, hdfs.read_stall(bytes), region, seed);
    (region, item)
}

/// An HDFS-write work item over a fresh output region of `bytes`.
pub fn hdfs_write_item(
    hdfs: &Hdfs,
    machine: &mut Machine,
    bytes: u64,
    path: Vec<MethodId>,
    seed: u64,
) -> WorkItem {
    let region = machine.alloc(bytes.max(64));
    WorkItem::io(path, bytes / 6 + 1, hdfs.write_stall(bytes), region, seed)
}

/// A local-spill work item (sorted map output, shuffle files).
pub fn spill_item(
    hdfs: &Hdfs,
    machine: &mut Machine,
    bytes: u64,
    path: Vec<MethodId>,
    seed: u64,
) -> WorkItem {
    let region = machine.alloc(bytes.max(64));
    WorkItem::io(path, bytes / 8 + 1, hdfs.spill_stall(bytes), region, seed)
}

/// Records per map-output spill (the `io.sort.mb` analog): when a mapper
/// emits more records than this, the buffer is sorted and spilled multiple
/// times and the spill files are merged on the map side — exactly Hadoop's
/// `MapOutputBuffer.sortAndSpill` + `mergeParts` behaviour.
pub const SPILL_RECORDS: usize = 32_768;

/// The full Hadoop map-output pipeline for one mapper's emitted key hashes:
/// per-spill quicksort (real sorting of each bounded buffer fill), a spill
/// write per buffer, and — when several spills happened — a map-side k-way
/// merge into the final map output file, costed from the spill lengths.
///
/// Returns the cost items in execution order.
pub fn map_side_sort_spill(
    mut keys: Vec<u64>,
    hdfs: &Hdfs,
    machine: &mut Machine,
    sort_path: Vec<MethodId>,
    spill_path: Vec<MethodId>,
    merge_path: Vec<MethodId>,
    seed: u64,
) -> Vec<WorkItem> {
    use simprof_engine::ops;
    let mut items = Vec::new();
    let mut spill_lens = Vec::with_capacity(keys.len().div_ceil(SPILL_RECORDS));
    for (i, chunk) in keys.chunks_mut(SPILL_RECORDS).enumerate() {
        let region = machine.alloc(chunk.len() as u64 * 16);
        items.extend(ops::quicksort_trace(
            chunk,
            16,
            region,
            sort_path.clone(),
            seed.wrapping_add(i as u64),
        ));
        items.push(spill_item(
            hdfs,
            machine,
            chunk.len() as u64 * 16,
            spill_path.clone(),
            seed.wrapping_add(0x200 + i as u64),
        ));
        spill_lens.push(chunk.len());
    }
    if spill_lens.len() > 1 {
        let total_bytes: u64 = keys.len() as u64 * 16;
        let merge_region = machine.alloc(total_bytes);
        items.extend(ops::merge_items(
            &spill_lens,
            merge_region,
            merge_path,
            seed.wrapping_add(0x400),
        ));
        items.push(spill_item(hdfs, machine, total_bytes, spill_path, seed.wrapping_add(0x500)));
    }
    items
}

/// Spreads `stall` cycles across `items` proportionally to their
/// instruction counts — models IO (shuffle fetch, lazy reads) overlapped
/// with the compute that consumes it. Leftover rounding cycles go to the
/// last item.
pub fn overlap_stall(items: &mut [WorkItem], stall: u64) {
    let total: u64 = items.iter().map(|i| i.instrs).sum();
    if total == 0 || items.is_empty() {
        return;
    }
    let mut charged = 0u64;
    let last = items.len() - 1;
    for (idx, item) in items.iter_mut().enumerate() {
        let share = if idx == last { stall - charged } else { stall * item.instrs / total };
        item.io_stall_cycles += share;
        charged += share;
    }
}

/// Marks the first of `items` as the consumer of a shuffle fetch of
/// `bytes`. The benchmarks overlap fetch stalls into the compute that
/// consumes them; tagging the first consumer makes the fetch visible to
/// the engine's lost-fetch fault injection.
pub fn mark_shuffle_fetch(items: &mut [WorkItem], bytes: u64) {
    if let Some(first) = items.first_mut() {
        first.shuffle_bytes = bytes;
    }
}

/// A shuffle-fetch work item (remote read of map outputs).
pub fn fetch_item(
    hdfs: &Hdfs,
    machine: &mut Machine,
    bytes: u64,
    path: Vec<MethodId>,
    seed: u64,
) -> WorkItem {
    let region = machine.alloc(bytes.max(64));
    WorkItem::io(path, bytes / 6 + 1, hdfs.read_stall(bytes) / 2, region, seed)
        .with_shuffle_bytes(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_ranges_cover_exactly() {
        for &(n, p) in &[(10usize, 3usize), (7, 7), (5, 8), (0, 4), (100, 1)] {
            let r = partition_ranges(n, p);
            assert_eq!(r.len(), p.max(1));
            assert_eq!(r[0].0, 0);
            assert_eq!(r.last().unwrap().1, n);
            for w in r.windows(2) {
                assert_eq!(w[0].1, w[1].0);
            }
            let max = r.iter().map(|&(a, b)| b - a).max().unwrap();
            let min = r.iter().map(|&(a, b)| b - a).min().unwrap();
            assert!(max - min <= 1, "near-equal split");
        }
    }

    #[test]
    fn map_side_sort_spill_pipeline_shapes() {
        use simprof_sim::{Machine, MachineConfig};
        let hdfs = Hdfs::default();
        let mut machine = Machine::new(MachineConfig::scaled(1));
        // One buffer fill: sort items + one spill, no merge.
        let small: Vec<u64> = (0..1000u64).map(|i| i.wrapping_mul(2654435761)).collect();
        let items = map_side_sort_spill(
            small,
            &hdfs,
            &mut machine,
            vec![MethodId(1)],
            vec![MethodId(2)],
            vec![MethodId(3)],
            1,
        );
        assert!(!items.iter().any(|i| i.path.contains(&MethodId(3))), "no merge for one spill");
        assert_eq!(items.iter().filter(|i| i.path.contains(&MethodId(2))).count(), 1);

        // Three buffer fills: three spills + a merge + the merged write.
        let big: Vec<u64> =
            (0..(SPILL_RECORDS as u64 * 2 + 100)).map(|i| i.wrapping_mul(2654435761)).collect();
        let items = map_side_sort_spill(
            big,
            &hdfs,
            &mut machine,
            vec![MethodId(1)],
            vec![MethodId(2)],
            vec![MethodId(3)],
            1,
        );
        assert!(items.iter().any(|i| i.path.contains(&MethodId(3))), "merge present");
        assert_eq!(
            items.iter().filter(|i| i.path.contains(&MethodId(2))).count(),
            3 + 1,
            "one spill per fill + the merged output write"
        );
        assert!(!items.is_empty());
        assert!(
            map_side_sort_spill(vec![], &hdfs, &mut machine, vec![], vec![], vec![], 1).is_empty()
        );
    }

    #[test]
    fn fnv_is_stable_and_spreads() {
        assert_eq!(fnv1a("spark"), fnv1a("spark"));
        assert_ne!(fnv1a("spark"), fnv1a("hadoop"));
        assert_eq!(fnv1a_extend(fnv1a("3:"), b"word"), fnv1a("3:word"));
        let mut buckets = [0usize; 4];
        for i in 0..1000 {
            buckets[route(fnv1a(&format!("word{i}")), 4)] += 1;
        }
        for &b in &buckets {
            assert!(b > 150, "routing roughly uniform: {buckets:?}");
        }
    }
}
