//! The one-read contract of `SimProf::analyze_stream`: one scan of the
//! stream folds the feature moments and the CPIs and keeps a sparse record
//! of the histograms, from which every row is projected. Only a record that
//! would outgrow the reduced matrix — more than `top_k` histogram entries
//! per unit so far — is dropped, and then the stream is rewound and read a
//! second time. Either way the analysis keeps every bit.

use proptest::prelude::*;

use simprof_core::{Analysis, SimProf, SimProfConfig, TraceError};
use simprof_engine::MethodId;
use simprof_obs::ObsContext;
use simprof_profiler::{MemStream, ProfileTrace, SamplingUnit, UnitStream};
use simprof_sim::Counters;

const RESCANS: &str = "core.stream_rescans";

/// Method-universe size of the synthetic traces; prime, so a stride walk
/// visits distinct methods.
const UNIVERSE: u32 = 97;

/// A [`UnitStream`] over an in-memory trace that counts its calls and can
/// fail on the `fail_at`-th `next_unit` call or, after its first rewind
/// past the scan, yield `second_pass` units instead of the trace's.
struct CountingStream<'a> {
    inner: MemStream<'a>,
    rewinds: usize,
    next_calls: usize,
    fail_at: Option<usize>,
    second_pass: Option<usize>,
    yielded: usize,
    extra: SamplingUnit,
}

impl<'a> CountingStream<'a> {
    fn new(trace: &'a ProfileTrace) -> Self {
        Self {
            inner: MemStream::new(trace),
            rewinds: 0,
            next_calls: 0,
            fail_at: None,
            second_pass: None,
            yielded: 0,
            extra: trace.units[0].clone(),
        }
    }
}

impl UnitStream for CountingStream<'_> {
    fn unit_instrs(&self) -> u64 {
        self.inner.unit_instrs()
    }

    fn snapshot_instrs(&self) -> u64 {
        self.inner.snapshot_instrs()
    }

    fn core(&self) -> usize {
        self.inner.core()
    }

    fn rewind(&mut self) -> Result<(), String> {
        self.rewinds += 1;
        self.yielded = 0;
        self.inner.rewind()
    }

    fn next_unit(&mut self) -> Result<Option<&SamplingUnit>, String> {
        self.next_calls += 1;
        if self.fail_at == Some(self.next_calls) {
            return Err("chunk 3: checksum mismatch".into());
        }
        let limit = self.second_pass.filter(|_| self.rewinds > 1);
        if limit.is_some_and(|n| self.yielded >= n) {
            return Ok(None);
        }
        self.yielded += 1;
        match self.inner.next_unit()? {
            Some(u) => Ok(Some(u)),
            None if limit.is_some() => Ok(Some(&self.extra)),
            None => Ok(None),
        }
    }
}

/// A unit whose histogram holds `entries` distinct methods (sorted, chosen
/// by a stride walk from `salt`) over `snapshots` snapshots.
fn unit(id: u64, entries: usize, snapshots: u32, cycles: u64, salt: u64) -> SamplingUnit {
    let stride = 1 + (salt % u64::from(UNIVERSE - 1)) as u32;
    let start = (salt >> 8) as u32 % UNIVERSE;
    let mut histogram: Vec<(MethodId, u32)> = (0..entries as u32)
        .map(|j| {
            let m = (start + j * stride) % UNIVERSE;
            let count = if snapshots == 0 { 1 } else { 1 + (m + id as u32) % snapshots };
            (MethodId(m), count)
        })
        .collect();
    histogram.sort_unstable_by_key(|&(m, _)| m);
    SamplingUnit {
        id,
        histogram,
        snapshots,
        counters: Counters { instructions: 1000, cycles, ..Default::default() },
        slices: Vec::new(),
        truncated: false,
        dropped_snapshots: 0,
    }
}

fn trace(units: Vec<SamplingUnit>) -> ProfileTrace {
    ProfileTrace { unit_instrs: 1000, snapshot_instrs: 100, core: 0, units }
}

/// A trace shaped like a profiled job's: two behaviours with 20–40 of a
/// few hundred methods per unit, far under `top_k = 100` entries.
fn real_shaped(n: u64) -> ProfileTrace {
    trace(
        (0..n)
            .map(|i| {
                let slow = (i / 7) % 2 == 1;
                let entries = 20 + (i % 21) as usize;
                let salt = if slow { 0x51_0000 + i % 3 } else { 0x22_0000 + i % 3 };
                let cycles = if slow { 2600 + 13 * (i % 5) } else { 1000 + 7 * (i % 5) };
                unit(i, entries, 40, cycles, salt)
            })
            .collect(),
    )
}

fn config(top_k: usize) -> SimProfConfig {
    SimProfConfig { top_k, seed: 11, ..Default::default() }
}

/// The analysis's bits, as its JSON (every `f64` in shortest round-trip
/// form).
fn bits(a: &Analysis) -> String {
    serde_json::to_string(a).expect("analysis serializes")
}

/// Runs `f` under a fresh observability context and returns its result
/// with the rescans it recorded.
fn counting_rescans<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let ctx = ObsContext::new();
    let out = {
        let _installed = ctx.install();
        f()
    };
    (out, ctx.metrics_snapshot().counters.get(RESCANS).copied().unwrap_or(0))
}

#[test]
fn real_shaped_trace_is_read_once() {
    let t = real_shaped(120);
    let mut s = CountingStream::new(&t);
    let (a, rescans) = counting_rescans(|| SimProf::new(config(100)).analyze_stream(&mut s));
    let a = a.expect("valid trace");
    assert_eq!(s.rewinds, 1, "the scan's own rewind only");
    assert_eq!(s.next_calls, t.units.len() + 1, "each unit once, then the end");
    assert_eq!(rescans, 0);
    assert!(a.k() >= 2, "two behaviours, k = {}", a.k());
    let rescanned = SimProf::new(config(100)).analyze_stream_rescanning(&mut MemStream::new(&t));
    assert_eq!(bits(&a), bits(&rescanned.unwrap()));
}

#[test]
fn over_budget_trace_is_rewound_once_more() {
    // 120 entries per unit against top_k = 100: over budget at unit 0.
    let t = trace((0..30).map(|i| unit(i, 120, 40, 1000 + 50 * (i % 4), i % 4)).collect());
    let mut s = CountingStream::new(&t);
    let (a, rescans) = counting_rescans(|| SimProf::new(config(100)).analyze_stream(&mut s));
    a.expect("valid trace");
    assert_eq!(s.rewinds, 2);
    assert_eq!(s.next_calls, 2 * (t.units.len() + 1));
    assert_eq!(rescans, 1, "recorded once per analysis");
}

#[test]
fn budget_is_units_times_top_k_inclusive() {
    let top_k = 8;
    // Exactly `units × top_k` entries: the record is kept.
    let exact = trace((0..20).map(|i| unit(i, top_k, 10, 1000 + 90 * (i % 3), i)).collect());
    let mut s = CountingStream::new(&exact);
    SimProf::new(config(top_k)).analyze_stream(&mut s).expect("valid trace");
    assert_eq!(s.rewinds, 1, "units × top_k entries fit the budget");

    // A light first unit banks room for a heavy one later on.
    let mut units: Vec<_> = (0..20).map(|i| unit(i, top_k, 10, 1000 + 90 * (i % 3), i)).collect();
    units[0] = unit(0, top_k - 3, 10, 1000, 0);
    units[9] = unit(9, top_k + 3, 10, 1000, 9);
    let banked = trace(units.clone());
    let mut s = CountingStream::new(&banked);
    SimProf::new(config(top_k)).analyze_stream(&mut s).expect("valid trace");
    assert_eq!(s.rewinds, 1, "the budget counts all units seen so far");

    // One entry more than the budget at the last unit: rewound.
    units[19] = unit(19, top_k + 1, 10, 1000, 19);
    let over = trace(units);
    let mut s = CountingStream::new(&over);
    let a = SimProf::new(config(top_k)).analyze_stream(&mut s).expect("valid trace");
    assert_eq!(s.rewinds, 2, "the last unit pushes the record past the budget");
    let rescanned =
        SimProf::new(config(top_k)).analyze_stream_rescanning(&mut MemStream::new(&over));
    assert_eq!(bits(&a), bits(&rescanned.unwrap()));
}

#[test]
fn stream_failing_mid_scan_is_a_stream_error() {
    let t = real_shaped(40);
    let mut s = CountingStream::new(&t);
    s.fail_at = Some(17);
    match SimProf::new(config(100)).analyze_stream(&mut s) {
        Err(TraceError::Stream { message }) => assert!(message.contains("checksum"), "{message}"),
        other => panic!("expected a stream error, got {other:?}"),
    }
    assert_eq!(s.rewinds, 1, "no rewind after a failed scan");
}

#[test]
fn over_budget_stream_changing_its_count_keeps_the_pass_count_errors() {
    let t = trace((0..25).map(|i| unit(i, 12, 10, 1000 + 70 * (i % 3), i)).collect());
    let sp = SimProf::new(config(10));
    for (second, needle) in [(24, "24 units on pass 2, 25 on pass 1"), (26, "more units on pass 2")]
    {
        let mut s = CountingStream::new(&t);
        s.second_pass = Some(second);
        match sp.analyze_stream(&mut s) {
            Err(TraceError::Stream { message }) => {
                assert!(message.contains(needle), "{second}: {message}")
            }
            other => panic!("{second}: expected a pass-count error, got {other:?}"),
        }
        assert_eq!(s.rewinds, 2);
    }
    // In budget, the stream is never read again, so the same stream
    // analyzes cleanly.
    let mut s = CountingStream::new(&t);
    s.second_pass = Some(24);
    SimProf::new(config(12)).analyze_stream(&mut s).expect("read once");
}

/// Strategy: 2–40 units whose entry counts straddle `top_k` (`top_k − 3`
/// to `top_k + 2`, one in four traces at exactly `top_k` everywhere), with
/// snapshot counts that include zero.
fn straddling() -> impl Strategy<Value = (ProfileTrace, usize)> {
    (
        2usize..12,
        proptest::collection::vec((0usize..6, 0u32..24, 0u64..3000, any::<u64>()), 2..40),
        0u32..4,
    )
        .prop_map(|(top_k, shapes, exact)| {
            let units = shapes
                .iter()
                .enumerate()
                .map(|(i, &(spread, snapshots, wobble, salt))| {
                    let entries =
                        if exact == 0 { top_k } else { (top_k + spread).saturating_sub(3) };
                    let cycles = 900 + wobble + 1500 * (salt % 2);
                    unit(i as u64, entries, snapshots, cycles, salt)
                })
                .collect();
            (trace(units), top_k)
        })
}

/// Whether the budget keeps the record for the whole trace: every prefix
/// of `i + 1` units holds at most `(i + 1) × top_k` entries.
fn fits_budget(t: &ProfileTrace, top_k: usize) -> bool {
    let mut entries = 0;
    t.units.iter().enumerate().all(|(i, u)| {
        entries += u.histogram.len();
        entries <= (i + 1) * top_k
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Kept or forced off, the record gives the same analysis, and the
    /// stream is rewound a second time exactly when the budget says so.
    #[test]
    fn record_and_rescan_agree((t, top_k) in straddling(), seed in any::<u64>()) {
        let sp = SimProf::new(SimProfConfig { top_k, seed, ..Default::default() });
        let mut s = CountingStream::new(&t);
        let (kept, rescans) = counting_rescans(|| sp.analyze_stream(&mut s));
        let kept = kept.expect("valid trace");
        let fits = fits_budget(&t, top_k);
        prop_assert_eq!(s.rewinds, if fits { 1 } else { 2 });
        prop_assert_eq!(rescans, u64::from(!fits));
        let mut forced = CountingStream::new(&t);
        let rescanned = sp.analyze_stream_rescanning(&mut forced).expect("valid trace");
        prop_assert_eq!(forced.rewinds, 2);
        prop_assert_eq!(bits(&kept), bits(&rescanned));
    }
}
