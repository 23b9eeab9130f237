//! Live-mode equivalence and stopping-rule soundness (DESIGN.md §16).
//!
//! The live analyzer's contract has two halves:
//!
//! 1. **Equivalence** — with stopping disabled, a run through the
//!    [`LiveAnalyzer`] sink must produce a final analysis **bit-identical**
//!    to the offline `analyze_stream` path over the same trace, at any
//!    thread count and for any seed. The online machinery (warmup seeding,
//!    incremental centers, drift re-formation) drives only the stop
//!    decision; it must never leak into the output.
//! 2. **Soundness** — when the early stop fires, the half-width the
//!    analyzer claimed must survive an independent two-pass recomputation
//!    over exactly the units seen at stop, and the stop must never fire
//!    while any non-empty live phase holds fewer than 2 units.
//!
//! The thread-count tests mutate the process-wide worker override, so they
//! serialize on a lock (same discipline as `parallel_equivalence.rs`).

use std::sync::Mutex;

use proptest::prelude::*;

use simprof::core::{LiveAnalyzer, LiveConfig, SimProf, SimProfConfig};
use simprof::engine::MethodId;
use simprof::profiler::{ProfileTrace, ProfilerConfig, SamplingUnit, UnitSink};
use simprof::sim::Counters;
use simprof::workloads::{Benchmark, Framework, WorkloadConfig};

static THREADS_LOCK: Mutex<()> = Mutex::new(());

/// A synthetic phase-structured trace: `behaviours` latent method
/// signatures, each with its own CPI plateau plus deterministic jitter.
fn structured_trace(units: usize, behaviours: usize, seed: u64) -> ProfileTrace {
    const UNIT_INSTRS: u64 = 1_000;
    let units = (0..units as u64)
        .map(|i| {
            let b = (i as usize) % behaviours;
            let jitter = (i.wrapping_mul(0x9E37_79B9).wrapping_add(seed)) % 37;
            let cycles = UNIT_INSTRS * (10 + 3 * b as u64) / 10 + jitter;
            SamplingUnit {
                id: i,
                histogram: vec![(MethodId(0), 8), (MethodId(1 + b as u32), 12)],
                snapshots: 20,
                counters: Counters { instructions: UNIT_INSTRS, cycles, ..Default::default() },
                slices: Vec::new(),
                truncated: false,
                dropped_snapshots: 0,
            }
        })
        .collect();
    ProfileTrace { unit_instrs: UNIT_INSTRS, snapshot_instrs: 50, core: 0, units }
}

fn live_over(trace: &ProfileTrace, cfg: SimProfConfig) -> LiveAnalyzer {
    let profiler = ProfilerConfig {
        unit_instrs: trace.unit_instrs,
        snapshot_instrs: trace.snapshot_instrs,
        core: trace.core,
    };
    let mut live = LiveAnalyzer::new(cfg, profiler);
    for u in &trace.units {
        if live.stop_requested() {
            break;
        }
        live.accept(u);
    }
    live
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Bit-identity: live (stopping disabled) equals offline, across
    /// random seeds, trace sizes, and behaviour counts.
    #[test]
    fn live_equals_offline_with_stopping_disabled(
        seed in any::<u64>(),
        units in 20usize..160,
        behaviours in 1usize..5,
    ) {
        let trace = structured_trace(units, behaviours, seed);
        let cfg = SimProfConfig {
            seed,
            live: Some(LiveConfig { warmup_units: 16, ..Default::default() }),
            ..Default::default()
        };
        let offline = SimProf::new(cfg).analyze(&trace).unwrap();
        let mut live = live_over(&trace, cfg);
        let (analysis, report) = live.finalize().unwrap();
        prop_assert!(!report.stopped_early, "stopping is disabled");
        prop_assert_eq!(report.units_profiled, trace.units.len());
        prop_assert_eq!(&analysis.cpis, &offline.cpis);
        prop_assert_eq!(&analysis.model.assignments, &offline.model.assignments);
        prop_assert_eq!(&analysis.model.centers, &offline.model.centers);
        prop_assert_eq!(&analysis.model.space, &offline.model.space);
        prop_assert_eq!(&analysis.stats, &offline.stats);
        prop_assert_eq!(&analysis.weights, &offline.weights);
    }

    /// Soundness: whenever the early stop fires, the claimed half-width
    /// matches an independent two-pass recomputation over exactly the
    /// units seen at stop, the claimed target is really met, and no live
    /// phase holds fewer than 2 units.
    #[test]
    fn early_stop_is_never_premature(
        seed in any::<u64>(),
        units in 100usize..240,
        behaviours in 1usize..4,
        target_rel_err in 0.02f64..0.2,
    ) {
        let trace = structured_trace(units, behaviours, seed);
        let cfg = SimProfConfig {
            seed,
            live: Some(LiveConfig {
                warmup_units: 24,
                target_rel_err,
                z: 1.96,
                ..Default::default()
            }),
            ..Default::default()
        };
        let live = live_over(&trace, cfg);
        let report = live.report();
        if !report.stopped_early {
            return;
        }
        let n = report.units_profiled;
        prop_assert!(n < trace.units.len() || n == trace.units.len());
        let asg = live.live_assignments();
        prop_assert_eq!(asg.len(), n);

        let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); live.live_k()];
        for i in 0..n {
            let u = &trace.units[i];
            buckets[asg[i]].push(u.counters.cycles as f64 / u.counters.instructions as f64);
        }
        let mut se2 = 0.0;
        for b in &buckets {
            if b.is_empty() {
                continue;
            }
            prop_assert!(b.len() >= 2, "stop fired with a 1-unit phase");
            let m = b.iter().sum::<f64>() / b.len() as f64;
            let var = b.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (b.len() - 1) as f64;
            let w = b.len() as f64 / n as f64;
            se2 += w * w * var / b.len() as f64;
        }
        let oracle_hw = 1.96 * se2.sqrt();
        let stated = report.live_half_width.expect("half-width stated at stop");
        // Streaming (Σx, Σx²) vs two-pass variance: tiny FP slack only.
        prop_assert!(
            (stated - oracle_hw).abs() <= 1e-6 * oracle_hw.max(1e-9),
            "claimed hw {} vs recomputed {}", stated, oracle_hw
        );
        let all: Vec<f64> = buckets.concat();
        let mean = all.iter().sum::<f64>() / all.len() as f64;
        prop_assert!(
            oracle_hw <= target_rel_err * mean * (1.0 + 1e-9),
            "stop fired before the target: hw {} vs target {}", oracle_hw, target_rel_err * mean
        );
    }
}

/// Bit-identity holds at 1 and N worker threads: the live analyzer is
/// single-threaded by construction, and the offline finalize path obeys
/// the workspace-wide determinism contract.
#[test]
fn live_output_identical_across_thread_counts() {
    let _guard = THREADS_LOCK.lock().unwrap();
    let trace = structured_trace(180, 3, 11);
    let cfg = SimProfConfig {
        seed: 11,
        live: Some(LiveConfig { warmup_units: 32, ..Default::default() }),
        ..Default::default()
    };
    let run = || {
        let mut live = live_over(&trace, cfg);
        let (analysis, _) = live.finalize().unwrap();
        (analysis.cpis, analysis.model.assignments, analysis.model.centers, analysis.stats)
    };
    rayon::set_threads(1);
    let one = run();
    let offline_one = SimProf::new(cfg).analyze(&trace).unwrap();
    for threads in [4, 8] {
        rayon::set_threads(threads);
        let many = run();
        assert_eq!(one, many, "live output diverged between 1 and {threads} threads");
    }
    rayon::set_threads(0);
    assert_eq!(one.0, offline_one.cpis);
    assert_eq!(one.1, offline_one.model.assignments);
}

/// Bit-identity on a real workload: WordCount on the Spark-style runtime
/// at tiny scale, replayed through the live analyzer with the default
/// live config (stopping disabled), equals the offline analysis.
#[test]
fn live_equals_offline_on_wordcount_spark() {
    let trace = Benchmark::WordCount.run(Framework::Spark, &WorkloadConfig::tiny(42));
    let cfg = SimProfConfig { seed: 42, ..SimProfConfig::default() };
    let offline = SimProf::new(cfg).analyze(&trace).unwrap();
    let mut live = live_over(&trace, SimProfConfig { live: Some(LiveConfig::default()), ..cfg });
    let (analysis, report) = live.finalize().unwrap();
    assert!(!report.stopped_early, "stopping is disabled");
    assert_eq!(report.units_profiled, trace.units.len());
    assert_eq!(analysis.cpis, offline.cpis);
    assert_eq!(analysis.model.assignments, offline.model.assignments);
    assert_eq!(analysis.model.centers, offline.model.centers);
    assert_eq!(analysis.stats, offline.stats);
}

/// A regime change the warmup never saw triggers re-formation, and the
/// final analysis still equals the offline one.
#[test]
fn drift_reformation_preserves_equivalence() {
    let mut trace = structured_trace(120, 2, 5);
    // Splice in a new behaviour after unit 120: method 9, CPI ≈ 5.
    for i in 120..300u64 {
        trace.units.push(SamplingUnit {
            id: i,
            histogram: vec![(MethodId(0), 8), (MethodId(9), 12)],
            snapshots: 20,
            counters: Counters {
                instructions: 1_000,
                cycles: 5_000 + (i % 23),
                ..Default::default()
            },
            slices: Vec::new(),
            truncated: false,
            dropped_snapshots: 0,
        });
    }
    let cfg = SimProfConfig {
        seed: 5,
        live: Some(LiveConfig { warmup_units: 32, drift_threshold: 0.2, ..Default::default() }),
        ..Default::default()
    };
    let mut live = live_over(&trace, cfg);
    let (analysis, report) = live.finalize().unwrap();
    assert!(report.reformations > 0, "regime change must re-form phases");
    let offline = SimProf::new(cfg).analyze(&trace).unwrap();
    assert_eq!(analysis.cpis, offline.cpis);
    assert_eq!(analysis.model.assignments, offline.model.assignments);
    assert_eq!(analysis.stats, offline.stats);
}
