//! Perf-regression gate: compare a fresh `bench_pipeline` record against
//! the canonical record committed in-repo. Both sides are read as the
//! typed records of `simprof_bench::records`.
//!
//! ```text
//! perf_gate --canonical canonical/BENCH_pipeline.json --fresh BENCH_pipeline.json \
//!     [--trace-canonical canonical/BENCH_trace_stream.json --trace-fresh BENCH_trace_stream.json] \
//!     [--max-regress 0.25]
//! ```
//!
//! CI runners and dev boxes differ in absolute speed, so wall-clock seconds
//! are never compared directly. Every run of `bench_pipeline` times the
//! naive 1-thread sweep (`baseline_sweep_secs`) on the same machine in the
//! same process, so each phase is first normalized to that run's own
//! baseline: `phase_secs / baseline_sweep_secs` is a machine-free ratio.
//! The gate fails when a fresh normalized phase exceeds the canonical
//! normalized phase by more than `--max-regress` (default 25 %).
//!
//! Phases whose canonical wall-clock is under [`MIN_PHASE_SECS`] are
//! reported but not gated: a 2 ms phase regressing to 3 ms is timer noise,
//! not a regression.
//!
//! Correctness flags are gated unconditionally: the fresh record must show
//! bit-identical traces and phase assignments across thread counts, and the
//! chosen k must match the canonical record — a "speedup" that changes
//! results is a bug, not a win.

use std::process::ExitCode;

use simprof_bench::records::{load_record, PipelinePhases, PipelineRecord, TraceStreamRecord};

/// Canonical phases shorter than this are too noisy to gate.
const MIN_PHASE_SECS: f64 = 0.02;

/// Default allowed normalized regression (fraction over canonical).
const DEFAULT_MAX_REGRESS: f64 = 0.25;

struct Args {
    canonical: String,
    fresh: String,
    trace_canonical: Option<String>,
    trace_fresh: Option<String>,
    max_regress: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut canonical = None;
    let mut fresh = None;
    let mut trace_canonical = None;
    let mut trace_fresh = None;
    let mut max_regress = DEFAULT_MAX_REGRESS;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} requires a value"));
        match flag.as_str() {
            "--canonical" => canonical = Some(value()?),
            "--fresh" => fresh = Some(value()?),
            "--trace-canonical" => trace_canonical = Some(value()?),
            "--trace-fresh" => trace_fresh = Some(value()?),
            "--max-regress" => {
                max_regress =
                    value()?.parse().map_err(|e| format!("invalid --max-regress: {e}"))?;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        canonical: canonical.ok_or("--canonical is required")?,
        fresh: fresh.ok_or("--fresh is required")?,
        trace_canonical,
        trace_fresh,
        max_regress,
    })
}

/// The records must describe the same experiment, else ratios are apples
/// to oranges. Each entry is `(field, canonical, fresh)`.
fn check_config_match(fields: &[(&str, u64, u64)]) -> Result<(), String> {
    for &(f, c, n) in fields {
        if c != n {
            return Err(format!("config mismatch on `{f}`: canonical {c} vs fresh {n}"));
        }
    }
    Ok(())
}

/// One gated comparison; returns the failure message when the phase
/// regressed past the budget.
fn gate_phase(
    label: &str,
    canon_secs: f64,
    fresh_secs: f64,
    canon_base: f64,
    fresh_base: f64,
    max_regress: f64,
) -> Option<String> {
    let canon_ratio = canon_secs / canon_base;
    let fresh_ratio = fresh_secs / fresh_base;
    let delta = fresh_ratio / canon_ratio - 1.0;
    let gated = canon_secs >= MIN_PHASE_SECS;
    println!(
        "  {label:<16} canonical {canon_secs:>8.3} s ({canon_ratio:>6.4}×base)  \
         fresh {fresh_secs:>8.3} s ({fresh_ratio:>6.4}×base)  delta {:+6.1}%{}",
        delta * 100.0,
        if gated { "" } else { "  [not gated: canonical below noise floor]" }
    );
    if gated && delta > max_regress {
        Some(format!(
            "phase `{label}` regressed {:.1}% normalized (budget {:.0}%)",
            delta * 100.0,
            max_regress * 100.0
        ))
    } else {
        None
    }
}

fn check_pipeline(args: &Args) -> Result<Vec<String>, String> {
    let canon: PipelineRecord = load_record(&args.canonical)?;
    let fresh: PipelineRecord = load_record(&args.fresh)?;
    check_config_match(&[
        ("units", canon.units as u64, fresh.units as u64),
        ("features", canon.features as u64, fresh.features as u64),
        ("k_max", canon.k_max as u64, fresh.k_max as u64),
        ("seed", canon.seed, fresh.seed),
        ("threads", canon.threads as u64, fresh.threads as u64),
    ])?;

    let mut failures = Vec::new();

    // Correctness first: identity flags and the chosen k are absolute.
    for (flag, ok) in [
        ("simulate.trace_bytes_identical_1_vs_n", fresh.simulate.trace_bytes_identical_1_vs_n),
        ("cluster.assignments_identical_1_vs_n", fresh.cluster.assignments_identical_1_vs_n),
    ] {
        if !ok {
            failures.push(format!("fresh record has `{flag}` = false"));
        }
    }
    let (canon_k, fresh_k) = (canon.chosen_k_optimized, fresh.chosen_k_optimized);
    if canon_k != fresh_k {
        failures.push(format!("chosen k drifted: canonical {canon_k} vs fresh {fresh_k}"));
    }

    let (canon_base, fresh_base) = (canon.baseline_sweep_secs, fresh.baseline_sweep_secs);
    if canon_base <= 0.0 || fresh_base <= 0.0 {
        return Err("baseline_sweep_secs must be positive in both records".into());
    }

    println!("pipeline phases (normalized to each run's own naive baseline):");
    let phases = |p: &PipelinePhases| {
        [
            ("synthesize_secs", p.synthesize_secs),
            ("simulate_secs", p.simulate_secs),
            ("cluster_secs", p.cluster_secs),
            ("sampling_secs", p.sampling_secs),
        ]
    };
    for ((phase, canon_secs), (_, fresh_secs)) in
        phases(&canon.phases).into_iter().zip(phases(&fresh.phases))
    {
        failures.extend(gate_phase(
            phase,
            canon_secs,
            fresh_secs,
            canon_base,
            fresh_base,
            args.max_regress,
        ));
    }

    // End-to-end speedup is already self-normalized (baseline and optimized
    // sweep run back to back on the same machine), so gate it directly.
    let (canon_speedup, fresh_speedup) = (canon.speedup, fresh.speedup);
    println!(
        "  speedup          canonical {canon_speedup:>7.2}×          fresh {fresh_speedup:>7.2}×"
    );
    if fresh_speedup < canon_speedup * (1.0 - args.max_regress) {
        failures.push(format!(
            "end-to-end speedup fell to {fresh_speedup:.2}× (canonical {canon_speedup:.2}×, \
             budget -{:.0}%)",
            args.max_regress * 100.0
        ));
    }
    Ok(failures)
}

fn check_trace_stream(
    canonical: &str,
    fresh_path: &str,
    max_regress: f64,
) -> Result<Vec<String>, String> {
    let canon: TraceStreamRecord = load_record(canonical)?;
    let fresh: TraceStreamRecord = load_record(fresh_path)?;
    check_config_match(&[
        ("units", canon.units as u64, fresh.units as u64),
        (
            "hist_entries_per_unit",
            canon.hist_entries_per_unit as u64,
            fresh.hist_entries_per_unit as u64,
        ),
        ("method_universe", canon.method_universe as u64, fresh.method_universe as u64),
        ("chunk_units", canon.chunk_units as u64, fresh.chunk_units as u64),
        ("seed", canon.seed, fresh.seed),
    ])?;

    let mut failures = Vec::new();
    if !fresh.bit_identical {
        failures.push("fresh trace-stream record has `bit_identical` = false".into());
    }

    // The in-run baseline here is the batch path: streamed/batch time and
    // peak-heap ratios are machine-free.
    println!("trace-stream (normalized to each run's own batch path):");
    failures.extend(gate_phase(
        "streamed_secs",
        canon.streamed_secs,
        fresh.streamed_secs,
        canon.batch_secs,
        fresh.batch_secs,
        max_regress,
    ));
    let (canon_mem, fresh_mem) =
        (canon.stream_to_batch_peak_ratio, fresh.stream_to_batch_peak_ratio);
    println!("  peak-heap ratio  canonical {canon_mem:>7.3}          fresh {fresh_mem:>7.3}");
    if fresh_mem > canon_mem * (1.0 + max_regress) {
        failures.push(format!(
            "streamed peak-heap ratio grew to {fresh_mem:.3} (canonical {canon_mem:.3}, \
             budget +{:.0}%)",
            max_regress * 100.0
        ));
    }
    Ok(failures)
}

fn run() -> Result<Vec<String>, String> {
    let args = parse_args()?;
    let mut failures = check_pipeline(&args)?;
    match (&args.trace_canonical, &args.trace_fresh) {
        (Some(c), Some(f)) => failures.extend(check_trace_stream(c, f, args.max_regress)?),
        (None, None) => {}
        _ => return Err("--trace-canonical and --trace-fresh must be given together".into()),
    }
    Ok(failures)
}

fn main() -> ExitCode {
    match run() {
        Ok(failures) if failures.is_empty() => {
            println!("perf gate: OK");
            ExitCode::SUCCESS
        }
        Ok(failures) => {
            for f in &failures {
                eprintln!("perf gate FAIL: {f}");
            }
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perf gate error: {e}");
            ExitCode::FAILURE
        }
    }
}
