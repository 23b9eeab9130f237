//! Command-line interface for SimProf.
//!
//! The `simprof` binary drives the whole pipeline from a shell:
//!
//! ```text
//! simprof list                                   # the 12-workload matrix
//! simprof run -w wc_sp --report run.json         # whole pipeline + run report
//! simprof run -w wc_sp --live --target-rel-err 0.05  # online phases + early stop
//! simprof profile -w wc_sp -o wc.sptrc           # run + stream a trace to disk
//! simprof trace-info -i wc.sptrc                 # footer metadata, no unit scan
//! simprof trace-info --salvage -i torn.sptrc     # damage report for a torn trace
//! simprof trace-repair -i torn.sptrc -o ok.sptrc # salvage → sealed file
//! simprof analyze -i wc.sptrc                    # phases + homogeneity (streamed)
//! simprof select  -i wc.sptrc -n 20              # simulation points + CI
//! simprof size    -i wc.sptrc --error 0.05       # required sample size
//! simprof report  -i wc.sptrc                    # per-phase method report
//! simprof sensitivity -w cc_sp                   # Algorithm 1 over Table II
//! simprof diagnose -w wc_sp --reps 50            # CI convergence + coverage
//! simprof timeline -i run.json -o timeline.json  # Perfetto timeline export
//! ```
//!
//! `profile` writes the chunked streaming `.sptrc` format (`simprof-trace`)
//! while the engine runs; it is analyzed without materializing the trace.
//! Trace inputs are auto-detected (see [`input::TraceInput`]), so legacy
//! JSON [`bundle::TraceBundle`] files from earlier releases still read —
//! bundles are read-only. Either way an
//! `analyze`/`select` run can happen on a different machine than the
//! `profile` run — mirroring the paper's profile-on-hardware /
//! simulate-elsewhere workflow — and the analysis output is bit-identical
//! across formats.

pub mod args;
pub mod bundle;
pub mod commands;
pub mod input;

use std::process::ExitCode;

/// Entry point shared by the binary and the integration tests.
pub fn run(argv: &[String]) -> ExitCode {
    match dispatch(argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parses and executes one invocation.
pub fn dispatch(argv: &[String]) -> Result<(), String> {
    let (command, rest) = argv.split_first().ok_or_else(usage)?;
    let opts = args::Options::parse(rest)?;
    if let Some(threads) = opts.threads {
        // Pin the worker count before any parallel region runs: every
        // analysis result is bit-identical at any thread count, but only if
        // the override is in place from the very first region.
        rayon::set_threads(threads);
        assert_eq!(
            rayon::current_threads(),
            threads,
            "--threads override must take effect before any parallel work"
        );
    }
    match command.as_str() {
        "list" => commands::list(&opts),
        "run" => commands::run_workload(&opts),
        "profile" => commands::profile(&opts),
        "analyze" => commands::analyze(&opts),
        "select" => commands::select(&opts),
        "size" => commands::size(&opts),
        "report" => commands::report(&opts),
        "hybrid" => commands::hybrid(&opts),
        "compare" => commands::compare(&opts),
        "export" => commands::export(&opts),
        "validate" => commands::validate(&opts),
        "serve" => commands::serve(&opts),
        "trace-info" => commands::trace_info(&opts),
        "trace-repair" => commands::trace_repair(&opts),
        "sensitivity" => commands::sensitivity(&opts),
        "diagnose" => commands::diagnose(&opts),
        "timeline" => commands::timeline(&opts),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

/// The usage text.
pub fn usage() -> String {
    "\
simprof — sampling framework for data analytic workloads (IPDPS'17)

USAGE:
    simprof <COMMAND> [OPTIONS]

COMMANDS:
    list          List the available workloads (Table I matrix)
    run           Profile → phases → points end to end (--report for a run report)
    profile       Run a workload on the simulated substrate and save a trace
    analyze       Form phases on a trace and print the homogeneity analysis
    select        Select simulation points by stratified random sampling
    size          Solve the required sample size for a target error bound
    report        Per-phase report: weights, CPI stats, characteristic methods
    hybrid        SimProf × systematic sub-unit estimator (error vs budget)
    compare       All sampling approaches on one trace (a Fig. 7 row)
    export        Write a simulation manifest for a detailed simulator
    validate      Replay selected points in isolation and compare CPIs
    serve         Run a batch of profiling jobs concurrently (--jobs file),
                  one shard per job in a --store trace store
    trace-info    Print a trace file's metadata (footer read, no unit scan;
                  --salvage forward-scans a damaged file instead)
    trace-repair  Salvage a damaged/truncated trace into a sealed file
    sensitivity   Input-sensitivity study (Algorithm 1) over the Table II graphs
    diagnose      Estimator diagnostics: CI convergence curve + empirical coverage
    timeline      Convert a run report to Chrome-trace/Perfetto timeline JSON
    help          Show this message

OPTIONS:
    -w, --workload <LABEL>   Workload label (wc_sp, sort_hp, ...); see `list`
    -i, --input <FILE>       Input trace (chunked .sptrc from `profile`, or a
                             legacy JSON bundle; auto-detected)
    -o, --output <FILE>      Output file; for `profile`/`trace-repair` the
                             chunked trace (.sptrc — JSON bundles are
                             read-only, a .json trace output is refused)
    -n, --points <N>         Number of simulation points [default: 20]
        --seed <N>           Master seed [default: 42]
        --scale <PRESET>     Workload scale: paper | tiny [default: paper]
        --error <FRAC>       Target relative error for `size` [default: 0.05]
        --z <Z>              z-score for confidence intervals [default: 3]
        --threshold <FRAC>   Sensitivity threshold for Eq. 6 [default: 0.10]
        --threads <N>        Worker threads for job construction and
                             analysis [default: SIMPROF_THREADS env var, else
                             all cores]. Results are bit-identical at any
                             thread count: traces, phase assignments, and
                             estimates carry the same bytes at --threads 1
                             and --threads 64
        --report <FILE>      Write the observability run report (span tree,
                             metrics, allocation table) as versioned JSON
        --events <FILE>      Stream the structured event log (JSONL, one
                             record per span/counter/fault/unit event; for
                             `serve` it records the fleet's job lifecycle)
        --timeline <FILE>    Write the Chrome-trace/Perfetto timeline JSON
                             (open at chrome://tracing or ui.perfetto.dev)
        --reps <N>           Seeded replications for `diagnose` [default: 50]
        --salvage            For `trace-info`: recover a damaged chunked trace
                             by forward-scanning checksummed frames instead of
                             requiring an intact footer trailer
        --live               For `run`: form phases online while profiling
                             (warmup seeding, drift-triggered re-formation).
                             Without a stopping target the result is
                             bit-identical to the offline pipeline
        --target-rel-err <FRAC>  For `run --live`: stop profiling once the live
                             CI half-width is within FRAC of the mean CPI
                             (implies --live)
        --codec <NAME>       Per-frame trace compression for `profile`,
                             `trace-repair` and `serve` (the default for jobs
                             that do not choose one): raw | lz [default: raw]
        --jobs <FILE>        For `serve`: JSON array of job specs ({id,
                             workload, seed?, scale?, codec?, mem_cap_mb?,
                             tenant?})
        --store <DIR>        For `serve`: store root; shards land under
                             DIR/shards/, the index at DIR/index.json
        --progress           For `serve`: paint a periodic one-line fleet
                             status (queued/running/done/failed, per-tenant
                             counts) on stderr while jobs run
        --fleet-report <FILE> For `serve`: write the per-tenant FleetReport
                             JSON (queue-wait/run-time quantiles, pool
                             shares, compression ratios) after the run
        --fleet-timeline <FILE> For `serve`: write a Chrome-traceable fleet
                             timeline, one track per worker thread
"
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert!(dispatch(&argv("frobnicate")).is_err());
    }

    #[test]
    fn help_succeeds() {
        assert!(dispatch(&argv("help")).is_ok());
    }

    #[test]
    fn empty_invocation_is_an_error() {
        assert!(dispatch(&[]).is_err());
    }

    #[test]
    fn list_runs() {
        assert!(dispatch(&argv("list")).is_ok());
    }
}
