//! `simprof-benchmark`: see the crate's `README.md`.
//!
//! ```text
//! simprof-benchmark [--workload NAME]... [--seed N] [--seconds S]
//!                   [--trace 0|1 | --traced] [--quick] [--out DIR] [--work DIR]
//! simprof-benchmark compare BASE_DIR... -- HEAD_DIR...
//! ```
//!
//! Prints every metric with its unit and sample count, then, as the last
//! line of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Exits 1 when an op or a correctness check
//! failed, 2 on a usage or set-up error.

use std::process::ExitCode;

use simprof_benchmark::{compare, run, Args};

/// Real heap accounting for `peak_heap_mb` and the jobs' memory caps, as
/// in the `simprof` binary.
#[global_allocator]
static ALLOC: simprof_obs::TrackingAllocator = simprof_obs::TrackingAllocator;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match compare::main(&argv[1..]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let report = match Args::parse(&argv).and_then(|args| {
        let report = run(&args)?;
        if let Some(dir) = &args.out {
            report.write(dir)?;
        }
        Ok(report)
    }) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", report.render());
    let line = serde_json::to_string(&report.summary_line()).expect("summary encodes");
    println!("{line}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
