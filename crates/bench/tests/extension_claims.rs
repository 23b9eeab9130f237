//! The extension experiments' claims (DESIGN.md §6), checked at the
//! figure-generation scale on the same computations `all_figures` records.
//!
//! `#[ignore]`d by default so debug test runs stay fast. Run them with:
//!
//! ```text
//! cargo test --release -p simprof-bench --test extension_claims -- --ignored
//! ```

use simprof_bench::{figures, run_all_workloads, EvalConfig};

/// SMARTS-style systematic sampling lands between SimProf and SRS on
/// average (related work, §V).
#[test]
#[ignore = "paper-scale; run with --release -- --ignored"]
fn systematic_error_lies_between_simprof_and_srs() {
    let cfg = EvalConfig::paper(42);
    let runs = run_all_workloads(&cfg);
    let rows = figures::ext_systematic(&runs, &cfg);
    let avg = rows.last().expect("average row");
    assert_eq!(avg.label, "average");
    assert!(
        avg.simprof < avg.systematic && avg.systematic < avg.srs,
        "SimProf {} < SYSTEMATIC {} < SRS {} does not hold",
        avg.simprof,
        avg.systematic,
        avg.srs
    );
}

/// Under a 20 % combined runtime fault rate, SimProf's error stays within
/// 2x of the fault-free error.
#[test]
#[ignore = "paper-scale; run with --release -- --ignored"]
fn fault_error_at_twenty_percent_within_twice_fault_free() {
    let rows = figures::ext_faults(&EvalConfig::paper(42));
    let (clean, at20) = (&rows[0], &rows[2]);
    assert_eq!((clean.rate, at20.rate), ("0%", "20%"));
    assert!(
        at20.error <= 2.0 * clean.error,
        "error at 20% faults {} vs fault-free {}",
        at20.error,
        clean.error
    );
}
