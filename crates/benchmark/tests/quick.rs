//! The `--quick` smoke, run in-process: every metric `BENCHMARK.json`
//! declares is emitted with its unit, and each workload's output digest is
//! a function of the seed.

use serde_json::Value;
use simprof_benchmark::spec::{MetricSpec, Spec};
use simprof_benchmark::{run, Args, Report};

/// Heap accounting, as in the binary, so `peak_heap_mb` is measured.
#[global_allocator]
static ALLOC: simprof_obs::TrackingAllocator = simprof_obs::TrackingAllocator;

fn quick(seed: u64, traced: bool, tag: &str) -> Report {
    let work = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("quick-{tag}"));
    let mut argv: Vec<String> = vec!["--quick".into(), "--seed".into(), seed.to_string()];
    argv.extend(["--work".into(), work.display().to_string()]);
    if traced {
        argv.push("--traced".into());
    }
    let report = run(&Args::parse(&argv).expect("valid flags")).expect("quick run completes");
    assert!(report.correct(), "{}", report.render());
    assert!(!work.exists(), "the scratch directory is removed after the run");
    report
}

/// Per-layer metrics a workload must actually measure (others read 0
/// with no samples there). The `*_p90` latency needs 100 samples, which a
/// quick run never has.
fn measured_on(workload: &str, metric: &str) -> bool {
    let in_list = |list: &[&str]| list.iter().any(|p| metric.starts_with(p));
    match workload {
        "catalog_run" => !in_list(&["service.", "obs.events", "trace.write_us_per_mb.lz"]),
        "analyze_fine" => in_list(&[
            "profiler.",
            "trace.read_ms",
            "trace.stored_bytes",
            "trace.raw_bytes",
            "trace.ratio",
            "core.",
            "stats.",
            "obs.overhead_pct",
        ]),
        "serve_fleet" => !in_list(&["core.", "stats.", "trace.read_ms", "service.queue_p90_ms"]),
        other => panic!("unknown workload {other}"),
    }
}

/// Checks that every metric in `declared` appears in each workload's
/// `results.json` entry with the declared unit, or was refused by the tail
/// rule with a reason; `measured` says which must have samples.
fn assert_emitted(report: &Report, declared: &[MetricSpec], measured: impl Fn(&str, &str) -> bool) {
    let results = report.results_json();
    for run in &report.runs {
        let entry = results.get("workloads").and_then(|w| w.get(run.name)).expect("entry");
        for m in declared {
            match entry.get("metrics").and_then(|ms| ms.get(&m.name)) {
                Some(v) => {
                    assert_eq!(v.get("unit").and_then(Value::as_str), Some(m.unit.as_str()));
                    assert!(v.get("value").and_then(Value::as_f64).is_some_and(f64::is_finite));
                    let samples = v.get("samples").and_then(Value::as_u64).unwrap_or(0);
                    if measured(run.name, &m.name) {
                        assert!(samples > 0, "{}: {} has no samples", run.name, m.name);
                    }
                }
                None => assert!(
                    m.name.ends_with("p90_ms") && run.refused.contains_key(&m.name),
                    "{}: {} neither emitted nor refused",
                    run.name,
                    m.name
                ),
            }
        }
    }
}

#[test]
fn quick_runs_emit_every_metric_and_digests_follow_the_seed() {
    let spec = Spec::get();

    let a = quick(7, false, "a");
    assert_eq!(a.runs.len(), spec.workloads.len());
    assert_emitted(&a, &spec.end_to_end, |_, _| true);
    let line = a.summary_line();
    for key in ["correct", "attempted", "failed", "metrics"] {
        assert!(line.get(key).is_some(), "summary line lacks `{key}`");
    }

    let traced = quick(7, true, "traced");
    assert_emitted(&traced, &spec.per_layer, measured_on);

    let again = quick(7, false, "again");
    let other = quick(8, false, "other");
    for ((x, y), z) in a.runs.iter().zip(&again.runs).zip(&other.runs) {
        assert_eq!(x.digest(), y.digest(), "{}: same seed, same digest", x.name);
        assert_ne!(x.digest(), z.digest(), "{}: another seed, another digest", x.name);
    }
}

#[test]
fn bad_flags_are_rejected() {
    for argv in [
        vec!["--workload", "nope"],
        vec!["--trace", "2"],
        vec!["--seed"],
        vec!["--seconds", "-1"],
        vec!["--frobnicate"],
    ] {
        let argv: Vec<String> = argv.into_iter().map(str::to_owned).collect();
        assert!(Args::parse(&argv).is_err(), "{argv:?} must be rejected");
    }
    let args =
        Args::parse(&["--trace".into(), "1".into(), "--workload".into(), "serve_fleet".into()])
            .unwrap();
    assert!(args.ctx.traced);
    assert_eq!(args.workloads, ["serve_fleet"]);
}
