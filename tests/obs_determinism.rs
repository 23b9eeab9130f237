//! The observability layer must be a pure observer: running the pipeline
//! under a recording context produces bit-identical results to running it
//! with observability disabled, and the context's report still covers every
//! pipeline stage.

use rayon::prelude::*;
use simprof::core::{SimProf, SimProfConfig};
use simprof::obs;
use simprof::workloads::{Benchmark, Framework, WorkloadConfig};

/// The tests share the process-wide worker-pool size, which one of them
/// changes, so they serialize explicitly here.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Profile → phases → points → estimate, serialized canonically so any
/// perturbation — a reordered tie-break, a consumed RNG draw, a rounded
/// float — shows up as a byte difference.
fn run_pipeline() -> String {
    let cfg = WorkloadConfig::tiny(11);
    let trace = Benchmark::Grep.run(Framework::Spark, &cfg);
    let analysis = SimProf::new(SimProfConfig { seed: 3, ..Default::default() })
        .analyze(&trace)
        .expect("valid trace");
    let points = analysis.select_points(8, 21);
    let est = analysis.estimate(&points, 3.0);
    // A pool region entered on purpose, so an observed run records
    // `parallel.worker` spans however much the analysis itself spends on
    // the pool.
    let snapshots: u64 = trace.units.par_iter().map(|u| u64::from(u.snapshots)).sum();
    format!(
        "{snapshots}\n{}\n{}\n{}\n{}",
        serde_json::to_string(&trace).unwrap(),
        serde_json::to_string(&points).unwrap(),
        serde_json::to_string(&est).unwrap(),
        serde_json::to_string(&analysis.allocation_table(&points)).unwrap(),
    )
}

#[test]
fn reporting_session_does_not_perturb_the_pipeline() {
    let _serial = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    assert!(!obs::enabled(), "observability starts disabled");
    let baseline = run_pipeline();

    let ctx = obs::ObsContext::new();
    let installed = ctx.install();
    assert!(obs::enabled(), "an installed context enables collection");
    let observed = run_pipeline();
    let report = ctx.finish_report();
    assert!(!obs::enabled(), "finish disables collection again");
    drop(installed);

    assert_eq!(baseline, observed, "observed run must be bit-identical to the unobserved run");

    // The context saw every pipeline stage while changing none of them.
    for span in
        ["workloads.build", "engine.run", "core.analyze", "core.form_phases", "core.select_points"]
    {
        assert!(report.find_span(span).is_some(), "report lacks span `{span}`");
    }
    assert!(report.metrics.counters.contains_key("core.units_analyzed"));

    // And a rerun after the context finished is still byte-identical.
    assert_eq!(baseline, run_pipeline(), "pipeline output must not drift after a report");
}

#[test]
fn event_streaming_and_timeline_export_do_not_perturb_the_pipeline() {
    let _serial = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    // Force a real worker pool so the run exercises the parallel regions
    // (and their span hooks) even on a single-core host.
    rayon::set_threads(2);
    let baseline = run_pipeline();

    let dir = std::env::temp_dir().join("simprof_obs_determinism");
    std::fs::create_dir_all(&dir).unwrap();
    let events_path = dir.join("events.jsonl");
    let timeline_path = dir.join("timeline.json");

    // Full sink stack live: context + streaming JSONL event sink, with the
    // Chrome-trace export run afterwards from the finished report.
    let ctx = obs::ObsContext::new();
    let installed = ctx.install();
    let sink = obs::JsonlEventWriter::create(&events_path).expect("create event log");
    obs::events::install(Box::new(sink));
    assert!(obs::event_streaming(), "sink installation enables streaming");
    let observed = run_pipeline();
    let report = ctx.finish_report();
    assert!(!obs::event_streaming(), "finish uninstalls the sink");
    drop(installed);
    obs::write_chrome_trace(&report, &timeline_path).expect("write timeline");
    rayon::set_threads(0);

    assert_eq!(
        baseline, observed,
        "run with event streaming must be bit-identical to the unobserved run"
    );

    // The streamed log is real: meta header first, then span and counter
    // records with strictly increasing sequence numbers.
    let log = std::fs::read_to_string(&events_path).unwrap();
    let lines: Vec<&str> = log.lines().collect();
    assert!(lines.len() > 2, "event log captured the run");
    assert!(lines[0].contains("\"meta\""), "first record is the meta header: {}", lines[0]);
    assert!(log.contains("span_open"), "log carries span_open records");
    assert!(log.contains("span_close"), "log carries span_close records");
    assert!(log.contains("counter"), "log carries counter records");
    let seqs: Vec<u64> = lines
        .iter()
        .map(|l| {
            let v: serde_json::Value = serde_json::from_str(l).expect("record parses");
            v.get("seq").and_then(serde_json::Value::as_u64).expect("record has seq")
        })
        .collect();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "seq strictly increasing");

    // Worker-thread attribution made it through: the report holds a
    // parallel.worker span on a different thread than the driver's spans,
    // and the timeline names the worker's tid. (Thread ids are assigned on
    // first span entry, so the driver is identified by its engine.run span
    // rather than assumed to be id 0.)
    let worker = report.find_span("parallel.worker").expect("report records a worker span");
    let driver = report.find_span("engine.run").expect("report records the engine span");
    assert_ne!(worker.thread, driver.thread, "worker span is not on the driver thread");
    let timeline = std::fs::read_to_string(&timeline_path).unwrap();
    assert!(timeline.contains("traceEvents"));
    assert!(timeline.contains("worker-"), "timeline names a worker thread");

    let _ = std::fs::remove_file(&events_path);
    let _ = std::fs::remove_file(&timeline_path);

    // A rerun with everything torn down is still byte-identical.
    assert_eq!(baseline, run_pipeline(), "pipeline output must not drift after streaming");
}

#[test]
fn job_construction_is_its_own_span_under_the_profile_span() {
    let _serial = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let dir = std::env::temp_dir().join("simprof_obs_build_span");
    std::fs::create_dir_all(&dir).unwrap();
    let report_path = dir.join("run_report.json");
    let argv: Vec<String> = ["run", "-w", "wc_sp", "--scale", "tiny", "--seed", "5", "-n", "5"]
        .into_iter()
        .map(str::to_owned)
        .chain(["--report".to_owned(), report_path.to_string_lossy().into_owned()])
        .collect();
    simprof_cli::dispatch(&argv).expect("run succeeds");
    let text = std::fs::read_to_string(&report_path).unwrap();
    let report: obs::RunReport = serde_json::from_str(text.trim_end()).unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    // Input synthesis and job construction are a layer of their own inside
    // the profile step, finished before the engine starts.
    let profile = report.find_span("cli.profile").expect("report records the profile span");
    let build = profile.find("workloads.build").expect("job construction nests under profile");
    let engine = profile.find("engine.run").expect("engine run nests under profile");
    assert!(build.elapsed_us > 0, "the build span covers real work");
    assert!(
        build.start_us + build.elapsed_us <= engine.start_us,
        "the job is built before it runs"
    );
}

#[test]
fn select_report_splits_the_trace_scan_into_decompress_and_parse() {
    let _serial = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let dir = std::env::temp_dir().join("simprof_obs_select_spans");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t.sptrc").to_string_lossy().into_owned();
    let report_path = dir.join("select_report.json").to_string_lossy().into_owned();
    let argv = |args: &[&str]| args.iter().map(|s| (*s).to_owned()).collect::<Vec<String>>();
    simprof_cli::dispatch(&argv(&[
        "profile", "-w", "wc_sp", "--scale", "tiny", "--seed", "5", "--codec", "lz", "-o", &trace,
    ]))
    .expect("profile succeeds");
    simprof_cli::dispatch(&argv(&["select", "-i", &trace, "-n", "5", "--report", &report_path]))
        .expect("select succeeds");
    let text = std::fs::read_to_string(&report_path).unwrap();
    let report: obs::RunReport = serde_json::from_str(text.trim_end()).unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    // Every unit frame the scan reads is one decompress span then one
    // parse span, directly under `core.scan`.
    let scan = report.find_span("core.scan").expect("select records the scan");
    let names: Vec<&str> = scan.children.iter().map(|c| c.name.as_str()).collect();
    assert!(names.len() >= 2, "the scan read at least one frame: {names:?}");
    let (pairs, footer) = names.split_at(names.len() - 1);
    assert_eq!(footer, ["trace.decompress"], "the footer frame ends the stream");
    assert!(
        pairs.chunks(2).all(|p| p == ["trace.decompress", "trace.parse"]),
        "one decompress/parse pair per unit frame: {names:?}"
    );
}
