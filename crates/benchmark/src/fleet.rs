//! `serve_fleet`: `simprof serve --threads 2 --events F --fleet-report R`.
//!
//! One fleet is 48 jobs submitted at once to a [`JobRunner`] with two
//! workers and a JSONL lifecycle sink, followed by the store index and the
//! fleet report. Job `i` runs Table I workload `i mod 12` at its own seed;
//! jobs spread over three tenants under a 512 MiB cap, and every third
//! writes an LZ shard. Each job carries its own observability context, so
//! the obs layer is always on; analysis is never reached.

use std::path::Path;
use std::time::Instant;

use simprof_core::{SimProf, SimProfConfig};
use simprof_obs::{FleetReport, JsonlEventWriter};
use simprof_profiler::{SharedSink, UnitSink};
use simprof_service::{fleet_report, JobOutcome, JobRunner, JobSpec, TraceStore};
use simprof_stats::split_seed;
use simprof_trace::{read_trace, TraceReader, TraceWriter};
use simprof_workloads::WorkloadId;

use crate::measure::{
    build_ms, counter, mib, ms, span_ms, Accum, LayerSamples, Measured, OpLog, Quality, TimedSink,
    Timeline,
};
use crate::spans::Tracer;
use crate::{stats, threads, Ctx, TracedLoop, WorkloadRun};

/// Jobs per fleet.
const FLEET_JOBS: usize = 48;
/// Timed fleets (192 jobs): single fleets differ by about 10 % in
/// throughput, so `ops_per_s` pools several.
const MIN_FLEETS: u64 = 4;
/// Per-job memory budget.
const MEM_CAP_MB: u64 = 512;

/// The `slot`-th job of a fleet whose first job has global index `first`.
fn job_spec(cx: &Ctx, first: u64, slot: usize) -> JobSpec {
    let workloads = WorkloadId::all();
    let global = first + slot as u64;
    let mut spec = JobSpec::new(&format!("job-{global:05}"), &workloads[slot % 12].label());
    spec.seed = Some(split_seed(cx.seed, global));
    spec.scale = Some(cx.scale().name().to_owned());
    spec.codec = (slot % 3 == 0).then(|| "lz".to_owned());
    spec.mem_cap_mb = Some(MEM_CAP_MB);
    spec.tenant = Some(format!("tenant-{}", slot % 3));
    spec
}

/// One fleet's results.
struct FleetOut {
    specs: Vec<JobSpec>,
    results: Vec<Result<JobOutcome, String>>,
    report: FleetReport,
    store: String,
    events: usize,
    timeline: Timeline,
    outer: (Instant, Instant),
    /// The runner clock's origin on the benchmark's clock.
    clock_origin: Instant,
}

/// Runs one fleet in `dir` (created fresh; the store, event log and fleet
/// report live there).
fn run_fleet(dir: &Path, specs: Vec<JobSpec>) -> Result<FleetOut, String> {
    let _ = std::fs::remove_dir_all(dir);
    let store = dir.join("store").to_string_lossy().into_owned();
    let events_path = dir.join("events.jsonl");
    let report_path = dir.join("fleet_report.json");
    let runner = JobRunner::new(TraceStore::create(&store)?);
    let clock_origin = Instant::now();
    let runner = runner
        .with_max_concurrent(threads())
        .with_event_sink(Box::new(JsonlEventWriter::create(&events_path)?));

    let outer_start = Instant::now();
    let mut timeline = Timeline::start();
    let results = runner.run(&specs);
    timeline.mark("service.run");
    let index = runner.store().write_index();
    timeline.mark("service.index");
    let report = fleet_report(runner.store(), &specs, &results).and_then(|r| {
        std::fs::write(&report_path, r.to_json_pretty())
            .map_err(|e| format!("write {}: {e}", report_path.display()))?;
        Ok(r)
    });
    timeline.mark("service.fleet_report");
    let outer = (outer_start, Instant::now());
    index?;
    let events = std::fs::read_to_string(&events_path)
        .map_err(|e| format!("read {}: {e}", events_path.display()))?
        .lines()
        .count()
        .saturating_sub(1);
    Ok(FleetOut { specs, results, report: report?, store, events, timeline, outer, clock_origin })
}

impl FleetOut {
    /// The serve contract: every job `Ok` and within its cap, each shard's
    /// footer count equal to the units the job profiled, and a clean
    /// store.
    fn check(&self, run: &mut WorkloadRun) {
        for (spec, result) in self.specs.iter().zip(&self.results) {
            match result {
                Ok(o) if !o.within_cap => {
                    run.fail(format!("{}: peak {} bytes over its budget", o.id, o.peak_bytes))
                }
                Ok(o) if o.units != counter(&o.report, "profiler.units") => run.fail(format!(
                    "{}: shard holds {} units, the profiler closed {}",
                    o.id,
                    o.units,
                    counter(&o.report, "profiler.units")
                )),
                Ok(_) => {}
                Err(e) => run.fail(format!("{}: {e}", spec.id)),
            }
        }
        match TraceStore::validate(&self.store) {
            Ok(check) if check.clean() => {}
            Ok(check) => run.fail(format!("store: {}", check.problems.join("; "))),
            Err(e) => run.fail(format!("store: {e}")),
        }
    }

    fn shard(&self, o: &JobOutcome) -> String {
        Path::new(&self.store).join(&o.shard).to_string_lossy().into_owned()
    }

    fn ok(&self) -> impl Iterator<Item = (&JobSpec, &JobOutcome)> {
        self.specs.iter().zip(&self.results).filter_map(|(s, r)| r.as_ref().ok().map(|o| (s, o)))
    }

    /// Hash of each job's output: workload, seed, units and shard bytes.
    fn digest_into(&self, run: &mut WorkloadRun) -> Result<(), String> {
        for (spec, o) in self.ok() {
            let bytes = std::fs::read(self.shard(o)).map_err(|e| format!("{}: {e}", o.id))?;
            let mut h = stats::Fnv::default();
            h.write_str(&spec.workload);
            h.write_u64(spec.seed());
            h.write_u64(o.units);
            h.write(&bytes);
            run.digest_op(h.value());
        }
        Ok(())
    }

    /// Analyzes every stored shard as `simprof analyze` would.
    fn quality_into(&self, quality: &mut Quality) -> Result<(), String> {
        for (spec, o) in self.ok() {
            let mut reader = TraceReader::open(&self.shard(o))?;
            let analysis = SimProf::new(SimProfConfig { seed: spec.seed(), ..Default::default() })
                .analyze_stream(&mut reader)
                .map_err(|e| format!("{}: analyze: {e}", o.id))?;
            quality.add(&analysis, spec.seed());
        }
        Ok(())
    }

    /// Per-layer samples every fleet yields (the runner's own
    /// observability is always on).
    fn layers_into(&self, layers: &mut LayerSamples) {
        for (_, o) in self.ok() {
            layers.push("service.queue_ms", o.queue_us as f64 / 1e3);
            layers.push("service.run_ms", o.run_us as f64 / 1e3);
            layers.push("service.job_peak_mb", mib(o.peak_bytes));
            let engine_ms = span_ms(&o.report, "engine.run");
            let quanta = counter(&o.report, "engine.quanta");
            layers.push("engine.run_ms", engine_ms);
            layers.push("engine.quanta", quanta as f64);
            if quanta > 0 {
                layers.push("engine.ns_per_quantum", engine_ms * 1e6 / quanta as f64);
            }
            layers.push("profiler.units", o.units as f64);
            layers.push("profiler.snapshots", counter(&o.report, "profiler.snapshots") as f64);
        }
        for j in self.report.jobs.iter().filter(|j| j.ok) {
            layers.push("trace.stored_bytes", j.stored_payload_bytes as f64);
            layers.push("trace.raw_bytes", j.raw_payload_bytes as f64);
            layers.push("trace.ratio", j.stored_payload_bytes as f64 / j.raw_payload_bytes as f64);
        }
        layers.push("service.index_ms", self.timeline.stage_ms("service.index"));
        layers.push("service.fleet_report_ms", self.timeline.stage_ms("service.fleet_report"));
        layers.push("obs.events", self.events as f64 / self.specs.len() as f64);
    }

    /// Records the fleet's spans: the fleet and its stages on the
    /// benchmark's track, each job (with its `engine.run`) on its worker's.
    fn spans_into(&self, tracer: &mut Tracer) -> usize {
        let fleet_op = tracer.new_op();
        let (root, _) = self.timeline.record(tracer, fleet_op, "serve_fleet.fleet", self.outer);
        let origin = tracer.at(self.clock_origin);
        for (_, o) in self.ok() {
            let op = tracer.new_op();
            let start = origin + o.started_us as f64;
            let track = 2 + o.worker;
            let job = tracer.push(op, None, "service.job", start, o.run_us as f64, 1, track);
            tracer.fold_report(op, job, &o.report, start, &["engine.run"], track);
        }
        root
    }

    /// Bench-side timings the runner cannot expose from inside a job:
    /// input synthesis (a separate `Benchmark::build`) and the trace write
    /// path (each stored shard's units pushed again through a timed
    /// writer of the same codec, which must reproduce the shard's bytes).
    fn extras_into(&self, layers: &mut LayerSamples, scratch: &str) -> Result<(), String> {
        for (spec, o) in self.ok() {
            let (build, instrs) = build_ms(spec.resolve_workload()?, &spec.workload_config()?);
            layers.push("workloads.build_ms", build);
            let engine_ms = span_ms(&o.report, "engine.run");
            if engine_ms > 0.0 {
                layers.push("sim.minstr_per_s", instrs as f64 / 1e3 / engine_ms);
            }

            let shard = self.shard(o);
            let meta = TraceReader::open(&shard)?.meta().clone();
            let (trace, footer) = read_trace(&shard)?;
            let codec = spec.resolve_codec()?;
            let writer = match codec {
                None => TraceWriter::create(scratch, &meta)?,
                Some(c) => TraceWriter::create_compressed(scratch, &meta, c)?,
            };
            let shared = SharedSink::new(writer);
            let acc = Accum::default();
            let mut sink = TimedSink::new(shared.clone(), acc.clone());
            for unit in &trace.units {
                sink.accept(unit);
            }
            sink.finish();
            let started = Instant::now();
            shared.lock().finish(&footer.registry)?;
            let finish_ms = ms(started.elapsed());
            let same = std::fs::read(scratch).ok() == std::fs::read(&shard).ok();
            if !same {
                return Err(format!("{}: re-writing the shard's units changed its bytes", o.id));
            }
            layers.push("trace.write_ms", acc.ms());
            layers.push("trace.finish_ms", finish_ms);
            let raw =
                self.report.jobs.iter().find(|j| j.id == o.id).map_or(0, |j| j.raw_payload_bytes);
            let per_mb = (acc.ms() + finish_ms) * 1e3 / (raw as f64 / 1e6);
            layers.push(
                if codec.is_some() {
                    "trace.write_us_per_mb.lz"
                } else {
                    "trace.write_us_per_mb.raw"
                },
                per_mb,
            );
        }
        Ok(())
    }
}

/// Runs the workload.
pub fn run(cx: &Ctx) -> Result<WorkloadRun, String> {
    let jobs = if cx.quick { 2 } else { FLEET_JOBS };
    let dir = cx.work.join("serve_fleet");
    let mut run = WorkloadRun::new("serve_fleet");

    // Set-up: store creation and a warm-up fleet, one job per Table I
    // workload, at seeds the timed fleets never use.
    let warmup = if cx.quick { 2 } else { 12 };
    let mut setup_s = Vec::new();
    for rep in 0..cx.setup_reps() {
        let started = Instant::now();
        let specs = (0..warmup).map(|i| job_spec(cx, 1 << 40, i)).collect();
        let fleet = run_fleet(&dir.join(format!("warmup-{rep}")), specs)?;
        setup_s.push(started.elapsed().as_secs_f64());
        fleet.check(&mut run);
    }

    // A traced run pairs each untraced fleet with a traced repeat of the
    // same jobs; two pairs leave the queue-wait p90 its ten-sample tail.
    let min_fleets = match (cx.traced, cx.quick) {
        (true, true) => 2,
        (true, false) => 4,
        (false, true) => 1,
        (false, false) => MIN_FLEETS,
    };
    let mut log = OpLog::default();
    let mut quality = Quality::default();
    let mut traced = TracedLoop::default();
    // The first fleet of the current traced pair: whether it was the
    // traced one, and each job's run time.
    let mut pending: Option<(bool, Vec<Option<f64>>)> = None;
    let started = Instant::now();
    let mut fleet_no = 0;
    while cx.keep_going(fleet_no, min_fleets, started) || (cx.traced && fleet_no % 2 == 1) {
        let first = if cx.traced { fleet_no / 2 } else { fleet_no } * jobs as u64;
        let specs = (0..jobs).map(|i| job_spec(cx, first, i)).collect();
        let fleet_dir = dir.join(format!("fleet-{fleet_no}"));
        simprof_obs::reset_peak();
        let fleet = run_fleet(&fleet_dir, specs)?;
        let peak = simprof_obs::peak_alloc_bytes();
        run.attempted += fleet.specs.len() as u64;
        fleet.check(&mut run);
        log.busy_s += fleet.timeline.ms() / 1e3;
        log.peak_bytes = log.peak_bytes.max(peak);
        log.latencies_ms.extend(fleet.ok().map(|(_, o)| o.run_us as f64 / 1e3));
        if fleet_no < min_fleets {
            fleet.digest_into(&mut run)?;
        }
        if cx.traced {
            fleet.layers_into(&mut traced.layers);
            // Pairs alternate which of their two fleets is the traced one.
            let is_traced = (fleet_no % 2 == 1) != ((fleet_no / 2) % 2 == 1);
            if is_traced {
                if traced.roots.is_empty() {
                    let scratch = fleet_dir.join("replay.sptrc").to_string_lossy().into_owned();
                    run.check(fleet.extras_into(&mut traced.layers, &scratch));
                }
                traced.roots.push(fleet.spans_into(&mut traced.tracer));
            }
            let runs: Vec<Option<f64>> = fleet
                .results
                .iter()
                .map(|r| r.as_ref().ok().map(|o| o.run_us as f64 / 1e3))
                .collect();
            match pending.take() {
                None => pending = Some((is_traced, runs)),
                Some((first_traced, first)) => {
                    for (a, b) in first.into_iter().zip(runs) {
                        if let (Some(a), Some(b)) = (a, b) {
                            traced.pairs.push(if first_traced { (b, a) } else { (a, b) });
                        }
                    }
                }
            }
        } else if fleet_no == 0 {
            fleet.quality_into(&mut quality)?;
        }
        let _ = std::fs::remove_dir_all(&fleet_dir);
        fleet_no += 1;
    }
    let _ = std::fs::remove_dir_all(&dir);

    run.details.insert("fleets".into(), fleet_no.into());
    run.details.insert("jobs_per_fleet".into(), jobs.into());
    run.details.insert("digest_fleets".into(), min_fleets.into());
    let queue = stats::sorted(traced.layers.get("service.queue_ms"));
    run.finish(cx, &log, &setup_s, &quality, traced);
    if cx.traced {
        match stats::tail_percentile(&queue, 90) {
            Ok(value) => {
                run.metrics.insert(
                    "service.queue_p90_ms".into(),
                    Measured { value, samples: queue.len() },
                );
            }
            Err(why) => {
                run.metrics.remove("service.queue_p90_ms");
                run.refused.insert("service.queue_p90_ms".into(), why);
            }
        }
    }
    Ok(run)
}
