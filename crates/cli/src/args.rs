//! Minimal flag parser for the CLI.
//!
//! The workspace's sanctioned dependency set has no argument-parsing crate,
//! and the surface is small enough that a hand-rolled parser with strict
//! validation is clearer than pulling one in.

use simprof_trace::Codec;

/// Parsed command options (flat across subcommands; each command validates
/// the subset it needs).
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// `-w/--workload`.
    pub workload: Option<String>,
    /// `-i/--input`.
    pub input: Option<String>,
    /// `-o/--output`.
    pub output: Option<String>,
    /// `-n/--points`.
    pub points: usize,
    /// `--seed`.
    pub seed: u64,
    /// `--scale`.
    pub scale: Scale,
    /// `--error`.
    pub error: f64,
    /// `--z`.
    pub z: f64,
    /// `--threshold`.
    pub threshold: f64,
    /// `--threads` (worker count for parallel regions; overrides the
    /// `SIMPROF_THREADS` environment variable).
    pub threads: Option<usize>,
    /// `--report` (path the observability run report is written to; absent
    /// means observability stays disabled and costs nothing).
    pub report: Option<String>,
    /// `--events` (path the streaming JSONL event log is written to).
    pub events: Option<String>,
    /// `--timeline` (path the Chrome-trace/Perfetto timeline JSON is
    /// written to).
    pub timeline: Option<String>,
    /// `--reps` (seeded replications for `diagnose`).
    pub reps: usize,
    /// `--salvage` (for `trace-info`: forward-scan a damaged chunked trace
    /// instead of requiring an intact footer trailer).
    pub salvage: bool,
    /// `--live` (for `run`: form phases online while profiling, with
    /// drift-triggered re-formation).
    pub live: bool,
    /// `--target-rel-err` (for `run --live`: stop profiling once the live
    /// CI half-width falls at or below this fraction of the running mean
    /// CPI; implies `--live`).
    pub target_rel_err: Option<f64>,
    /// `--codec` (per-frame trace compression for `profile`,
    /// `trace-repair`, and `serve`; default `raw`).
    pub codec: Codec,
    /// `--jobs` (for `serve`: path to the JSON jobs file).
    pub jobs: Option<String>,
    /// `--store` (for `serve`: root directory of the sharded trace
    /// store).
    pub store: Option<String>,
    /// `--fleet-report` (for `serve`: path the per-tenant FleetReport
    /// JSON is written to).
    pub fleet_report: Option<String>,
    /// `--fleet-timeline` (for `serve`: path the per-worker fleet
    /// Chrome-trace timeline is written to).
    pub fleet_timeline: Option<String>,
    /// `--progress` (for `serve`: render a periodic one-line fleet
    /// status while jobs run).
    pub progress: bool,
}

/// Workload scale preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Figure-generation scale.
    Paper,
    /// Fast test scale.
    Tiny,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            workload: None,
            input: None,
            output: None,
            points: 20,
            seed: 42,
            scale: Scale::Paper,
            error: 0.05,
            z: 3.0,
            threshold: 0.10,
            threads: None,
            report: None,
            events: None,
            timeline: None,
            reps: 50,
            salvage: false,
            live: false,
            target_rel_err: None,
            codec: Codec::Raw,
            jobs: None,
            store: None,
            fleet_report: None,
            fleet_timeline: None,
            progress: false,
        }
    }
}

impl Options {
    /// Parses `argv` (without the command word).
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut opts = Options::default();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value =
                |name: &str| it.next().cloned().ok_or_else(|| format!("{name} requires a value"));
            match flag.as_str() {
                "-w" | "--workload" => opts.workload = Some(value(flag)?),
                "-i" | "--input" => opts.input = Some(value(flag)?),
                "-o" | "--output" => opts.output = Some(value(flag)?),
                "-n" | "--points" => {
                    opts.points =
                        value(flag)?.parse().map_err(|e| format!("invalid --points: {e}"))?;
                    if opts.points == 0 {
                        return Err("--points must be at least 1".into());
                    }
                }
                "--seed" => {
                    opts.seed = value(flag)?.parse().map_err(|e| format!("invalid --seed: {e}"))?;
                }
                "--scale" => {
                    opts.scale = match value(flag)?.as_str() {
                        "paper" => Scale::Paper,
                        "tiny" => Scale::Tiny,
                        other => return Err(format!("invalid --scale `{other}` (paper|tiny)")),
                    };
                }
                "--error" => {
                    opts.error =
                        value(flag)?.parse().map_err(|e| format!("invalid --error: {e}"))?;
                    if !(opts.error > 0.0 && opts.error < 1.0) {
                        return Err("--error must be in (0, 1)".into());
                    }
                }
                "--z" => {
                    opts.z = value(flag)?.parse().map_err(|e| format!("invalid --z: {e}"))?;
                    if opts.z <= 0.0 {
                        return Err("--z must be positive".into());
                    }
                }
                "--threshold" => {
                    opts.threshold =
                        value(flag)?.parse().map_err(|e| format!("invalid --threshold: {e}"))?;
                }
                "--threads" => {
                    let t: usize =
                        value(flag)?.parse().map_err(|e| format!("invalid --threads: {e}"))?;
                    if t == 0 {
                        return Err("--threads must be at least 1".into());
                    }
                    opts.threads = Some(t);
                }
                "--report" => opts.report = Some(value(flag)?),
                "--events" => opts.events = Some(value(flag)?),
                "--timeline" => opts.timeline = Some(value(flag)?),
                "--reps" => {
                    opts.reps = value(flag)?.parse().map_err(|e| format!("invalid --reps: {e}"))?;
                    if opts.reps == 0 {
                        return Err("--reps must be at least 1".into());
                    }
                }
                "--salvage" => opts.salvage = true,
                "--live" => opts.live = true,
                "--target-rel-err" => {
                    let e: f64 = value(flag)?
                        .parse()
                        .map_err(|e| format!("invalid --target-rel-err: {e}"))?;
                    if !(e > 0.0 && e < 1.0) {
                        return Err("--target-rel-err must be in (0, 1)".into());
                    }
                    opts.target_rel_err = Some(e);
                    opts.live = true;
                }
                "--codec" => opts.codec = Codec::parse(&value(flag)?)?,
                "--jobs" => opts.jobs = Some(value(flag)?),
                "--store" => opts.store = Some(value(flag)?),
                "--fleet-report" => opts.fleet_report = Some(value(flag)?),
                "--fleet-timeline" => opts.fleet_timeline = Some(value(flag)?),
                "--progress" => opts.progress = true,
                other => return Err(format!("unknown option `{other}`")),
            }
        }
        Ok(opts)
    }

    /// The workload flag, or an error naming the command that needs it.
    pub fn require_workload(&self, command: &str) -> Result<&str, String> {
        self.workload
            .as_deref()
            .ok_or_else(|| format!("`{command}` requires -w/--workload (see `simprof list`)"))
    }

    /// The input flag, or an error naming the command that needs it.
    pub fn require_input(&self, command: &str) -> Result<&str, String> {
        self.input.as_deref().ok_or_else(|| format!("`{command}` requires -i/--input <trace.json>"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Options, String> {
        let argv: Vec<String> = s.split_whitespace().map(str::to_owned).collect();
        Options::parse(&argv)
    }

    #[test]
    fn defaults() {
        let o = parse("").unwrap();
        assert_eq!(o, Options::default());
        assert_eq!(o.points, 20);
        assert_eq!(o.seed, 42);
    }

    #[test]
    fn long_and_short_flags() {
        let o = parse("-w wc_sp -i in.json -o out.json -n 7 --seed 9").unwrap();
        assert_eq!(o.workload.as_deref(), Some("wc_sp"));
        assert_eq!(o.input.as_deref(), Some("in.json"));
        assert_eq!(o.output.as_deref(), Some("out.json"));
        assert_eq!(o.points, 7);
        assert_eq!(o.seed, 9);
        let o2 = parse("--workload wc_sp --points 7").unwrap();
        assert_eq!(o2.workload.as_deref(), Some("wc_sp"));
        assert_eq!(o2.points, 7);
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(parse("--scale tiny").unwrap().scale, Scale::Tiny);
        assert_eq!(parse("--scale paper").unwrap().scale, Scale::Paper);
        assert!(parse("--scale huge").is_err());
    }

    #[test]
    fn validation_errors() {
        assert!(parse("--points").is_err(), "missing value");
        assert!(parse("--points x").is_err());
        assert!(parse("--points 0").is_err(), "zero points rejected");
        assert!(parse("--error 1.5").is_err());
        assert!(parse("--error 0").is_err());
        assert!(parse("--z -1").is_err());
        assert!(parse("--wat 1").is_err());
        assert!(parse("--threads 0").is_err(), "zero threads rejected");
        assert!(parse("--threads x").is_err());
    }

    #[test]
    fn threads_flag() {
        assert_eq!(parse("").unwrap().threads, None);
        assert_eq!(parse("--threads 4").unwrap().threads, Some(4));
    }

    #[test]
    fn report_flag() {
        assert_eq!(parse("").unwrap().report, None);
        assert_eq!(parse("--report run.json").unwrap().report.as_deref(), Some("run.json"));
        assert!(parse("--report").is_err(), "missing value");
    }

    #[test]
    fn events_and_timeline_flags() {
        let o = parse("").unwrap();
        assert_eq!(o.events, None);
        assert_eq!(o.timeline, None);
        let o = parse("--events e.jsonl --timeline t.json").unwrap();
        assert_eq!(o.events.as_deref(), Some("e.jsonl"));
        assert_eq!(o.timeline.as_deref(), Some("t.json"));
        assert!(parse("--events").is_err(), "missing value");
        assert!(parse("--timeline").is_err(), "missing value");
    }

    #[test]
    fn reps_flag() {
        assert_eq!(parse("").unwrap().reps, 50);
        assert_eq!(parse("--reps 80").unwrap().reps, 80);
        assert!(parse("--reps 0").is_err(), "zero reps rejected");
        assert!(parse("--reps x").is_err());
    }

    #[test]
    fn salvage_flag() {
        assert!(!parse("").unwrap().salvage, "salvage defaults off");
        assert!(parse("--salvage").unwrap().salvage);
        // Takes no value: the next token is parsed as its own flag.
        let o = parse("--salvage -i t.sptrc").unwrap();
        assert!(o.salvage);
        assert_eq!(o.input.as_deref(), Some("t.sptrc"));
    }

    #[test]
    fn live_flags() {
        let o = parse("").unwrap();
        assert!(!o.live, "live defaults off");
        assert_eq!(o.target_rel_err, None);
        assert!(parse("--live").unwrap().live);
        let o = parse("--target-rel-err 0.05").unwrap();
        assert_eq!(o.target_rel_err, Some(0.05));
        assert!(o.live, "a stopping target implies live mode");
        assert!(parse("--target-rel-err 0").is_err());
        assert!(parse("--target-rel-err 1.0").is_err());
        assert!(parse("--target-rel-err x").is_err());
        assert!(parse("--target-rel-err").is_err(), "missing value");
    }

    #[test]
    fn codec_flag() {
        assert_eq!(parse("").unwrap().codec, Codec::Raw);
        assert_eq!(parse("--codec raw").unwrap().codec, Codec::Raw);
        assert_eq!(parse("--codec lz").unwrap().codec, Codec::Lz);
        assert!(parse("--codec zstd").is_err(), "unknown codec rejected");
        assert!(parse("--codec").is_err(), "missing value");
    }

    #[test]
    fn serve_flags() {
        let o = parse("").unwrap();
        assert_eq!(o.jobs, None);
        assert_eq!(o.store, None);
        let o = parse("--jobs jobs.json --store traces/").unwrap();
        assert_eq!(o.jobs.as_deref(), Some("jobs.json"));
        assert_eq!(o.store.as_deref(), Some("traces/"));
        assert!(parse("--jobs").is_err(), "missing value");
        assert!(parse("--store").is_err(), "missing value");
    }

    #[test]
    fn fleet_flags() {
        let o = parse("").unwrap();
        assert_eq!(o.fleet_report, None);
        assert_eq!(o.fleet_timeline, None);
        assert!(!o.progress, "progress defaults off");
        let o =
            parse("--fleet-report fleet.json --fleet-timeline fleet_tl.json --progress").unwrap();
        assert_eq!(o.fleet_report.as_deref(), Some("fleet.json"));
        assert_eq!(o.fleet_timeline.as_deref(), Some("fleet_tl.json"));
        assert!(o.progress);
        assert!(parse("--fleet-report").is_err(), "missing value");
        assert!(parse("--fleet-timeline").is_err(), "missing value");
        // --progress takes no value: the next token parses as its own flag.
        let o = parse("--progress --jobs j.json").unwrap();
        assert!(o.progress);
        assert_eq!(o.jobs.as_deref(), Some("j.json"));
    }

    #[test]
    fn require_helpers() {
        let o = parse("").unwrap();
        assert!(o.require_workload("profile").is_err());
        assert!(o.require_input("analyze").is_err());
        let o = parse("-w wc_sp -i t.json").unwrap();
        assert_eq!(o.require_workload("profile").unwrap(), "wc_sp");
        assert_eq!(o.require_input("analyze").unwrap(), "t.json");
    }
}
