//! Format-agnostic trace input: every trace-consuming command opens its
//! input through [`TraceInput`], which sniffs the file's leading bytes and
//! dispatches to the chunked `simprof-trace` format or, for files earlier
//! releases wrote, the read-only legacy JSON [`TraceBundle`].
//!
//! The two formats are interchangeable by contract: analysis routed through
//! [`TraceInput::analyze`] is **bit-identical** whichever format the trace
//! came from (and identical to analyzing the in-memory [`ProfileTrace`]
//! directly), because both run the same one-scan streaming pipeline — a
//! legacy bundle just streams from memory while a chunked file streams from
//! disk, one chunk at a time.

use simprof_core::{Analysis, SimProf};
use simprof_engine::MethodRegistry;
use simprof_profiler::ProfileTrace;
use simprof_trace::{read_trace, TraceFooter, TraceReader};

use crate::bundle::{TraceBundle, FORMAT_VERSION};

/// An opened trace file, either format.
#[derive(Debug)]
pub struct TraceInput {
    /// Workload label (`wc_sp`, …).
    pub label: String,
    /// Seed the profiled run used.
    pub seed: u64,
    /// Scale preset name ("paper" / "tiny").
    pub scale: String,
    /// Method names/classes for the trace's method ids.
    pub registry: MethodRegistry,
    kind: Kind,
}

#[derive(Debug)]
enum Kind {
    /// Legacy JSON bundle, already materialized.
    Legacy(ProfileTrace),
    /// Chunked file; units stay on disk until someone streams them.
    Chunked { path: String, footer: TraceFooter, unit_instrs: u64 },
}

impl TraceInput {
    /// Opens `path`, auto-detecting the format from its leading bytes. A
    /// file that opens with the chunked magic's `SPTRC\0` prefix — or is
    /// cut short inside it — goes to the chunked reader, so a truncated or
    /// unknown-version trace gets a trace error, not a JSON one. An empty
    /// file is neither, and the error says so.
    pub fn open(path: &str) -> Result<Self, String> {
        if std::fs::metadata(path).is_ok_and(|m| m.is_file() && m.len() == 0) {
            return Err(format!("{path} is empty: not a .sptrc trace or a JSON bundle"));
        }
        if simprof_trace::is_chunked(path) {
            let mut reader = TraceReader::open(path)?;
            let footer = reader.footer()?;
            let meta = reader.meta().clone();
            Ok(Self {
                label: meta.label,
                seed: meta.seed,
                scale: meta.scale,
                registry: footer.registry.clone(),
                kind: Kind::Chunked {
                    path: path.to_owned(),
                    unit_instrs: meta.unit_instrs,
                    footer,
                },
            })
        } else {
            let bundle = TraceBundle::load(path)?;
            Ok(Self {
                label: bundle.label,
                seed: bundle.seed,
                scale: bundle.scale,
                registry: bundle.registry,
                kind: Kind::Legacy(bundle.trace),
            })
        }
    }

    /// True when the input is the chunked streaming format.
    pub fn is_chunked(&self) -> bool {
        matches!(self.kind, Kind::Chunked { .. })
    }

    /// Number of sampling units (from the footer for chunked files — no
    /// unit scan needed).
    pub fn unit_count(&self) -> u64 {
        match &self.kind {
            Kind::Legacy(trace) => trace.units.len() as u64,
            Kind::Chunked { footer, .. } => footer.unit_count,
        }
    }

    /// Sampling-unit size in instructions.
    pub fn unit_instrs(&self) -> u64 {
        match &self.kind {
            Kind::Legacy(trace) => trace.unit_instrs,
            Kind::Chunked { unit_instrs, .. } => *unit_instrs,
        }
    }

    /// Runs the analysis pipeline: streaming from disk for chunked files,
    /// over the in-memory trace for legacy bundles. Output is bit-identical
    /// either way.
    pub fn analyze(&self, pipeline: &SimProf) -> Result<Analysis, String> {
        match &self.kind {
            Kind::Legacy(trace) => pipeline.analyze(trace).map_err(|e| format!("analyze: {e}")),
            Kind::Chunked { path, .. } => {
                let mut reader = TraceReader::open(path)?;
                pipeline.analyze_stream(&mut reader).map_err(|e| format!("analyze: {e}"))
            }
        }
    }

    /// Materializes the input into a legacy [`TraceBundle`] — for commands
    /// that genuinely need the whole trace in memory (replay, export,
    /// baseline comparison).
    pub fn into_bundle(self) -> Result<TraceBundle, String> {
        let trace = match self.kind {
            Kind::Legacy(trace) => trace,
            Kind::Chunked { path, .. } => read_trace(&path)?.0,
        };
        Ok(TraceBundle {
            version: FORMAT_VERSION,
            label: self.label,
            seed: self.seed,
            scale: self.scale,
            trace,
            registry: self.registry,
        })
    }

    /// The chunked footer, when the input is chunked.
    pub fn footer(&self) -> Option<&TraceFooter> {
        match &self.kind {
            Kind::Legacy(_) => None,
            Kind::Chunked { footer, .. } => Some(footer),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simprof_trace::{TraceMeta, TraceWriter};
    use simprof_workloads::{Benchmark, Framework, WorkloadConfig};

    #[test]
    fn both_formats_open_and_analyze_identically() {
        let cfg = WorkloadConfig::tiny(11);
        let out = Benchmark::Grep.run_full(Framework::Spark, &cfg);
        let dir = std::env::temp_dir();
        let legacy_path = dir.join("simprof_input_legacy.json");
        let legacy_path = legacy_path.to_str().unwrap();
        let chunked_path = dir.join("simprof_input_chunked.sptrc");
        let chunked_path = chunked_path.to_str().unwrap();

        let bundle = TraceBundle {
            version: FORMAT_VERSION,
            label: "grep_sp".into(),
            seed: 11,
            scale: "tiny".into(),
            trace: out.trace.clone(),
            registry: out.registry.clone(),
        };
        std::fs::write(legacy_path, serde_json::to_string(&bundle).unwrap()).unwrap();

        let meta = TraceMeta {
            label: "grep_sp".into(),
            seed: 11,
            scale: "tiny".into(),
            unit_instrs: out.trace.unit_instrs,
            snapshot_instrs: out.trace.snapshot_instrs,
            core: out.trace.core,
        };
        let mut w = TraceWriter::create(chunked_path, &meta).unwrap().with_chunk_units(16);
        for u in &out.trace.units {
            w.push(u);
        }
        w.finish(&out.registry).unwrap();

        let legacy = TraceInput::open(legacy_path).unwrap();
        let chunked = TraceInput::open(chunked_path).unwrap();
        assert!(!legacy.is_chunked());
        assert!(chunked.is_chunked());
        assert_eq!(legacy.label, chunked.label);
        assert_eq!(legacy.unit_count(), chunked.unit_count());
        assert_eq!(legacy.unit_instrs(), chunked.unit_instrs());

        let sp = SimProf::default();
        let a = legacy.analyze(&sp).unwrap();
        let b = chunked.analyze(&sp).unwrap();
        assert_eq!(a.cpis, b.cpis);
        assert_eq!(a.model.assignments, b.model.assignments);
        assert_eq!(a.model.space, b.model.space);
        assert_eq!(a.stats, b.stats);

        // Materializing the chunked file reproduces the trace exactly.
        let bundle = chunked.into_bundle().unwrap();
        assert_eq!(bundle.trace, out.trace);
        assert_eq!(bundle.label, "grep_sp");

        let _ = std::fs::remove_file(legacy_path);
        let _ = std::fs::remove_file(chunked_path);
    }

    #[test]
    fn missing_file_is_an_error() {
        assert!(TraceInput::open("/nonexistent/simprof.whatever").is_err());
    }

    #[test]
    fn damaged_trace_heads_get_trace_errors_not_bundle_errors() {
        let path = std::env::temp_dir().join("simprof_input_damaged.sptrc");
        let path = path.to_str().unwrap();
        let cases: [(&[u8], &str); 3] = [
            (b"SPTRC", "--salvage"),
            (b"SPTRC\0v", "--salvage"),
            (b"SPTRC\0v9 from a newer build", "bad magic"),
        ];
        for (bytes, want) in cases {
            std::fs::write(path, bytes).unwrap();
            let err = TraceInput::open(path).unwrap_err();
            assert!(err.contains(want), "{bytes:?}: {err}");
            assert!(!err.contains("parse bundle"), "{bytes:?}: {err}");
        }
        let _ = std::fs::remove_file(path);
    }
}
