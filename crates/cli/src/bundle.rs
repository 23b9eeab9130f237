//! The **legacy** on-disk trace format: one monolithic JSON blob holding a
//! profile plus everything needed to interpret it later (method registry,
//! provenance).
//!
//! This format predates the chunked streaming format in `simprof-trace`.
//! Bundles are read-only: `profile` writes only the chunked format, but
//! every trace-consuming command still auto-detects and reads bundles that
//! earlier releases wrote (see [`crate::input::TraceInput`]).
//! [`TraceBundle::load`] accepts both the compact and the pretty-printed
//! JSON those releases emitted (parsing is whitespace-insensitive). The
//! struct doubles as the in-memory whole-trace form for commands that need
//! every unit at once (replay, export, baseline comparison).

use serde::{Deserialize, Serialize};

use simprof_engine::MethodRegistry;
use simprof_profiler::ProfileTrace;

/// Format version written into every bundle.
pub const FORMAT_VERSION: u32 = 1;

/// A self-contained profiled run (legacy monolithic format).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceBundle {
    /// Format version for forward compatibility.
    pub version: u32,
    /// Workload label (`wc_sp`, …).
    pub label: String,
    /// Seed the run used.
    pub seed: u64,
    /// Scale preset name ("paper" / "tiny").
    pub scale: String,
    /// The profiled sampling units.
    pub trace: ProfileTrace,
    /// Method names/classes for the trace's `MethodId`s.
    pub registry: MethodRegistry,
}

impl TraceBundle {
    /// Parses a bundle (compact or pretty JSON), validating the format
    /// version.
    pub fn from_json(s: &str) -> Result<Self, String> {
        let bundle: TraceBundle =
            serde_json::from_str(s).map_err(|e| format!("parse bundle: {e}"))?;
        if bundle.version != FORMAT_VERSION {
            return Err(format!(
                "unsupported bundle version {} (expected {FORMAT_VERSION})",
                bundle.version
            ));
        }
        Ok(bundle)
    }

    /// Loads a bundle from `path`.
    pub fn load(path: &str) -> Result<Self, String> {
        let s = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        Self::from_json(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simprof_workloads::{Benchmark, Framework, WorkloadConfig};

    fn bundle() -> TraceBundle {
        let cfg = WorkloadConfig::tiny(3);
        let out = Benchmark::Grep.run_full(Framework::Spark, &cfg);
        TraceBundle {
            version: FORMAT_VERSION,
            label: "grep_sp".into(),
            seed: 3,
            scale: "tiny".into(),
            trace: out.trace,
            registry: out.registry,
        }
    }

    #[test]
    fn json_roundtrip() {
        let b = bundle();
        let s = serde_json::to_string(&b).unwrap();
        let back = TraceBundle::from_json(&s).unwrap();
        assert_eq!(back.label, "grep_sp");
        assert_eq!(back.trace, b.trace);
        assert_eq!(back.registry.len(), b.registry.len());
    }

    #[test]
    fn compact_and_pretty_input_both_supported() {
        let b = bundle();
        // Earlier releases wrote compact bundles, and pretty ones before
        // that: both load.
        let compact = serde_json::to_string(&b).unwrap();
        let pretty = serde_json::to_string_pretty(&b).unwrap();
        assert!(!compact.contains('\n') && pretty.contains('\n'));
        for text in [compact, pretty] {
            assert_eq!(TraceBundle::from_json(&text).unwrap().trace, b.trace);
        }
    }

    #[test]
    fn version_mismatch_rejected() {
        let mut b = bundle();
        b.version = 999;
        let s = serde_json::to_string(&b).unwrap();
        assert!(TraceBundle::from_json(&s).is_err());
    }

    #[test]
    fn load_reads_a_bundle_file() {
        let b = bundle();
        let path = std::env::temp_dir().join("simprof_bundle_test.json");
        let path = path.to_str().unwrap();
        std::fs::write(path, serde_json::to_string(&b).unwrap()).unwrap();
        let back = TraceBundle::load(path).unwrap();
        assert_eq!(back.trace, b.trace);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn load_missing_file_errors() {
        assert!(TraceBundle::load("/nonexistent/simprof.json").is_err());
    }
}
