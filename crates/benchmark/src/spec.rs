//! The metric catalogue, read from the repository's `BENCHMARK.json`.
//!
//! `BENCHMARK.json` is the single place a metric's name, unit, direction
//! and regression bound are written down. It is compiled into the binary,
//! so every emitted metric carries exactly the unit declared there and
//! `compare` judges against exactly the bounds declared there.

use std::sync::OnceLock;

use serde_json::Value;

/// The manifest text, embedded at build time.
pub const MANIFEST: &str = include_str!("../../../BENCHMARK.json");

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better (throughput, coverage).
    Higher,
    /// Smaller values are better (latency, memory, error).
    Lower,
}

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name (`op_p50_ms`, `engine.run_ms`, …).
    pub name: String,
    /// Unit string, emitted next to every value.
    pub unit: String,
    /// Improvement direction.
    pub better: Better,
    /// Allowed worsening as a share of the base median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parsed manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Workload names, in manifest order.
    pub workloads: Vec<String>,
    /// End-to-end metrics (untraced runs).
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics (traced runs).
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// Parses a manifest document.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc: Value = serde_json::from_str(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("BENCHMARK.json: `{key}` must be an array"))
        };
        let field = |v: &Value, key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("BENCHMARK.json: entry without a string `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let better = match field(m, "better")?.as_str() {
                        "higher" => Better::Higher,
                        "lower" => Better::Lower,
                        other => return Err(format!("BENCHMARK.json: bad `better` {other:?}")),
                    };
                    Ok(MetricSpec {
                        name: field(m, "name")?,
                        unit: field(m, "unit")?,
                        better,
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(Self {
            workloads: list("workloads")?
                .iter()
                .map(|w| field(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The embedded manifest, parsed once.
    ///
    /// # Panics
    ///
    /// Panics if the embedded manifest is malformed — a build-time defect
    /// that the crate's tests catch.
    pub fn get() -> &'static Spec {
        static SPEC: OnceLock<Spec> = OnceLock::new();
        SPEC.get_or_init(|| Spec::parse(MANIFEST).expect("embedded BENCHMARK.json parses"))
    }

    /// Looks a metric up by name in either table.
    pub fn metric(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end.iter().chain(&self.per_layer).find(|m| m.name == name)
    }

    /// The declared unit of `name` (empty for an undeclared name).
    pub fn unit(&self, name: &str) -> &str {
        self.metric(name).map_or("", |m| m.unit.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedded_manifest_declares_the_three_workloads_and_bounded_metrics() {
        let spec = Spec::get();
        assert_eq!(spec.workloads, ["catalog_run", "analyze_fine", "serve_fleet"]);
        for m in &spec.end_to_end {
            let bound = m.bound.unwrap_or_else(|| panic!("{} has no bound", m.name));
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        }
        let setup = spec.metric("setup_s").expect("setup_s declared");
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        let max_bound = spec.end_to_end.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(max_bound), "setup_s carries the largest bound");
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(m.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(
                spec.per_layer.iter().chain(&spec.end_to_end).filter(|o| o.name == m.name).count()
                    == 1
            );
        }
    }

    #[test]
    fn malformed_manifests_are_rejected() {
        assert!(Spec::parse("{}").is_err());
        let bad = r#"{"workloads": [], "end_to_end": [{"name": "x", "unit": "s", "better": "up"}], "per_layer": []}"#;
        assert!(Spec::parse(bad).unwrap_err().contains("better"));
    }
}
