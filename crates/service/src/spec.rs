//! Job specifications: what one profiling job in a service batch is.

use serde::{Deserialize, Serialize};

use simprof_trace::Codec;
use simprof_workloads::{WorkloadConfig, WorkloadId};

/// One profiling job: a workload, its configuration, and the job's
/// service-level envelope (trace codec, memory budget, tenant).
///
/// The `(workload, scale, seed, codec)` quadruple fully determines the
/// job's shard bytes; `id`, `tenant`, and `mem_cap_mb` only affect where
/// the shard lands and how the job is judged.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Unique job id; names the shard file (`shards/<id>.sptrc`).
    pub id: String,
    /// Workload label (`wc_sp`, `sort_hp`, …; see `simprof list`).
    pub workload: String,
    /// Master seed for the run. Defaults to 42, matching the CLI.
    #[serde(default)]
    pub seed: Option<u64>,
    /// Scale preset (`paper` / `tiny`). Defaults to `tiny`.
    #[serde(default)]
    pub scale: Option<String>,
    /// Trace codec (`raw` / `lz`). Absent means the runner's default
    /// (`raw` unless `serve --codec` says otherwise) — byte-identical to
    /// `simprof profile`'s output under the same codec.
    #[serde(default)]
    pub codec: Option<String>,
    /// Per-job memory budget in MiB, enforced against the job's own
    /// allocation slot (a neighbor's allocations never count).
    #[serde(default)]
    pub mem_cap_mb: Option<u64>,
    /// Tenant the job's shard bytes are accounted to. Defaults to
    /// `default`.
    #[serde(default)]
    pub tenant: Option<String>,
}

impl JobSpec {
    /// A minimal spec: `tiny` scale, seed 42, uncompressed, default
    /// tenant, no memory cap.
    pub fn new(id: &str, workload: &str) -> Self {
        Self {
            id: id.to_owned(),
            workload: workload.to_owned(),
            seed: None,
            scale: None,
            codec: None,
            mem_cap_mb: None,
            tenant: None,
        }
    }

    /// The effective seed (default 42, matching the CLI's `--seed`).
    pub fn seed(&self) -> u64 {
        self.seed.unwrap_or(42)
    }

    /// The effective scale name (default `tiny`).
    pub fn scale_name(&self) -> &str {
        self.scale.as_deref().unwrap_or("tiny")
    }

    /// The effective tenant (default `default`).
    pub fn tenant(&self) -> &str {
        self.tenant.as_deref().unwrap_or("default")
    }

    /// The effective memory cap in bytes, when one was set.
    pub fn mem_cap_bytes(&self) -> Option<u64> {
        self.mem_cap_mb.map(|mb| mb << 20)
    }

    /// Resolves the workload label against the Table I matrix.
    pub fn resolve_workload(&self) -> Result<WorkloadId, String> {
        WorkloadId::all().into_iter().find(|w| w.label() == self.workload).ok_or_else(|| {
            let labels: Vec<String> = WorkloadId::all().iter().map(|w| w.label()).collect();
            format!(
                "job `{}`: unknown workload `{}`; available: {}",
                self.id,
                self.workload,
                labels.join(", ")
            )
        })
    }

    /// Builds the workload configuration for this job's scale and seed.
    pub fn workload_config(&self) -> Result<WorkloadConfig, String> {
        match self.scale_name() {
            "paper" => Ok(WorkloadConfig::paper(self.seed())),
            "tiny" => Ok(WorkloadConfig::tiny(self.seed())),
            other => Err(format!("job `{}`: invalid scale `{other}` (paper|tiny)", self.id)),
        }
    }

    /// Parses the job's codec choice: `None` = the spec names none (the
    /// runner's default applies, `raw` unless set), `Some` = that codec.
    pub fn resolve_codec(&self) -> Result<Option<Codec>, String> {
        match self.codec.as_deref() {
            None => Ok(None),
            Some(name) => {
                Codec::parse(name).map(Some).map_err(|e| format!("job `{}`: {e}", self.id))
            }
        }
    }

    /// Validates the id for use as a shard file name: non-empty, and only
    /// `[A-Za-z0-9._-]` so a hostile jobs file cannot traverse out of the
    /// store (`../../etc/passwd`) or collide with the index.
    pub fn validate_id(&self) -> Result<(), String> {
        if self.id.is_empty() {
            return Err("job id must not be empty".into());
        }
        if self.id.starts_with('.') {
            return Err(format!("job id `{}` must not start with a dot", self.id));
        }
        if let Some(bad) =
            self.id.chars().find(|c| !c.is_ascii_alphanumeric() && !matches!(c, '.' | '_' | '-'))
        {
            return Err(format!(
                "job id `{}` contains `{bad}`; allowed characters are [A-Za-z0-9._-]",
                self.id
            ));
        }
        Ok(())
    }
}

/// Loads a jobs file: a JSON array of [`JobSpec`] objects. Ids must be
/// unique — each names one shard in the store.
pub fn load_jobs(path: &str) -> Result<Vec<JobSpec>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let specs: Vec<JobSpec> =
        serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))?;
    if specs.is_empty() {
        return Err(format!("{path}: jobs file is empty"));
    }
    let mut seen = std::collections::BTreeSet::new();
    for spec in &specs {
        spec.validate_id().map_err(|e| format!("{path}: {e}"))?;
        if !seen.insert(spec.id.clone()) {
            return Err(format!("{path}: duplicate job id `{}`", spec.id));
        }
    }
    Ok(specs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_mirror_the_cli() {
        let s = JobSpec::new("j1", "grep_sp");
        assert_eq!(s.seed(), 42);
        assert_eq!(s.scale_name(), "tiny");
        assert_eq!(s.tenant(), "default");
        assert_eq!(s.mem_cap_bytes(), None);
        assert_eq!(s.resolve_codec().unwrap(), None);
        assert!(s.resolve_workload().is_ok());
        assert!(s.workload_config().is_ok());
    }

    #[test]
    fn bad_fields_are_rejected_with_the_job_named() {
        let mut s = JobSpec::new("j1", "nope_xx");
        assert!(s.resolve_workload().unwrap_err().contains("j1"));
        s.workload = "grep_sp".into();
        s.scale = Some("huge".into());
        assert!(s.workload_config().unwrap_err().contains("huge"));
        s.scale = None;
        s.codec = Some("zstd".into());
        assert!(s.resolve_codec().unwrap_err().contains("zstd"));
    }

    #[test]
    fn hostile_ids_are_rejected() {
        for id in ["", "../escape", "a/b", "a\\b", ".hidden", "sp ace"] {
            let s = JobSpec::new(id, "grep_sp");
            assert!(s.validate_id().is_err(), "id {id:?} must be rejected");
        }
        for id in ["job-1", "wc_sp.seed42", "A9"] {
            let s = JobSpec::new(id, "grep_sp");
            assert!(s.validate_id().is_ok(), "id {id:?} must be accepted");
        }
    }

    #[test]
    fn jobs_file_roundtrips_and_validates() {
        let dir = std::env::temp_dir();
        let path = dir.join("simprof_service_jobs.json");
        let path = path.to_str().unwrap();
        std::fs::write(
            path,
            r#"[
              {"id": "a", "workload": "grep_sp"},
              {"id": "b", "workload": "wc_hp", "seed": 7, "scale": "tiny",
               "codec": "lz", "mem_cap_mb": 64, "tenant": "team-x"}
            ]"#,
        )
        .unwrap();
        let specs = load_jobs(path).unwrap();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[1].seed(), 7);
        assert_eq!(specs[1].tenant(), "team-x");
        assert_eq!(specs[1].mem_cap_bytes(), Some(64 << 20));
        assert_eq!(specs[1].resolve_codec().unwrap(), Some(Codec::Lz));

        std::fs::write(path, r#"[{"id": "a", "workload": "x"}, {"id": "a", "workload": "y"}]"#)
            .unwrap();
        assert!(load_jobs(path).unwrap_err().contains("duplicate"));
        std::fs::write(path, "[]").unwrap();
        assert!(load_jobs(path).unwrap_err().contains("empty"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn deeply_nested_jobs_file_is_an_error_not_a_crash() {
        let path = std::env::temp_dir().join("simprof_service_jobs_deep.json");
        let path = path.to_str().unwrap();
        let deep =
            format!(r#"[{{"id": "a", "workload": "grep_sp", "x": {}}}]"#, "[".repeat(100_000));
        // Bare brackets fail at the second one (a job is an object); under
        // an unknown key they reach the depth cap.
        for (text, too_deep) in [("[".repeat(100_000), false), (deep, true)] {
            std::fs::write(path, text).unwrap();
            let err = load_jobs(path).unwrap_err();
            assert_eq!(err.contains("nesting deeper than"), too_deep, "{err}");
        }
        let _ = std::fs::remove_file(path);
    }
}
