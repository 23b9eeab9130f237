//! The sharded on-disk trace store: one `.sptrc` shard per job plus a
//! deterministic JSON index, with per-tenant byte accounting.
//!
//! ```text
//! <root>/
//!   index.json            # StoreIndex: every admitted shard, sorted by job id
//!   shards/
//!     <job-id>.sptrc      # one sealed v3 trace per job (raw or compressed)
//! ```
//!
//! Admission — not writing — is the accounting boundary: a job writes its
//! shard freely, then [`TraceStore::admit`] checks the tenant's byte cap
//! under the store lock and either records the shard or rejects it (the
//! runner deletes rejected shards). The index is rewritten from the
//! in-memory record set on [`TraceStore::write_index`], sorted by job id,
//! so the same jobs produce the same index bytes regardless of completion
//! order.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use simprof_trace::TraceReader;

/// The index file name inside a store root.
pub const INDEX_FILE: &str = "index.json";

/// The shards directory name inside a store root.
const SHARDS_DIR: &str = "shards";

/// Index schema version.
const INDEX_VERSION: u32 = 1;

/// One admitted shard, as recorded in the index.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardRecord {
    /// Job id (also the shard's file stem).
    pub job: String,
    /// Tenant the shard's bytes are accounted to.
    pub tenant: String,
    /// Shard path relative to the store root (`shards/<job>.sptrc`).
    pub file: String,
    /// Sealed shard size in bytes.
    pub bytes: u64,
    /// Sampling units in the shard (from its footer).
    pub units: u64,
    /// Trace layout version (3 for every shard this build writes).
    pub layout_version: u32,
    /// Codec the shard was written under (`raw` / `lz`).
    pub codec: String,
}

/// The on-disk index: every shard the store has admitted.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreIndex {
    /// Index schema version.
    pub version: u32,
    /// Admitted shards, sorted by job id.
    pub shards: Vec<ShardRecord>,
}

/// What [`TraceStore::validate`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreCheck {
    /// Shards listed in the index.
    pub shards: usize,
    /// Total bytes across all indexed shards.
    pub total_bytes: u64,
    /// Bytes per tenant.
    pub tenant_bytes: BTreeMap<String, u64>,
    /// Everything inconsistent between the index and the files on disk.
    pub problems: Vec<String>,
}

impl StoreCheck {
    /// True when index and disk agree completely.
    pub fn clean(&self) -> bool {
        self.problems.is_empty()
    }
}

/// A sharded trace store rooted at one directory.
#[derive(Debug)]
pub struct TraceStore {
    root: PathBuf,
    /// Byte cap applied to tenants without an explicit entry in `caps`.
    default_cap: Option<u64>,
    caps: BTreeMap<String, u64>,
    records: Mutex<Vec<ShardRecord>>,
}

impl TraceStore {
    /// Creates (or reuses) the store layout under `root`. An existing
    /// `index.json` is loaded so re-serving into the same root keeps
    /// prior shards' accounting.
    pub fn create(root: &str) -> Result<Self, String> {
        let root_path = PathBuf::from(root);
        std::fs::create_dir_all(root_path.join(SHARDS_DIR))
            .map_err(|e| format!("create store {root}: {e}"))?;
        let records = match Self::load_index_at(&root_path) {
            Ok(index) => index.shards,
            Err(_) => Vec::new(),
        };
        Ok(Self {
            root: root_path,
            default_cap: None,
            caps: BTreeMap::new(),
            records: Mutex::new(records),
        })
    }

    /// Sets the byte cap applied to every tenant without an explicit cap.
    pub fn with_default_tenant_cap(mut self, bytes: u64) -> Self {
        self.default_cap = Some(bytes);
        self
    }

    /// Sets one tenant's byte cap.
    pub fn with_tenant_cap(mut self, tenant: &str, bytes: u64) -> Self {
        self.caps.insert(tenant.to_owned(), bytes);
        self
    }

    /// The store root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The absolute path of `job`'s shard file.
    pub fn shard_path(&self, job: &str) -> PathBuf {
        self.root.join(SHARDS_DIR).join(format!("{job}.sptrc"))
    }

    /// `job`'s shard path relative to the store root (what the index
    /// records).
    pub fn shard_rel(&self, job: &str) -> String {
        format!("{SHARDS_DIR}/{job}.sptrc")
    }

    /// The cap for `tenant`, explicit or default.
    pub fn cap_for(&self, tenant: &str) -> Option<u64> {
        self.caps.get(tenant).copied().or(self.default_cap)
    }

    /// Bytes currently admitted for `tenant`.
    pub fn tenant_bytes(&self, tenant: &str) -> u64 {
        let records = self.records.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        records.iter().filter(|r| r.tenant == tenant).map(|r| r.bytes).sum()
    }

    /// Bytes currently admitted per tenant, for every tenant with at
    /// least one shard (each value equals
    /// [`tenant_bytes`](TraceStore::tenant_bytes) for that tenant).
    pub fn tenant_bytes_map(&self) -> BTreeMap<String, u64> {
        let records = self.records.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut map = BTreeMap::new();
        for r in records.iter() {
            *map.entry(r.tenant.clone()).or_insert(0) += r.bytes;
        }
        map
    }

    /// Admits a sealed shard into the index, enforcing the tenant's byte
    /// cap atomically under the store lock. On rejection nothing is
    /// recorded — the caller owns deleting the shard file.
    pub fn admit(&self, record: ShardRecord) -> Result<(), String> {
        let mut records = self.records.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if records.iter().any(|r| r.job == record.job) {
            return Err(format!("store already holds a shard for job `{}`", record.job));
        }
        if let Some(cap) = self.cap_for(&record.tenant) {
            let used: u64 =
                records.iter().filter(|r| r.tenant == record.tenant).map(|r| r.bytes).sum();
            if used + record.bytes > cap {
                return Err(format!(
                    "tenant `{}` byte cap exceeded: {used} admitted + {} new > {cap}",
                    record.tenant, record.bytes
                ));
            }
        }
        records.push(record);
        Ok(())
    }

    /// Writes `index.json` from the admitted records, sorted by job id so
    /// the bytes are independent of job completion order. Returns the
    /// index path.
    pub fn write_index(&self) -> Result<String, String> {
        let mut shards =
            self.records.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone();
        shards.sort_by(|a, b| a.job.cmp(&b.job));
        let index = StoreIndex { version: INDEX_VERSION, shards };
        let path = self.root.join(INDEX_FILE);
        let text =
            serde_json::to_string_pretty(&index).map_err(|e| format!("encode store index: {e}"))?;
        std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
        Ok(path.to_string_lossy().into_owned())
    }

    /// Loads the index of the store at `root`.
    pub fn load_index(root: &str) -> Result<StoreIndex, String> {
        Self::load_index_at(Path::new(root))
    }

    fn load_index_at(root: &Path) -> Result<StoreIndex, String> {
        let path = root.join(INDEX_FILE);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let index: StoreIndex =
            serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
        if index.version > INDEX_VERSION {
            return Err(format!(
                "{}: index version {} is newer than this build reads ({INDEX_VERSION})",
                path.display(),
                index.version
            ));
        }
        Ok(index)
    }

    /// Cross-checks the index of the store at `root` against the files on
    /// disk: every indexed shard must exist with the recorded byte size,
    /// open cleanly, and carry a footer matching the recorded unit count
    /// and layout; every `.sptrc` under `shards/` must be indexed.
    pub fn validate(root: &str) -> Result<StoreCheck, String> {
        let index = Self::load_index(root)?;
        let root_path = Path::new(root);
        let mut problems = Vec::new();
        let mut tenant_bytes: BTreeMap<String, u64> = BTreeMap::new();
        let mut total = 0u64;

        for rec in &index.shards {
            let expected_rel = format!("{SHARDS_DIR}/{}.sptrc", rec.job);
            if rec.file != expected_rel {
                problems.push(format!(
                    "job `{}`: index file `{}` is not the canonical `{expected_rel}`",
                    rec.job, rec.file
                ));
            }
            let path = root_path.join(&rec.file);
            let disk_bytes = match std::fs::metadata(&path) {
                Ok(m) => m.len(),
                Err(e) => {
                    problems.push(format!("job `{}`: shard missing ({e})", rec.job));
                    continue;
                }
            };
            if disk_bytes != rec.bytes {
                problems.push(format!(
                    "job `{}`: shard is {disk_bytes} bytes on disk, index says {}",
                    rec.job, rec.bytes
                ));
            }
            let path_str = path.to_string_lossy().into_owned();
            match TraceReader::open(&path_str) {
                Ok(mut reader) => {
                    if reader.layout_version() != rec.layout_version {
                        problems.push(format!(
                            "job `{}`: shard layout v{}, index says v{}",
                            rec.job,
                            reader.layout_version(),
                            rec.layout_version
                        ));
                    }
                    match reader.footer() {
                        Ok(footer) => {
                            if footer.unit_count != rec.units {
                                problems.push(format!(
                                    "job `{}`: footer has {} units, index says {}",
                                    rec.job, footer.unit_count, rec.units
                                ));
                            }
                        }
                        Err(e) => {
                            problems.push(format!("job `{}`: unreadable footer: {e}", rec.job))
                        }
                    }
                }
                Err(e) => problems.push(format!("job `{}`: unreadable shard: {e}", rec.job)),
            }
            *tenant_bytes.entry(rec.tenant.clone()).or_insert(0) += rec.bytes;
            total += rec.bytes;
        }

        // Stray shards: on disk but not accounted to any tenant.
        let shards_dir = root_path.join(SHARDS_DIR);
        if let Ok(entries) = std::fs::read_dir(&shards_dir) {
            for entry in entries.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                let Some(stem) = name.strip_suffix(".sptrc") else { continue };
                if !index.shards.iter().any(|r| r.job == stem) {
                    problems.push(format!("stray shard `{name}` is not in the index"));
                }
            }
        }

        Ok(StoreCheck { shards: index.shards.len(), total_bytes: total, tenant_bytes, problems })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simprof_trace::{TraceMeta, TraceWriter};

    fn tmp_root(name: &str) -> String {
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir.to_str().unwrap().to_owned()
    }

    fn write_shard(store: &TraceStore, job: &str) -> (u64, u64) {
        let meta = TraceMeta {
            label: "wc_sp".into(),
            seed: 1,
            scale: "tiny".into(),
            unit_instrs: 100,
            snapshot_instrs: 10,
            core: 0,
        };
        let path = store.shard_path(job);
        let mut w = TraceWriter::create(path.to_str().unwrap(), &meta).unwrap();
        w.finish(&simprof_engine::MethodRegistry::new()).unwrap();
        (std::fs::metadata(&path).unwrap().len(), 0)
    }

    #[test]
    fn admit_index_validate_roundtrip() {
        let root = tmp_root("simprof_store_roundtrip");
        let store = TraceStore::create(&root).unwrap();
        let (bytes_a, units_a) = write_shard(&store, "a");
        let (bytes_b, units_b) = write_shard(&store, "b");
        store
            .admit(ShardRecord {
                job: "a".into(),
                tenant: "t1".into(),
                file: store.shard_rel("a"),
                bytes: bytes_a,
                units: units_a,
                layout_version: 3,
                codec: "raw".into(),
            })
            .unwrap();
        store
            .admit(ShardRecord {
                job: "b".into(),
                tenant: "t2".into(),
                file: store.shard_rel("b"),
                bytes: bytes_b,
                units: units_b,
                layout_version: 3,
                codec: "raw".into(),
            })
            .unwrap();
        store.write_index().unwrap();

        let check = TraceStore::validate(&root).unwrap();
        assert!(check.clean(), "problems: {:?}", check.problems);
        assert_eq!(check.shards, 2);
        assert_eq!(check.tenant_bytes["t1"], bytes_a);
        assert_eq!(check.total_bytes, bytes_a + bytes_b);

        // Re-opening the root restores the accounting.
        let reopened = TraceStore::create(&root).unwrap();
        assert_eq!(reopened.tenant_bytes("t1"), bytes_a);
        assert!(reopened
            .admit(ShardRecord {
                job: "a".into(),
                tenant: "t1".into(),
                file: reopened.shard_rel("a"),
                bytes: 1,
                units: 0,
                layout_version: 3,
                codec: "raw".into(),
            })
            .unwrap_err()
            .contains("already holds"));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn tenant_caps_gate_admission() {
        let root = tmp_root("simprof_store_caps");
        let store = TraceStore::create(&root)
            .unwrap()
            .with_default_tenant_cap(1000)
            .with_tenant_cap("big", 10_000);
        let rec = |job: &str, tenant: &str, bytes: u64| ShardRecord {
            job: job.into(),
            tenant: tenant.into(),
            file: format!("shards/{job}.sptrc"),
            bytes,
            units: 0,
            layout_version: 3,
            codec: "raw".into(),
        };
        store.admit(rec("a", "small", 700)).unwrap();
        let err = store.admit(rec("b", "small", 400)).unwrap_err();
        assert!(err.contains("byte cap exceeded"), "{err}");
        // A different tenant has its own budget; "big" has a raised cap.
        store.admit(rec("c", "other", 900)).unwrap();
        store.admit(rec("d", "big", 9_000)).unwrap();
        assert_eq!(store.tenant_bytes("small"), 700);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn validate_reports_tampering_and_strays() {
        let root = tmp_root("simprof_store_tamper");
        let store = TraceStore::create(&root).unwrap();
        let (bytes, units) = write_shard(&store, "a");
        store
            .admit(ShardRecord {
                job: "a".into(),
                tenant: "t".into(),
                file: store.shard_rel("a"),
                bytes,
                units,
                layout_version: 3,
                codec: "raw".into(),
            })
            .unwrap();
        store.write_index().unwrap();

        // A stray unindexed shard, plus a truncated indexed shard.
        write_shard(&store, "ghost");
        let shard = store.shard_path("a");
        let data = std::fs::read(&shard).unwrap();
        std::fs::write(&shard, &data[..data.len() - 4]).unwrap();

        let check = TraceStore::validate(&root).unwrap();
        assert!(!check.clean());
        let all = check.problems.join("\n");
        assert!(all.contains("stray shard"), "{all}");
        assert!(all.contains("bytes on disk"), "{all}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn missing_index_is_an_error_for_validate() {
        let root = tmp_root("simprof_store_noindex");
        std::fs::create_dir_all(&root).unwrap();
        assert!(TraceStore::validate(&root).is_err());
        let _ = std::fs::remove_dir_all(&root);
    }
}
