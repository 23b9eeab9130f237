//! The two JSON records `bench_pipeline` writes and `perf_gate` compares
//! against the canonical copies committed under `canonical/`.
//!
//! Both binaries go through these structs, so a renamed or retyped field
//! fails to compile rather than failing the gate in CI. Field names are the
//! record's JSON keys; unknown keys in an older record are skipped on read.

use serde::{Deserialize, Serialize};

/// `BENCH_pipeline.json`: the synthesize → simulate → cluster → sampling
/// run, with the naive 1-thread sweep every phase is normalized to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineRecord {
    /// Record kind tag (`pipeline_throughput/choose_k_sweep`).
    pub bench: String,
    /// `quick` or `default`.
    pub scale: String,
    /// Rows of the synthetic feature matrix.
    pub units: usize,
    /// Columns of the synthetic feature matrix.
    pub features: usize,
    /// Largest k the sweep tries.
    pub k_max: usize,
    /// Seed of the synthetic matrix, the simulation and the sweep.
    pub seed: u64,
    /// Worker threads of the optimized run.
    pub threads: usize,
    /// Naive 1-thread sweep wall clock: the in-run normalizer.
    pub baseline_sweep_secs: f64,
    /// `choose_k` wall clock at `threads`.
    pub optimized_sweep_secs: f64,
    /// `units / baseline_sweep_secs`.
    pub units_per_sec_baseline: f64,
    /// `units / optimized_sweep_secs`.
    pub units_per_sec_optimized: f64,
    /// `baseline_sweep_secs / optimized_sweep_secs`.
    pub speedup: f64,
    /// k the naive sweep chose.
    pub chosen_k_baseline: usize,
    /// k `choose_k` chose.
    pub chosen_k_optimized: usize,
    /// Peak heap growth during the optimized sweep.
    pub peak_alloc_bytes_sweep: usize,
    /// Per-phase wall clocks.
    pub phases: PipelinePhases,
    /// What the simulate phase ran and whether its bytes agreed.
    pub simulate: SimulateRecord,
    /// Whether the sweep's assignments agreed across thread counts.
    pub cluster: ClusterRecord,
}

/// Per-phase wall clocks of one pipeline run, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PipelinePhases {
    /// Synthetic feature-matrix generation.
    pub synthesize_secs: f64,
    /// Best of the timed engine runs.
    pub simulate_secs: f64,
    /// The `choose_k` sweep (equals `optimized_sweep_secs`).
    pub cluster_secs: f64,
    /// The Eq. 1 allocator over the chosen phases.
    pub sampling_secs: f64,
}

/// The simulate phase's workload and identity verdict.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulateRecord {
    /// Workload label (`wordcount/spark`).
    pub benchmark: String,
    /// Sampling units in the simulated trace.
    pub sim_units: usize,
    /// Serialized trace size.
    pub trace_bytes: usize,
    /// Every timed run and the 1-thread replay wrote the same bytes.
    pub trace_bytes_identical_1_vs_n: bool,
}

/// The cluster phase's identity verdict.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterRecord {
    /// The 1-thread replay chose the same k and assignments.
    pub assignments_identical_1_vs_n: bool,
}

/// `BENCH_trace_stream.json`: one heavy chunked trace analyzed fully
/// materialized and streamed from disk, with each path's peak heap.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceStreamRecord {
    /// Record kind tag (`trace_stream/streamed_vs_batch`).
    pub bench: String,
    /// Sampling units in the trace.
    pub units: usize,
    /// Histogram entries per unit.
    pub hist_entries_per_unit: usize,
    /// Interval slices per unit.
    pub slices_per_unit: usize,
    /// Distinct methods across the trace.
    pub method_universe: usize,
    /// Units per chunk frame.
    pub chunk_units: usize,
    /// Seed of the synthetic trace.
    pub seed: u64,
    /// Size of the trace file on disk.
    pub trace_file_bytes: u64,
    /// Read-then-analyze wall clock: the in-run normalizer.
    pub batch_secs: f64,
    /// Streamed analysis wall clock (one scan, plus a second read when the
    /// histograms outgrow the top-K budget, as this heavy trace's do).
    pub streamed_secs: f64,
    /// Peak heap growth of the batch path.
    pub peak_alloc_bytes_batch: usize,
    /// Peak heap growth of the streamed path.
    pub peak_alloc_bytes_streamed: usize,
    /// `peak_alloc_bytes_streamed / peak_alloc_bytes_batch`.
    pub stream_to_batch_peak_ratio: f64,
    /// What a dense `units × method_universe` matrix of doubles would
    /// take; computed, never allocated.
    pub dense_matrix_bytes: usize,
    /// The two analyses agreed bit for bit.
    pub bit_identical: bool,
    /// The streamed-peak cap the run enforced, if any.
    pub mem_cap_mb: Option<usize>,
}

/// Reads a record from a JSON file.
pub fn load_record<T: Deserialize>(path: &str) -> Result<T, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))
}

/// Writes a record as pretty JSON.
pub fn write_record<T: Serialize>(path: &str, record: &T) -> Result<(), String> {
    let text = serde_json::to_string_pretty(record).map_err(|e| format!("encode {path}: {e}"))?;
    std::fs::write(path, text).map_err(|e| format!("write {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed canonical records parse as they stand (the pipeline
    /// record's retired `large_scale: null` key is skipped), and a written
    /// record reads back equal.
    #[test]
    fn committed_canonicals_parse_and_round_trip() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../canonical");
        let p: PipelineRecord = load_record(&format!("{root}/BENCH_pipeline.json")).unwrap();
        assert_eq!((p.units, p.features, p.k_max, p.seed), (2000, 100, 20, 42));
        assert!(p.simulate.trace_bytes_identical_1_vs_n && p.cluster.assignments_identical_1_vs_n);
        let text = serde_json::to_string_pretty(&p).unwrap();
        assert_eq!(serde_json::from_str::<PipelineRecord>(&text).unwrap(), p);

        let t: TraceStreamRecord = load_record(&format!("{root}/BENCH_trace_stream.json")).unwrap();
        assert_eq!((t.units, t.chunk_units, t.mem_cap_mb), (320, 32, Some(64)));
        assert!(t.bit_identical);
        let text = serde_json::to_string_pretty(&t).unwrap();
        assert_eq!(serde_json::from_str::<TraceStreamRecord>(&text).unwrap(), t);
    }
}
