//! Criterion benchmarks for the end-to-end pipeline stages: profiling a
//! workload on the machine model, phase formation, point selection, and
//! reference-input classification.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use simprof_core::{classify_units, form_phases, select_points, SimProf, SimProfConfig};
use simprof_stats::{choose_k, seeded, silhouette_scores, Matrix};
use simprof_workloads::{Benchmark, Framework, WorkloadConfig};

fn config() -> SimProfConfig {
    SimProfConfig { seed: 11, ..Default::default() }
}

fn bench_pipeline(c: &mut Criterion) {
    let wl = WorkloadConfig::tiny(11);

    c.bench_function("pipeline/profile wc_sp (tiny)", |b| {
        b.iter(|| black_box(Benchmark::WordCount.run(Framework::Spark, &wl)))
    });

    let trace = Benchmark::WordCount.run(Framework::Spark, &wl);
    c.bench_function("pipeline/form_phases", |b| {
        b.iter(|| black_box(form_phases(black_box(&trace), &config())))
    });

    let analysis = SimProf::new(config()).analyze(&trace).expect("synthetic trace is valid");
    c.bench_function("pipeline/select_points n=20", |b| {
        b.iter(|| {
            black_box(select_points(
                black_box(&analysis.cpis),
                &analysis.model.assignments,
                analysis.k(),
                20,
                &mut seeded(5),
            ))
        })
    });

    c.bench_function("pipeline/required_size 2%", |b| {
        b.iter(|| black_box(analysis.required_size(3.0, 0.02)))
    });

    let reference = Benchmark::WordCount.run(Framework::Spark, &WorkloadConfig::tiny(12));
    c.bench_function("pipeline/classify_units (reference input)", |b| {
        b.iter(|| black_box(classify_units(black_box(&analysis.model), black_box(&reference))))
    });

    c.bench_function("pipeline/analyze end-to-end", |b| {
        b.iter(|| black_box(SimProf::new(config()).analyze(black_box(&trace)).unwrap()))
    });

    // The k-selection sweep and its fused silhouette pass in isolation.
    let rows: Vec<Vec<f64>> = (0..240)
        .map(|i| {
            (0..24)
                .map(|j| if j % 4 == i % 4 { 6.0 } else { 0.3 + (i * j % 7) as f64 * 0.05 })
                .collect()
        })
        .collect();
    let m = Matrix::from_rows(&rows);
    c.bench_function("pipeline/choose_k sweep (fused+warm)", |b| {
        b.iter(|| black_box(choose_k(black_box(&m), 10, 0.9, 0.25, 11)))
    });
    let assignments: Vec<usize> = (0..240).map(|i| i % 4).collect();
    c.bench_function("pipeline/silhouette fused pass", |b| {
        b.iter(|| black_box(silhouette_scores(black_box(&m), &[black_box(assignments.as_slice())])))
    });
}

criterion_group!(
    name = pipeline;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3));
    targets = bench_pipeline
);
criterion_main!(pipeline);
