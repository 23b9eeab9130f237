//! Extension experiment: input sensitivity for text workloads — the paper's
//! stated future work (§IV-E leaves text benchmarks for future work because
//! representative text inputs need corpus-statistic analysis; "for
//! WordCount, the inputs with different frequencies of words should be
//! used").
//!
//! Trains the wc_sp phase model on the Base corpus and applies Algorithm 1
//! across corpora that vary exactly the statistics the paper names: word-
//! frequency skew (Zipf exponent), vocabulary size (hash-map footprint), and
//! line length (scan/probe mix).

use simprof_bench::report::{pct, render_table};
use simprof_bench::EvalConfig;
use simprof_core::{input_sensitivity, SimProf};
use simprof_engine::MethodId;
use simprof_workloads::{Benchmark, TextInput};

fn main() {
    let cfg = EvalConfig::paper(42);
    let wl = cfg.workload;
    let bytes = wl.text_bytes;

    let train_corpus = TextInput::Base.corpus(bytes, wl.seed);
    let train = Benchmark::WordCount.run_spark_on_text(&wl, &train_corpus);
    let analysis =
        SimProf::new(cfg.simprof).analyze(&train.trace).expect("workload trace is valid");
    println!(
        "training input Base: {} units, {} phases, oracle CPI {:.3}\n",
        train.trace.units.len(),
        analysis.k(),
        train.trace.oracle_cpi()
    );

    let mut refs = Vec::new();
    let mut names = Vec::new();
    let mut rows = Vec::new();
    for input in TextInput::ALL.into_iter().filter(|&i| i != TextInput::Base) {
        let corpus = input.corpus(bytes, wl.seed);
        let out = Benchmark::WordCount.run_spark_on_text(&wl, &corpus);
        rows.push(vec![
            input.label().to_string(),
            out.trace.units.len().to_string(),
            format!("{:.3}", out.trace.oracle_cpi()),
        ]);
        refs.push(out.trace);
        names.push(input.label());
    }
    println!("{}", render_table(&["reference input", "units", "oracle CPI"], &rows));

    let rr: Vec<&_> = refs.iter().collect();
    let report = input_sensitivity(&analysis.model, &train.trace, &rr, 0.10);
    for h in 0..analysis.k() {
        let movers: Vec<&str> = report
            .per_reference
            .iter()
            .zip(&names)
            .filter(|(p, _)| p[h])
            .map(|(_, &n)| n)
            .collect();
        let top = analysis
            .model
            .top_methods(h, 1)
            .first()
            .map(|&(m, _)| train.registry.name(MethodId(m as u32)).to_owned())
            .unwrap_or_default();
        println!(
            "phase {h} ({:.0}% of units, {top}): {}",
            analysis.weights[h] * 100.0,
            if movers.is_empty() {
                "input INSENSITIVE".into()
            } else {
                format!("sensitive — moved by {movers:?}")
            }
        );
    }
    let points = analysis.select_points(20, 7);
    let frac = report.sensitive_point_fraction(&points);
    println!(
        "\nreference text inputs need {} of the 20-point budget ({} reduction)",
        pct(frac),
        pct(1.0 - frac)
    );
    println!(
        "\nReading: WordCount's fused combine phase depends directly on the\n\
         word-frequency distribution (hash-map footprint and hot-set size), so\n\
         skew/vocabulary changes move every phase — consistent with the paper's\n\
         §IV-E argument that text workloads need corpus-statistic-aware input\n\
         selection before sensitivity pruning pays off. Line length alone\n\
         (LongLines) moves nothing."
    );
}
