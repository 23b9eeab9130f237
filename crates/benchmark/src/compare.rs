//! `simprof-benchmark compare BASE... -- HEAD...`: judges two sets of
//! untraced runs by the rule of choosing-metrics §8.
//!
//! For every end-to-end metric and workload it prints each side's median
//! and quartiles, the share of index-paired runs the head side wins (ties
//! count for neither side), the bound from `BENCHMARK.json`, and a
//! verdict:
//!
//! * **improved** — head wins at least 9 in 10 pairs and its median is
//!   better by more than the base runs' interquartile distance;
//! * **unresolved** — either side's spread (IQR over median) is wider than
//!   the bound, unless every head run reads better than every base run;
//! * **regressed** — head's median is worse than base's by more than the
//!   bound;
//! * **unchanged** — otherwise.
//!
//! It also reports `output_digest` mismatches between runs of the same
//! seed and any change in `failed_frac`. The exit status is non-zero when
//! anything regressed, is unresolved, or mismatched.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use serde_json::Value;

use crate::spec::{Better, Spec};
use crate::stats;

/// A comparison verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better beyond the base spread in at least 9 of 10 pairs.
    Improved,
    /// Within the bound.
    Unchanged,
    /// Worse than the bound allows.
    Regressed,
    /// Too noisy to tell at this bound.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Median and quartiles of one side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Side {
    fn of(values: &[f64]) -> Option<Self> {
        let (q1, q3) = stats::quartiles(values)?;
        Some(Self { median: stats::median(values)?, q1, q3 })
    }
}

/// The judgement of one metric on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Judgement {
    /// Base side.
    pub base: Side,
    /// Head side.
    pub head: Side,
    /// Index pairs the head side won.
    pub wins: usize,
    /// Index pairs compared.
    pub pairs: usize,
    /// The metric's bound.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Applies the rule to one metric's base and head runs. `None` when
/// either side is empty.
pub fn judge(base: &[f64], head: &[f64], better: Better, bound: f64) -> Option<Judgement> {
    let (b, h) = (Side::of(base)?, Side::of(head)?);
    let is_better = |x: f64, than: f64| match better {
        Better::Lower => x < than,
        Better::Higher => x > than,
    };
    let pairs = base.len().min(head.len());
    let wins = base.iter().zip(head).filter(|&(&b, &h)| is_better(h, b)).count();
    // Relative worsening of the head median (positive = worse).
    let worse_by = {
        let diff = match better {
            Better::Lower => h.median - b.median,
            Better::Higher => b.median - h.median,
        };
        if b.median == 0.0 {
            if diff == 0.0 {
                0.0
            } else {
                diff.signum() * f64::INFINITY
            }
        } else {
            diff / b.median.abs()
        }
    };
    let spread = [base, head].iter().filter_map(|v| stats::spread(v)).fold(0.0, f64::max);
    let all_better = head.iter().all(|&x| base.iter().all(|&y| is_better(x, y)));
    let verdict = if pairs > 0
        && wins * 10 >= pairs * 9
        && worse_by < 0.0
        && (h.median - b.median).abs() > b.q3 - b.q1
    {
        Verdict::Improved
    } else if spread > bound && !all_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    };
    Some(Judgement { base: b, head: h, wins, pairs, bound, verdict })
}

/// One loaded `results.json`.
struct Run {
    path: String,
    doc: Value,
}

impl Run {
    fn load(arg: &str) -> Result<Self, String> {
        let path = if arg.ends_with(".json") {
            arg.to_owned()
        } else {
            Path::new(arg).join("results.json").to_string_lossy().into_owned()
        };
        let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
        let doc = serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))?;
        Ok(Self { path, doc })
    }

    fn workload(&self, w: &str) -> Option<&Value> {
        self.doc.get("workloads")?.get(w)
    }

    fn metric(&self, w: &str, m: &str) -> Option<f64> {
        self.workload(w)?.get("metrics")?.get(m)?.get("value")?.as_f64()
    }

    fn seed(&self) -> u64 {
        self.doc.get("provenance").and_then(|p| p.get("seed")).and_then(Value::as_u64).unwrap_or(0)
    }
}

/// Runs the subcommand on `argv` (the arguments after `compare`).
/// Returns whether the comparison is clean.
pub fn main(argv: &[String]) -> Result<bool, String> {
    let split = argv
        .iter()
        .position(|a| a == "--")
        .ok_or("usage: simprof-benchmark compare BASE_DIR... -- HEAD_DIR...")?;
    let load = |args: &[String]| args.iter().map(|a| Run::load(a)).collect::<Result<Vec<_>, _>>();
    let (base, head) = (load(&argv[..split])?, load(&argv[split + 1..])?);
    if base.is_empty() || head.is_empty() {
        return Err("compare needs at least one run on each side of `--`".into());
    }
    let spec = Spec::get();
    let mut clean = true;
    println!(
        "{:<18} {:<13} {:>30} {:>30} {:>7} {:>6}  verdict",
        "metric", "workload", "base median [q1, q3]", "head median [q1, q3]", "wins", "bound"
    );
    for w in &spec.workloads {
        if base.iter().chain(&head).all(|r| r.workload(w).is_none()) {
            continue;
        }
        for m in &spec.end_to_end {
            let values =
                |runs: &[Run]| runs.iter().filter_map(|r| r.metric(w, &m.name)).collect::<Vec<_>>();
            let (b, h) = (values(&base), values(&head));
            if b.len() != base.len() || h.len() != head.len() {
                println!("{:<18} {w:<13} missing from some runs", m.name);
                clean = false;
                continue;
            }
            let bound = m.bound.unwrap_or(0.0);
            let Some(j) = judge(&b, &h, m.better, bound) else { continue };
            let side = |s: Side| format!("{:.4} [{:.4}, {:.4}]", s.median, s.q1, s.q3);
            println!(
                "{:<18} {w:<13} {:>30} {:>30} {:>3}/{:<3} {:>6.3}  {}",
                m.name,
                side(j.base),
                side(j.head),
                j.wins,
                j.pairs,
                j.bound,
                j.verdict.label()
            );
            clean &= matches!(j.verdict, Verdict::Improved | Verdict::Unchanged);
        }

        // Digests must agree between runs of the same seed.
        let mut digests: BTreeMap<u64, BTreeSet<(String, &str)>> = BTreeMap::new();
        for (side, runs) in [("base", &base), ("head", &head)] {
            for r in runs.iter() {
                if let Some(d) =
                    r.workload(w).and_then(|v| v.get("output_digest")).and_then(Value::as_str)
                {
                    digests.entry(r.seed()).or_default().insert((d.to_owned(), side));
                }
            }
        }
        for (seed, set) in &digests {
            let distinct: BTreeSet<&String> = set.iter().map(|(d, _)| d).collect();
            if distinct.len() > 1 {
                clean = false;
                let list: Vec<String> = set.iter().map(|(d, s)| format!("{s} {d}")).collect();
                println!("output_digest mismatch on {w}, seed {seed}: {}", list.join(", "));
            }
        }
        let failed = |runs: &[Run]| {
            runs.iter()
                .filter_map(|r| r.workload(w)?.get("failed_frac")?.as_f64())
                .fold(0.0, f64::max)
        };
        let (fb, fh) = (failed(&base), failed(&head));
        if fb != fh || fh > 0.0 {
            clean = false;
            println!("failed_frac on {w}: base max {fb}, head max {fh}");
        }
    }
    for r in base.iter().chain(&head) {
        if r.doc.get("correct") != Some(&Value::Bool(true)) {
            clean = false;
            println!("{}: run reported failures", r.path);
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_win_beyond_base_spread_is_improved() {
        let base = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2];
        let head: Vec<f64> = base.iter().map(|v| v * 0.8).collect();
        let j = judge(&base, &head, Better::Lower, 0.1).unwrap();
        assert_eq!(j.verdict, Verdict::Improved);
        assert_eq!((j.wins, j.pairs), (10, 10));
        // The same numbers read as throughput are a regression.
        let j = judge(&base, &head, Better::Higher, 0.1).unwrap();
        assert_eq!(j.verdict, Verdict::Regressed);
        assert_eq!(j.wins, 0);
    }

    #[test]
    fn ties_count_for_neither_side() {
        let base = [5.0; 10];
        let mut head = [5.0; 10];
        head[0] = 4.0;
        let j = judge(&base, &head, Better::Lower, 0.1).unwrap();
        assert_eq!((j.wins, j.pairs), (1, 10));
        assert_eq!(j.verdict, Verdict::Unchanged, "one win in ten is no improvement");
        // Nine strict wins and one tie still meet the 9-in-10 rule.
        let head: Vec<f64> = (0..10).map(|i| if i == 0 { 5.0 } else { 4.0 }).collect();
        let j = judge(&base, &head, Better::Lower, 0.1).unwrap();
        assert_eq!(j.wins, 9);
        assert_eq!(j.verdict, Verdict::Improved);
    }

    #[test]
    fn small_worsening_is_unchanged_and_large_is_regressed() {
        let base = [100.0, 101.0, 99.0, 100.0, 100.5, 99.5];
        let head: Vec<f64> = base.iter().map(|v| v * 1.05).collect();
        assert_eq!(judge(&base, &head, Better::Lower, 0.1).unwrap().verdict, Verdict::Unchanged);
        let head: Vec<f64> = base.iter().map(|v| v * 1.2).collect();
        assert_eq!(judge(&base, &head, Better::Lower, 0.1).unwrap().verdict, Verdict::Regressed);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_unless_head_dominates() {
        let base = [80.0, 120.0, 90.0, 110.0, 100.0, 70.0, 130.0, 100.0];
        let head = [85.0, 115.0, 95.0, 105.0, 100.0, 75.0, 125.0, 101.0];
        let j = judge(&base, &head, Better::Lower, 0.1).unwrap();
        assert_eq!(j.verdict, Verdict::Unresolved);
        // Every head run below every base run: not unresolved, and not
        // claimed as improved either, since it wins but not beyond the
        // base spread.
        let head = [60.0, 61.0, 62.0, 63.0, 64.0, 65.0, 66.0, 69.0];
        let j = judge(&base, &head, Better::Lower, 0.1).unwrap();
        assert_eq!(j.verdict, Verdict::Improved);
        let j = judge(&base, &[69.0; 8], Better::Lower, 0.1).unwrap();
        assert_eq!(j.verdict, Verdict::Unchanged, "reads better than every base run");
    }

    #[test]
    fn empty_sides_are_not_judged() {
        assert!(judge(&[], &[1.0], Better::Lower, 0.1).is_none());
    }
}
