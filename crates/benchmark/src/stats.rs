//! Order statistics, the tail rule, and the output digest.
//!
//! Percentiles are nearest-rank (a reported value is always one that was
//! measured). Quartiles follow Python's `statistics.quantiles(values, n=4)`
//! with its default `exclusive` method, so a spread computed here matches
//! one computed from the same `results.json` values in Python.

/// Samples a percentile must leave beyond it before it is reported
/// (choosing-metrics §1: "the highest percentile that has at least ten
/// samples beyond it").
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile of ascending `sorted`: the smallest sample with
/// at least `pct` % of the samples at or below it. `None` when empty.
pub fn percentile(sorted: &[f64], pct: u32) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = (pct as usize * n).div_ceil(100).clamp(1, n);
    Some(sorted[rank - 1])
}

/// [`percentile`] under the tail rule: refuses (with the reason) unless at
/// least [`TAIL_SAMPLES`] samples lie beyond the percentile's rank — for
/// p90 that takes 100 samples.
pub fn tail_percentile(sorted: &[f64], pct: u32) -> Result<f64, String> {
    let n = sorted.len();
    let rank = (pct as usize * n).div_ceil(100);
    if n - rank.min(n) < TAIL_SAMPLES {
        return Err(format!(
            "p{pct} needs {TAIL_SAMPLES} samples beyond it; {n} samples leave {}",
            n - rank.min(n)
        ));
    }
    percentile(sorted, pct).ok_or_else(|| "no samples".to_owned())
}

/// Sorts a copy of `values` ascending (total order; NaN sorts last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle samples for an even count), as
/// Python's `statistics.median`. `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile, as Python's `statistics.quantiles(values,
/// n=4)` (exclusive method). A single value is its own quartiles; `None`
/// when empty.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let ld = v.len();
    match ld {
        0 => None,
        1 => Some((v[0], v[0])),
        _ => {
            let m = ld + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            Some((q(1), q(3)))
        }
    }
}

/// Interquartile distance as a share of the median — the run-to-run
/// spread the benchmark's bounds are judged against. `None` when empty
/// or when the median is zero.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// 64-bit FNV-1a, the hash behind every workload's `output_digest`.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a length-prefixed string (so `("ab","c")` ≠ `("a","bc")`).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// Folds a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The hash value.
    pub fn value(&self) -> u64 {
        self.0
    }

    /// The hash as 16 lowercase hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile_returns_a_measured_sample() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), Some(5.0));
        assert_eq!(percentile(&v, 90), Some(9.0));
        assert_eq!(percentile(&v, 91), Some(10.0));
        assert_eq!(percentile(&v, 100), Some(10.0));
        assert_eq!(percentile(&v, 0), Some(1.0));
        assert_eq!(percentile(&[7.5], 50), Some(7.5));
        assert_eq!(percentile(&[], 50), None);
        // n = 3: rank ceil(1.5) = 2.
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50), Some(2.0));
    }

    #[test]
    fn tail_rule_refuses_p90_below_100_samples() {
        let v99: Vec<f64> = (0..99).map(f64::from).collect();
        let err = tail_percentile(&v99, 90).unwrap_err();
        assert!(err.contains("99 samples leave 9"), "{err}");
        let v100: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v100, 90), Ok(89.0));
        // The median needs only 20 samples.
        let v20: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(tail_percentile(&v20, 50), Ok(9.0));
        assert!(tail_percentile(&v20[..19], 50).is_err());
        assert!(tail_percentile(&[], 90).is_err());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([3, 1, 2, 5, 4], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 5.0, 4.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[4.0]), Some((4.0, 4.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), Some(5.5));
        assert_eq!(spread(&v), Some((8.25 - 2.75) / 5.5));
        assert_eq!(spread(&[3.0; 6]), Some(0.0));
        assert_eq!(spread(&[0.0, 0.0]), None, "zero median has no relative spread");
        assert_eq!(median(&[2.0, 9.0, 1.0]), Some(2.0));
    }

    #[test]
    fn fnv_is_fnv1a_and_length_prefixes_strings() {
        let mut h = Fnv::default();
        h.write(b"a");
        assert_eq!(h.hex(), "af63dc4c8601ec8c");
        let mut ab_c = Fnv::default();
        ab_c.write_str("ab");
        ab_c.write_str("c");
        let mut a_bc = Fnv::default();
        a_bc.write_str("a");
        a_bc.write_str("bc");
        assert_ne!(ab_c.hex(), a_bc.hex());
    }
}
