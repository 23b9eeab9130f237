//! Offline stand-in for `criterion`.
//!
//! Implements the small surface the workspace's benches use — `Criterion`,
//! `Bencher::iter`, benchmark groups, `BenchmarkId`, `Throughput`, and the
//! `criterion_group!` / `criterion_main!` macros — over a plain wall-clock
//! loop. No statistics, plots, or baselines: each benchmark runs a bounded
//! number of timed iterations and reports the mean time per iteration
//! (plus time per MB when its group declares a byte throughput).

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Benchmark driver: collects configuration and runs registered benches.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Self { sample_size: 20, measurement_time: Duration::from_secs(1) }
    }
}

impl Criterion {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Caps the total measurement time per benchmark.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    /// Runs one benchmark function.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        let mut b = Bencher::new(self.sample_size, self.measurement_time);
        let start = Instant::now();
        f(&mut b);
        report(id, b.total_time, b.total_iters, start.elapsed(), None);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup { parent: self, name: name.to_string(), throughput: None }
    }
}

/// Per-benchmark iteration driver handed to the bench closure.
pub struct Bencher {
    samples: usize,
    budget: Duration,
    total_time: Duration,
    total_iters: u64,
}

impl Bencher {
    /// Times `routine` over a bounded number of iterations.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        let start = Instant::now();
        let mut iters = 0u64;
        for _ in 0..self.samples {
            black_box(routine());
            iters += 1;
            if start.elapsed() >= self.budget {
                break;
            }
        }
        self.total_time += start.elapsed();
        self.total_iters += iters;
    }
}

impl Bencher {
    fn new(samples: usize, budget: Duration) -> Self {
        Self { samples, budget, total_time: Duration::ZERO, total_iters: 0 }
    }
}

/// A group of related benchmarks sharing a name prefix.
pub struct BenchmarkGroup<'a> {
    parent: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

/// How much input one iteration of a group's benchmarks processes.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes per iteration; reports add the time per MB (10^6 bytes).
    Bytes(u64),
}

impl BenchmarkGroup<'_> {
    /// Declares the input size of each iteration of the benchmarks that
    /// follow in this group.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Runs one benchmark inside the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl std::fmt::Display,
        mut f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id);
        let mut b = Bencher::new(self.parent.sample_size, self.parent.measurement_time);
        let start = Instant::now();
        f(&mut b);
        report(&full, b.total_time, b.total_iters, start.elapsed(), self.throughput);
        self
    }

    /// Runs one parameterised benchmark inside the group.
    pub fn bench_with_input<I, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        self.bench_function(id.0, |b| f(b, input))
    }

    /// Finishes the group (no-op; kept for API parity).
    pub fn finish(self) {}
}

/// A benchmark identifier (rendered into the group name).
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// An id showing just the parameter value.
    pub fn from_parameter(p: impl std::fmt::Display) -> Self {
        Self(p.to_string())
    }

    /// An id with a function name and a parameter value.
    pub fn new(name: impl std::fmt::Display, p: impl std::fmt::Display) -> Self {
        Self(format!("{name}/{p}"))
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

fn report(id: &str, timed: Duration, iters: u64, wall: Duration, tp: Option<Throughput>) {
    if iters == 0 {
        println!("{id:<48} (no iterations)");
        return;
    }
    let per_iter = timed.as_nanos() / iters as u128;
    let per_mb = match tp {
        Some(Throughput::Bytes(n)) if n > 0 => {
            format!(", {:.1} us/MB", per_iter as f64 / 1e3 / (n as f64 / 1e6))
        }
        _ => String::new(),
    };
    println!(
        "{id:<48} {per_iter:>12} ns/iter ({iters} iters, {:.2}s wall{per_mb})",
        wall.as_secs_f64()
    );
}

/// Declares a benchmark group function. Supports both the positional form
/// `criterion_group!(name, target, ...)` and the configured form
/// `criterion_group!(name = n; config = expr; targets = a, b)`.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $cfg:expr; targets = $($t:path),+ $(,)?) => {
        /// Runs this benchmark group.
        pub fn $name() {
            let mut c = $cfg;
            $( $t(&mut c); )+
        }
    };
    ($name:ident, $($t:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($t),+
        );
    };
}

/// Declares `main` running the listed benchmark groups.
#[macro_export]
macro_rules! criterion_main {
    ($($g:path),+ $(,)?) => {
        fn main() {
            $( $g(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench_smoke(c: &mut Criterion) {
        c.bench_function("smoke/add", |b| b.iter(|| black_box(2u64) + 2));
        let mut g = c.benchmark_group("smoke/group");
        g.bench_function("plain", |b| b.iter(|| black_box(1u64)));
        g.bench_with_input(BenchmarkId::from_parameter(3), &3u64, |b, &k| {
            b.iter(|| black_box(k * k))
        });
        g.throughput(Throughput::Bytes(1 << 20));
        g.bench_function("per_mb", |b| b.iter(|| black_box(1u64)));
        g.finish();
    }

    criterion_group!(
        name = smoke;
        config = Criterion::default().sample_size(3).measurement_time(std::time::Duration::from_millis(50));
        targets = bench_smoke
    );

    #[test]
    fn group_runs() {
        smoke();
    }
}
