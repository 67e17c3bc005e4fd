//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no registry access, so this workspace ships a
//! tiny wall-clock harness that implements the criterion API subset its
//! benches use: [`Criterion::benchmark_group`], [`BenchmarkGroup`] with
//! `sample_size` / `bench_function` / `bench_with_input` / `finish`,
//! [`BenchmarkId::new`], [`Bencher::iter`], [`black_box`], and the
//! [`criterion_group!`] / [`criterion_main!`] macros.
//!
//! Each benchmark is warmed up once, run for `sample_size` samples, and a
//! `name ... median x per iter (n samples)` line is printed. No statistics
//! beyond the median, no HTML reports, no comparison against baselines.

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Opaque value barrier — defers to [`std::hint::black_box`].
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// A named benchmark within a group (`group/name/param`).
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Id from a function name and a parameter rendering.
    pub fn new(name: impl Display, param: impl Display) -> Self {
        BenchmarkId {
            id: format!("{name}/{param}"),
        }
    }
}

/// Runs the measured closure and collects samples.
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
}

impl Bencher {
    /// Measure `f`, one invocation per sample.
    pub fn iter<O>(&mut self, mut f: impl FnMut() -> O) {
        black_box(f()); // warm-up
        for _ in 0..self.sample_size {
            let t = Instant::now();
            black_box(f());
            self.samples.push(t.elapsed());
        }
    }
}

fn run_one(label: &str, sample_size: usize, f: &mut dyn FnMut(&mut Bencher)) {
    let mut b = Bencher {
        samples: Vec::with_capacity(sample_size),
        sample_size,
    };
    f(&mut b);
    b.samples.sort_unstable();
    let median = b
        .samples
        .get(b.samples.len() / 2)
        .copied()
        .unwrap_or(Duration::ZERO);
    println!(
        "{label:<56} median {median:>12?} ({} samples)",
        b.samples.len()
    );
}

/// A set of related benchmarks sharing a name prefix and sample size.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Samples per benchmark (default 10).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Benchmark a closure under `group/name`.
    pub fn bench_function(
        &mut self,
        name: impl Display,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        run_one(&format!("{}/{}", self.name, name), self.sample_size, &mut f);
        self
    }

    /// Benchmark a closure that receives `input`, under the given id.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        run_one(
            &format!("{}/{}", self.name, id.id),
            self.sample_size,
            &mut |b| f(b, input),
        );
        self
    }

    /// End the group (no-op; kept for API parity).
    pub fn finish(self) {}
}

/// Top-level benchmark driver.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Apply CLI configuration (accepted and ignored).
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Open a named group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 10,
            _criterion: self,
        }
    }

    /// Benchmark a closure under a bare name.
    pub fn bench_function(
        &mut self,
        name: impl Display,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        run_one(&name.to_string(), 10, &mut f);
        self
    }
}

/// Collect benchmark functions into a runnable group.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $($target(&mut criterion);)+
        }
    };
}

/// Entry point running one or more groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // `cargo bench`/`cargo test` pass harness flags; ignore them.
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_and_ids_run() {
        let mut c = Criterion::default().configure_from_args();
        let mut ran = 0u32;
        {
            let mut g = c.benchmark_group("shim");
            g.sample_size(3);
            g.bench_function("direct", |b| b.iter(|| ran += 1));
            g.bench_with_input(BenchmarkId::new("with_input", 7), &7u64, |b, &x| {
                b.iter(|| black_box(x * 2))
            });
            g.finish();
        }
        assert!(ran >= 3, "bencher must call the closure");
    }
}
