//! Workspace-local stand-in for `criterion`.
//!
//! A minimal benchmark harness with the slice of criterion's API the
//! kernel bench calls: `Criterion::default` and `benchmark_group`,
//! [`BenchmarkGroup`]'s `bench_function` (named by `&str`),
//! `bench_with_input` (named by a [`BenchmarkId`]: `new` or
//! `from_parameter`) and `finish`, [`Bencher::iter`], and [`black_box`].
//! Timing uses adaptive batching around `std::time::Instant` and prints
//! median ns/iter; nothing is recorded.
//!
//! Flags understood on the bench binary:
//!
//! * `--test` — run every benchmark body exactly once with no timing
//!   (the mode `scripts/check.sh` uses in the test gate);
//! * `--bench` — ignored (cargo passes it);
//! * any other non-flag argument — substring filter on benchmark names.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// The benchmark driver.
pub struct Criterion {
    test_mode: bool,
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        let mut test_mode = false;
        let mut filter = None;
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--test" => test_mode = true,
                "--bench" | "--nocapture" | "--quiet" | "--verbose" => {}
                other if !other.starts_with('-') => filter = Some(other.to_string()),
                _ => {}
            }
        }
        Criterion { test_mode, filter }
    }
}

impl Criterion {
    /// Starts a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
        }
    }

    fn run<F>(&mut self, id: String, mut f: F)
    where
        F: FnMut(&mut Bencher),
    {
        if let Some(filter) = &self.filter {
            if !id.contains(filter.as_str()) {
                return;
            }
        }
        let mut bencher = Bencher {
            test_mode: self.test_mode,
            ns_per_iter: 0.0,
        };
        f(&mut bencher);
        if self.test_mode {
            println!("test {id} ... ok");
        } else {
            println!("{id:<52} time: {}", format_ns(bencher.ns_per_iter));
        }
    }
}

/// A named collection of related benchmarks.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Benchmarks a closure under `group/name`.
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = format!("{}/{name}", self.name);
        self.criterion.run(id, f);
        self
    }

    /// Benchmarks a closure that also receives an input value.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = format!("{}/{}", self.name, id.text);
        self.criterion.run(id, |b| f(b, input));
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Identifier for a parameterized benchmark.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    text: String,
}

impl BenchmarkId {
    /// `function_name/parameter`.
    pub fn new(function_name: impl std::fmt::Display, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            text: format!("{function_name}/{parameter}"),
        }
    }

    /// Just the parameter as the id.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            text: parameter.to_string(),
        }
    }
}

/// Passed to benchmark closures; runs and times the workload.
pub struct Bencher {
    test_mode: bool,
    ns_per_iter: f64,
}

impl Bencher {
    /// Times `routine`, or runs it once in `--test` mode.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        if self.test_mode {
            black_box(routine());
            return;
        }
        self.ns_per_iter = measure(&mut routine);
    }
}

/// Adaptive measurement: pick a batch size that takes ≥ ~5 ms, then time
/// several batches and report the median ns/iter.
fn measure<O, R: FnMut() -> O>(routine: &mut R) -> f64 {
    // Warm up and find a batch size.
    let mut batch: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..batch {
            black_box(routine());
        }
        let elapsed = start.elapsed();
        if elapsed >= Duration::from_millis(5) || batch > (1 << 30) {
            break;
        }
        // Aim for ~10 ms per batch next round.
        let scale = if elapsed.as_nanos() == 0 {
            64
        } else {
            ((10_000_000 / elapsed.as_nanos().max(1)) + 1) as u64
        };
        batch = (batch * scale.clamp(2, 64)).max(batch + 1);
    }
    let samples = 7;
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            start.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    times[samples / 2]
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s/iter", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms/iter", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs/iter", ns / 1e3)
    } else {
        format!("{ns:.1} ns/iter")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_compose() {
        assert_eq!(BenchmarkId::from_parameter(8).text, "8");
        assert_eq!(BenchmarkId::new("encode", 610).text, "encode/610");
    }

    #[test]
    fn test_mode_runs_once() {
        let mut c = Criterion {
            test_mode: true,
            filter: None,
        };
        let mut runs = 0;
        let mut group = c.benchmark_group("g");
        group.bench_function("once", |b| b.iter(|| runs += 1));
        group.finish();
        assert_eq!(runs, 1);
    }

    #[test]
    fn measuring_mode_records_result() {
        let mut c = Criterion {
            test_mode: false,
            filter: None,
        };
        let mut measured = 0.0;
        let mut group = c.benchmark_group("g");
        group.bench_function("sum", |b| {
            b.iter(|| (0..100u64).sum::<u64>());
            measured = b.ns_per_iter;
        });
        group.finish();
        assert!(measured > 0.0);
    }

    #[test]
    fn filter_skips_nonmatching() {
        let mut c = Criterion {
            test_mode: true,
            filter: Some("match_me".into()),
        };
        let mut runs = 0;
        let mut group = c.benchmark_group("g");
        group.bench_function("other", |b| b.iter(|| runs += 1));
        group.bench_function("match_me", |b| b.iter(|| runs += 1));
        group.finish();
        assert_eq!(runs, 1);
    }
}
