//! Minimal wall-clock micro-benchmark harness.
//!
//! The micro-benchmarks live under `src/bin/bench_*.rs` as plain binaries
//! (`cargo run --release -p wolt-bench --bin bench_hungarian`) so the
//! workspace builds with zero external crates. Each benchmark warms up
//! briefly, calibrates an iteration count to a fixed measurement window,
//! and prints one CSV row: `group/id,iters,ns_per_iter`.
//!
//! The numbers are indicative, not statistically rigorous — for scaling
//! trends and relative comparisons between policies, not for publication.

pub use std::hint::black_box;
use std::time::{Duration, Instant};

/// Target wall-clock time spent measuring each benchmark.
const MEASURE_WINDOW: Duration = Duration::from_millis(200);
/// Warm-up time before calibration.
const WARMUP_WINDOW: Duration = Duration::from_millis(50);

/// A named group of benchmarks, mirroring criterion's `benchmark_group`.
pub struct Group {
    name: String,
}

impl Group {
    /// Starts a group and prints the CSV header once.
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        println!("# group: {name}");
        println!("benchmark,iters,ns_per_iter");
        Self { name }
    }

    /// Times `f` and prints one row. The closure's return value is passed
    /// through [`black_box`] so the work is not optimized away.
    pub fn bench<T>(&mut self, id: &str, mut f: impl FnMut() -> T) {
        // Warm-up: fill caches, trigger lazy init.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < WARMUP_WINDOW {
            black_box(f());
            warm_iters += 1;
        }
        // Calibrate the iteration count from the warm-up rate, then run
        // one timed batch.
        let per_iter = warm_start.elapsed().as_nanos().max(1) / u128::from(warm_iters);
        let iters = (MEASURE_WINDOW.as_nanos() / per_iter.max(1)).clamp(1, 1_000_000) as u64;
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let elapsed = start.elapsed();
        self.report(id, iters, elapsed);
    }

    fn report(&self, id: &str, iters: u64, elapsed: Duration) {
        let ns = elapsed.as_nanos() as f64 / iters as f64;
        println!("{}/{id},{iters},{ns:.1}", self.name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_the_closure() {
        let mut calls = 0u64;
        Group::new("test").bench("noop", || calls += 1);
        assert!(calls > 0);
    }
}
