//! Minimal wall-clock micro-benchmark harness.
//!
//! The micro-benchmarks live under `src/bin/bench_*.rs` as plain binaries
//! (`cargo run --release -p wolt-bench --bin bench_hungarian`) so the
//! workspace builds with zero external crates. Each benchmark warms up
//! briefly, calibrates an iteration count, splits a fixed measurement
//! window into nine timed batches, and prints one CSV row:
//! `group/id,batches,iters_per_batch,ns_per_iter,q1_ns_per_iter,q3_ns_per_iter`,
//! where `ns_per_iter` is the median batch's time per iteration and the
//! quartiles give the spread between batches.
//!
//! The numbers are indicative, not statistically rigorous — for scaling
//! trends and relative comparisons between policies, not for publication.

pub use std::hint::black_box;
use std::time::{Duration, Instant};

/// Target wall-clock time spent measuring each benchmark, over all its
/// batches.
const MEASURE_WINDOW: Duration = Duration::from_millis(200);
/// Warm-up time before calibration.
const WARMUP_WINDOW: Duration = Duration::from_millis(50);
/// Timed batches per benchmark. With 4k + 1 batches the quartiles fall
/// on batches: sorted, they are batches k, 2k and 3k.
const BATCHES: usize = 9;
/// Most iterations one benchmark runs while measuring, over all batches.
const MAX_ITERS: u128 = 1_000_000;

/// A named group of benchmarks, mirroring criterion's `benchmark_group`.
pub struct Group {
    name: String,
}

impl Group {
    /// Starts a group and prints the CSV header once.
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        println!("# group: {name}");
        println!("benchmark,batches,iters_per_batch,ns_per_iter,q1_ns_per_iter,q3_ns_per_iter");
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
        // Calibrate each batch's iteration count from the warm-up rate so
        // the batches together fill the measurement window.
        let per_iter = (warm_start.elapsed().as_nanos() / u128::from(warm_iters)).max(1);
        let batch = MEASURE_WINDOW.as_nanos() / BATCHES as u128;
        let iters = (batch / per_iter).clamp(1, MAX_ITERS / BATCHES as u128) as u64;
        let mut ns_per_iter = [0.0; BATCHES];
        for slot in &mut ns_per_iter {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            *slot = start.elapsed().as_nanos() as f64 / iters as f64;
        }
        let [q1, median, q3] = quartiles(&mut ns_per_iter);
        println!(
            "{}/{id},{BATCHES},{iters},{median:.1},{q1:.1},{q3:.1}",
            self.name
        );
    }
}

/// The lower quartile, median and upper quartile of the batch timings.
fn quartiles(ns_per_iter: &mut [f64; BATCHES]) -> [f64; 3] {
    ns_per_iter.sort_by(f64::total_cmp);
    let k = (BATCHES - 1) / 4;
    [ns_per_iter[k], ns_per_iter[2 * k], ns_per_iter[3 * k]]
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

    #[test]
    fn quartiles_are_the_sorted_batches_at_a_quarter_half_and_three_quarters() {
        let mut timings = [9.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0, 4.0, 5.0];
        assert_eq!(quartiles(&mut timings), [3.0, 5.0, 7.0]);
    }
}
