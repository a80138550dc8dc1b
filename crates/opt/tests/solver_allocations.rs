//! The projected-gradient solver allocates its working buffers once per
//! solve: its iterations allocate nothing.
//!
//! This binary installs a global allocator that counts the calling
//! thread's allocations, so it holds this one test only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wolt_opt::{Objective, ProjectedGradient, Supports};
use wolt_support::rng::{ChaCha8Rng, Rng, SeedableRng};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each thread's allocations.
struct Counting;

// SAFETY: every call forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the count is a thread-local `Cell`
// with a const initializer, so updating it neither allocates nor races.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Maximizes -Σ w (x - target)² and records the thread's allocation
/// count at every evaluation. Weights spread log-uniformly over four
/// decades make the solve take many iterations, and make its line
/// searches backtrack: a spectral step fits the curvature along the last
/// move, which a mix of flat and stiff coordinates does not share, so
/// many first trials overshoot a stiff one.
struct Watched {
    weight: Vec<f64>,
    target: Vec<f64>,
    evaluations: usize,
    /// Allocation count at the second evaluation, the first inside the
    /// iteration loop.
    in_loop: u64,
    /// Evaluations after the second that saw a different count.
    drifted: usize,
}

impl Objective for Watched {
    fn value(&mut self, x: &[f64]) -> f64 {
        self.evaluations += 1;
        let now = allocations();
        match self.evaluations {
            1 => {}
            2 => self.in_loop = now,
            _ if now != self.in_loop => self.drifted += 1,
            _ => {}
        }
        -x.iter()
            .zip(&self.target)
            .zip(&self.weight)
            .map(|((a, b), w)| w * (a - b).powi(2))
            .sum::<f64>()
    }

    fn gradient(&mut self, x: &[f64], grad: &mut [f64]) {
        for (((g, &xv), &t), &w) in grad.iter_mut().zip(x).zip(&self.target).zip(&self.weight) {
            *g = -2.0 * w * (xv - t);
        }
    }
}

#[test]
fn iterations_allocate_nothing() {
    let (rows, cols) = (60, 9);
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let mut supports = Supports::new(cols);
    for _ in 0..rows {
        let mut mask: Vec<bool> = (0..cols).map(|_| rng.gen_range(0..3u32) > 0).collect();
        mask[rng.gen_range(0..cols)] = true;
        supports.push_row((0..cols).filter(|&j| mask[j]));
    }
    let entries = supports.len();
    let x0 = vec![1.0 / cols as f64; entries];
    let mut objective = Watched {
        weight: (0..entries)
            .map(|_| 10f64.powf(rng.gen_range(-2.0..2.0)))
            .collect(),
        target: (0..entries).map(|_| rng.gen_range(-1.0..2.0)).collect(),
        evaluations: 0,
        in_loop: 0,
        drifted: 0,
    };
    let report = ProjectedGradient::new()
        .with_tol(1e-9)
        .maximize(&mut objective, x0, supports)
        .expect("well-formed problem");

    assert!(report.iterations > 5, "{} iterations", report.iterations);
    // Backtracking: at least two trials per iteration on average.
    assert!(objective.evaluations > 2 * report.iterations);
    assert_eq!(
        objective.drifted, 0,
        "{} of {} evaluations allocated since the loop began",
        objective.drifted, objective.evaluations
    );
}
