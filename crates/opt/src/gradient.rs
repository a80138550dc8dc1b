//! Projected-gradient ascent over products of probability simplices.
//!
//! The WOLT paper solves its Phase-II nonlinear program (Problem 2) with a
//! numerical solver "which uses the interior point method; the solver stops
//! when the improvement in the aggregate throughput is less than e−5". We
//! substitute projected-gradient ascent with Armijo backtracking: the
//! feasible region (one probability simplex per unassigned user over the
//! extenders the user can actually reach) and the stopping
//! rule (absolute objective improvement below `tol`, default `1e-5`) are
//! identical, and Theorem 3 of the paper guarantees the optimum the solver
//! approaches is integral.
//!
//! The first line search starts at the configured `step`; every later one
//! starts at the Barzilai–Borwein step `s·s / (−s·y)`, where `s` is the
//! last accepted move and `y` the change of the gradient across it
//! (Barzilai & Borwein, IMA J. Numer. Anal. 1988), as spectral projected
//! gradient does (Birgin, Martínez & Raydan, SIAM J. Optim. 2000). The
//! step is the inverse of the objective's curvature along the last move,
//! so an objective that is flat along most moves takes long steps instead
//! of crawling at a fixed one. It is clamped to `[1e-6, 100]`, and is 100
//! when `s·y ≥ 0` (no concave curvature along `s`). A rejected trial
//! halves the step.
//!
//! The solve also ends at first-order stationarity: when the first trial
//! of a line search, `P(x + step·∇f(x))`, is rejected and lies within
//! 1e-12 (max-abs) of the iterate, `x` is a fixed point of the
//! projected-gradient map, and every shorter step moves less still, so no
//! backtracking follows. A rejected trial that moved farther (an
//! overshoot) backtracks as usual.
//!
//! The solve runs in the packed layout of [`Supports`]: one value per
//! (row, allowed coordinate), each row's values contiguous, so the
//! iterate, the line-search candidate, the gradient and the previous
//! iterate and gradient hold nothing for coordinates a row cannot use.
//!
//! The solver is generic over an [`Objective`]; `wolt-core` implements the
//! Phase-II WiFi-throughput objective on top of it.

use crate::simplex::{is_on_simplex, Supports, STATIONARY_TOL};
use crate::OptError;

/// A differentiable objective over a block variable `x` of decision rows,
/// one per user, each a point on the probability simplex over the
/// extenders the row's support lists.
///
/// The solver hands `x` over packed, as [`Supports`] describes: row `i`'s
/// values are contiguous and belong, in order, to the coordinates
/// `supports.row(i)`. With [`Supports::full`] that is the flat row-major
/// layout: with `n` coordinates per row, row `i` is `x[i * n..(i + 1) * n]`.
pub trait Objective {
    /// Objective value at `x` (to be maximized).
    fn value(&mut self, x: &[f64]) -> f64;

    /// Writes the gradient at `x` into `grad` (same packed layout as `x`).
    ///
    /// The solver calls this only at the point it most recently passed to
    /// [`value`](Self::value), so an implementation may reuse what `value`
    /// computed there. It always passes a buffer of the right length;
    /// every entry must be overwritten.
    fn gradient(&mut self, x: &[f64], grad: &mut [f64]);
}

/// Outcome of a [`ProjectedGradient::maximize`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveReport {
    /// The final (feasible) iterate, packed over [`SolveReport::supports`]:
    /// one value per (row, allowed coordinate), each row's contiguous.
    pub x: Vec<f64>,
    /// The supports the solve ran over, handed back with the iterate.
    pub supports: Supports,
    /// Objective value at `x`.
    pub value: f64,
    /// Number of outer iterations performed.
    pub iterations: usize,
    /// Number of trial points the line searches evaluated, one objective
    /// evaluation each.
    pub trials: usize,
    /// True if the solve stopped before the iteration budget ran out: an
    /// accepted step improved the objective by less than `tol`, a line
    /// search's first trial was rejected within 1e-12 of the iterate
    /// (stationarity), or no step of the backtracking search gave ascent.
    pub converged: bool,
}

/// Projected-gradient ascent solver configuration.
///
/// Construct with [`ProjectedGradient::new`] and adjust fields via the
/// builder-style methods.
///
/// # Example
///
/// Maximize `-(x0 - 0.9)²` over the 1-simplex in two variables; the optimum
/// puts as much mass as possible on coordinate 0:
///
/// ```
/// use wolt_opt::{Objective, ProjectedGradient, Supports};
///
/// struct Pull;
/// impl Objective for Pull {
///     fn value(&mut self, x: &[f64]) -> f64 {
///         -(x[0] - 0.9_f64).powi(2)
///     }
///     fn gradient(&mut self, x: &[f64], g: &mut [f64]) {
///         g[0] = -2.0 * (x[0] - 0.9);
///         g[1] = 0.0;
///     }
/// }
///
/// # fn main() -> Result<(), wolt_opt::OptError> {
/// let supports = Supports::full(1, 2);
/// let report = ProjectedGradient::new().maximize(&mut Pull, vec![0.5, 0.5], supports)?;
/// assert!((report.row(0)[0] - 0.9).abs() < 1e-3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProjectedGradient {
    /// Step size the first line search starts at; later ones start at
    /// the spectral step (see the [module docs](self)).
    pub step: f64,
    /// Stop when the objective improves by less than this between
    /// iterations (the paper uses 1e-5).
    pub tol: f64,
    /// Maximum number of outer iterations.
    pub max_iters: usize,
    /// Multiplicative step shrink factor for backtracking (0 < beta < 1).
    pub backtrack: f64,
    /// Maximum number of backtracking halvings per iteration.
    pub max_backtracks: usize,
}

impl Default for ProjectedGradient {
    fn default() -> Self {
        Self::new()
    }
}

impl SolveReport {
    /// Row `i` of the final iterate, packed: its values at the coordinates
    /// `self.supports.row(i)`, in that order.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.x[self.supports.span(i)]
    }

    /// The final iterate as dense rows, one value per coordinate, exactly
    /// `0.0` off each row's support.
    pub fn unpack(&self) -> Vec<Vec<f64>> {
        self.supports.unpack(&self.x)
    }
}

impl ProjectedGradient {
    /// Solver with the paper's stopping tolerance (`1e-5`) and sensible
    /// defaults for the remaining knobs.
    pub fn new() -> Self {
        Self {
            step: 1.0,
            tol: 1e-5,
            max_iters: 5_000,
            backtrack: 0.5,
            max_backtracks: 40,
        }
    }

    /// Sets the stopping tolerance.
    pub fn with_tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    /// Sets the iteration budget.
    pub fn with_max_iters(mut self, max_iters: usize) -> Self {
        self.max_iters = max_iters;
        self
    }

    /// Sets the step size the first line search starts at.
    pub fn with_step(mut self, step: f64) -> Self {
        self.step = step;
        self
    }

    /// Maximizes `objective` starting from the packed point `x0`, each row
    /// constrained to the probability simplex over its support.
    ///
    /// `x0` need not be feasible; it is projected first. The solve
    /// allocates its working buffers once, up front: the packed
    /// line-search candidate, gradient, and the previous iterate and
    /// gradient that the spectral step reads (`x0` itself becomes the
    /// iterate). The iterations themselves allocate nothing, and project
    /// each row in place where it lies. The report hands back the final
    /// iterate packed, with the supports it is packed over.
    ///
    /// # Errors
    ///
    /// * [`OptError::DimensionMismatch`] if `x0`'s length is not
    ///   `supports.len()`, or a support row lists no coordinate, or lists
    ///   one out of range or out of ascending order.
    /// * [`OptError::NonFiniteInput`] if `x0` contains non-finite values,
    ///   the objective evaluates to a non-finite value at the start, or a
    ///   gradient has a non-finite entry.
    pub fn maximize<O: Objective>(
        &self,
        objective: &mut O,
        x0: Vec<f64>,
        supports: Supports,
    ) -> Result<SolveReport, OptError> {
        if x0.len() != supports.len() {
            return Err(OptError::DimensionMismatch {
                context: "x0 length differs from the supports",
            });
        }
        if let Some(context) = supports.defect() {
            return Err(OptError::DimensionMismatch { context });
        }
        if x0.iter().any(|v| !v.is_finite()) {
            return Err(OptError::NonFiniteInput { context: "x0" });
        }

        let longest = (0..supports.rows()).map(|i| supports.row(i).len());
        let mut scratch = Vec::with_capacity(longest.max().unwrap_or(0));
        let mut x = x0;
        supports.project(&mut x, &mut scratch);

        let mut value = objective.value(&x);
        if !value.is_finite() {
            return Err(OptError::NonFiniteInput {
                context: "objective at the projected start point",
            });
        }

        let mut grad = vec![0.0; x.len()];
        let mut candidate = vec![0.0; x.len()];
        // The last accepted iterate and the gradient taken there.
        let mut prev_x = vec![0.0; x.len()];
        let mut prev_grad = vec![0.0; x.len()];
        let mut iterations = 0;
        let mut trials = 0;
        let mut converged = false;

        while iterations < self.max_iters {
            iterations += 1;
            objective.gradient(&x, &mut grad);
            if !grad.iter().all(|g| g.is_finite()) {
                return Err(OptError::NonFiniteInput {
                    context: "gradient",
                });
            }

            // Backtracking line search along the projected-gradient arc,
            // from the spectral step once a move has been accepted.
            let mut step = if iterations == 1 {
                self.step
            } else {
                spectral_step(&x, &prev_x, &grad, &prev_grad)
            };
            let mut accepted = None;
            for attempt in 0..=self.max_backtracks {
                for ((c, &xv), &gv) in candidate.iter_mut().zip(&x).zip(&grad) {
                    *c = xv + step * gv;
                }
                supports.project(&mut candidate, &mut scratch);
                trials += 1;
                let cand_value = objective.value(&candidate);
                if cand_value.is_finite() && cand_value > value {
                    accepted = Some(cand_value);
                    break;
                }
                // A rejected first trial that did not move: `x` is a
                // fixed point of the projected-gradient map, and a
                // shorter step would move less still.
                if attempt == 0
                    && candidate
                        .iter()
                        .zip(&x)
                        .all(|(c, xv)| (c - xv).abs() <= STATIONARY_TOL)
                {
                    break;
                }
                step *= self.backtrack;
            }

            // Stationary, or no ascent found at any step size.
            let Some(cand_value) = accepted else {
                converged = true;
                break;
            };
            let improvement = cand_value - value;
            // The iterate becomes the previous one, the candidate the
            // iterate; the old previous buffers are overwritten next.
            std::mem::swap(&mut prev_x, &mut x);
            std::mem::swap(&mut x, &mut candidate);
            std::mem::swap(&mut prev_grad, &mut grad);
            value = cand_value;
            if improvement < self.tol {
                converged = true;
                break;
            }
        }

        Ok(SolveReport {
            x,
            supports,
            value,
            iterations,
            trials,
            converged,
        })
    }
}

/// The spectral step's clamp: it never starts a line search below
/// `MIN_STEP` or above `MAX_STEP`.
const MIN_STEP: f64 = 1e-6;
const MAX_STEP: f64 = 100.0;

/// The Barzilai–Borwein step `s·s / (−s·y)` for ascent, with
/// `s = x − prev_x` and `y = grad − prev_grad`, clamped to
/// `[MIN_STEP, MAX_STEP]`; `MAX_STEP` when `s·y ≥ 0`, where the objective
/// shows no concave curvature along `s`.
fn spectral_step(x: &[f64], prev_x: &[f64], grad: &[f64], prev_grad: &[f64]) -> f64 {
    let (mut ss, mut sy) = (0.0, 0.0);
    for (((&xv, &pxv), &gv), &pgv) in x.iter().zip(prev_x).zip(grad).zip(prev_grad) {
        let s = xv - pxv;
        ss += s * s;
        sy += s * (gv - pgv);
    }
    if sy >= 0.0 {
        MAX_STEP
    } else {
        (ss / -sy).clamp(MIN_STEP, MAX_STEP)
    }
}

/// Debug helper: true if every dense row of `x` lies on the simplex and
/// carries no mass (beyond `tol`) off its support.
pub fn assert_feasible(x: &[Vec<f64>], supports: &Supports, tol: f64) -> bool {
    x.len() == supports.rows()
        && x.iter().enumerate().all(|(i, row)| {
            is_on_simplex(row, tol)
                && row
                    .iter()
                    .enumerate()
                    .all(|(j, &v)| supports.row(i).contains(&j) || v.abs() <= tol)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Concave quadratic: maximize -Σ w (x - target)² over a packed `x`,
    /// one weight `w` per entry. The unconstrained optimum is `target`;
    /// with `target` on the simplex, so is the constrained one.
    struct Quadratic {
        weight: Vec<f64>,
        target: Vec<f64>,
    }

    impl Objective for Quadratic {
        fn value(&mut self, x: &[f64]) -> f64 {
            -x.iter()
                .zip(&self.target)
                .zip(&self.weight)
                .map(|((a, b), w)| w * (a - b).powi(2))
                .sum::<f64>()
        }
        fn gradient(&mut self, x: &[f64], g: &mut [f64]) {
            for (((gv, xv), tv), w) in g.iter_mut().zip(x).zip(&self.target).zip(&self.weight) {
                *gv = -2.0 * w * (xv - tv);
            }
        }
    }

    /// One call the solver made to an objective.
    enum Call {
        Value(Vec<f64>),
        /// The point and the gradient the objective wrote.
        Gradient(Vec<f64>, Vec<f64>),
    }

    /// Another objective, logging every call in order.
    struct Logged<O> {
        inner: O,
        calls: Vec<Call>,
    }

    impl<O: Objective> Objective for Logged<O> {
        fn value(&mut self, x: &[f64]) -> f64 {
            self.calls.push(Call::Value(x.to_vec()));
            self.inner.value(x)
        }
        fn gradient(&mut self, x: &[f64], g: &mut [f64]) {
            self.inner.gradient(x, g);
            self.calls.push(Call::Gradient(x.to_vec(), g.to_vec()));
        }
    }

    impl<O> Logged<O> {
        fn new(inner: O) -> Self {
            Self {
                inner,
                calls: Vec::new(),
            }
        }

        /// Each iteration's iterate, gradient and first line-search trial:
        /// the solver takes the gradient at each accepted iterate, then
        /// evaluates that iteration's trials.
        fn line_searches(&self) -> Vec<(&[f64], &[f64], &[f64])> {
            self.calls
                .windows(2)
                .filter_map(|pair| match pair {
                    [Call::Gradient(x, g), Call::Value(trial)] => {
                        Some((&x[..], &g[..], &trial[..]))
                    }
                    _ => None,
                })
                .collect()
        }
    }

    /// The trial point `P(x + step·g)`, computed as the solver does.
    fn trial(x: &[f64], g: &[f64], step: f64, supports: &Supports) -> Vec<f64> {
        let mut point: Vec<f64> = x.iter().zip(g).map(|(xv, gv)| xv + step * gv).collect();
        supports.project(&mut point, &mut Vec::new());
        point
    }

    /// `s·s` and `s·y` for the move from `(px, pg)` to `(x, g)`.
    fn curvature_pair(px: &[f64], pg: &[f64], x: &[f64], g: &[f64]) -> (f64, f64) {
        let (mut ss, mut sy) = (0.0, 0.0);
        for k in 0..x.len() {
            let s = x[k] - px[k];
            ss += s * s;
            sy += s * (g[k] - pg[k]);
        }
        (ss, sy)
    }

    /// Projected-gradient ascent at a fixed unit step, stopping as the
    /// solver does (a rejected trial, or an improvement below `tol`), but
    /// never backtracking: the objectives it is run on do not overshoot
    /// at step 1. Returns the final iterate and the iteration count.
    fn unit_step_ascent<O: Objective>(
        objective: &mut O,
        mut x: Vec<f64>,
        supports: &Supports,
        tol: f64,
    ) -> (Vec<f64>, usize) {
        let mut value = objective.value(&x);
        let mut g = vec![0.0; x.len()];
        let mut iterations = 0;
        loop {
            iterations += 1;
            objective.gradient(&x, &mut g);
            let next = trial(&x, &g, 1.0, supports);
            let next_value = objective.value(&next);
            if next_value <= value {
                return (x, iterations);
            }
            let improvement = next_value - value;
            (x, value) = (next, next_value);
            if improvement < tol {
                return (x, iterations);
            }
        }
    }

    /// `factor` times another objective.
    struct Scaled<O>(O, f64);

    impl<O: Objective> Objective for Scaled<O> {
        fn value(&mut self, x: &[f64]) -> f64 {
            self.1 * self.0.value(x)
        }
        fn gradient(&mut self, x: &[f64], g: &mut [f64]) {
            self.0.gradient(x, g);
            for v in g {
                *v *= self.1;
            }
        }
    }

    /// Another objective, counting its value evaluations.
    struct Counted<O> {
        inner: O,
        values: usize,
    }

    impl<O: Objective> Objective for Counted<O> {
        fn value(&mut self, x: &[f64]) -> f64 {
            self.values += 1;
            self.inner.value(x)
        }
        fn gradient(&mut self, x: &[f64], g: &mut [f64]) {
            self.inner.gradient(x, g);
        }
    }

    /// An objective whose gradient is NaN everywhere, as a Phase-II
    /// gradient becomes when a rate is too small to invert.
    struct NanGradient;

    impl Objective for NanGradient {
        fn value(&mut self, _x: &[f64]) -> f64 {
            0.0
        }
        fn gradient(&mut self, _x: &[f64], g: &mut [f64]) {
            g.fill(f64::NAN);
        }
    }

    /// Supports with the given rows over `cols` coordinates.
    fn supports(cols: usize, rows: &[&[usize]]) -> Supports {
        let mut supports = Supports::new(cols);
        for row in rows {
            supports.push_row(row.iter().copied());
        }
        supports
    }

    fn quadratic(target: &[f64]) -> Quadratic {
        weighted(&vec![1.0; target.len()], target)
    }

    fn weighted(weight: &[f64], target: &[f64]) -> Quadratic {
        Quadratic {
            weight: weight.to_vec(),
            target: target.to_vec(),
        }
    }

    #[test]
    fn reaches_interior_optimum() {
        let report = ProjectedGradient::new()
            .maximize(
                &mut quadratic(&[0.3, 0.7]),
                vec![1.0, 0.0],
                Supports::full(1, 2),
            )
            .unwrap();
        assert!(report.converged);
        assert!((report.row(0)[0] - 0.3).abs() < 1e-3, "{:?}", report.x);
        assert!((report.row(0)[1] - 0.7).abs() < 1e-3);
    }

    #[test]
    fn clamps_to_vertex_when_target_outside() {
        let report = ProjectedGradient::new()
            .maximize(
                &mut quadratic(&[5.0, -5.0]),
                vec![0.5, 0.5],
                Supports::full(1, 2),
            )
            .unwrap();
        assert!((report.row(0)[0] - 1.0).abs() < 1e-6);
        assert!(report.row(0)[1].abs() < 1e-6);
    }

    #[test]
    fn handles_multiple_rows_independently() {
        let report = ProjectedGradient::new()
            .maximize(
                &mut quadratic(&[0.9, 0.1, 0.2, 0.8]),
                vec![0.5; 4],
                Supports::full(2, 2),
            )
            .unwrap();
        assert!((report.row(0)[0] - 0.9).abs() < 1e-3);
        assert!((report.row(1)[1] - 0.8).abs() < 1e-3);
    }

    #[test]
    fn respects_masks() {
        // The objective pulls towards coordinate 0 of 3, which row 0's
        // support leaves out: the best feasible point splits between the
        // remaining coordinates, and the excluded one reads exactly zero.
        // Rows of different supports share one packed vector.
        let supports = supports(3, &[&[1, 2], &[0, 1, 2]]);
        let mut obj = quadratic(&[0.0, 0.0, 1.0, 0.0, 0.0]);
        let report = ProjectedGradient::new()
            .maximize(&mut obj, vec![0.5, 0.5, 0.2, 0.3, 0.5], supports)
            .unwrap();
        let x = report.unpack();
        assert_eq!(x[0][0].to_bits(), 0.0f64.to_bits());
        assert!((x[0][1] - 0.5).abs() < 1e-9);
        assert!((x[1][0] - 1.0).abs() < 1e-6);
        assert!(assert_feasible(&x, &report.supports, 1e-9));
    }

    #[test]
    fn projects_infeasible_start() {
        let report = ProjectedGradient::new()
            .maximize(
                &mut quadratic(&[0.5, 0.5]),
                vec![10.0, -3.0],
                Supports::full(1, 2),
            )
            .unwrap();
        assert!(is_on_simplex(report.row(0), 1e-9));
    }

    #[test]
    fn rejects_shape_mismatch() {
        let err = ProjectedGradient::new()
            .maximize(
                &mut quadratic(&[0.5, 0.5]),
                vec![0.5, 0.5],
                Supports::full(1, 1),
            )
            .unwrap_err();
        assert!(matches!(err, OptError::DimensionMismatch { .. }));
    }

    #[test]
    fn rejects_ragged_rows() {
        // A support row out of order, repeating a coordinate, or reaching
        // past the columns does not describe a simplex row.
        for row in [&[1, 0][..], &[1, 1], &[0, 2]] {
            let err = ProjectedGradient::new()
                .maximize(
                    &mut quadratic(&[0.5, 0.5]),
                    vec![0.5, 0.5],
                    supports(2, &[row]),
                )
                .unwrap_err();
            assert!(matches!(err, OptError::DimensionMismatch { .. }), "{row:?}");
        }
    }

    #[test]
    fn rejects_a_mask_row_without_allowed_coordinates() {
        let err = ProjectedGradient::new()
            .maximize(
                &mut quadratic(&[0.5, 0.5]),
                vec![0.5, 0.5],
                supports(2, &[&[0, 1], &[]]),
            )
            .unwrap_err();
        assert_eq!(
            err,
            OptError::DimensionMismatch {
                context: "a support row allows no coordinate"
            }
        );
    }

    #[test]
    fn rejects_non_finite_gradient() {
        let err = ProjectedGradient::new()
            .maximize(&mut NanGradient, vec![0.5, 0.5], supports(3, &[&[0, 1]]))
            .unwrap_err();
        assert_eq!(
            err,
            OptError::NonFiniteInput {
                context: "gradient"
            }
        );
    }

    #[test]
    fn rejects_non_finite_start() {
        let err = ProjectedGradient::new()
            .maximize(
                &mut quadratic(&[0.5, 0.5]),
                vec![f64::NAN, 0.5],
                Supports::full(1, 2),
            )
            .unwrap_err();
        assert!(matches!(err, OptError::NonFiniteInput { .. }));
    }

    #[test]
    fn iteration_budget_reported() {
        let report = ProjectedGradient::new()
            .with_max_iters(1)
            .with_tol(0.0)
            .maximize(
                &mut quadratic(&[0.3, 0.7]),
                vec![1.0, 0.0],
                Supports::full(1, 2),
            )
            .unwrap();
        assert_eq!(report.iterations, 1);
    }

    #[test]
    fn stationary_start_converges_immediately() {
        let mut obj = Counted {
            inner: quadratic(&[0.5, 0.5]),
            values: 0,
        };
        let report = ProjectedGradient::new()
            .maximize(&mut obj, vec![0.5, 0.5], Supports::full(1, 2))
            .unwrap();
        assert!(report.converged);
        assert!(report.value.abs() < 1e-12);
        // The gradient is zero, so the full-step trial is the start point
        // itself: rejected, it proves stationarity without backtracking.
        // Two evaluations: the start point and that one trial.
        assert_eq!((report.iterations, report.trials), (1, 1));
        assert_eq!(obj.values, 2);
    }

    #[test]
    fn overshooting_full_step_still_backtracks() {
        // Curvature 100: from (0.5, 0.5) the unit step lands on the vertex
        // (0, 1), worse and far from the iterate, and so do steps down to
        // 1/32; step 1/64 is the first that ascends.
        let steep = || Scaled(quadratic(&[0.3, 0.7]), 50.0);
        let first = ProjectedGradient::new()
            .with_max_iters(1)
            .maximize(&mut steep(), vec![0.5, 0.5], Supports::full(1, 2))
            .unwrap();
        assert_eq!(first.trials, 7);
        assert!((first.row(0)[0] - 0.1875).abs() < 1e-12, "{:?}", first.x);

        let report = ProjectedGradient::new()
            .maximize(&mut steep(), vec![0.5, 0.5], Supports::full(1, 2))
            .unwrap();
        assert!(report.converged);
        assert!(report.trials > report.iterations);
        assert!((report.row(0)[0] - 0.3).abs() < 1e-3, "{:?}", report.x);
        assert!((report.row(0)[1] - 0.7).abs() < 1e-3);
    }

    #[test]
    fn first_search_tries_step_and_later_ones_the_clamped_spectral_step() {
        // Two quadratics over one 3-simplex row. On the stiff one the
        // spectral step, 1/(2w) = 5e-8, falls below the clamp's 1e-6.
        let target = [0.2, 0.3, 0.5];
        for (weight, step, clamped) in [
            ([1.0, 4.0, 0.25], 0.05, false),
            ([1e7, 1e7, 1e7], 1e-8, true),
        ] {
            let supports = Supports::full(1, 3);
            let mut obj = Logged::new(weighted(&weight, &target));
            let report = ProjectedGradient::new()
                .with_step(step)
                .with_tol(0.0)
                .with_max_iters(4)
                .maximize(&mut obj, vec![0.6, 0.2, 0.2], supports.clone())
                .unwrap();
            let searches = obj.line_searches();
            assert_eq!(searches.len(), report.iterations);
            assert!(searches.len() >= 3, "{} iterations", searches.len());

            let (x0, g0, first) = searches[0];
            assert_eq!(first, trial(x0, g0, step, &supports));
            for pair in searches.windows(2) {
                let ((px, pg, _), (x, g, first)) = (pair[0], pair[1]);
                let (ss, sy) = curvature_pair(px, pg, x, g);
                assert!(sy < 0.0, "concave along every move");
                let spectral = ss / -sy;
                assert_eq!(spectral < 1e-6, clamped, "spectral step {spectral}");
                assert_ne!(spectral, step);
                let expected = trial(x, g, spectral.clamp(1e-6, 100.0), &supports);
                for (a, b) in first.iter().zip(&expected) {
                    assert!((a - b).abs() < 1e-15, "{first:?} vs {expected:?}");
                }
            }
        }
    }

    #[test]
    fn no_concave_curvature_tries_the_longest_step() {
        // Maximizing a convex quadratic: along the first move s·y > 0, so
        // the second line search starts at the clamp's 100. Scaled down,
        // that trial stays inside the simplex, where the step shows.
        let supports = Supports::full(1, 2);
        let mut obj = Logged::new(Scaled(quadratic(&[0.3, 0.7]), -1e-4));
        let report = ProjectedGradient::new()
            .with_tol(0.0)
            .with_max_iters(2)
            .maximize(&mut obj, vec![0.45, 0.55], supports.clone())
            .unwrap();
        assert_eq!(report.iterations, 2);
        let searches = obj.line_searches();
        let ((x0, g0, _), (x1, g1, first)) = (searches[0], searches[1]);
        let (_, sy) = curvature_pair(x0, g0, x1, g1);
        assert!(sy > 0.0);
        assert_eq!(first, trial(x1, g1, 100.0, &supports));
        assert!(first.iter().all(|&v| v > 0.0), "{first:?}");
    }

    #[test]
    fn spectral_steps_reach_an_ill_scaled_optimum_in_fewer_iterations() {
        // Curvatures spread over two decades, none above 1: a fixed unit
        // step never overshoots, but crawls along the flat coordinates.
        let (weight, target) = ([0.5, 0.05, 0.005], [0.5, 0.3, 0.2]);
        let supports = Supports::full(1, 3);
        let x0 = vec![0.9, 0.05, 0.05];
        let tol = 1e-12;
        let report = ProjectedGradient::new()
            .with_tol(tol)
            .maximize(
                &mut weighted(&weight, &target),
                x0.clone(),
                supports.clone(),
            )
            .unwrap();
        let (fixed, fixed_iterations) =
            unit_step_ascent(&mut weighted(&weight, &target), x0, &supports, tol);

        assert!(report.converged);
        for ((a, b), t) in report.x.iter().zip(&fixed).zip(&target) {
            assert!((a - t).abs() < 1e-3, "spectral {:?}", report.x);
            assert!((b - t).abs() < 1e-3, "fixed {fixed:?}");
        }
        assert!(
            report.iterations < fixed_iterations,
            "spectral {} vs fixed unit step {} iterations",
            report.iterations,
            fixed_iterations
        );
    }
}
