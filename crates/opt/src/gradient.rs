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
//! The solve also ends at first-order stationarity: when the full-step
//! trial `P(x + step·∇f(x))` is rejected and lies within 1e-12 (max-abs)
//! of the iterate, `x` is a fixed point of the projected-gradient map, and
//! every shorter step moves less still, so no backtracking follows. A
//! rejected trial that moved farther (an overshoot) backtracks as usual.
//!
//! The solve runs in the packed layout of [`Supports`]: one value per
//! (row, allowed coordinate), each row's values contiguous, so the
//! iterate, the line-search candidate and the gradient hold nothing for
//! coordinates a row cannot use.
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
    /// The final (feasible) iterate as dense rows, one value per
    /// coordinate, exactly `0.0` off each row's support.
    pub x: Vec<Vec<f64>>,
    /// Objective value at `x`.
    pub value: f64,
    /// Number of outer iterations performed.
    pub iterations: usize,
    /// Number of trial points the line searches evaluated, one objective
    /// evaluation each.
    pub trials: usize,
    /// True if the solve stopped before the iteration budget ran out: an
    /// accepted step improved the objective by less than `tol`, the
    /// full-step trial was rejected within 1e-12 of the iterate
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
/// let report = ProjectedGradient::new().maximize(&mut Pull, vec![0.5, 0.5], &supports)?;
/// assert!((report.x[0][0] - 0.9).abs() < 1e-3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProjectedGradient {
    /// Initial step size tried at each iteration.
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

    /// Sets the initial step size.
    pub fn with_step(mut self, step: f64) -> Self {
        self.step = step;
        self
    }

    /// Maximizes `objective` starting from the packed point `x0`, each row
    /// constrained to the probability simplex over its support.
    ///
    /// `x0` need not be feasible; it is projected first. The solve
    /// allocates its working buffers once, up front: the packed iterate,
    /// line-search candidate and gradient. The iterations themselves
    /// allocate nothing, and project each row in place where it lies.
    /// The final iterate is unpacked into dense rows once, at the end.
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
        supports: &Supports,
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

            // Backtracking line search along the projected-gradient arc.
            let mut step = self.step;
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
                // A rejected full step that did not move: `x` is a fixed
                // point of the projected-gradient map, and a shorter step
                // would move less still.
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
            std::mem::swap(&mut x, &mut candidate);
            value = cand_value;
            if improvement < self.tol {
                converged = true;
                break;
            }
        }

        Ok(SolveReport {
            x: supports.unpack(&x),
            value,
            iterations,
            trials,
            converged,
        })
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

    /// Concave quadratic: maximize -Σ (x - target)² over a packed `x`. The
    /// unconstrained optimum is `target`; the constrained optimum is its
    /// projection.
    struct Quadratic {
        target: Vec<f64>,
    }

    impl Objective for Quadratic {
        fn value(&mut self, x: &[f64]) -> f64 {
            -x.iter()
                .zip(&self.target)
                .map(|(a, b)| (a - b).powi(2))
                .sum::<f64>()
        }
        fn gradient(&mut self, x: &[f64], g: &mut [f64]) {
            for ((gv, xv), tv) in g.iter_mut().zip(x).zip(&self.target) {
                *gv = -2.0 * (xv - tv);
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
        Quadratic {
            target: target.to_vec(),
        }
    }

    #[test]
    fn reaches_interior_optimum() {
        let report = ProjectedGradient::new()
            .maximize(
                &mut quadratic(&[0.3, 0.7]),
                vec![1.0, 0.0],
                &Supports::full(1, 2),
            )
            .unwrap();
        assert!(report.converged);
        assert!((report.x[0][0] - 0.3).abs() < 1e-3, "{:?}", report.x);
        assert!((report.x[0][1] - 0.7).abs() < 1e-3);
    }

    #[test]
    fn clamps_to_vertex_when_target_outside() {
        let report = ProjectedGradient::new()
            .maximize(
                &mut quadratic(&[5.0, -5.0]),
                vec![0.5, 0.5],
                &Supports::full(1, 2),
            )
            .unwrap();
        assert!((report.x[0][0] - 1.0).abs() < 1e-6);
        assert!(report.x[0][1].abs() < 1e-6);
    }

    #[test]
    fn handles_multiple_rows_independently() {
        let report = ProjectedGradient::new()
            .maximize(
                &mut quadratic(&[0.9, 0.1, 0.2, 0.8]),
                vec![0.5; 4],
                &Supports::full(2, 2),
            )
            .unwrap();
        assert!((report.x[0][0] - 0.9).abs() < 1e-3);
        assert!((report.x[1][1] - 0.8).abs() < 1e-3);
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
            .maximize(&mut obj, vec![0.5, 0.5, 0.2, 0.3, 0.5], &supports)
            .unwrap();
        assert_eq!(report.x[0][0].to_bits(), 0.0f64.to_bits());
        assert!((report.x[0][1] - 0.5).abs() < 1e-9);
        assert!((report.x[1][0] - 1.0).abs() < 1e-6);
        assert!(assert_feasible(&report.x, &supports, 1e-9));
    }

    #[test]
    fn projects_infeasible_start() {
        let report = ProjectedGradient::new()
            .maximize(
                &mut quadratic(&[0.5, 0.5]),
                vec![10.0, -3.0],
                &Supports::full(1, 2),
            )
            .unwrap();
        assert!(is_on_simplex(&report.x[0], 1e-9));
    }

    #[test]
    fn rejects_shape_mismatch() {
        let err = ProjectedGradient::new()
            .maximize(
                &mut quadratic(&[0.5, 0.5]),
                vec![0.5, 0.5],
                &Supports::full(1, 1),
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
                    &supports(2, &[row]),
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
                &supports(2, &[&[0, 1], &[]]),
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
            .maximize(&mut NanGradient, vec![0.5, 0.5], &supports(3, &[&[0, 1]]))
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
                &Supports::full(1, 2),
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
                &Supports::full(1, 2),
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
            .maximize(&mut obj, vec![0.5, 0.5], &Supports::full(1, 2))
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
            .maximize(&mut steep(), vec![0.5, 0.5], &Supports::full(1, 2))
            .unwrap();
        assert_eq!(first.trials, 7);
        assert!((first.x[0][0] - 0.1875).abs() < 1e-12, "{:?}", first.x);

        let report = ProjectedGradient::new()
            .maximize(&mut steep(), vec![0.5, 0.5], &Supports::full(1, 2))
            .unwrap();
        assert!(report.converged);
        assert!(report.trials > report.iterations);
        assert!((report.x[0][0] - 0.3).abs() < 1e-3, "{:?}", report.x);
        assert!((report.x[0][1] - 0.7).abs() < 1e-3);
    }
}
