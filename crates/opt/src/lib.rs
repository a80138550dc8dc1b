//! Optimization substrate for the WOLT PLC-WiFi association framework.
//!
//! The WOLT paper (ICDCS 2020) reduces its Phase-I association problem to a
//! *maximum-weight assignment problem* (Theorem 2) and solves its Phase-II
//! problem — a nonlinear program over products of probability simplices —
//! numerically with an interior-point method (stopping when the objective
//! improves by less than `1e-5`). This crate provides from-scratch
//! implementations of everything those two phases need:
//!
//! * [`hungarian`] — a rectangular maximum-weight assignment solver built on
//!   the O(n³) shortest-augmenting-path (Jonker–Volgenant style) Hungarian
//!   algorithm with dual potentials, run over one flat cost table whose
//!   rows are the smaller side.
//! * [`simplex`] — exact Euclidean projection onto the probability simplex,
//!   and [`Supports`], the packed layout of a block of simplex rows that
//!   each span only their allowed coordinates (a user's reachable
//!   extenders). The solver's in-place kernel sorts a row of at most 16
//!   values with a fixed sorting network on the stack.
//! * [`gradient`] — a projected-gradient ascent solver with backtracking
//!   over per-row simplices, the stand-in for the paper's interior-point
//!   solver (same feasible set and stopping rule, plus an exit at
//!   first-order stationarity). Every line search after the first starts
//!   at the Barzilai–Borwein (spectral) step, so an objective that is flat
//!   along most moves converges in a handful of iterations. It works in
//!   the packed layout end to end: each row's values are contiguous, each
//!   projection runs in place over them, and the final iterate comes back
//!   packed.
//! * [`brute`] — exhaustive search over integral assignments, used as the
//!   optimality oracle on small instances (the paper's "optimal" policy of
//!   Fig. 3d) and to validate the polynomial-time algorithms in tests.
//! * [`matrix`] — a small dense row-major matrix used for utility/rate
//!   tables.
//!
//! # Example
//!
//! Solve the Phase-I utility matrix from the paper's Fig. 3 case study
//! (2 users × 2 extenders, utilities `u_ij = min(c_j/|A|, r_ij)`):
//!
//! ```
//! use wolt_opt::{hungarian::max_weight_assignment, matrix::Matrix};
//!
//! # fn main() -> Result<(), wolt_opt::OptError> {
//! // rows = users, cols = extenders
//! let utilities = Matrix::from_rows(&[
//!     vec![15.0, 10.0], // user 1: min(60/2, 15), min(20/2, 10)
//!     vec![30.0, 10.0], // user 2: min(60/2, 40), min(20/2, 20)
//! ])?;
//! let assignment = max_weight_assignment(&utilities);
//! assert_eq!(assignment.total, 40.0); // user 2 -> ext 1, user 1 -> ext 2
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod brute;
pub mod gradient;
pub mod hungarian;
pub mod matrix;
pub mod simplex;

mod error;

pub use error::OptError;
pub use gradient::{Objective, ProjectedGradient, SolveReport};
pub use hungarian::{max_weight_assignment, Assignment};
pub use matrix::Matrix;
pub use simplex::Supports;
