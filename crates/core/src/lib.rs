//! # WOLT — auto-configuration of integrated enterprise PLC-WiFi networks
//!
//! A from-scratch reproduction of *"WOLT: Auto-Configuration of Integrated
//! Enterprise PLC-WiFi Networks"* (Alhulayyil et al., ICDCS 2020). This
//! crate is the paper's primary contribution: the network model, the
//! NP-hard user-association problem (Problem 1), the two-phase
//! polynomial-time WOLT algorithm (Algorithm 1), and the baselines it is
//! evaluated against.
//!
//! ## The problem
//!
//! WiFi extenders backhauled over power lines expose users to *two*
//! concatenated shared media with different sharing laws:
//!
//! * each extender's **WiFi** cell is *throughput-fair* — every associated
//!   user gets `1/Σ(1/r_i)` (Eq. 1, the 802.11 performance anomaly);
//! * the **PLC** backhaul is *time-fair* — each active extender gets an
//!   equal airtime share of the powerline medium, with unused airtime
//!   redistributed (Eq. 2 + the Fig. 3c refinement).
//!
//! A cell delivers the min of its two segments, so naive strongest-signal
//! association can easily halve the network's aggregate throughput.
//! Choosing the association that maximizes the aggregate is NP-hard
//! (Theorem 1, executable in [`hardness`]).
//!
//! ## The algorithm
//!
//! [`Wolt`] implements Algorithm 1: Phase I ([`phase1`]) relaxes the
//! problem to a maximum-weight assignment with utilities
//! `u_ij = min(c_j/|A|, r_ij)` solved by the Hungarian method; Phase II
//! ([`phase2`]) places the remaining users by solving a nonlinear program
//! whose optimum is provably integral (Theorem 3).
//!
//! ## Quickstart
//!
//! ```
//! use wolt_core::{baselines, evaluate, AssociationPolicy, Network, Wolt};
//!
//! # fn main() -> Result<(), wolt_core::CoreError> {
//! // The paper's Fig. 3 case study: 2 extenders, 2 users.
//! let net = Network::from_raw(
//!     vec![60.0, 20.0],                         // PLC capacities c_j
//!     vec![vec![15.0, 10.0], vec![40.0, 20.0]], // WiFi rates r_ij
//! )?;
//!
//! let wolt = evaluate(&net, &Wolt::new().associate(&net)?)?.aggregate;
//! let rssi = evaluate(&net, &baselines::Rssi.associate(&net)?)?.aggregate;
//! let greedy = evaluate(&net, &baselines::Greedy::new().associate(&net)?)?.aggregate;
//!
//! assert!((wolt.value() - 40.0).abs() < 1e-9);   // Fig. 3d
//! assert!((greedy.value() - 30.0).abs() < 1e-9); // Fig. 3c
//! assert!((rssi.value() - 21.8).abs() < 0.05);   // Fig. 3b
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod fairness;
pub mod hardness;
pub mod incremental;
pub mod online;
pub mod phase1;
pub mod phase2;
pub mod problem;
pub mod report;

mod algorithm;
mod error;
mod model;
mod policy;
mod throughput;

pub use algorithm::{Phase2Solver, Wolt};
pub use error::CoreError;
pub use incremental::IncrementalEvaluator;
pub use model::{Association, Network};
pub use online::{OnlineOutcome, OnlineWolt};
pub use phase1::{Phase1Solver, Phase1Utility};
pub use policy::AssociationPolicy;
pub use throughput::{evaluate, evaluate_without_redistribution, Evaluation};
