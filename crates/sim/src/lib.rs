//! Discrete-event enterprise network simulator for WOLT.
//!
//! Reproduces the paper's simulation methodology (§V-A, §V-E):
//!
//! * [`scenario`] — the 100 m × 100 m enterprise floor with 15 extenders,
//!   building-calibrated PLC capacities, and distance-derived WiFi rates
//!   (plus the 2408 m² lab configuration used to mirror the testbed).
//! * [`dynamics`] — Poisson user arrivals (λ = 3) and departures (μ = 1),
//!   scaled so each epoch nets ≈ +33 users (the paper's 36 → 66 → 102
//!   trajectory).
//! * [`experiment`] — seeded static trials (Fig. 6a's CDF, the §V-E
//!   fairness numbers) and the dynamic epoch loop with re-assignment
//!   accounting (Fig. 6b/6c).
//! * [`metrics`] — summaries, percentiles, and empirical CDFs.
//!
//! # Example
//!
//! Compare WOLT against the greedy baseline on one seeded enterprise
//! scenario:
//!
//! ```
//! use wolt_core::{baselines::Greedy, AssociationPolicy, Wolt};
//! use wolt_sim::experiment::run_static_trials;
//! use wolt_sim::scenario::ScenarioConfig;
//!
//! # fn main() -> Result<(), wolt_sim::SimError> {
//! let config = ScenarioConfig::enterprise(24);
//! let wolt = Wolt::new();
//! let greedy = Greedy::new();
//! let policies: Vec<&dyn AssociationPolicy> = vec![&wolt, &greedy];
//! let records = run_static_trials(&config, &policies, &[7])?;
//! assert_eq!(records.len(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dynamics;
pub mod events;
pub mod experiment;
pub mod flowsim;
pub mod metrics;
pub mod perturb;
pub mod scenario;

mod error;

pub use error::SimError;
pub use experiment::{DynamicSimulation, EpochRecord, OnlinePolicy, TrialRecord};
pub use scenario::{Scenario, ScenarioConfig};
