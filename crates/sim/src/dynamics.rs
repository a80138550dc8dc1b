//! Poisson user arrival/departure dynamics.
//!
//! The paper's online experiments (§V-A, Fig. 6b/6c) drive the network
//! with "user association requests arriv\[ing\] and depart\[ing\] the network
//! according to Poisson distribution with arrival rate of 3 and departure
//! rate of 1", growing the population 36 → 66 → 102 across epochs (a net
//! of ≈ +33 users per epoch). We model a birth–death process: arrivals are
//! a Poisson process of rate `λ = 3` per time unit, departures of rate
//! `μ = 1` per time unit (each removing a uniformly random resident), and
//! an epoch spans enough time units for the net drift `(λ − μ) ·
//! epoch_length` to match the paper's ≈ 33.

use wolt_support::rng::Rng;

use crate::SimError;

/// Birth–death configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicsConfig {
    /// Poisson arrival rate λ (users per time unit).
    pub arrival_rate: f64,
    /// Poisson departure rate μ (departures per time unit; no-ops when the
    /// network is empty).
    pub departure_rate: f64,
    /// Time units per epoch.
    pub epoch_length: f64,
}

impl Default for DynamicsConfig {
    fn default() -> Self {
        // λ=3, μ=1 as in the paper; 16.5 time units/epoch nets ≈ +33
        // users, reproducing the 36 → 66 → 102 trajectory of Fig. 6b.
        Self {
            arrival_rate: 3.0,
            departure_rate: 1.0,
            epoch_length: 16.5,
        }
    }
}

impl DynamicsConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for negative/non-finite rates
    /// or a non-positive epoch length.
    pub fn validate(&self) -> Result<(), SimError> {
        if !(self.arrival_rate.is_finite() && self.arrival_rate >= 0.0) {
            return Err(SimError::InvalidConfig {
                context: "arrival rate must be finite and non-negative",
            });
        }
        if !(self.departure_rate.is_finite() && self.departure_rate >= 0.0) {
            return Err(SimError::InvalidConfig {
                context: "departure rate must be finite and non-negative",
            });
        }
        if !(self.epoch_length.is_finite() && self.epoch_length > 0.0) {
            return Err(SimError::InvalidConfig {
                context: "epoch length must be finite and positive",
            });
        }
        Ok(())
    }

    /// Expected net population change per epoch: `(λ − μ) · epoch_length`.
    pub fn expected_drift(&self) -> f64 {
        (self.arrival_rate - self.departure_rate) * self.epoch_length
    }
}

/// The churn of one epoch: how many users arrive and which residents
/// leave.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochChurn {
    /// Number of new arrivals this epoch.
    pub arrivals: usize,
    /// Indices (into the resident list *at epoch start*) of departing
    /// users, strictly decreasing so they can be removed in order.
    pub departures: Vec<usize>,
}

/// Samples one epoch of churn for a population of `residents` users by
/// running the continuous-time birth–death process on two next-event
/// clocks: arrivals fire as a Poisson process of rate λ, departures of
/// rate μ (each removing a uniformly random remaining epoch-start
/// resident; departures hitting an empty pool are dropped — intra-epoch
/// arrivals stay at least until the next boundary, where the paper
/// re-associates anyway).
///
/// Departure indices refer to the epoch-start resident list and are
/// returned in strictly decreasing order so they can be removed in order.
///
/// # Errors
///
/// Propagates [`DynamicsConfig::validate`].
pub fn sample_epoch<R: Rng + ?Sized>(
    config: &DynamicsConfig,
    residents: usize,
    rng: &mut R,
) -> Result<EpochChurn, SimError> {
    config.validate()?;

    let exponential = |rng: &mut R, rate: f64| -> Option<f64> {
        if rate <= 0.0 {
            return None;
        }
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        Some(-u.ln() / rate)
    };
    // Each stream's next firing: its time and the order it was scheduled
    // in, so that simultaneous firings go first-scheduled first. A stream
    // of rate 0 never fires.
    let mut scheduled = 0u64;
    let mut clock = |time: f64| {
        scheduled += 1;
        (time, scheduled)
    };
    let first = config.epoch_length + 1.0;
    let mut arrival = exponential(rng, config.arrival_rate).map(|dt| clock(dt.min(first)));
    let mut departure = exponential(rng, config.departure_rate).map(|dt| clock(dt.min(first)));

    let mut arrivals = 0usize;
    let mut pool: Vec<usize> = (0..residents).collect();
    let mut departures = Vec::new();
    loop {
        // The earlier clock fires; a tie goes to the one scheduled first.
        let arrives = match (arrival, departure) {
            (Some((ta, sa)), Some((td, sd))) => ta.total_cmp(&td).then(sa.cmp(&sd)).is_lt(),
            (next_arrival, _) => next_arrival.is_some(),
        };
        let Some((now, _)) = (if arrives { arrival } else { departure }) else {
            break;
        };
        if now > config.epoch_length {
            break;
        }
        if arrives {
            arrivals += 1;
            arrival = exponential(rng, config.arrival_rate).map(|dt| clock(now + dt));
        } else {
            if !pool.is_empty() {
                let k = rng.gen_range(0..pool.len());
                departures.push(pool.swap_remove(k));
            }
            departure = exponential(rng, config.departure_rate).map(|dt| clock(now + dt));
        }
    }
    departures.sort_unstable_by(|a, b| b.cmp(a));

    Ok(EpochChurn {
        arrivals,
        departures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wolt_support::crc::Crc32;
    use wolt_support::rng::{ChaCha8Rng, RngCore, SeedableRng};

    #[test]
    fn default_matches_paper_trajectory() {
        let cfg = DynamicsConfig::default();
        assert_eq!(cfg.arrival_rate, 3.0);
        assert_eq!(cfg.departure_rate, 1.0);
        assert!((cfg.expected_drift() - 33.0).abs() < 0.1);
    }

    #[test]
    fn churn_grows_population_like_the_paper() {
        let cfg = DynamicsConfig::default();
        let mut rng = ChaCha8Rng::seed_from_u64(2020);
        let trials = 300;
        let mut total_growth = 0i64;
        for _ in 0..trials {
            let churn = sample_epoch(&cfg, 36, &mut rng).unwrap();
            total_growth += churn.arrivals as i64 - churn.departures.len() as i64;
        }
        let mean_growth = total_growth as f64 / trials as f64;
        assert!(
            (mean_growth - 33.0).abs() < 2.0,
            "mean epoch growth {mean_growth}"
        );
    }

    #[test]
    fn departures_are_unique_valid_and_decreasing() {
        let cfg = DynamicsConfig::default();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for residents in [0usize, 1, 5, 40] {
            let churn = sample_epoch(&cfg, residents, &mut rng).unwrap();
            let mut seen = std::collections::BTreeSet::new();
            let mut prev = usize::MAX;
            for &d in &churn.departures {
                assert!(d < residents, "departure index {d} out of range");
                assert!(seen.insert(d), "duplicate departure {d}");
                assert!(d < prev, "departures not strictly decreasing");
                prev = d;
            }
            assert!(churn.departures.len() <= residents);
        }
    }

    #[test]
    fn empty_network_survives_departure_events() {
        let cfg = DynamicsConfig {
            arrival_rate: 0.0,
            departure_rate: 10.0,
            epoch_length: 5.0,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let churn = sample_epoch(&cfg, 0, &mut rng).unwrap();
        assert_eq!(churn.arrivals, 0);
        assert!(churn.departures.is_empty());
    }

    #[test]
    fn sample_epoch_replays_the_event_queue_it_replaced() {
        // CRC-32 over each epoch's arrivals and departures and the RNG
        // position after it, 5 configurations × 40 seeds × 5 populations,
        // recorded from the binary-heap event queue this sampler ran on
        // before its two next-event clocks.
        let configs = [
            DynamicsConfig::default(),
            DynamicsConfig {
                arrival_rate: 0.0,
                departure_rate: 10.0,
                epoch_length: 5.0,
            },
            DynamicsConfig {
                arrival_rate: 2.0,
                departure_rate: 0.0,
                epoch_length: 3.0,
            },
            DynamicsConfig {
                arrival_rate: 0.5,
                departure_rate: 0.5,
                epoch_length: 0.25,
            },
            DynamicsConfig {
                arrival_rate: 40.0,
                departure_rate: 30.0,
                epoch_length: 1.5,
            },
        ];
        let mut crc = Crc32::new();
        for config in &configs {
            for seed in 0..40 {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                for residents in [0usize, 1, 7, 36, 102] {
                    let churn = sample_epoch(config, residents, &mut rng).unwrap();
                    crc.update(&(churn.arrivals as u64).to_le_bytes());
                    crc.update(&(churn.departures.len() as u64).to_le_bytes());
                    for &d in &churn.departures {
                        crc.update(&(d as u64).to_le_bytes());
                    }
                    crc.update(&rng.clone().next_u64().to_le_bytes());
                }
            }
        }
        assert_eq!(crc.finish(), 0x3345_838c);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let bad_arrival = DynamicsConfig {
            arrival_rate: -1.0,
            ..DynamicsConfig::default()
        };
        assert!(bad_arrival.validate().is_err());
        let bad_departure = DynamicsConfig {
            departure_rate: f64::NAN,
            ..DynamicsConfig::default()
        };
        assert!(bad_departure.validate().is_err());
        let bad_epoch = DynamicsConfig {
            epoch_length: 0.0,
            ..DynamicsConfig::default()
        };
        assert!(bad_epoch.validate().is_err());
    }
}
