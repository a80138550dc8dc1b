//! The paper's §V-D testbed experiment: 25 random topologies, 3
//! extenders, 7 laptops, three policies.
//!
//! "We randomly picked three power outlets (among 10 outlets that are
//! available) and moved the laptops around to create 25 different
//! topologies" — here, 25 seeded lab scenarios, each run through the
//! rig under WOLT, Greedy, and RSSI. The analyses reproduce:
//!
//! * Fig. 4a — average aggregate throughput per policy;
//! * Fig. 4b — fraction of users better/worse off under WOLT than under a
//!   baseline;
//! * Fig. 5  — per-user throughput of WOLT's worst-3 and best-3 users
//!   against the greedy baseline on one topology.

use wolt_sim::scenario::ScenarioConfig;
use wolt_sim::Scenario;
use wolt_support::rng::ChaCha8Rng;
use wolt_support::rng::SeedableRng;

use crate::rig::{run_rig, ControllerPolicy, RigConfig, TopologyOutcome};
use crate::TestbedError;

/// Configuration of the §V-D experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct TestbedExperiment {
    /// Scenario template (defaults to the paper's 3-extender/7-user lab).
    pub scenario: ScenarioConfig,
    /// Number of random topologies (the paper uses 25).
    pub topologies: usize,
    /// Base seed; topology `t` uses `base_seed + t`.
    pub base_seed: u64,
}

impl Default for TestbedExperiment {
    fn default() -> Self {
        Self {
            scenario: ScenarioConfig::lab(7),
            topologies: 25,
            base_seed: 0,
        }
    }
}

/// All outcomes of one topology (same scenario, all three policies).
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyComparison {
    /// Topology index (0-based).
    pub topology: usize,
    /// WOLT outcome.
    pub wolt: TopologyOutcome,
    /// Greedy outcome.
    pub greedy: TopologyOutcome,
    /// RSSI outcome.
    pub rssi: TopologyOutcome,
}

impl TestbedExperiment {
    /// Runs every topology under all three policies.
    ///
    /// # Errors
    ///
    /// Propagates scenario-generation and rig failures.
    pub fn run(&self) -> Result<Vec<TopologyComparison>, TestbedError> {
        if self.topologies == 0 {
            return Err(TestbedError::InvalidConfig {
                context: "need at least one topology",
            });
        }
        let mut out = Vec::with_capacity(self.topologies);
        for t in 0..self.topologies {
            let seed = self.base_seed + t as u64;
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let scenario = Scenario::generate(&self.scenario, &mut rng)?;
            let run = |policy| run_rig(&scenario, &RigConfig::new(policy), seed);
            out.push(TopologyComparison {
                topology: t,
                wolt: run(ControllerPolicy::Wolt)?,
                greedy: run(ControllerPolicy::Greedy)?,
                rssi: run(ControllerPolicy::Rssi)?,
            });
        }
        Ok(out)
    }
}

/// Fig. 4a row: mean aggregate throughput per policy.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateSummary {
    /// Mean aggregate under WOLT (Mbit/s).
    pub wolt: f64,
    /// Mean aggregate under Greedy (Mbit/s).
    pub greedy: f64,
    /// Mean aggregate under RSSI (Mbit/s).
    pub rssi: f64,
}

/// Computes the Fig. 4a summary.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn aggregate_summary(comparisons: &[TopologyComparison]) -> AggregateSummary {
    assert!(!comparisons.is_empty(), "need at least one topology");
    let n = comparisons.len() as f64;
    AggregateSummary {
        wolt: comparisons.iter().map(|c| c.wolt.aggregate).sum::<f64>() / n,
        greedy: comparisons.iter().map(|c| c.greedy.aggregate).sum::<f64>() / n,
        rssi: comparisons.iter().map(|c| c.rssi.aggregate).sum::<f64>() / n,
    }
}

/// Fig. 4b row: fraction of (user, topology) pairs better / worse off
/// under WOLT than under the baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct WinLoss {
    /// Fraction of users with strictly higher throughput under WOLT.
    pub better: f64,
    /// Fraction with strictly lower throughput under WOLT.
    pub worse: f64,
    /// Fraction unchanged (within 1e-9).
    pub unchanged: f64,
}

/// Computes the Fig. 4b per-user comparison of WOLT against a baseline
/// extractor (`|c| &c.greedy` or `|c| &c.rssi`).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn per_user_win_loss<F>(comparisons: &[TopologyComparison], baseline: F) -> WinLoss
where
    F: Fn(&TopologyComparison) -> &TopologyOutcome,
{
    assert!(!comparisons.is_empty(), "need at least one topology");
    let mut better = 0usize;
    let mut worse = 0usize;
    let mut unchanged = 0usize;
    for c in comparisons {
        let base = baseline(c);
        for (w, b) in c.wolt.per_user.iter().zip(&base.per_user) {
            if (w - b).abs() < 1e-9 {
                unchanged += 1;
            } else if w > b {
                better += 1;
            } else {
                worse += 1;
            }
        }
    }
    let total = (better + worse + unchanged) as f64;
    WinLoss {
        better: better as f64 / total,
        worse: worse as f64 / total,
        unchanged: unchanged as f64 / total,
    }
}

/// Fig. 5 rows for one topology: `(wolt_throughput, greedy_throughput)`
/// per user, for WOLT's `k` worst and `k` best users.
#[derive(Debug, Clone, PartialEq)]
pub struct BestWorstUsers {
    /// WOLT's `k` lowest-throughput users: `(wolt, greedy)` pairs.
    pub worst: Vec<(f64, f64)>,
    /// WOLT's `k` highest-throughput users: `(wolt, greedy)` pairs.
    pub best: Vec<(f64, f64)>,
}

/// Extracts the Fig. 5 comparison for one topology.
///
/// # Panics
///
/// Panics if `k` exceeds the user count.
pub fn best_worst_users(comparison: &TopologyComparison, k: usize) -> BestWorstUsers {
    let n = comparison.wolt.per_user.len();
    assert!(k <= n, "k={k} exceeds user count {n}");
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        comparison.wolt.per_user[a]
            .partial_cmp(&comparison.wolt.per_user[b])
            .expect("finite throughputs")
    });
    let pair = |i: usize| (comparison.wolt.per_user[i], comparison.greedy.per_user[i]);
    BestWorstUsers {
        worst: order[..k].iter().map(|&i| pair(i)).collect(),
        best: order[n - k..].iter().map(|&i| pair(i)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_experiment() -> Vec<TopologyComparison> {
        TestbedExperiment {
            topologies: 5,
            ..TestbedExperiment::default()
        }
        .run()
        .unwrap()
    }

    #[test]
    fn runs_all_topologies_and_policies() {
        let comparisons = small_experiment();
        assert_eq!(comparisons.len(), 5);
        for c in &comparisons {
            assert_eq!(c.wolt.per_user.len(), 7);
            assert_eq!(c.greedy.per_user.len(), 7);
            assert_eq!(c.rssi.per_user.len(), 7);
        }
    }

    #[test]
    fn fig4a_ordering_wolt_first() {
        let comparisons = small_experiment();
        let summary = aggregate_summary(&comparisons);
        assert!(
            summary.wolt >= summary.greedy * 0.98,
            "WOLT {} should not trail Greedy {} meaningfully",
            summary.wolt,
            summary.greedy
        );
        assert!(
            summary.wolt > summary.rssi,
            "WOLT {} vs RSSI {}",
            summary.wolt,
            summary.rssi
        );
    }

    #[test]
    fn fig4b_fractions_sum_to_one() {
        let comparisons = small_experiment();
        for baseline in [
            per_user_win_loss(&comparisons, |c| &c.greedy),
            per_user_win_loss(&comparisons, |c| &c.rssi),
        ] {
            let total = baseline.better + baseline.worse + baseline.unchanged;
            assert!((total - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn fig5_extracts_ordered_extremes() {
        let comparisons = small_experiment();
        let bw = best_worst_users(&comparisons[0], 3);
        assert_eq!(bw.worst.len(), 3);
        assert_eq!(bw.best.len(), 3);
        let worst_max = bw.worst.iter().map(|p| p.0).fold(0.0, f64::max);
        let best_min = bw.best.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
        assert!(worst_max <= best_min);
    }

    #[test]
    fn deterministic_per_base_seed() {
        let a = TestbedExperiment {
            topologies: 2,
            ..TestbedExperiment::default()
        }
        .run()
        .unwrap();
        let b = TestbedExperiment {
            topologies: 2,
            ..TestbedExperiment::default()
        }
        .run()
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn zero_topologies_rejected() {
        let err = TestbedExperiment {
            topologies: 0,
            ..TestbedExperiment::default()
        }
        .run()
        .unwrap_err();
        assert!(matches!(err, TestbedError::InvalidConfig { .. }));
    }
}
