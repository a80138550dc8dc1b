//! Experiment drivers: static seeded trials and the dynamic epoch loop.
//!
//! * [`run_static_trials`] powers the paper's Fig. 6a (100 seeded trials,
//!   CDF of aggregate throughput) and the Jain's-fairness comparison of
//!   §V-E.
//! * [`DynamicSimulation`] powers Fig. 6b/6c: a Poisson-churned population
//!   re-associated at every epoch boundary, with re-assignment counting.

use wolt_core::baselines::Rssi;
use wolt_core::{evaluate, Association, AssociationPolicy, IncrementalEvaluator, Network, Wolt};
use wolt_support::pool;
use wolt_support::rng::{ChaCha8Rng, SeedableRng};

use crate::dynamics::{sample_epoch, DynamicsConfig};
use crate::perturb::{
    apply_link_flaps, apply_mobility, drift_capacities, sample_alive_extenders,
    CapacityDriftConfig, LinkFlapConfig, MobilityConfig, OutageConfig,
};
use crate::scenario::{Scenario, ScenarioConfig};
use crate::SimError;

/// One (seed × policy) data point of a static experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialRecord {
    /// Seed the scenario was generated from.
    pub seed: u64,
    /// Policy name.
    pub policy: String,
    /// Aggregate network throughput (Mbit/s).
    pub aggregate: f64,
    /// Jain's fairness index over per-user throughputs.
    pub jain: Option<f64>,
    /// Per-user throughputs (Mbit/s).
    pub per_user: Vec<f64>,
}

/// Runs each policy on freshly generated scenarios for every seed.
///
/// All policies see the *same* scenario per seed, so differences are
/// attributable to the association decisions alone.
///
/// Thread count comes from `WOLT_THREADS` or the machine's parallelism
/// (see [`wolt_support::pool::resolve_threads`]); use
/// [`run_static_trials_with_threads`] for an explicit count. Records are
/// identical at any thread count.
///
/// # Errors
///
/// Propagates scenario generation, association, and evaluation failures.
pub fn run_static_trials(
    config: &ScenarioConfig,
    policies: &[&dyn AssociationPolicy],
    seeds: &[u64],
) -> Result<Vec<TrialRecord>, SimError> {
    run_static_trials_with_threads(config, policies, seeds, pool::resolve_threads(None))
}

/// [`run_static_trials`] with an explicit worker-thread count.
///
/// Each seed is an independent trial (its own scenario and RNG stream), so
/// seeds fan out over the order-preserving [`pool::par_map`]: the record
/// vector — seeds in input order, policies in slice order within each seed
/// — is byte-identical at any `threads`, including 1.
///
/// # Errors
///
/// Propagates scenario generation, association, and evaluation failures;
/// with several failing seeds, the error reported is the earliest seed's
/// (input order), regardless of completion order.
pub fn run_static_trials_with_threads(
    config: &ScenarioConfig,
    policies: &[&dyn AssociationPolicy],
    seeds: &[u64],
    threads: usize,
) -> Result<Vec<TrialRecord>, SimError> {
    let per_seed = pool::par_map(threads, seeds, |_, &seed| -> Result<_, SimError> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let scenario = Scenario::generate(config, &mut rng)?;
        let network = scenario.network()?;
        let mut records = Vec::with_capacity(policies.len());
        for policy in policies {
            let assoc = policy.associate(&network)?;
            let eval = evaluate(&network, &assoc)?;
            records.push(TrialRecord {
                seed,
                policy: policy.name().to_string(),
                aggregate: eval.aggregate.value(),
                jain: wolt_core::fairness::jain_index(&eval.per_user),
                per_user: eval.per_user.iter().map(|t| t.value()).collect(),
            });
        }
        Ok(records)
    });
    let mut records = Vec::with_capacity(policies.len() * seeds.len());
    for result in per_seed {
        records.extend(result?);
    }
    Ok(records)
}

/// The online policies of the paper's dynamic experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnlinePolicy {
    /// WOLT re-runs its full two-phase optimization at every epoch end,
    /// re-assigning existing users when beneficial.
    Wolt,
    /// Greedy assigns each user once, on arrival, and never moves anyone.
    GreedyOnline,
    /// RSSI: every user sticks with its strongest-signal extender.
    Rssi,
}

impl OnlinePolicy {
    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            OnlinePolicy::Wolt => "WOLT",
            OnlinePolicy::GreedyOnline => "Greedy",
            OnlinePolicy::Rssi => "RSSI",
        }
    }
}

/// One epoch of a dynamic run.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRecord {
    /// Epoch number (1-based, matching the paper's figures).
    pub epoch: usize,
    /// Resident users after this epoch's churn.
    pub users: usize,
    /// Arrivals during this epoch.
    pub arrivals: usize,
    /// Departures during this epoch.
    pub departures: usize,
    /// Aggregate throughput at epoch end (Mbit/s).
    pub aggregate: f64,
    /// Jain's fairness at epoch end.
    pub jain: Option<f64>,
    /// Users resident across the epoch boundary whose extender changed
    /// (always 0 for the never-reassigning policies, absent perturbations).
    pub reassignments: usize,
    /// Extenders down this epoch (failure injection; 0 without it).
    pub down_extenders: usize,
    /// Users who moved this epoch (mobility; 0 without it).
    pub moved_users: usize,
    /// PLC links that flapped this epoch (failure injection; 0 without
    /// it).
    pub flapped_links: usize,
}

/// Dynamic epoch-driven simulation (Fig. 6b/6c), optionally perturbed by
/// user mobility and extender outages (failure injection beyond the
/// paper).
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicSimulation {
    /// Scenario (plane, extenders, radio) configuration. `users` is the
    /// *initial* population.
    pub scenario: ScenarioConfig,
    /// Churn configuration.
    pub dynamics: DynamicsConfig,
    /// Optional per-epoch user mobility.
    pub mobility: Option<MobilityConfig>,
    /// Optional per-epoch extender outages.
    pub outages: Option<OutageConfig>,
    /// Optional per-epoch PLC capacity drift.
    pub capacity_drift: Option<CapacityDriftConfig>,
    /// Optional per-epoch PLC link flaps (mid-epoch capacity collapse
    /// and recovery).
    pub link_flaps: Option<LinkFlapConfig>,
}

impl DynamicSimulation {
    /// Simulation with no mobility and no outages (the paper's setting).
    pub fn new(scenario: ScenarioConfig, dynamics: DynamicsConfig) -> Self {
        Self {
            scenario,
            dynamics,
            mobility: None,
            outages: None,
            capacity_drift: None,
            link_flaps: None,
        }
    }

    /// Enables per-epoch user mobility.
    pub fn with_mobility(mut self, mobility: MobilityConfig) -> Self {
        self.mobility = Some(mobility);
        self
    }

    /// Enables per-epoch extender outages.
    pub fn with_outages(mut self, outages: OutageConfig) -> Self {
        self.outages = Some(outages);
        self
    }

    /// Enables per-epoch PLC capacity drift.
    pub fn with_capacity_drift(mut self, drift: CapacityDriftConfig) -> Self {
        self.capacity_drift = Some(drift);
        self
    }

    /// Enables per-epoch PLC link flaps.
    pub fn with_link_flaps(mut self, flaps: LinkFlapConfig) -> Self {
        self.link_flaps = Some(flaps);
        self
    }

    /// Runs `epochs` epochs under `policy`, returning one record per
    /// epoch.
    ///
    /// Epoch 1 is the initial population already associated (as in the
    /// paper's Fig. 6b, which starts at |U| = 36); churn applies from
    /// epoch 2 on.
    ///
    /// # Errors
    ///
    /// Propagates scenario/association/evaluation failures.
    pub fn run(
        &self,
        policy: OnlinePolicy,
        epochs: usize,
        seed: u64,
    ) -> Result<Vec<EpochRecord>, SimError> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut scenario = Scenario::generate(&self.scenario, &mut rng)?;
        let nominal_capacities = scenario.capacities.clone();

        // Stable user identities across epochs (positions vector order
        // changes as users depart).
        let mut next_id: u64 = scenario.user_positions.len() as u64;
        let mut ids: Vec<u64> = (0..next_id).collect();
        // Current association by position index (parallel to ids).
        let mut targets: Vec<Option<usize>> = vec![None; ids.len()];

        let mut records = Vec::with_capacity(epochs);
        for epoch in 1..=epochs {
            let (arrivals, departures, moved_users) = if epoch == 1 {
                (0usize, 0usize, 0usize)
            } else {
                let churn = sample_epoch(&self.dynamics, ids.len(), &mut rng)?;
                for &idx in &churn.departures {
                    scenario.remove_user(idx);
                    ids.remove(idx);
                    targets.remove(idx);
                }
                for _ in 0..churn.arrivals {
                    let p = scenario.sample_arrival(&self.scenario, &mut rng);
                    scenario.push_user(p);
                    ids.push(next_id);
                    next_id += 1;
                    targets.push(None);
                }
                let moved = match &self.mobility {
                    Some(m) => apply_mobility(&mut scenario, m, &self.scenario, &mut rng)?,
                    None => 0,
                };
                (churn.arrivals, churn.departures.len(), moved)
            };
            if let (Some(drift), true) = (&self.capacity_drift, epoch > 1) {
                scenario.capacities = drift_capacities(&nominal_capacities, drift, &mut rng)?;
            }
            let flapped_links = match (&self.link_flaps, epoch > 1) {
                (Some(flaps), true) => {
                    // Flaps modulate this epoch's (possibly drifted)
                    // capacities; without drift, start from nominal so a
                    // link's degradation never compounds across epochs.
                    let base = if self.capacity_drift.is_some() {
                        scenario.capacities.clone()
                    } else {
                        nominal_capacities.clone()
                    };
                    let (caps, flapped) = apply_link_flaps(&base, flaps, &mut rng)?;
                    scenario.capacities = caps;
                    flapped
                }
                _ => 0,
            };
            let all_extenders = scenario.extender_positions.len();
            let alive: Vec<usize> = match (&self.outages, epoch) {
                (Some(cfg), e) if e > 1 => sample_alive_extenders(&scenario, cfg, &mut rng)?,
                _ => (0..all_extenders).collect(),
            };
            let down_extenders = all_extenders - alive.len();

            // A heavily-departing network can empty out entirely; record a
            // zero epoch rather than failing.
            if ids.is_empty() {
                records.push(EpochRecord {
                    epoch,
                    users: 0,
                    arrivals,
                    departures,
                    aggregate: 0.0,
                    jain: None,
                    reassignments: 0,
                    down_extenders,
                    moved_users,
                    flapped_links,
                });
                continue;
            }

            let network = scenario.network_for_extenders(&alive)?;
            let previous: Vec<(u64, Option<usize>)> =
                ids.iter().copied().zip(targets.iter().copied()).collect();

            // Translate current targets (original extender indices) into
            // the alive-extender view; users on a dead extender become
            // unassigned and must be re-placed.
            let view_of: std::collections::HashMap<usize, usize> = alive
                .iter()
                .enumerate()
                .map(|(view, &orig)| (orig, view))
                .collect();
            let view_targets: Vec<Option<usize>> = targets
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    t.and_then(|orig| view_of.get(&orig).copied())
                        // Mobility can carry a user out of range of its
                        // old extender; it must then be re-placed.
                        .filter(|&view| network.reachable(i, view))
                })
                .collect();

            let assoc = self.associate_epoch(policy, &network, &view_targets)?;
            targets = assoc.iter().map(|t| t.map(|view| alive[view])).collect();

            // Re-assignments: users resident before and after the epoch
            // whose extender changed (new arrivals had no prior target).
            let reassignments = previous
                .iter()
                .zip(&targets)
                .filter(|((_, old), new)| old.is_some() && new.is_some() && old != *new)
                .count();

            let eval = evaluate(&network, &assoc).map_err(SimError::from)?;
            records.push(EpochRecord {
                epoch,
                users: ids.len(),
                arrivals,
                departures,
                aggregate: eval.aggregate.value(),
                jain: wolt_core::fairness::jain_index(&eval.per_user),
                reassignments,
                down_extenders,
                moved_users,
                flapped_links,
            });
        }
        Ok(records)
    }

    /// Epoch-boundary association under the chosen online policy.
    fn associate_epoch(
        &self,
        policy: OnlinePolicy,
        network: &Network,
        current: &[Option<usize>],
    ) -> Result<Association, SimError> {
        match policy {
            // WOLT and RSSI recompute from scratch (RSSI's result is
            // per-user stable, so recomputing never moves anyone).
            OnlinePolicy::Wolt => Ok(Wolt::new().associate(network)?),
            OnlinePolicy::Rssi => Ok(Rssi.associate(network)?),
            OnlinePolicy::GreedyOnline => {
                // Existing users keep their extender; new arrivals are
                // placed one at a time by greedy aggregate maximization,
                // each candidate scored by an incremental probe instead of
                // a full clone-and-evaluate.
                let assoc = Association::from_targets(current.to_vec());
                let arrivals: Vec<usize> = assoc.unassigned_users();
                if arrivals.is_empty() {
                    return Ok(assoc);
                }
                let mut evaluator = IncrementalEvaluator::new(network, &assoc)?;
                for i in arrivals {
                    let mut best: Option<(usize, f64)> = None;
                    for j in network.reachable_extenders(i) {
                        let Ok(value) = evaluator.probe_move(i, Some(j)) else {
                            continue; // full cell — not a candidate
                        };
                        let v = value.value();
                        if best.is_none_or(|(_, b)| v > b) {
                            best = Some((j, v));
                        }
                    }
                    let (j, _) = best.ok_or(SimError::Layer {
                        context: format!("greedy: user {i} has no feasible extender"),
                    })?;
                    evaluator.apply_move(i, Some(j))?;
                }
                Ok(evaluator.into_association())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioConfig;
    use wolt_core::baselines::Greedy;

    fn small_dynamic() -> DynamicSimulation {
        DynamicSimulation::new(
            ScenarioConfig::enterprise(12),
            DynamicsConfig {
                arrival_rate: 3.0,
                departure_rate: 1.0,
                epoch_length: 3.0,
            },
        )
    }

    #[test]
    fn static_trials_produce_one_record_per_seed_policy() {
        let cfg = ScenarioConfig::enterprise(10);
        let greedy = Greedy::new();
        let policies: Vec<&dyn AssociationPolicy> = vec![&Rssi, &greedy];
        let records = run_static_trials(&cfg, &policies, &[1, 2, 3]).unwrap();
        assert_eq!(records.len(), 6);
        assert!(records.iter().all(|r| r.aggregate > 0.0));
        assert!(records.iter().all(|r| r.per_user.len() == 10));
    }

    #[test]
    fn static_trials_thread_count_invariant() {
        // The acceptance contract: records (floats included) identical at
        // any worker-thread count.
        let cfg = ScenarioConfig::enterprise(10);
        let wolt = Wolt::new();
        let greedy = Greedy::new();
        let policies: Vec<&dyn AssociationPolicy> = vec![&wolt, &Rssi, &greedy];
        let seeds: Vec<u64> = (0..6).collect();
        let seq = run_static_trials_with_threads(&cfg, &policies, &seeds, 1).unwrap();
        for threads in [2, 8] {
            let par = run_static_trials_with_threads(&cfg, &policies, &seeds, threads).unwrap();
            assert_eq!(par, seq, "threads={threads} changed trial records");
        }
    }

    #[test]
    fn static_trials_same_seed_same_scenario() {
        let cfg = ScenarioConfig::enterprise(8);
        let policies: Vec<&dyn AssociationPolicy> = vec![&Rssi];
        let a = run_static_trials(&cfg, &policies, &[42]).unwrap();
        let b = run_static_trials(&cfg, &policies, &[42]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn wolt_beats_rssi_on_average() {
        let cfg = ScenarioConfig::enterprise(20);
        let wolt = Wolt::new();
        let policies: Vec<&dyn AssociationPolicy> = vec![&wolt, &Rssi];
        let seeds: Vec<u64> = (0..8).collect();
        let records = run_static_trials(&cfg, &policies, &seeds).unwrap();
        let mean = |name: &str| {
            let vals: Vec<f64> = records
                .iter()
                .filter(|r| r.policy == name)
                .map(|r| r.aggregate)
                .collect();
            vals.iter().sum::<f64>() / vals.len() as f64
        };
        assert!(
            mean("WOLT") > mean("RSSI"),
            "WOLT {} vs RSSI {}",
            mean("WOLT"),
            mean("RSSI")
        );
    }

    #[test]
    fn dynamic_run_produces_epoch_records() {
        let sim = small_dynamic();
        let records = sim.run(OnlinePolicy::Wolt, 3, 5).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].epoch, 1);
        assert_eq!(records[0].arrivals, 0);
        assert_eq!(records[0].reassignments, 0);
        assert!(records.iter().all(|r| r.aggregate > 0.0));
    }

    #[test]
    fn dynamic_population_grows_with_positive_drift() {
        let sim = small_dynamic();
        let records = sim.run(OnlinePolicy::Rssi, 4, 11).unwrap();
        assert!(
            records.last().unwrap().users > records[0].users,
            "population did not grow: {records:?}"
        );
    }

    #[test]
    fn greedy_online_never_reassigns() {
        let sim = small_dynamic();
        let records = sim.run(OnlinePolicy::GreedyOnline, 4, 9).unwrap();
        assert!(records.iter().all(|r| r.reassignments == 0));
    }

    #[test]
    fn rssi_never_reassigns() {
        let sim = small_dynamic();
        let records = sim.run(OnlinePolicy::Rssi, 4, 9).unwrap();
        assert!(records.iter().all(|r| r.reassignments == 0));
    }

    #[test]
    fn dynamic_deterministic_per_seed() {
        let sim = small_dynamic();
        let a = sim.run(OnlinePolicy::GreedyOnline, 3, 21).unwrap();
        let b = sim.run(OnlinePolicy::GreedyOnline, 3, 21).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn policy_names_match_paper() {
        assert_eq!(OnlinePolicy::Wolt.name(), "WOLT");
        assert_eq!(OnlinePolicy::GreedyOnline.name(), "Greedy");
        assert_eq!(OnlinePolicy::Rssi.name(), "RSSI");
    }

    #[test]
    fn link_flaps_are_counted_and_deterministic() {
        let sim = small_dynamic().with_link_flaps(LinkFlapConfig {
            probability: 0.6,
            degraded_fraction: 0.2,
            max_dwell: 0.8,
        });
        let a = sim.run(OnlinePolicy::Wolt, 5, 17).unwrap();
        let b = sim.run(OnlinePolicy::Wolt, 5, 17).unwrap();
        assert_eq!(a, b);
        assert_eq!(a[0].flapped_links, 0, "epoch 1 is unperturbed");
        assert!(
            a.iter().any(|r| r.flapped_links > 0),
            "no link ever flapped at p=0.6: {a:?}"
        );
        assert!(a.iter().all(|r| r.aggregate > 0.0));
    }

    #[test]
    fn link_flaps_never_compound_across_epochs() {
        // Without drift, every epoch restarts from nominal capacities:
        // even at p=1 with a deep collapse, the effective capacity stays
        // within one flap of nominal instead of decaying to the floor.
        let sim = small_dynamic().with_link_flaps(LinkFlapConfig {
            probability: 1.0,
            degraded_fraction: 0.5,
            max_dwell: 0.5,
        });
        let clean = small_dynamic();
        let flapped = sim.run(OnlinePolicy::Rssi, 6, 23).unwrap();
        let baseline = clean.run(OnlinePolicy::Rssi, 6, 23).unwrap();
        for (f, b) in flapped.iter().zip(&baseline) {
            // One flap removes at most dwell·(1-fraction) = 25% of any
            // link; PLC redistribution makes the aggregate effect even
            // smaller. Compounding would push this toward the 5% floor.
            assert!(
                f.aggregate > 0.5 * b.aggregate,
                "epoch {}: flapped {} vs baseline {}",
                f.epoch,
                f.aggregate,
                b.aggregate
            );
        }
    }
}
