//! WOLT — Algorithm 1 of the paper.
//!
//! The complete two-phase pipeline:
//!
//! 1. **Phase I** ([`crate::phase1`]): compute utilities
//!    `u_ij = min(c_j/|A|, r_ij)` and solve the resulting maximum-weight
//!    assignment problem with the Hungarian algorithm, pinning one user on
//!    each extender (the set `U1`).
//! 2. **Phase II** ([`crate::phase2`]): assign the remaining users `U2` to
//!    maximize the WiFi-side aggregate with `U1` fixed — a nonlinear
//!    program solved fractionally and extracted integrally (Theorem 3).
//!
//! The paper notes "the re-distribution of PLC capacity allocations when
//! certain PLC links are underutilized is implicitly handled by this
//! approach"; the final association is scored by [`crate::evaluate`], which
//! models that redistribution explicitly.

use wolt_support::obs;

use crate::phase1::{run_phase1_full, Phase1Outcome, Phase1Solver, Phase1Utility};
use crate::phase2::{run_phase2, run_phase2_greedy, Phase2Config, Phase2Outcome};
use crate::{Association, AssociationPolicy, CoreError, Network};

/// How Phase II solves its nonlinear program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase2Solver {
    /// The paper's approach: fractional projected-gradient solve, then
    /// integral extraction and a discrete polish.
    Nlp,
    /// Ablation: pure marginal-gain greedy with the same discrete polish.
    Greedy,
}

/// The WOLT association policy (Algorithm 1).
///
/// # Example
///
/// On the paper's Fig. 3 case study WOLT finds the optimal 40 Mbit/s
/// association:
///
/// ```
/// use wolt_core::{evaluate, AssociationPolicy, Network, Wolt};
///
/// # fn main() -> Result<(), wolt_core::CoreError> {
/// let net = Network::from_raw(
///     vec![60.0, 20.0],
///     vec![vec![15.0, 10.0], vec![40.0, 20.0]],
/// )?;
/// let assoc = Wolt::new().associate(&net)?;
/// let eval = evaluate(&net, &assoc)?;
/// assert!((eval.aggregate.value() - 40.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Wolt {
    phase1_utility: Phase1Utility,
    phase2_config: Phase2Config,
    phase2_solver: Phase2Solver,
}

impl Default for Wolt {
    fn default() -> Self {
        Self::new()
    }
}

impl Wolt {
    /// WOLT with the paper's defaults (NLP Phase II, 1e-5 tolerance).
    pub fn new() -> Self {
        Self {
            phase1_utility: Phase1Utility::Paper,
            phase2_config: Phase2Config::default(),
            phase2_solver: Phase2Solver::Nlp,
        }
    }

    /// Selects the Phase-I utility definition (the paper's Eq. 12 or an
    /// ablation).
    pub fn with_phase1_utility(mut self, utility: Phase1Utility) -> Self {
        self.phase1_utility = utility;
        self
    }

    /// Overrides the Phase-II configuration.
    pub fn with_phase2_config(mut self, config: Phase2Config) -> Self {
        self.phase2_config = config;
        self
    }

    /// Selects the Phase-II solver variant.
    pub fn with_phase2_solver(mut self, solver: Phase2Solver) -> Self {
        self.phase2_solver = solver;
        self
    }

    /// Runs both phases and returns the intermediate outcomes alongside
    /// the final association (useful for diagnostics and the benches).
    ///
    /// # Errors
    ///
    /// Propagates phase errors and the capacity-repair failure described
    /// on [`Wolt::associate`].
    pub fn associate_detailed(
        &self,
        net: &Network,
    ) -> Result<(Phase1Outcome, Phase2Outcome), CoreError> {
        let started = std::time::Instant::now();
        let p1 = run_phase1_full(net, Phase1Solver::Hungarian, self.phase1_utility)?;
        obs::counter_inc("core.phase1_solves");
        let mut p2 = match self.phase2_solver {
            Phase2Solver::Nlp => run_phase2(net, &p1.association, &self.phase2_config)?,
            Phase2Solver::Greedy => run_phase2_greedy(net, &p1.association, &self.phase2_config)?,
        };
        if let Some(report) = &p2.fractional {
            obs::counter_add("core.phase2_iterations", report.iterations as u64);
            obs::counter_add("core.phase2_trials", report.trials as u64);
        }
        repair_user_limits(net, &mut p2.association)?;
        obs::counter_inc("core.solves");
        obs::observe_duration("core.solve_us", started.elapsed());
        Ok((p1, p2))
    }
}

impl AssociationPolicy for Wolt {
    fn name(&self) -> &str {
        match self.phase2_solver {
            Phase2Solver::Nlp => "WOLT",
            Phase2Solver::Greedy => "WOLT-greedy2",
        }
    }

    /// Runs Algorithm 1 end to end.
    ///
    /// The paper relaxes the per-extender user limit `B_j`; when a network
    /// nevertheless carries limits, a repair pass moves users off
    /// over-subscribed extenders with the least WiFi-objective damage.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::CapacityExceeded`] if limits make a complete
    /// association impossible, plus any phase errors.
    fn associate(&self, net: &Network) -> Result<Association, CoreError> {
        let (_, p2) = self.associate_detailed(net)?;
        Ok(p2.association)
    }
}

/// Moves users off over-limit extenders (least marginal WiFi loss first)
/// until all `B_j` limits hold.
fn repair_user_limits(net: &Network, assoc: &mut Association) -> Result<(), CoreError> {
    use wolt_wifi::cell::CellLoad;

    let over_limit = |assoc: &Association| {
        (0..net.extenders()).find(|&j| {
            net.user_limit(j)
                .is_some_and(|limit| assoc.users_of(j).len() > limit)
        })
    };
    if over_limit(assoc).is_none() {
        return Ok(());
    }

    let mut cells: Vec<CellLoad> = vec![CellLoad::new(); net.extenders()];
    for (i, t) in assoc.iter().enumerate() {
        if let Some(j) = t {
            cells[j].join(net.rate(i, j).expect("validated"));
        }
    }

    while let Some(j) = over_limit(assoc) {
        let members = assoc.users_of(j);
        // Best (user, destination) move: maximize the WiFi-objective delta.
        let mut best: Option<(usize, usize, f64)> = None;
        for &i in &members {
            let rate_cur = net.rate(i, j).expect("validated");
            let leave_delta =
                cells[j].aggregate_if_left(rate_cur).value() - cells[j].aggregate().value();
            for k in net.reachable_extenders(i) {
                if k == j {
                    continue;
                }
                if net
                    .user_limit(k)
                    .is_some_and(|limit| assoc.users_of(k).len() >= limit)
                {
                    continue;
                }
                let rate_new = net.rate(i, k).expect("reachable");
                let join_delta =
                    cells[k].aggregate_if_joined(rate_new).value() - cells[k].aggregate().value();
                let delta = leave_delta + join_delta;
                if best.is_none_or(|(_, _, d)| delta > d) {
                    best = Some((i, k, delta));
                }
            }
        }
        match best {
            Some((i, k, _)) => {
                cells[j].leave(net.rate(i, j).expect("validated"));
                cells[k].join(net.rate(i, k).expect("reachable"));
                assoc.assign(i, k);
            }
            None => {
                return Err(CoreError::CapacityExceeded {
                    extender: j,
                    limit: net.user_limit(j).expect("over-limit extender has a limit"),
                })
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate;

    fn fig3_network() -> Network {
        Network::from_raw(vec![60.0, 20.0], vec![vec![15.0, 10.0], vec![40.0, 20.0]]).unwrap()
    }

    #[test]
    fn fig3_wolt_finds_the_optimum() {
        let assoc = Wolt::new().associate(&fig3_network()).unwrap();
        let eval = evaluate(&fig3_network(), &assoc).unwrap();
        assert!((eval.aggregate.value() - 40.0).abs() < 1e-9);
        assert_eq!(assoc.target(0), Some(1));
        assert_eq!(assoc.target(1), Some(0));
    }

    #[test]
    fn association_is_complete_and_valid() {
        let net = Network::from_raw(
            vec![100.0, 80.0, 60.0],
            vec![
                vec![30.0, 20.0, 10.0],
                vec![25.0, 35.0, 15.0],
                vec![12.0, 18.0, 40.0],
                vec![22.0, 14.0, 9.0],
                vec![16.0, 21.0, 11.0],
                vec![28.0, 13.0, 17.0],
            ],
        )
        .unwrap();
        let assoc = Wolt::new().associate(&net).unwrap();
        assert!(assoc.is_complete());
        assert!(net.validate_association(&assoc).is_ok());
    }

    #[test]
    fn phase1_variants_run_end_to_end() {
        let net = fig3_network();
        for utility in [
            Phase1Utility::Paper,
            Phase1Utility::WifiOnly,
            Phase1Utility::PlcShareOnly,
        ] {
            let wolt = Wolt::new().with_phase1_utility(utility);
            let assoc = wolt.associate(&net).unwrap();
            assert!(assoc.is_complete());
        }
    }

    #[test]
    fn greedy_phase2_variant_runs() {
        let net = fig3_network();
        let wolt = Wolt::new().with_phase2_solver(Phase2Solver::Greedy);
        assert_eq!(wolt.name(), "WOLT-greedy2");
        let assoc = wolt.associate(&net).unwrap();
        assert!(assoc.is_complete());
    }

    #[test]
    fn respects_user_limits_via_repair() {
        // Three users, two extenders, at most one user per extender 0.
        let net = Network::from_raw(
            vec![100.0, 90.0],
            vec![vec![30.0, 5.0], vec![28.0, 6.0], vec![26.0, 7.0]],
        )
        .unwrap()
        .with_user_limits(vec![Some(1), None])
        .unwrap();
        let assoc = Wolt::new().associate(&net).unwrap();
        assert!(assoc.is_complete());
        assert!(net.validate_association(&assoc).is_ok());
        assert!(assoc.users_of(0).len() <= 1);
    }

    #[test]
    fn serves_a_user_limited_network_it_can_complete() {
        // Phase II's extraction may overfill extender 0; the polish must
        // accept that start and leave it to the repair pass.
        let net = Network::from_raw(
            vec![100.0, 90.0],
            vec![
                vec![30.0, 5.0],
                vec![28.0, 6.0],
                vec![26.0, 7.0],
                vec![25.0, 8.0],
            ],
        )
        .unwrap()
        .with_user_limits(vec![Some(1), None])
        .unwrap();
        for solver in [Phase2Solver::Nlp, Phase2Solver::Greedy] {
            let assoc = Wolt::new()
                .with_phase2_solver(solver)
                .associate(&net)
                .unwrap_or_else(|e| panic!("{solver:?}: {e}"));
            assert!(assoc.is_complete(), "{solver:?}");
            net.validate_association(&assoc).unwrap();
            assert_eq!(assoc, Association::complete(vec![0, 1, 1, 1]), "{solver:?}");
        }
    }

    #[test]
    fn impossible_limits_error() {
        let net = Network::from_raw(vec![100.0, 90.0], vec![vec![30.0, 5.0], vec![28.0, 6.0]])
            .unwrap()
            .with_user_limits(vec![Some(0), Some(1)])
            .unwrap();
        let err = Wolt::new().associate(&net).unwrap_err();
        assert!(matches!(err, CoreError::CapacityExceeded { .. }));
    }

    #[test]
    fn detailed_outcome_exposes_phases() {
        let net = fig3_network();
        let (p1, p2) = Wolt::new().associate_detailed(&net).unwrap();
        assert_eq!(p1.selected_users.len(), 2);
        assert!(p2.association.is_complete());
    }

    #[test]
    fn matches_brute_force_on_small_instances() {
        use wolt_opt::brute::best_full_assignment;
        // WOLT is a heuristic; on these small, well-separated instances it
        // should land within a few percent of the brute-force optimum.
        let nets = [
            fig3_network(),
            Network::from_raw(
                vec![120.0, 40.0],
                vec![vec![25.0, 12.0], vec![18.0, 22.0], vec![30.0, 8.0]],
            )
            .unwrap(),
            Network::from_raw(
                vec![70.0, 90.0, 50.0],
                vec![
                    vec![20.0, 15.0, 9.0],
                    vec![11.0, 24.0, 13.0],
                    vec![8.0, 16.0, 21.0],
                    vec![17.0, 10.0, 14.0],
                ],
            )
            .unwrap(),
        ];
        for net in &nets {
            let assoc = Wolt::new().associate(net).unwrap();
            let wolt_value = evaluate(net, &assoc).unwrap().aggregate.value();
            let (_, best) = best_full_assignment(net.users(), net.extenders(), |targets| {
                let a = Association::complete(targets.to_vec());
                match evaluate(net, &a) {
                    Ok(e) => e.aggregate.value(),
                    Err(_) => f64::NEG_INFINITY,
                }
            });
            assert!(
                wolt_value >= 0.9 * best,
                "wolt {wolt_value} too far from optimum {best}"
            );
        }
    }
}
