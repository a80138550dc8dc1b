//! Phase I of WOLT: assignment-problem relaxation.
//!
//! The paper relaxes Problem 1 by (a) dropping "every user must connect"
//! and (b) requiring every extender to serve at least one user. Lemma 2
//! shows an optimal solution of the relaxation puts **exactly one user on
//! each extender**, and Theorem 2 shows the relaxation is then *exactly* a
//! maximum-weight assignment problem with task utilities
//!
//! ```text
//! u_ij = min(c_j / |A|, r_ij)              (Eq. 12)
//! ```
//!
//! — the best throughput user `i` could deliver through extender `j` when
//! all `|A|` extenders split the PLC medium evenly. We build that utility
//! matrix and solve it with the Hungarian algorithm from `wolt-opt`
//! (O(|A|³), the complexity the paper cites).

use wolt_opt::{max_weight_assignment, Matrix};
use wolt_units::Mbps;

use crate::{Association, CoreError, Network};

/// Which assignment solver Phase I uses. The Hungarian is the only one;
/// the type keeps [`run_phase1_full`]'s signature stable for its callers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Phase1Solver {
    /// Shortest-augmenting-path Hungarian algorithm (the paper's choice).
    #[default]
    Hungarian,
}

/// Which utility definition Phase I optimizes — the paper's bottleneck-aware
/// `min(c_j/|A|, r_ij)` or two ablations that ignore one side.
///
/// The ablations exist to quantify the paper's central claim: associating
/// on WiFi quality alone (what an Ethernet-backhaul assigner would do)
/// leaves throughput on the table exactly because the PLC side can be the
/// bottleneck.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Phase1Utility {
    /// The paper's Eq. 12: `u_ij = min(c_j/|A|, r_ij)`.
    #[default]
    Paper,
    /// Ablation: `u_ij = r_ij` — PLC-blind, WiFi quality only.
    WifiOnly,
    /// Ablation: `u_ij = c_j/|A|` — WiFi-blind (reachability still
    /// respected), equivalent to spreading users over the best outlets.
    PlcShareOnly,
}

/// Result of Phase I.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase1Outcome {
    /// Partial association: the users of `U1` are assigned, everyone else
    /// is `None`.
    pub association: Association,
    /// The users selected into `U1` (at most one per extender).
    pub selected_users: Vec<usize>,
    /// The utility matrix that was solved (rows = users, cols =
    /// extenders; unreachable pairs are `-inf`).
    pub utilities: Matrix,
    /// Total utility of the optimal matching — the relaxation's objective
    /// value (an upper bound on what Phase I can deliver physically).
    pub utility_total: f64,
}

/// Computes the paper's Phase-I utilities `u_ij = min(c_j/|A|, r_ij)`.
///
/// Unreachable `(i, j)` pairs get `-inf` so the assignment solver never
/// picks them.
///
/// # Errors
///
/// Returns [`CoreError::Substrate`] only on internal matrix-construction
/// failure (cannot happen for a valid [`Network`]).
pub fn phase1_utilities(net: &Network) -> Result<Matrix, CoreError> {
    phase1_utilities_with(net, Phase1Utility::Paper)
}

/// [`phase1_utilities`] with an explicit utility definition (see
/// [`Phase1Utility`]).
///
/// # Errors
///
/// As [`phase1_utilities`].
pub fn phase1_utilities_with(net: &Network, utility: Phase1Utility) -> Result<Matrix, CoreError> {
    let a = net.extenders() as f64;
    let shares: Vec<f64> = net.capacities().iter().map(|&c| (c / a).value()).collect();
    let mut m = Matrix::filled(net.users(), net.extenders(), f64::NEG_INFINITY)?;
    for i in 0..net.users() {
        let cells = m.row_mut(i).iter_mut().zip(net.rates().row(i)).zip(&shares);
        for ((u, &r), &share) in cells {
            // A usable rate, as `Network::rate` has it; the rest stay -inf.
            if Mbps::new(r).is_usable() {
                *u = match utility {
                    Phase1Utility::Paper => r.min(share),
                    Phase1Utility::WifiOnly => r,
                    Phase1Utility::PlcShareOnly => share,
                };
            }
        }
    }
    Ok(m)
}

/// Runs Phase I: selects `min(|U|, |A|)` users and assigns one to each
/// extender, maximizing the total utility (Theorem 2).
///
/// Extenders that no user can reach stay empty (physically nothing can be
/// done about them; the paper assumes reachability).
///
/// # Errors
///
/// Propagates utility-matrix construction failures.
pub fn run_phase1(net: &Network) -> Result<Phase1Outcome, CoreError> {
    run_phase1_full(net, Phase1Solver::Hungarian, Phase1Utility::Paper)
}

/// [`run_phase1`] with explicit solver and utility choices.
///
/// # Errors
///
/// Propagates utility-matrix construction failures.
pub fn run_phase1_full(
    net: &Network,
    solver: Phase1Solver,
    utility: Phase1Utility,
) -> Result<Phase1Outcome, CoreError> {
    let utilities = phase1_utilities_with(net, utility)?;
    let assignment = match solver {
        Phase1Solver::Hungarian => max_weight_assignment(&utilities),
    };

    let mut association = Association::unassigned(net.users());
    let mut selected_users = Vec::with_capacity(assignment.len());
    for &(user, ext) in &assignment.pairs {
        association.assign(user, ext);
        selected_users.push(user);
    }
    selected_users.sort_unstable();

    Ok(Phase1Outcome {
        association,
        selected_users,
        utilities,
        utility_total: assignment.total,
    })
}

/// The throughput Phase I's relaxation promises for a single-user cell:
/// `min(c_j/|A|, r_ij)` — exposed for diagnostics and tests.
pub fn single_user_cell_bound(net: &Network, user: usize, ext: usize) -> Option<Mbps> {
    net.rate(user, ext)
        .map(|r| r.min(net.capacity(ext) / net.extenders() as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig3_network() -> Network {
        Network::from_raw(vec![60.0, 20.0], vec![vec![15.0, 10.0], vec![40.0, 20.0]]).unwrap()
    }

    #[test]
    fn fig3_utilities_match_paper() {
        let u = phase1_utilities(&fig3_network()).unwrap();
        assert_eq!(u[(0, 0)], 15.0); // min(30, 15)
        assert_eq!(u[(0, 1)], 10.0); // min(10, 10)
        assert_eq!(u[(1, 0)], 30.0); // min(30, 40)
        assert_eq!(u[(1, 1)], 10.0); // min(10, 20)
    }

    #[test]
    fn fig3_phase1_recovers_optimal_pairing() {
        let out = run_phase1(&fig3_network()).unwrap();
        // Optimal matching: user 2 → ext 1, user 1 → ext 2, total 40.
        assert_eq!(out.association.target(0), Some(1));
        assert_eq!(out.association.target(1), Some(0));
        assert_eq!(out.utility_total, 40.0);
        assert_eq!(out.selected_users, vec![0, 1]);
    }

    #[test]
    fn one_user_per_extender() {
        let net = Network::from_raw(
            vec![100.0, 80.0, 60.0],
            vec![
                vec![30.0, 20.0, 10.0],
                vec![25.0, 35.0, 15.0],
                vec![12.0, 18.0, 40.0],
                vec![22.0, 14.0, 9.0],
                vec![16.0, 21.0, 11.0],
            ],
        )
        .unwrap();
        let out = run_phase1(&net).unwrap();
        assert_eq!(out.selected_users.len(), 3);
        for j in 0..3 {
            assert_eq!(
                out.association.users_of(j).len(),
                1,
                "extender {j} should serve exactly one Phase-I user"
            );
        }
        // Unselected users remain unassigned.
        assert_eq!(out.association.assigned_count(), 3);
    }

    #[test]
    fn more_extenders_than_users_assigns_all_users() {
        let net = Network::from_raw(
            vec![100.0, 80.0, 60.0],
            vec![vec![30.0, 20.0, 10.0], vec![25.0, 35.0, 15.0]],
        )
        .unwrap();
        let out = run_phase1(&net).unwrap();
        assert_eq!(out.selected_users, vec![0, 1]);
        assert!(out.association.is_complete());
    }

    #[test]
    fn utilities_capped_by_plc_share() {
        // Huge WiFi rates: utilities are capped at c_j/|A|.
        let net = Network::from_raw(
            vec![50.0, 30.0],
            vec![vec![500.0, 500.0], vec![500.0, 500.0]],
        )
        .unwrap();
        let u = phase1_utilities(&net).unwrap();
        assert_eq!(u[(0, 0)], 25.0);
        assert_eq!(u[(0, 1)], 15.0);
    }

    #[test]
    fn unreachable_pairs_never_selected() {
        let net = Network::from_raw(
            vec![100.0, 80.0],
            vec![vec![30.0, 0.0], vec![25.0, 0.0], vec![0.0, 12.0]],
        )
        .unwrap();
        let out = run_phase1(&net).unwrap();
        // Extender 1 is only reachable by user 2.
        assert_eq!(out.association.users_of(1), vec![2]);
        let u = &out.utilities;
        assert_eq!(u[(0, 1)], f64::NEG_INFINITY);
    }

    #[test]
    fn extender_reachable_by_nobody_stays_empty() {
        let net =
            Network::from_raw(vec![100.0, 80.0], vec![vec![30.0, 0.0], vec![25.0, 0.0]]).unwrap();
        let out = run_phase1(&net).unwrap();
        assert!(out.association.users_of(1).is_empty());
        assert_eq!(out.selected_users.len(), 1);
    }

    #[test]
    fn single_user_cell_bound_matches_utilities() {
        let net = fig3_network();
        let u = phase1_utilities(&net).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                assert_eq!(
                    single_user_cell_bound(&net, i, j).unwrap().value(),
                    u[(i, j)]
                );
            }
        }
    }

    #[test]
    fn utility_variants_differ_as_specified() {
        let net = fig3_network();
        let paper = phase1_utilities_with(&net, Phase1Utility::Paper).unwrap();
        let wifi = phase1_utilities_with(&net, Phase1Utility::WifiOnly).unwrap();
        let plc = phase1_utilities_with(&net, Phase1Utility::PlcShareOnly).unwrap();
        // User 2 on extender 1: paper caps 40 to the 30 Mbit/s share.
        assert_eq!(paper[(1, 0)], 30.0);
        assert_eq!(wifi[(1, 0)], 40.0);
        assert_eq!(plc[(1, 0)], 30.0);
        // User 1 on extender 1: WiFi (15) is the binding side.
        assert_eq!(paper[(0, 0)], 15.0);
        assert_eq!(wifi[(0, 0)], 15.0);
        assert_eq!(plc[(0, 0)], 30.0);
    }

    #[test]
    fn wifi_only_utility_can_mislead() {
        // Two users, two extenders. Extender 0 has a great WiFi link but a
        // terrible PLC backhaul; the paper utility steers the fast user to
        // the healthy extender while the WiFi-only ablation walks into the
        // bottleneck.
        let net =
            Network::from_raw(vec![8.0, 80.0], vec![vec![45.0, 28.0], vec![5.0, 4.0]]).unwrap();
        let paper = run_phase1_full(&net, Phase1Solver::Hungarian, Phase1Utility::Paper).unwrap();
        let blind =
            run_phase1_full(&net, Phase1Solver::Hungarian, Phase1Utility::WifiOnly).unwrap();
        let eval_paper = crate::evaluate(&net, &paper.association).unwrap();
        let eval_blind = crate::evaluate(&net, &blind.association).unwrap();
        assert!(
            eval_paper.aggregate > eval_blind.aggregate,
            "paper {} should beat wifi-only {}",
            eval_paper.aggregate,
            eval_blind.aggregate
        );
    }

    #[test]
    fn phase1_maximizes_over_brute_force() {
        use wolt_opt::brute;
        let net = Network::from_raw(
            vec![90.0, 45.0, 120.0],
            vec![
                vec![18.0, 25.0, 31.0],
                vec![9.0, 14.0, 27.0],
                vec![33.0, 8.0, 16.0],
                vec![21.0, 19.0, 12.0],
            ],
        )
        .unwrap();
        let out = run_phase1(&net).unwrap();
        let (_, best) = brute::best_perfect_matching(&out.utilities);
        assert!((out.utility_total - best).abs() < 1e-9);
    }
}
