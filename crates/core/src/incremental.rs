//! Incremental association evaluation: O(A) probes instead of O(U·A)
//! re-evaluation.
//!
//! [`crate::OnlineWolt`]'s marginal-gain move loop and the greedy
//! baselines score candidate associations that differ from the current
//! one by a *single user's move*. Calling
//! [`crate::evaluate`] for each candidate re-validates the association,
//! rebuilds every WiFi cell, and re-runs the PLC allocation: O(U·A) work
//! to answer a question about two cells.
//!
//! [`IncrementalEvaluator`] holds the live per-extender [`CellLoad`]
//! harmonic sums and member counts for one association and answers
//! "what if user `i` moved to extender `j` (or disconnected)?" by
//! adjusting only the two touched cells' demands and re-running the
//! O(A·rounds) PLC water-filling — no per-user work at all:
//!
//! * [`IncrementalEvaluator::probe_move`] — hypothetical aggregate, state
//!   untouched;
//! * [`IncrementalEvaluator::probe_move_user`] — the moved user's own
//!   end-to-end throughput (what [`crate::baselines::SelfishGreedy`]
//!   ranks);
//! * [`IncrementalEvaluator::apply_move`] — commit a move, updating the
//!   two cells and the cached aggregate.
//!
//! # Float contract
//!
//! Cell harmonic weights are maintained incrementally (join adds `1/r`,
//! leave subtracts it), so after a sequence of moves a cell's weight can
//! differ from a freshly rebuilt one by accumulated rounding on the order
//! of 1e-15 relative. The property suite pins probe/apply agreement with a
//! fresh [`crate::evaluate`] to 1e-9 absolute over random move sequences.
//! Results are a pure function of the network and the move sequence —
//! never of wall-clock or thread count — preserving the workspace's
//! byte-determinism guarantee.

use wolt_plc::timeshare::{allocate_time_fair, ExtenderDemand};
use wolt_support::obs;
use wolt_units::Mbps;
use wolt_wifi::cell::CellLoad;

use crate::{Association, CoreError, Evaluation, Network};

/// Probe/apply call counters, cached so the hot search loops pay one
/// atomic add per call instead of a registry lookup.
fn probes_counter() -> &'static obs::Counter {
    static C: std::sync::OnceLock<obs::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| obs::counter("core.incremental_probes"))
}

fn applies_counter() -> &'static obs::Counter {
    static C: std::sync::OnceLock<obs::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| obs::counter("core.incremental_applies"))
}

/// Incrementally-maintained evaluation state for one association on one
/// network (see the module docs).
///
/// # Example
///
/// The Fig. 3 case study: probing user 0's move from extender 0 to 1
/// discovers the optimal association without re-evaluating from scratch.
///
/// ```
/// use wolt_core::{Association, IncrementalEvaluator, Network};
///
/// # fn main() -> Result<(), wolt_core::CoreError> {
/// let net = Network::from_raw(
///     vec![60.0, 20.0],
///     vec![vec![15.0, 10.0], vec![40.0, 20.0]],
/// )?;
/// let greedy = Association::complete(vec![0, 1]); // Fig. 3c, worth 30
/// let mut eval = IncrementalEvaluator::new(&net, &greedy)?;
/// assert!((eval.aggregate().value() - 30.0).abs() < 1e-9);
///
/// // What if user 1 moved to extender 0 and user 0 to extender 1?
/// eval.apply_move(1, Some(0))?;
/// let probed = eval.probe_move(0, Some(1))?;
/// assert!((probed.value() - 40.0).abs() < 1e-9); // Fig. 3d optimum
/// eval.apply_move(0, Some(1))?;
/// assert_eq!(eval.aggregate(), probed);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalEvaluator<'n> {
    net: &'n Network,
    assoc: Association,
    cells: Vec<CellLoad>,
    /// Per-extender demand entries fed to the PLC allocator; `capacity` is
    /// fixed, `demand` mirrors `cells[j].aggregate()`.
    entries: Vec<ExtenderDemand>,
    aggregate: Mbps,
}

/// Outcome of one hypothetical move, shared by the probe methods.
struct Probe {
    aggregate: Mbps,
    user_throughput: Mbps,
}

impl<'n> IncrementalEvaluator<'n> {
    /// Builds the evaluator for `assoc` on `net` (one full O(U + A·rounds)
    /// evaluation; everything after is incremental).
    ///
    /// `assoc` may be partial — unassigned users contribute nothing and
    /// can be placed later with [`IncrementalEvaluator::apply_move`].
    ///
    /// # Errors
    ///
    /// Propagates [`Network::validate_association`] failures and PLC
    /// allocation errors.
    pub fn new(net: &'n Network, assoc: &Association) -> Result<Self, CoreError> {
        net.validate_association(assoc)?;
        let mut cells = vec![CellLoad::new(); net.extenders()];
        for (i, target) in assoc.iter().enumerate() {
            if let Some(j) = target {
                cells[j].join(net.rate(i, j).expect("validated links are reachable"));
            }
        }
        let entries: Vec<ExtenderDemand> = cells
            .iter()
            .enumerate()
            .map(|(j, c)| ExtenderDemand {
                capacity: net.capacity(j),
                demand: c.aggregate(),
            })
            .collect();
        let aggregate = allocate_time_fair(&entries)?.aggregate();
        Ok(Self {
            net,
            assoc: assoc.clone(),
            cells,
            entries,
            aggregate,
        })
    }

    /// The network this evaluator scores against.
    pub fn network(&self) -> &'n Network {
        self.net
    }

    /// The current association.
    pub fn association(&self) -> &Association {
        &self.assoc
    }

    /// Consumes the evaluator, returning the current association.
    pub fn into_association(self) -> Association {
        self.assoc
    }

    /// Aggregate network throughput of the current association.
    pub fn aggregate(&self) -> Mbps {
        self.aggregate
    }

    /// Number of users currently on extender `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn members(&self, j: usize) -> usize {
        self.cells[j].users()
    }

    /// True when extender `j` has a user limit and is at it.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn is_full(&self, j: usize) -> bool {
        self.net
            .user_limit(j)
            .is_some_and(|limit| self.cells[j].users() >= limit)
    }

    /// The WiFi-side objective Σ_j T_wifi(j) of the current association
    /// (Problem 2's objective).
    pub fn wifi_objective(&self) -> f64 {
        self.cells.iter().map(|c| c.aggregate().value()).sum()
    }

    /// Validates that user `i` may occupy `to`, given it currently sits at
    /// `from` (so moving within a full cell is fine).
    fn check_move(&self, i: usize, from: Option<usize>, to: usize) -> Result<(), CoreError> {
        if to >= self.net.extenders() {
            return Err(CoreError::UnknownExtender { extender: to });
        }
        if !self.net.reachable(i, to) {
            return Err(CoreError::InfeasibleAssociation {
                user: i,
                extender: to,
            });
        }
        if from != Some(to) {
            if let Some(limit) = self.net.user_limit(to) {
                if self.cells[to].users() >= limit {
                    return Err(CoreError::CapacityExceeded {
                        extender: to,
                        limit,
                    });
                }
            }
        }
        Ok(())
    }

    /// Runs the shared probe: hypothetical demands for the (at most two)
    /// touched cells, then one PLC water-filling pass.
    fn probe(&mut self, i: usize, to: Option<usize>) -> Result<Probe, CoreError> {
        probes_counter().inc();
        let from = self.assoc.target(i);
        if let Some(j) = to {
            self.check_move(i, from, j)?;
        }
        if from == to {
            // No entries change; the cached aggregate holds. The user's own
            // throughput still needs one allocation pass for the cell
            // breakdown — rare, since optimizers skip `from == to`
            // candidates.
            let user_throughput = match to {
                Some(j) => {
                    let alloc = allocate_time_fair(&self.entries)?;
                    alloc.throughput[j] / self.cells[j].users() as f64
                }
                None => Mbps::ZERO,
            };
            return Ok(Probe {
                aggregate: self.aggregate,
                user_throughput,
            });
        }

        // Temporarily rewrite the touched entries, allocate, restore. The
        // buffer is reused across probes so the hot path allocates nothing
        // beyond the water-filling's own scratch.
        let saved_from = from.map(|j| (j, self.entries[j].demand));
        let saved_to = to.map(|j| (j, self.entries[j].demand));
        if let Some(j) = from {
            let rate = self.net.rate(i, j).expect("current link is reachable");
            self.entries[j].demand = self.cells[j].aggregate_if_left(rate);
        }
        if let Some(j) = to {
            let rate = self.net.rate(i, j).expect("checked above");
            self.entries[j].demand = self.cells[j].aggregate_if_joined(rate);
        }
        let alloc = allocate_time_fair(&self.entries);
        let result = alloc.map(|alloc| {
            let user_throughput = match to {
                Some(j) => {
                    let members = self.cells[j].users() + 1;
                    alloc.throughput[j] / members as f64
                }
                None => Mbps::ZERO,
            };
            Probe {
                aggregate: alloc.aggregate(),
                user_throughput,
            }
        });
        if let Some((j, demand)) = saved_from {
            self.entries[j].demand = demand;
        }
        if let Some((j, demand)) = saved_to {
            self.entries[j].demand = demand;
        }
        result.map_err(CoreError::from)
    }

    /// Aggregate network throughput if user `i` moved to `to`
    /// (`None` = disconnected). State is not modified.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownExtender`], [`CoreError::InfeasibleAssociation`]
    /// or [`CoreError::CapacityExceeded`] when the move is inadmissible;
    /// PLC allocation errors propagate as [`CoreError::Substrate`].
    ///
    /// # Panics
    ///
    /// Panics if `user` is out of range.
    pub fn probe_move(&mut self, user: usize, to: Option<usize>) -> Result<Mbps, CoreError> {
        self.probe(user, to).map(|p| p.aggregate)
    }

    /// End-to-end throughput user `i` itself would get after moving to
    /// `to` (0 for `None`). State is not modified.
    ///
    /// # Errors
    ///
    /// As [`IncrementalEvaluator::probe_move`].
    ///
    /// # Panics
    ///
    /// Panics if `user` is out of range.
    pub fn probe_move_user(&mut self, user: usize, to: Option<usize>) -> Result<Mbps, CoreError> {
        self.probe(user, to).map(|p| p.user_throughput)
    }

    /// Moves user `i` to `to` (`None` = disconnect), updating the two
    /// touched cells and the cached aggregate. Returns the new aggregate.
    ///
    /// # Errors
    ///
    /// As [`IncrementalEvaluator::probe_move`]; on error the state is
    /// unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `user` is out of range.
    pub fn apply_move(&mut self, user: usize, to: Option<usize>) -> Result<Mbps, CoreError> {
        applies_counter().inc();
        let from = self.assoc.target(user);
        if let Some(j) = to {
            self.check_move(user, from, j)?;
        }
        if from == to {
            return Ok(self.aggregate);
        }
        if let Some(j) = from {
            let rate = self.net.rate(user, j).expect("current link is reachable");
            self.cells[j].leave(rate);
            self.entries[j].demand = self.cells[j].aggregate();
        }
        if let Some(j) = to {
            let rate = self.net.rate(user, j).expect("checked above");
            self.cells[j].join(rate);
            self.entries[j].demand = self.cells[j].aggregate();
            self.assoc.assign(user, j);
        } else {
            self.assoc.unassign(user);
        }
        self.aggregate = allocate_time_fair(&self.entries)?.aggregate();
        Ok(self.aggregate)
    }

    /// Full [`Evaluation`] of the current association (per-user and
    /// per-extender breakdowns). O(U + A·rounds) — use for final reports,
    /// not inside search loops.
    ///
    /// # Errors
    ///
    /// Propagates PLC allocation errors.
    pub fn evaluation(&self) -> Result<Evaluation, CoreError> {
        let alloc = allocate_time_fair(&self.entries)?;
        let mut per_user = vec![Mbps::ZERO; self.net.users()];
        for (i, target) in self.assoc.iter().enumerate() {
            if let Some(j) = target {
                per_user[i] = alloc.throughput[j] / self.cells[j].users() as f64;
            }
        }
        Ok(Evaluation {
            per_user,
            aggregate: alloc.aggregate(),
            per_extender: alloc.throughput,
            plc_shares: alloc.shares,
            wifi_demand: self.entries.iter().map(|e| e.demand).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate;

    fn fig3_network() -> Network {
        Network::from_raw(vec![60.0, 20.0], vec![vec![15.0, 10.0], vec![40.0, 20.0]]).unwrap()
    }

    fn net_3x5() -> Network {
        Network::from_raw(
            vec![100.0, 80.0, 60.0],
            vec![
                vec![30.0, 20.0, 10.0],
                vec![25.0, 35.0, 15.0],
                vec![12.0, 18.0, 40.0],
                vec![22.0, 14.0, 9.0],
                vec![16.0, 21.0, 11.0],
            ],
        )
        .unwrap()
    }

    fn close(a: Mbps, b: Mbps) -> bool {
        (a.value() - b.value()).abs() < 1e-9
    }

    #[test]
    fn construction_matches_full_evaluate() {
        let net = net_3x5();
        for targets in [
            vec![0, 1, 2, 0, 1],
            vec![0, 0, 0, 0, 0],
            vec![2, 2, 1, 0, 1],
        ] {
            let assoc = Association::complete(targets);
            let ev = IncrementalEvaluator::new(&net, &assoc).unwrap();
            let full = evaluate(&net, &assoc).unwrap();
            assert!(close(ev.aggregate(), full.aggregate));
        }
    }

    #[test]
    fn probe_matches_full_evaluate() {
        let net = net_3x5();
        let assoc = Association::complete(vec![0, 1, 2, 0, 1]);
        let mut ev = IncrementalEvaluator::new(&net, &assoc).unwrap();
        for user in 0..net.users() {
            for j in net.reachable_extenders(user) {
                let probed = ev.probe_move(user, Some(j)).unwrap();
                let mut moved = assoc.clone();
                moved.assign(user, j);
                let full = evaluate(&net, &moved).unwrap();
                assert!(
                    close(probed, full.aggregate),
                    "user {user} -> {j}: probed {probed}, full {}",
                    full.aggregate
                );
            }
        }
    }

    #[test]
    fn probe_does_not_mutate() {
        let net = fig3_network();
        let assoc = Association::complete(vec![0, 0]);
        let mut ev = IncrementalEvaluator::new(&net, &assoc).unwrap();
        let before = ev.aggregate();
        let _ = ev.probe_move(0, Some(1)).unwrap();
        let _ = ev.probe_move(1, None).unwrap();
        assert_eq!(ev.aggregate(), before);
        assert_eq!(ev.association(), &assoc);
        // Entries restored: a fresh probe of the same move agrees.
        let a = ev.probe_move(0, Some(1)).unwrap();
        let b = ev.probe_move(0, Some(1)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn apply_matches_probe_and_evaluate() {
        let net = net_3x5();
        let assoc = Association::complete(vec![0, 1, 2, 0, 1]);
        let mut ev = IncrementalEvaluator::new(&net, &assoc).unwrap();
        let probed = ev.probe_move(3, Some(2)).unwrap();
        let applied = ev.apply_move(3, Some(2)).unwrap();
        assert_eq!(probed, applied);
        let mut moved = assoc;
        moved.assign(3, 2);
        let full = evaluate(&net, &moved).unwrap();
        assert!(close(applied, full.aggregate));
        assert_eq!(ev.association(), &moved);
    }

    #[test]
    fn unassigning_works() {
        let net = fig3_network();
        let assoc = Association::complete(vec![0, 0]);
        let mut ev = IncrementalEvaluator::new(&net, &assoc).unwrap();
        let probed = ev.probe_move(1, None).unwrap();
        let partial = Association::from_targets(vec![Some(0), None]);
        let full = evaluate(&net, &partial).unwrap();
        assert!(close(probed, full.aggregate));
        ev.apply_move(1, None).unwrap();
        assert!(close(ev.aggregate(), full.aggregate));
        assert_eq!(ev.association().target(1), None);
        assert_eq!(ev.members(0), 1);
        // And back again.
        ev.apply_move(1, Some(0)).unwrap();
        let back = evaluate(&net, &Association::complete(vec![0, 0])).unwrap();
        assert!(close(ev.aggregate(), back.aggregate));
    }

    #[test]
    fn partial_association_placement() {
        let net = net_3x5();
        let mut ev = IncrementalEvaluator::new(&net, &Association::unassigned(5)).unwrap();
        assert_eq!(ev.aggregate(), Mbps::ZERO);
        for user in 0..5 {
            ev.apply_move(user, Some(user % 3)).unwrap();
        }
        let full = evaluate(&net, &Association::complete(vec![0, 1, 2, 0, 1])).unwrap();
        assert!(close(ev.aggregate(), full.aggregate));
    }

    #[test]
    fn rejects_inadmissible_moves() {
        let net =
            Network::from_raw(vec![60.0, 20.0], vec![vec![15.0, 0.0], vec![40.0, 20.0]]).unwrap();
        let assoc = Association::complete(vec![0, 0]);
        let mut ev = IncrementalEvaluator::new(&net, &assoc).unwrap();
        assert!(matches!(
            ev.probe_move(0, Some(1)),
            Err(CoreError::InfeasibleAssociation {
                user: 0,
                extender: 1
            })
        ));
        assert!(matches!(
            ev.probe_move(0, Some(9)),
            Err(CoreError::UnknownExtender { extender: 9 })
        ));
        // Errors leave state intact.
        assert!(close(
            ev.aggregate(),
            evaluate(&net, &assoc).unwrap().aggregate
        ));
    }

    #[test]
    fn respects_user_limits_but_allows_stay() {
        let net = Network::from_raw(
            vec![100.0, 90.0],
            vec![vec![30.0, 5.0], vec![28.0, 6.0], vec![26.0, 7.0]],
        )
        .unwrap()
        .with_user_limits(vec![Some(2), None])
        .unwrap();
        let assoc = Association::complete(vec![0, 0, 1]);
        let mut ev = IncrementalEvaluator::new(&net, &assoc).unwrap();
        assert!(ev.is_full(0));
        assert!(matches!(
            ev.probe_move(2, Some(0)),
            Err(CoreError::CapacityExceeded {
                extender: 0,
                limit: 2
            })
        ));
        // A no-op "move" within the full cell is fine.
        let stay = ev.probe_move(0, Some(0)).unwrap();
        assert!(close(stay, ev.aggregate()));
    }

    #[test]
    fn probe_move_user_matches_per_user_evaluate() {
        let net = net_3x5();
        let assoc = Association::complete(vec![0, 1, 2, 0, 1]);
        let mut ev = IncrementalEvaluator::new(&net, &assoc).unwrap();
        for user in 0..5 {
            for j in net.reachable_extenders(user) {
                let own = ev.probe_move_user(user, Some(j)).unwrap();
                let mut moved = assoc.clone();
                moved.assign(user, j);
                let full = evaluate(&net, &moved).unwrap();
                assert!(
                    close(own, full.per_user[user]),
                    "user {user} -> {j}: own {own}, full {}",
                    full.per_user[user]
                );
            }
        }
    }

    #[test]
    fn evaluation_matches_full_evaluate() {
        let net = net_3x5();
        let assoc = Association::complete(vec![2, 1, 2, 0, 1]);
        let ev = IncrementalEvaluator::new(&net, &assoc).unwrap();
        let incremental = ev.evaluation().unwrap();
        let full = evaluate(&net, &assoc).unwrap();
        assert!(close(incremental.aggregate, full.aggregate));
        for i in 0..5 {
            assert!(close(incremental.per_user[i], full.per_user[i]));
        }
        for j in 0..3 {
            assert!(close(incremental.per_extender[j], full.per_extender[j]));
            assert!(close(incremental.wifi_demand[j], full.wifi_demand[j]));
        }
    }

    #[test]
    fn long_move_sequence_stays_consistent() {
        // Drift check: after many applies the incremental aggregate stays
        // within 1e-9 of a fresh evaluation.
        let net = net_3x5();
        let assoc = Association::complete(vec![0, 0, 0, 0, 0]);
        let mut ev = IncrementalEvaluator::new(&net, &assoc).unwrap();
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..500 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let user = (state % 5) as usize;
            let choice = ((state >> 8) % 4) as usize;
            let to = if choice == 3 { None } else { Some(choice) };
            if to.is_some_and(|j| !net.reachable(user, j)) {
                continue;
            }
            ev.apply_move(user, to).unwrap();
        }
        let fresh = evaluate(&net, ev.association()).unwrap();
        assert!(
            (ev.aggregate().value() - fresh.aggregate.value()).abs() < 1e-9,
            "drift: incremental {} vs fresh {}",
            ev.aggregate(),
            fresh.aggregate
        );
    }

    #[test]
    fn invalid_starting_association_rejected() {
        let net = fig3_network();
        let bogus = Association::from_targets(vec![Some(5), None]);
        assert!(IncrementalEvaluator::new(&net, &bogus).is_err());
    }
}
