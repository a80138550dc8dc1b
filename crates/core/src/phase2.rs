//! Phase II of WOLT: assigning the remaining users.
//!
//! After Phase I pins one user per extender, constraint (7) returns: every
//! remaining user (`U2`) must connect somewhere. Problem 2 of the paper
//! assigns them to maximize the *WiFi-side* aggregate Σ_j T_wifi(j) with
//! the Phase-I users fixed — the PLC side is already saturated by Phase I,
//! so additional users mostly reshuffle WiFi contention. The paper solves
//! the fractional relaxation numerically (interior point, stop at 1e-5)
//! and proves (Theorem 3) an integral optimum exists.
//!
//! [`run_phase2`] mirrors that: a projected-gradient solve of the
//! fractional program over per-user simplices, then Theorem-3-style
//! integral extraction (each user lands on its best extender), then a
//! discrete coordinate-ascent polish. [`run_phase2_greedy`] skips the NLP
//! and assigns users purely by marginal gain — the ablation showing what
//! the fractional solve buys.

use wolt_opt::{Objective, ProjectedGradient, SolveReport, Supports};
use wolt_support::obs;
use wolt_units::Mbps;
use wolt_wifi::cell::CellLoad;

use crate::{Association, CoreError, Network};

/// Configuration for Phase II.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase2Config {
    /// Fractional solver settings (the paper stops at 1e-5 improvement).
    pub solver: ProjectedGradient,
    /// Maximum discrete coordinate-ascent passes after extraction.
    pub polish_passes: usize,
    /// Minimum discrete improvement worth moving a user for.
    pub polish_tol: f64,
}

impl Default for Phase2Config {
    fn default() -> Self {
        Self {
            solver: ProjectedGradient::new(),
            polish_passes: 20,
            polish_tol: 1e-5,
        }
    }
}

/// Result of Phase II.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase2Outcome {
    /// The completed association (Phase-I users untouched).
    pub association: Association,
    /// Report of the fractional solve (`None` when `U2` was empty or the
    /// greedy variant ran).
    pub fractional: Option<SolveReport>,
    /// Final discrete WiFi-side objective Σ_j T_wifi(j).
    pub wifi_objective: f64,
}

/// The fractional Problem-2 objective over `U2` users' simplex rows, in
/// the solver's packed layout: one entry per (user, reachable extender).
struct Phase2Objective {
    /// Fixed `(user count, harmonic weight Σ 1/r)` per extender, from
    /// Phase I.
    fixed: Vec<(f64, f64)>,
    /// Each packed entry's extender `j` and `1 / r_{user, j}`.
    entries: Vec<(usize, f64)>,
    /// Per-extender `(mass N_j, weight S_j)` at the point last passed to
    /// `value`, which is where the solver takes the gradient. Kept as
    /// pairs, an entry's scatter-add indexes (and bounds-checks) once.
    totals: Vec<(f64, f64)>,
}

impl Phase2Objective {
    fn new(fixed: Vec<(f64, f64)>, entries: Vec<(usize, f64)>) -> Self {
        Self {
            totals: fixed.clone(),
            fixed,
            entries,
        }
    }

    /// Recomputes `totals` at `x`. Each extender's entries are added in
    /// row order, as a dense sweep over every (user, extender) adds them;
    /// the dense sweep's other terms were `+0.0` (off-support coordinates
    /// hold exactly `0.0` and their `1/r` is taken as `0.0`), which leave
    /// a sum's bits unchanged.
    fn totals(&mut self, x: &[f64]) {
        self.totals.copy_from_slice(&self.fixed);
        for (&v, &(j, inv_r)) in x.iter().zip(&self.entries) {
            let (mass, weight) = &mut self.totals[j];
            *mass += v;
            *weight += v * inv_r;
        }
    }
}

impl Objective for Phase2Objective {
    fn value(&mut self, x: &[f64]) -> f64 {
        self.totals(x);
        self.totals
            .iter()
            .map(|&(m, w)| if w > 1e-12 { m / w } else { 0.0 })
            .sum()
    }

    /// Uses the totals `value` left at `x`.
    fn gradient(&mut self, _x: &[f64], grad: &mut [f64]) {
        for (g, &(j, inv_r)) in grad.iter_mut().zip(&self.entries) {
            let (m, w) = self.totals[j];
            *g = if w > 1e-12 {
                // d/dx of (m + x)/(w + x/r) at the current point.
                (w - m * inv_r) / (w * w)
            } else {
                // Empty extender: the first unit of mass is worth the
                // user's full rate.
                1.0 / inv_r
            };
        }
    }
}

/// Runs Phase II with the fractional solve + integral extraction.
///
/// `phase1` must be a (possibly partial) association valid for `net`; its
/// assigned users are treated as fixed.
///
/// # Errors
///
/// Propagates association-validation and solver errors.
pub fn run_phase2(
    net: &Network,
    phase1: &Association,
    config: &Phase2Config,
) -> Result<Phase2Outcome, CoreError> {
    net.validate_association(phase1)?;
    let u2 = phase1.unassigned_users();
    if u2.is_empty() {
        let wifi_objective = wifi_objective(net, phase1);
        return Ok(Phase2Outcome {
            association: phase1.clone(),
            fractional: None,
            wifi_objective,
        });
    }

    let n_ext = net.extenders();
    let fixed = build_cells(net, phase1)
        .iter()
        .map(|c| (c.users() as f64, c.harmonic_weight()))
        .collect();

    // One pass over each user's rate row: its reachable extenders (the
    // row's support), their 1/r, and a uniform start over them.
    let mut supports = Supports::new(n_ext);
    let mut entries: Vec<(usize, f64)> = Vec::with_capacity(u2.len() * n_ext);
    let mut x0 = Vec::with_capacity(u2.len() * n_ext);
    for &i in &u2 {
        let first = entries.len();
        entries.extend((0..n_ext).filter_map(|j| net.rate(i, j).map(|r| (j, 1.0 / r.value()))));
        supports.push_row(entries[first..].iter().map(|&(j, _)| j));
        let reachable = (entries.len() - first) as f64;
        x0.resize(entries.len(), 1.0 / reachable);
    }

    let mut objective = Phase2Objective::new(fixed, entries);
    let report = config.solver.maximize(&mut objective, x0, &supports)?;

    // Theorem-3 integral extraction: each user snaps to its largest
    // fractional coordinate (a tie goes to the higher extender)...
    let mut association = phase1.clone();
    for (k, &i) in u2.iter().enumerate() {
        let row = &report.x[k];
        let best = supports
            .row(k)
            .iter()
            .copied()
            .max_by(|&a, &b| row[a].partial_cmp(&row[b]).expect("finite x"))
            .expect("validated users reach at least one extender");
        association.assign(i, best);
    }
    // ...then a discrete coordinate-ascent polish removes any extraction
    // loss (Theorem 3 guarantees an integral optimum exists).
    polish(net, &mut association, &u2, config);

    let wifi_objective = wifi_objective(net, &association);
    Ok(Phase2Outcome {
        association,
        fractional: Some(report),
        wifi_objective,
    })
}

/// Greedy Phase II: assigns each `U2` user (in index order) to the
/// extender with the best marginal WiFi gain, then polishes. No fractional
/// solve.
///
/// # Errors
///
/// Propagates association-validation failures.
pub fn run_phase2_greedy(
    net: &Network,
    phase1: &Association,
    config: &Phase2Config,
) -> Result<Phase2Outcome, CoreError> {
    net.validate_association(phase1)?;
    let u2 = phase1.unassigned_users();
    let mut association = phase1.clone();

    let mut cells = build_cells(net, &association);
    for &i in &u2 {
        let mut best: Option<(usize, f64)> = None;
        for j in net.reachable_extenders(i) {
            let rate = net.rate(i, j).expect("reachable");
            let gain = cells[j].aggregate_if_joined(rate).value() - cells[j].aggregate().value();
            if best.is_none_or(|(_, g)| gain > g) {
                best = Some((j, gain));
            }
        }
        let (j, _) = best.expect("validated users reach at least one extender");
        cells[j].join(net.rate(i, j).expect("reachable"));
        association.assign(i, j);
    }
    polish(net, &mut association, &u2, config);

    let wifi_objective = wifi_objective(net, &association);
    Ok(Phase2Outcome {
        association,
        fractional: None,
        wifi_objective,
    })
}

/// Σ_j T_wifi(j) of a (partial) association — Problem 2's objective.
pub fn wifi_objective(net: &Network, assoc: &Association) -> f64 {
    build_cells(net, assoc)
        .iter()
        .map(|c| c.aggregate().value())
        .sum()
}

fn build_cells(net: &Network, assoc: &Association) -> Vec<CellLoad> {
    let mut cells = vec![CellLoad::new(); net.extenders()];
    for (i, target) in assoc.iter().enumerate() {
        if let Some(j) = target {
            cells[j].join(net.rate(i, j).expect("validated"));
        }
    }
    cells
}

/// The polish's cells: each extender's [`CellLoad`] (member count and
/// harmonic weight Σ 1/r) and its cached aggregate, so that scoring a
/// candidate costs one join term.
struct PolishCells {
    loads: Vec<CellLoad>,
    aggregate: Vec<f64>,
}

impl PolishCells {
    /// The cells of `assoc`.
    fn new(net: &Network, assoc: &Association) -> Self {
        let loads = build_cells(net, assoc);
        let aggregate = loads.iter().map(|c| c.aggregate().value()).collect();
        Self { loads, aggregate }
    }

    /// The change in extender `j`'s aggregate if a member at `rate` left.
    fn leave_delta(&self, j: usize, rate: Mbps) -> f64 {
        self.loads[j].aggregate_if_left(rate).value() - self.aggregate[j]
    }

    /// The change in extender `j`'s aggregate if a user at `rate` joined.
    fn join_delta(&self, j: usize, rate: Mbps) -> f64 {
        self.loads[j].aggregate_if_joined(rate).value() - self.aggregate[j]
    }

    /// Moves a user from extender `from` (at `from_rate`) to `to` (at
    /// `to_rate`).
    fn apply(&mut self, from: usize, from_rate: Mbps, to: usize, to_rate: Mbps) {
        self.loads[from].leave(from_rate);
        self.loads[to].join(to_rate);
        self.aggregate[from] = self.loads[from].aggregate().value();
        self.aggregate[to] = self.loads[to].aggregate().value();
    }
}

/// The rate of a link the association uses.
fn link_rate(net: &Network, i: usize, j: usize) -> Mbps {
    net.rate(i, j).expect("associated links are reachable")
}

/// Discrete coordinate ascent: move one user of `movable` at a time to
/// the extender that most improves Σ_j T_wifi(j), until a full pass
/// finds no move worth more than `polish_tol` (or the pass budget runs
/// out).
///
/// A candidate's score is the user's leave term, computed once per user
/// and pass, plus the candidate's join term, both from [`PolishCells`].
/// No PLC allocation is involved: the polish ranks the WiFi-side
/// objective only. Moves into a cell at its user limit are skipped; a
/// start that already breaks a limit is polished as it is and left for
/// the caller to repair. Candidates and moves are added to
/// `core.incremental_probes` and `core.incremental_applies` once per
/// polish.
fn polish(net: &Network, assoc: &mut Association, movable: &[usize], config: &Phase2Config) {
    let mut cells = PolishCells::new(net, assoc);
    let (mut rounds, mut probes, mut applies) = (0u64, 0u64, 0u64);
    for _ in 0..config.polish_passes {
        rounds += 1;
        let mut improved = false;
        for &i in movable {
            let current = assoc.target(i).expect("movable users are assigned");
            let current_rate = link_rate(net, i, current);
            let leave = cells.leave_delta(current, current_rate);
            let mut best: Option<(usize, Mbps, f64)> = None;
            for j in 0..net.extenders() {
                if j == current {
                    continue;
                }
                let Some(rate) = net.rate(i, j) else {
                    continue;
                };
                probes += 1;
                if net
                    .user_limit(j)
                    .is_some_and(|limit| cells.loads[j].users() >= limit)
                {
                    continue; // full cell — inadmissible candidate
                }
                let delta = leave + cells.join_delta(j, rate);
                if delta > config.polish_tol && best.is_none_or(|(_, _, d)| delta > d) {
                    best = Some((j, rate, delta));
                }
            }
            if let Some((j, rate, _)) = best {
                cells.apply(current, current_rate, j, rate);
                assoc.assign(i, j);
                applies += 1;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    obs::counter_add("core.polish_rounds", rounds);
    obs::counter_add("core.incremental_probes", probes);
    obs::counter_add("core.incremental_applies", applies);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase1::run_phase1;

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

    #[test]
    fn completes_the_association() {
        let net = net_3x5();
        let p1 = run_phase1(&net).unwrap();
        let p2 = run_phase2(&net, &p1.association, &Phase2Config::default()).unwrap();
        assert!(p2.association.is_complete());
        assert!(net.validate_association(&p2.association).is_ok());
        // Phase-I users were not moved.
        for &i in &p1.selected_users {
            assert_eq!(p2.association.target(i), p1.association.target(i));
        }
    }

    #[test]
    fn empty_u2_returns_input() {
        let net =
            Network::from_raw(vec![100.0, 80.0], vec![vec![30.0, 20.0], vec![25.0, 35.0]]).unwrap();
        let p1 = run_phase1(&net).unwrap();
        assert!(p1.association.is_complete());
        let p2 = run_phase2(&net, &p1.association, &Phase2Config::default()).unwrap();
        assert_eq!(p2.association, p1.association);
        assert!(p2.fractional.is_none());
    }

    #[test]
    fn fractional_solve_converges() {
        let net = net_3x5();
        let p1 = run_phase1(&net).unwrap();
        let p2 = run_phase2(&net, &p1.association, &Phase2Config::default()).unwrap();
        let report = p2.fractional.expect("u2 non-empty");
        assert!(report.converged);
    }

    #[test]
    fn fractional_solutions_are_near_integral() {
        // Theorem 3: the optimum is integral; the solver should end close
        // to a vertex for generic instances.
        let net = net_3x5();
        let p1 = run_phase1(&net).unwrap();
        let p2 = run_phase2(&net, &p1.association, &Phase2Config::default()).unwrap();
        let report = p2.fractional.expect("u2 non-empty");
        for row in &report.x {
            let max = row.iter().cloned().fold(0.0, f64::max);
            assert!(
                max > 0.9,
                "fractional row not near-integral: {row:?} (max {max})"
            );
        }
    }

    #[test]
    fn phase2_beats_or_matches_greedy_variant() {
        let net = net_3x5();
        let p1 = run_phase1(&net).unwrap();
        let cfg = Phase2Config::default();
        let nlp = run_phase2(&net, &p1.association, &cfg).unwrap();
        let greedy = run_phase2_greedy(&net, &p1.association, &cfg).unwrap();
        // Both polish to local optima of the same objective; the NLP start
        // should never be worse after polishing.
        assert!(nlp.wifi_objective >= greedy.wifi_objective - 1e-6);
    }

    #[test]
    fn phase2_matches_brute_force_on_small_instance() {
        use wolt_opt::brute::best_full_assignment;
        let net = Network::from_raw(
            vec![100.0, 90.0],
            vec![
                vec![30.0, 20.0],
                vec![25.0, 35.0],
                vec![12.0, 18.0],
                vec![22.0, 14.0],
            ],
        )
        .unwrap();
        let p1 = run_phase1(&net).unwrap();
        let p2 = run_phase2(&net, &p1.association, &Phase2Config::default()).unwrap();

        // Brute-force the same restricted problem: Phase-I users fixed,
        // the rest free, objective = Σ T_wifi.
        let u2 = p1.association.unassigned_users();
        let (_, best) = best_full_assignment(u2.len(), net.extenders(), |targets| {
            let mut assoc = p1.association.clone();
            for (k, &i) in u2.iter().enumerate() {
                assoc.assign(i, targets[k]);
            }
            if net.validate_association(&assoc).is_err() {
                return f64::NEG_INFINITY;
            }
            wifi_objective(&net, &assoc)
        });
        assert!(
            (p2.wifi_objective - best).abs() < 1e-6,
            "phase2 {} vs brute {}",
            p2.wifi_objective,
            best
        );
    }

    #[test]
    fn greedy_variant_completes_too() {
        let net = net_3x5();
        let p1 = run_phase1(&net).unwrap();
        let p2 = run_phase2_greedy(&net, &p1.association, &Phase2Config::default()).unwrap();
        assert!(p2.association.is_complete());
        assert!(p2.fractional.is_none());
    }

    #[test]
    fn respects_reachability() {
        // User 3 and 4 can only reach extender 0.
        let net = Network::from_raw(
            vec![100.0, 80.0],
            vec![
                vec![30.0, 20.0],
                vec![25.0, 35.0],
                vec![10.0, 0.0],
                vec![15.0, 0.0],
            ],
        )
        .unwrap();
        let p1 = run_phase1(&net).unwrap();
        let p2 = run_phase2(&net, &p1.association, &Phase2Config::default()).unwrap();
        for i in [2, 3] {
            if p1.association.target(i).is_none() {
                assert_eq!(p2.association.target(i), Some(0));
            }
        }
    }

    #[test]
    fn polish_delta_matches_objective_difference() {
        let net = net_3x5();
        let assoc = Association::complete(vec![0, 1, 2, 0, 1]);
        let cells = PolishCells::new(&net, &assoc);
        let before = wifi_objective(&net, &assoc);
        for user in 0..net.users() {
            let current = assoc.target(user).unwrap();
            let current_rate = link_rate(&net, user, current);
            for j in net.reachable_extenders(user) {
                if j == current {
                    continue;
                }
                let rate = link_rate(&net, user, j);
                // The score `polish` ranks.
                let delta = cells.leave_delta(current, current_rate) + cells.join_delta(j, rate);
                let mut moved = assoc.clone();
                moved.assign(user, j);
                let direct = wifi_objective(&net, &moved) - before;
                assert!(
                    (delta - direct).abs() < 1e-9,
                    "user {user} -> {j}: delta {delta}, direct {direct}"
                );

                // Applying the move leaves the moved association's cells.
                let mut applied = PolishCells::new(&net, &assoc);
                applied.apply(current, current_rate, j, rate);
                let fresh = PolishCells::new(&net, &moved);
                for (a, b) in applied.loads.iter().zip(&fresh.loads) {
                    assert_eq!(a.users(), b.users());
                }
                for (a, b) in applied.aggregate.iter().zip(&fresh.aggregate) {
                    assert!((a - b).abs() < 1e-9, "user {user} -> {j}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn wifi_objective_counts_all_cells() {
        let net = net_3x5();
        let assoc = Association::complete(vec![0, 1, 2, 0, 1]);
        let direct: f64 = (0..3)
            .map(|j| {
                let users = assoc.users_of(j);
                let rates: Vec<_> = users.iter().map(|&i| net.rate(i, j).unwrap()).collect();
                wolt_wifi::cell::aggregate_throughput(&rates)
                    .unwrap()
                    .value()
            })
            .sum();
        assert!((wifi_objective(&net, &assoc) - direct).abs() < 1e-9);
    }
}
