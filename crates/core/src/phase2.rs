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
//! the fractional solve buys. Both read each `U2` user's reachable
//! extenders and their `1/r` from one packed table, built once per solve.

use wolt_opt::{Objective, ProjectedGradient, SolveReport, Supports};
use wolt_support::obs;
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
struct Phase2Objective<'a> {
    /// Fixed `(user count, harmonic weight Σ 1/r)` per extender, from
    /// Phase I.
    fixed: Vec<(f64, f64)>,
    /// Each packed entry's extender `j` and `1 / r_{user, j}`: the
    /// [`U2Table`]'s links.
    links: &'a [(usize, f64)],
    /// Per-extender `(mass N_j, weight S_j)` at the point last passed to
    /// `value`, which is where the solver takes the gradient. Kept as
    /// pairs, an entry's scatter-add indexes (and bounds-checks) once.
    totals: Vec<(f64, f64)>,
}

impl<'a> Phase2Objective<'a> {
    fn new(fixed: Vec<(f64, f64)>, links: &'a [(usize, f64)]) -> Self {
        Self {
            totals: fixed.clone(),
            fixed,
            links,
        }
    }

    /// Recomputes `totals` at `x`. Each extender's entries are added in
    /// row order, as a dense sweep over every (user, extender) adds them;
    /// the dense sweep's other terms were `+0.0` (off-support coordinates
    /// hold exactly `0.0` and their `1/r` is taken as `0.0`), which leave
    /// a sum's bits unchanged.
    fn totals(&mut self, x: &[f64]) {
        self.totals.copy_from_slice(&self.fixed);
        for (&v, &(j, inv_r)) in x.iter().zip(self.links) {
            let (mass, weight) = &mut self.totals[j];
            *mass += v;
            *weight += v * inv_r;
        }
    }
}

impl Objective for Phase2Objective<'_> {
    fn value(&mut self, x: &[f64]) -> f64 {
        self.totals(x);
        self.totals
            .iter()
            .map(|&(m, w)| if w > 1e-12 { m / w } else { 0.0 })
            .sum()
    }

    /// Uses the totals `value` left at `x`.
    fn gradient(&mut self, _x: &[f64], grad: &mut [f64]) {
        for (g, &(j, inv_r)) in grad.iter_mut().zip(self.links) {
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

    let fixed = build_cells(net, phase1)
        .iter()
        .map(|c| (c.users() as f64, c.harmonic_weight()))
        .collect();
    let U2Table {
        supports,
        links,
        x0,
    } = U2Table::new(net, &u2);
    let mut objective = Phase2Objective::new(fixed, &links);
    let report = config.solver.maximize(&mut objective, x0, supports)?;

    // Theorem-3 integral extraction: each user snaps to its largest
    // fractional coordinate (a tie goes to the higher extender), read in
    // place from the packed iterate...
    let mut association = phase1.clone();
    for (k, &i) in u2.iter().enumerate() {
        let row = report.row(k);
        let best = (0..row.len())
            .max_by(|&a, &b| row[a].partial_cmp(&row[b]).expect("finite x"))
            .expect("validated users reach at least one extender");
        association.assign(i, report.supports.row(k)[best]);
    }
    // ...then a discrete coordinate-ascent polish removes any extraction
    // loss (Theorem 3 guarantees an integral optimum exists).
    polish(net, &mut association, &u2, &report.supports, &links, config);

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

    let table = U2Table::new(net, &u2);
    let mut cells = build_cells(net, &association);
    for (k, &i) in u2.iter().enumerate() {
        let mut best: Option<(usize, f64, f64)> = None;
        for &(j, inv_r) in &table.links[table.supports.span(k)] {
            let gain =
                cells[j].aggregate_if_joined_inverse(inv_r).value() - cells[j].aggregate().value();
            if best.is_none_or(|(_, _, g)| gain > g) {
                best = Some((j, inv_r, gain));
            }
        }
        let (j, inv_r, _) = best.expect("validated users reach at least one extender");
        cells[j].join_inverse(inv_r);
        association.assign(i, j);
    }
    polish(
        net,
        &mut association,
        &u2,
        &table.supports,
        &table.links,
        config,
    );

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

/// Phase II's packed table, built in one pass over the `U2` users' rate
/// rows: row `k` lists user `u2[k]`'s reachable extenders (the row's
/// support, ascending), each with `1 / r`, and the uniform start point
/// over them. The solve, the extraction and the polish all read it; no
/// later step looks a rate up again.
struct U2Table {
    supports: Supports,
    /// Each packed entry's extender `j` and `1 / r_{user, j}`.
    links: Vec<(usize, f64)>,
    /// The packed start point: `1 / reachable` on each row's entries.
    x0: Vec<f64>,
}

impl U2Table {
    fn new(net: &Network, u2: &[usize]) -> Self {
        let n_ext = net.extenders();
        let capacity = u2.len() * n_ext;
        let mut coords = Vec::with_capacity(capacity);
        let mut starts = Vec::with_capacity(u2.len() + 1);
        let mut links: Vec<(usize, f64)> = Vec::with_capacity(capacity);
        let mut x0 = Vec::with_capacity(capacity);
        starts.push(0);
        for &i in u2 {
            let first = links.len();
            for (j, r) in net.links(i) {
                coords.push(j);
                links.push((j, 1.0 / r.value()));
            }
            let reachable = (links.len() - first) as f64;
            x0.resize(links.len(), 1.0 / reachable);
            starts.push(links.len());
        }
        Self {
            supports: Supports::from_packed(n_ext, coords, starts),
            links,
            x0,
        }
    }
}

/// The polish's cells: each extender's [`CellLoad`] (member count and
/// harmonic weight Σ 1/r) and its cached aggregate, so that scoring a
/// candidate costs one join term, from the table's cached `1 / r`.
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

    /// The change in extender `j`'s aggregate if a member of inverse rate
    /// `inv_r` left.
    fn leave_delta(&self, j: usize, inv_r: f64) -> f64 {
        self.loads[j].aggregate_if_left_inverse(inv_r).value() - self.aggregate[j]
    }

    /// The change in extender `j`'s aggregate if a user of inverse rate
    /// `inv_r` joined.
    fn join_delta(&self, j: usize, inv_r: f64) -> f64 {
        self.loads[j].aggregate_if_joined_inverse(inv_r).value() - self.aggregate[j]
    }

    /// Moves a user from extender `from` (at inverse rate `from_inv`) to
    /// `to` (at `to_inv`).
    fn apply(&mut self, from: usize, from_inv: f64, to: usize, to_inv: f64) {
        self.loads[from].leave_inverse(from_inv);
        self.loads[to].join_inverse(to_inv);
        self.aggregate[from] = self.loads[from].aggregate().value();
        self.aggregate[to] = self.loads[to].aggregate().value();
    }
}

/// Discrete coordinate ascent: move one user of `movable` at a time to
/// the extender that most improves Σ_j T_wifi(j), until a full pass
/// finds no move worth more than `polish_tol` (or the pass budget runs
/// out). Row `k` of `supports` spans `movable[k]`'s entries of `links`:
/// its reachable extenders with their `1 / r`, as [`U2Table`] packs them.
///
/// A candidate's score is the user's leave term, computed once per user
/// and pass, plus the candidate's join term, both from [`PolishCells`]
/// and the links' cached `1 / r`. No PLC allocation is involved: the
/// polish ranks the WiFi-side objective only. Moves into a cell at its
/// user limit are skipped; a start that already breaks a limit is
/// polished as it is and left for the caller to repair. Candidates and
/// moves are added to `core.incremental_probes` and
/// `core.incremental_applies` once per polish.
fn polish(
    net: &Network,
    assoc: &mut Association,
    movable: &[usize],
    supports: &Supports,
    links: &[(usize, f64)],
    config: &Phase2Config,
) {
    let mut cells = PolishCells::new(net, assoc);
    let (mut rounds, mut probes, mut applies) = (0u64, 0u64, 0u64);
    for _ in 0..config.polish_passes {
        rounds += 1;
        let mut improved = false;
        for (k, &i) in movable.iter().enumerate() {
            let row = &links[supports.span(k)];
            let current = assoc.target(i).expect("movable users are assigned");
            let &(_, current_inv) = row
                .iter()
                .find(|&&(j, _)| j == current)
                .expect("associated links are reachable");
            let leave = cells.leave_delta(current, current_inv);
            let mut best: Option<(usize, f64, f64)> = None;
            for &(j, inv_r) in row {
                if j == current {
                    continue;
                }
                probes += 1;
                if net
                    .user_limit(j)
                    .is_some_and(|limit| cells.loads[j].users() >= limit)
                {
                    continue; // full cell — inadmissible candidate
                }
                let delta = leave + cells.join_delta(j, inv_r);
                if delta > config.polish_tol && best.is_none_or(|(_, _, d)| delta > d) {
                    best = Some((j, inv_r, delta));
                }
            }
            if let Some((j, inv_r, _)) = best {
                cells.apply(current, current_inv, j, inv_r);
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
        for k in 0..report.supports.rows() {
            let row = report.row(k);
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
        let users: Vec<usize> = (0..net.users()).collect();
        let table = U2Table::new(&net, &users);
        let cells = PolishCells::new(&net, &assoc);
        let before = wifi_objective(&net, &assoc);
        for user in users {
            let row = &table.links[table.supports.span(user)];
            let current = assoc.target(user).unwrap();
            let &(_, current_inv) = row.iter().find(|&&(j, _)| j == current).unwrap();
            for &(j, inv_r) in row {
                if j == current {
                    continue;
                }
                // The score `polish` ranks, from the packed table's 1/r.
                let delta = cells.leave_delta(current, current_inv) + cells.join_delta(j, inv_r);
                let mut moved = assoc.clone();
                moved.assign(user, j);
                let direct = wifi_objective(&net, &moved) - before;
                assert!(
                    (delta - direct).abs() < 1e-9,
                    "user {user} -> {j}: delta {delta}, direct {direct}"
                );

                // Applying the move leaves the moved association's cells.
                let mut applied = PolishCells::new(&net, &assoc);
                applied.apply(current, current_inv, j, inv_r);
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
