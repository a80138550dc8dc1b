//! The Phase II line search's work, pinned at enterprise scale.
//!
//! On the two sites `phase2_golden` pins, every line search evaluates
//! one trial, its first (at the configured step in the first iteration,
//! at the spectral step after it): no search backtracks. These pins
//! count the trial points the line searches evaluated, one objective
//! evaluation each, and check that `Wolt::associate_detailed` adds them
//! to the `core.phase2_trials` counter. They also pin the discrete
//! polish's work per solve: the candidates it scored
//! (`core.incremental_probes`), the moves it applied
//! (`core.incremental_applies`) and its passes (`core.polish_rounds`),
//! for the NLP Phase II and for the greedy one, whose polish moves users.
//!
//! The obs registry is process-wide, so this binary holds this one test
//! and nothing else moves its counters.

use wolt_core::{Phase2Solver, Wolt};
use wolt_support::obs;
use wolt_tests::enterprise_network;

const USERS: usize = 200;

/// The counters' moves across one `associate_detailed` call.
fn polish_work(before: &obs::ObsSnapshot, after: &obs::ObsSnapshot) -> [u64; 3] {
    [
        "core.incremental_probes",
        "core.incremental_applies",
        "core.polish_rounds",
    ]
    .map(|name| after.counter(name) - before.counter(name))
}

#[test]
fn line_search_trials_are_pinned_and_counted() {
    obs::set_enabled(true);
    // (scenario seed, iterations, trials, [probes, applies, rounds]):
    // one trial per iteration; the polish then finds no move.
    for (seed, iterations, trials, work) in [(2, 3, 3, [1788, 0, 1]), (1, 6, 6, [2067, 0, 1])] {
        let net = enterprise_network(USERS, seed);
        let before = obs::snapshot();
        let (_, p2) = Wolt::new()
            .associate_detailed(&net)
            .expect("enterprise site solves");
        let after = obs::snapshot();
        let report = p2.fractional.expect("Phase II has users at this scale");
        assert!(report.converged, "seed {seed}");
        assert_eq!(report.iterations, iterations, "seed {seed}: iterations");
        assert_eq!(report.trials, trials, "seed {seed}: trials");
        assert_eq!(
            after.counter("core.phase2_trials") - before.counter("core.phase2_trials"),
            trials as u64,
            "seed {seed}: core.phase2_trials"
        );
        assert_eq!(polish_work(&before, &after), work, "seed {seed}: polish");
    }

    // The greedy Phase II's polish applies moves on the slow site.
    let net = enterprise_network(USERS, 1);
    let before = obs::snapshot();
    Wolt::new()
        .with_phase2_solver(Phase2Solver::Greedy)
        .associate_detailed(&net)
        .expect("enterprise site solves");
    let after = obs::snapshot();
    assert_eq!(polish_work(&before, &after), [4134, 3, 2], "greedy polish");
}
