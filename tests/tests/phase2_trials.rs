//! The Phase II line search's work, pinned at enterprise scale.
//!
//! On the two sites `phase2_golden` pins, every solve ends at a
//! stationary iterate: its last full-step trial is rejected without
//! moving, and the solve stops there instead of backtracking. These pins
//! count the trial points the line searches evaluated, one objective
//! evaluation each, and check that `Wolt::associate_detailed` adds them
//! to the `core.phase2_trials` counter.
//!
//! The obs registry is process-wide, so this binary holds this one test
//! and nothing else moves its counters.

use wolt_core::Wolt;
use wolt_support::obs;
use wolt_tests::enterprise_network;

const USERS: usize = 200;

#[test]
fn line_search_trials_are_pinned_and_counted() {
    obs::set_enabled(true);
    // (scenario seed, iterations, trials): every iteration but the last
    // accepts its full step, and the last rejects it as stationary.
    for (seed, iterations, trials) in [(2, 6, 6), (1, 78, 78)] {
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
    }
}
