//! Integration: stress the Central-Controller rig.
//!
//! The rig runs a controller and one agent per client on virtual time in
//! the calling thread; these tests push it harder than the 7-laptop paper
//! experiment — larger populations, interleaved join/leave storms, and
//! several rigs running concurrently on OS threads — to flush out stuck
//! sessions and cross-talk.

use wolt_sim::scenario::ScenarioConfig;
use wolt_sim::Scenario;
use wolt_support::rng::ChaCha8Rng;
use wolt_support::rng::SeedableRng;
use wolt_testbed::{run_rig, run_session, ControllerPolicy, RigConfig, SessionEvent};

fn scenario(users: usize, seed: u64) -> Scenario {
    let mut config = ScenarioConfig::lab(users);
    config.extenders = 4;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Scenario::generate(&config, &mut rng).expect("scenario generates")
}

#[test]
fn thirty_client_rig_completes() {
    let scenario = scenario(30, 1);
    let outcome =
        run_rig(&scenario, &RigConfig::new(ControllerPolicy::Wolt), 0).expect("rig completes");
    assert!(outcome.association.is_complete());
    assert!(outcome.aggregate > 0.0);
    assert_eq!(outcome.per_user.len(), 30);
}

#[test]
fn join_leave_storm_stays_consistent() {
    let scenario = scenario(12, 2);
    // Everyone joins; half leave; the leavers rejoin; a third leave again.
    let mut events: Vec<SessionEvent> = (0..12).map(SessionEvent::Join).collect();
    events.extend((0..6).map(SessionEvent::Leave));
    events.extend((0..6).map(SessionEvent::Join));
    events.extend((8..12).map(SessionEvent::Leave));
    let outcome = run_session(
        &scenario,
        &RigConfig::new(ControllerPolicy::Wolt),
        &events,
        0,
    )
    .expect("session completes");
    // Users 8..12 are absent, everyone else present.
    for i in 0..8 {
        assert!(outcome.association.target(i).is_some(), "user {i} missing");
    }
    for i in 8..12 {
        assert_eq!(outcome.association.target(i), None, "user {i} lingering");
    }
    assert!(outcome.aggregate > 0.0);
}

#[test]
fn concurrent_rigs_do_not_interfere() {
    // Several rigs (each with its own controller + agents) in parallel OS
    // threads must produce exactly what they produce in isolation.
    let expected: Vec<f64> = (0..4)
        .map(|seed| {
            run_rig(
                &scenario(8, seed),
                &RigConfig::new(ControllerPolicy::Wolt),
                0,
            )
            .expect("rig runs")
            .aggregate
        })
        .collect();

    let handles: Vec<_> = (0..4u64)
        .map(|seed| {
            std::thread::spawn(move || {
                run_rig(
                    &scenario(8, seed),
                    &RigConfig::new(ControllerPolicy::Wolt),
                    0,
                )
                .expect("rig runs")
                .aggregate
            })
        })
        .collect();
    for (seed, handle) in handles.into_iter().enumerate() {
        let got = handle.join().expect("thread completes");
        assert!(
            (got - expected[seed]).abs() < 1e-9,
            "seed {seed}: concurrent {got} vs isolated {}",
            expected[seed]
        );
    }
}

#[test]
fn repeated_sessions_are_reproducible() {
    let scenario = scenario(10, 5);
    let events: Vec<SessionEvent> = (0..10)
        .map(SessionEvent::Join)
        .chain([SessionEvent::Leave(3), SessionEvent::Leave(7)])
        .collect();
    let config = RigConfig::new(ControllerPolicy::Greedy);
    let a = run_session(&scenario, &config, &events, 9).expect("runs");
    let b = run_session(&scenario, &config, &events, 9).expect("runs");
    assert_eq!(a, b);
}
