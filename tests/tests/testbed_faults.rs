//! Integration: the resilient Central Controller under seeded fault
//! injection (lossy links, crashed and wedged agents).
//!
//! A lossy session with a crashed agent still terminates within its
//! deadline budget with every survivor associated and near-fault-free
//! throughput, and the canonical session report and its retry count are
//! identical across thread counts and repeated runs for a fixed
//! (scenario, seed, fault plan) — also when delays outlast the ack retry
//! budget.

use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use wolt_testbed::{
    run_faulty_session, ControllerPolicy, Deadlines, FaultPlan, LinkFaults, RigConfig,
    SessionEvent, SessionReport,
};
use wolt_tests::lab_scenario;

/// The acceptance fault plan: 20% drop both ways, some duplication,
/// delayed acks (well below the ack retry budget), one crashed agent.
fn lossy_plan() -> FaultPlan {
    FaultPlan {
        seed: 7,
        to_cc: LinkFaults {
            drop: 0.2,
            duplicate: 0.1,
            max_delay: Duration::from_millis(10),
        },
        to_client: LinkFaults {
            drop: 0.2,
            duplicate: 0.1,
            max_delay: Duration::from_millis(10),
        },
        crashed: vec![3],
        wedged: vec![],
    }
}

fn all_join(users: usize) -> Vec<SessionEvent> {
    (0..users).map(SessionEvent::Join).collect()
}

fn lab_report(plan: &FaultPlan) -> SessionReport {
    run_faulty_session(
        &lab_scenario(7, 42),
        &RigConfig::new(ControllerPolicy::Wolt),
        &all_join(7),
        0,
        plan,
    )
    .expect("session completes")
}

fn lossy_report() -> SessionReport {
    lab_report(&lossy_plan())
}

/// Runs `f` at `WOLT_THREADS` 1, 2 and 8, then restores the variable.
/// Callers take turns, since the variable is process-wide.
fn at_each_thread_count(mut f: impl FnMut(&str)) {
    static TURN: Mutex<()> = Mutex::new(());
    let _turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
    let original = std::env::var("WOLT_THREADS").ok();
    for threads in ["1", "2", "8"] {
        std::env::set_var("WOLT_THREADS", threads);
        f(threads);
    }
    match original {
        Some(v) => std::env::set_var("WOLT_THREADS", v),
        None => std::env::remove_var("WOLT_THREADS"),
    }
}

#[test]
fn lossy_session_with_crash_meets_acceptance_bar() {
    let start = Instant::now();
    let report = lossy_report();
    let elapsed = start.elapsed();

    // Terminates within the deadline budget, not a hang: 7 events at 2 s
    // each plus retry slack is far under this bound.
    assert!(
        elapsed < Duration::from_secs(30),
        "session took {elapsed:?}"
    );

    // The crash is accounted for and masked.
    assert_eq!(report.crashed, vec![3]);
    assert!(!report.survivors.contains(&3));
    assert_eq!(report.outcome.association.target(3), None);

    // Every surviving user ends the session associated.
    for &i in &report.survivors {
        assert!(
            report.outcome.association.target(i).is_some(),
            "survivor {i} left unassociated"
        );
    }

    // ≥ 90% of the fault-free aggregate over the same survivor set: the
    // reference plan crashes the same agent but loses no messages, so the
    // ratio isolates what message loss/delay/duplication cost.
    let reference = run_faulty_session(
        &lab_scenario(7, 42),
        &RigConfig::new(ControllerPolicy::Wolt),
        &all_join(7),
        0,
        &FaultPlan {
            crashed: vec![3],
            ..FaultPlan::none()
        },
    )
    .expect("reference session completes");
    assert_eq!(reference.survivors, report.survivors);
    assert!(
        report.outcome.aggregate >= 0.9 * reference.outcome.aggregate,
        "lossy aggregate {} below 90% of fault-free {}",
        report.outcome.aggregate,
        reference.outcome.aggregate
    );
}

#[test]
fn canonical_report_is_thread_count_invariant() {
    // The rig never consults the worker pool, and fault decisions are
    // keyed by message identity rather than drawn from a shared stream —
    // so WOLT_THREADS must not leak into the session outcome. This pins
    // that invariant as a regression guard.
    let baseline = lossy_report().canonical();
    at_each_thread_count(|threads| {
        let got = lossy_report().canonical();
        assert_eq!(
            got, baseline,
            "canonical report diverged at WOLT_THREADS={threads}"
        );
    });
}

#[test]
fn repeated_lossy_sessions_are_byte_identical() {
    let a = lossy_report();
    let b = lossy_report();
    assert_eq!(a.canonical(), b.canonical());
    // The full reports agree on everything canonical, and on the retry
    // count: the rig's clock is virtual, so retries replay too.
    assert_eq!(a.retries, b.retries);
    assert_eq!(a.outcome, b.outcome);
    assert_eq!(a.survivors, b.survivors);
    assert_eq!(a.declared_dead, b.declared_dead);
    assert_eq!(a.degraded_solves, b.degraded_solves);
}

#[test]
fn duplicate_heavy_plan_matches_fault_free_outcome() {
    // Duplication alone must be invisible: the CC dedups reports by epoch
    // and directives/acks by sequence number, so the outcome equals the
    // fault-free session's outcome exactly.
    let scenario = lab_scenario(7, 5);
    let config = RigConfig::new(ControllerPolicy::Wolt);
    let events = all_join(7);
    let plan = FaultPlan {
        seed: 11,
        to_cc: LinkFaults {
            drop: 0.0,
            duplicate: 0.8,
            max_delay: Duration::ZERO,
        },
        to_client: LinkFaults {
            drop: 0.0,
            duplicate: 0.8,
            max_delay: Duration::ZERO,
        },
        crashed: vec![],
        wedged: vec![],
    };
    let faulty = run_faulty_session(&scenario, &config, &events, 0, &plan).expect("runs");
    let clean =
        run_faulty_session(&scenario, &config, &events, 0, &FaultPlan::none()).expect("runs");
    assert_eq!(faulty.outcome, clean.outcome);
    assert!(faulty.declared_dead.is_empty());
    assert_eq!(faulty.degraded_solves, 0);
}

#[test]
fn wedged_agent_is_declared_dead_and_survivors_recover() {
    // A wedged agent keeps reporting but never acks a directive: once the
    // CC directs it, the ack retry budget expires and the client is
    // declared dead; the survivors are then re-optimized. Short ack
    // deadlines keep the test fast without touching the decision logic.
    let config = RigConfig {
        deadlines: Deadlines {
            ack: Duration::from_millis(5),
            ack_attempts: 4,
            ack_backoff_cap: Duration::from_millis(20),
            ..Deadlines::default()
        },
        ..RigConfig::new(ControllerPolicy::Wolt)
    };
    // Seed chosen so WOLT moves the wedged client off its RSSI default
    // (i.e. actually sends it a directive).
    let report = run_faulty_session(
        &lab_scenario(7, 42),
        &config,
        &all_join(7),
        0,
        &FaultPlan {
            wedged: vec![1],
            ..FaultPlan::none()
        },
    )
    .expect("session completes");
    assert_eq!(report.wedged, vec![1]);
    assert!(
        report.declared_dead.contains(&1),
        "wedged client never declared dead: {report:?}"
    );
    assert!(!report.survivors.contains(&1));
    assert_eq!(report.outcome.association.target(1), None);
    for &i in &report.survivors {
        assert!(
            report.outcome.association.target(i).is_some(),
            "survivor {i} stranded after dead declaration"
        );
    }
    assert!(report.outcome.aggregate > 0.0);
    assert!(report.retries > 0, "dead declaration implies retries");
}

#[test]
fn acks_later_than_the_ack_budget_replay_exactly() {
    // CC → client delays of up to 1.5 s outlast a directive's whole ack
    // retry budget (25 + 50 + 100 + 200 + 200 + 200 = 775 ms at the
    // default deadlines): the directed client applies the directive and
    // acks it only after the CC has declared it dead. The session is
    // still a pure function of its inputs, retries included.
    let plan = FaultPlan {
        seed: 5,
        to_cc: LinkFaults {
            drop: 0.0,
            duplicate: 0.0,
            max_delay: Duration::from_millis(50),
        },
        to_client: LinkFaults {
            drop: 0.0,
            duplicate: 0.0,
            max_delay: Duration::from_millis(1500),
        },
        crashed: vec![],
        wedged: vec![],
    };
    let baseline = lab_report(&plan);
    assert_eq!(baseline.declared_dead, vec![1], "{baseline:?}");
    assert!(
        baseline.survivors.contains(&1),
        "the live client stays in the session"
    );
    assert_eq!(baseline.retries, 5);
    let again = lab_report(&plan);
    assert_eq!(again.canonical(), baseline.canonical());
    assert_eq!(again.retries, baseline.retries);
    at_each_thread_count(|threads| {
        let got = lab_report(&plan);
        assert_eq!(
            got.canonical(),
            baseline.canonical(),
            "canonical report diverged at WOLT_THREADS={threads}"
        );
        assert_eq!(
            got.retries, baseline.retries,
            "retries diverged at WOLT_THREADS={threads}"
        );
    });
}
