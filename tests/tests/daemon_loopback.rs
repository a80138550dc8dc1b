//! End-to-end loopback tests for `wolt-daemon`: the networked Central
//! Controller must be *indistinguishable* from the in-process rig.
//!
//! The acceptance bar is byte-identity: a clean TCP session over
//! 127.0.0.1 must produce a [`SessionReport`] whose canonical rendering
//! equals the in-process [`run_faulty_session`] outcome for the same
//! (scenario, seed, policy) — and a daemon killed mid-session must
//! restore from its snapshot and finish with that same report, issuing
//! no extra directives for work already done.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::thread;

use wolt_daemon::{run_agent, Daemon, DaemonConfig, DaemonOutcome};
use wolt_sim::scenario::ScenarioConfig;
use wolt_sim::Scenario;
use wolt_support::rng::{ChaCha8Rng, SeedableRng};
use wolt_testbed::{
    run_faulty_session, ControllerPolicy, FaultPlan, RigConfig, SessionEvent, SessionReport,
};

const NOISE_SEED: u64 = 7;

fn lab_scenario(seed: u64) -> Scenario {
    let cfg = ScenarioConfig::lab(7);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Scenario::generate(&cfg, &mut rng).unwrap()
}

fn rig_reference(
    scenario: &Scenario,
    policy: ControllerPolicy,
    events: &[SessionEvent],
) -> SessionReport {
    run_faulty_session(
        scenario,
        &RigConfig::new(policy),
        events,
        NOISE_SEED,
        &FaultPlan::none(),
    )
    .unwrap()
}

/// Boots a daemon on a fresh loopback port, connects one agent thread
/// per scenario user, and runs the session to the end.
fn run_loopback(
    scenario: &Scenario,
    events: &[SessionEvent],
    config: DaemonConfig,
) -> DaemonOutcome {
    let daemon = Daemon::bind("127.0.0.1:0", scenario.clone(), events.to_vec(), config).unwrap();
    let addr: SocketAddr = daemon.local_addr().unwrap();
    let agents: Vec<_> = (0..scenario.user_positions.len())
        .map(|i| {
            let scenario = scenario.clone();
            thread::spawn(move || run_agent(addr, &scenario, i, &format!("laptop-{i}")))
        })
        .collect();
    let outcome = daemon.run().unwrap();
    for handle in agents {
        handle.join().unwrap().unwrap();
    }
    outcome
}

fn join_all(n: usize) -> Vec<SessionEvent> {
    (0..n).map(SessionEvent::Join).collect()
}

#[test]
fn loopback_session_is_byte_identical_to_in_process_rig() {
    // The paper's lab shape: 3 extenders, 7 laptops.
    let scenario = lab_scenario(42);
    assert_eq!(scenario.extender_positions.len(), 3);
    let events = join_all(7);
    for policy in [
        ControllerPolicy::Wolt,
        ControllerPolicy::Greedy,
        ControllerPolicy::Rssi,
    ] {
        let reference = rig_reference(&scenario, policy, &events);
        let mut config = DaemonConfig::new(policy);
        config.noise_seed = NOISE_SEED;
        let outcome = run_loopback(&scenario, &events, config);
        assert!(outcome.completed, "{policy:?} session did not complete");
        assert_eq!(
            outcome.report.canonical(),
            reference.canonical(),
            "daemon diverged from the rig under {policy:?}"
        );
    }
}

#[test]
fn loopback_churn_session_matches_rig() {
    let scenario = lab_scenario(3);
    let mut events = join_all(7);
    events.push(SessionEvent::Leave(2));
    events.push(SessionEvent::Leave(5));
    events.push(SessionEvent::Join(2));
    let reference = rig_reference(&scenario, ControllerPolicy::Wolt, &events);
    let mut config = DaemonConfig::new(ControllerPolicy::Wolt);
    config.noise_seed = NOISE_SEED;
    let outcome = run_loopback(&scenario, &events, config);
    assert!(outcome.completed);
    assert_eq!(outcome.report.canonical(), reference.canonical());
}

#[test]
fn snapshot_restore_resumes_with_no_resolve_regression() {
    let scenario = lab_scenario(11);
    let mut events = join_all(7);
    events.push(SessionEvent::Leave(1));
    events.push(SessionEvent::Leave(4));
    let reference = rig_reference(&scenario, ControllerPolicy::Wolt, &events);

    let snap_dir: PathBuf =
        std::env::temp_dir().join(format!("wolt-daemon-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&snap_dir);

    // First incarnation: dies (gracefully, but mid-session) after five
    // completed epochs, leaving its generational store behind.
    let mut config = DaemonConfig::new(ControllerPolicy::Wolt);
    config.noise_seed = NOISE_SEED;
    config.snapshot_dir = Some(snap_dir.clone());
    config.stop_after = Some(5);
    let first = run_loopback(&scenario, &events, config);
    assert!(!first.completed);
    assert_eq!(first.epochs_done, 5);

    // Second incarnation: restores the newest generation, hands
    // reconnecting agents their saved attachments, and resumes at
    // epoch 5.
    let mut config = DaemonConfig::new(ControllerPolicy::Wolt);
    config.noise_seed = NOISE_SEED;
    config.snapshot_dir = Some(snap_dir.clone());
    let second = run_loopback(&scenario, &events, config);
    std::fs::remove_dir_all(&snap_dir).unwrap();

    assert!(second.completed);
    assert_eq!(second.epochs_done, events.len());
    // Byte-identical outcome, and no re-solve regression: the resumed
    // run issues exactly as many directives as an uninterrupted one
    // (canonical() covers the directive count, but assert it explicitly
    // since it is the acceptance criterion).
    assert_eq!(second.report.canonical(), reference.canonical());
    assert_eq!(
        second.report.outcome.directives,
        reference.outcome.directives
    );
}

/// The newest snapshot generation inside a store directory.
fn newest_generation(dir: &std::path::Path) -> PathBuf {
    std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|entry| {
            let name = entry.unwrap().file_name().into_string().ok()?;
            let generation: u64 = name
                .strip_prefix("snapshot.")?
                .strip_suffix(".json")?
                .parse()
                .ok()?;
            Some((generation, dir.join(name)))
        })
        .max_by_key(|(generation, _)| *generation)
        .expect("store has at least one generation")
        .1
}

#[test]
fn torn_newest_generation_rolls_back_and_still_matches_the_rig() {
    let scenario = lab_scenario(23);
    let mut events = join_all(7);
    events.push(SessionEvent::Leave(0));
    events.push(SessionEvent::Leave(6));
    let reference = rig_reference(&scenario, ControllerPolicy::Wolt, &events);

    let snap_dir: PathBuf =
        std::env::temp_dir().join(format!("wolt-daemon-torn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&snap_dir);

    let mut config = DaemonConfig::new(ControllerPolicy::Wolt);
    config.noise_seed = NOISE_SEED;
    config.snapshot_dir = Some(snap_dir.clone());
    config.stop_after = Some(6);
    let first = run_loopback(&scenario, &events, config);
    assert_eq!(first.epochs_done, 6);

    // Simulate the crash the mid-write chaos point produces: the newest
    // generation is torn in half. The restarted daemon must silently
    // roll back one generation (epoch 5) and *replay* epoch 6 — and the
    // replay must be byte-identical, because the snapshot carries
    // complete decision state.
    let newest = newest_generation(&snap_dir);
    let bytes = std::fs::read(&newest).unwrap();
    std::fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();

    let mut config = DaemonConfig::new(ControllerPolicy::Wolt);
    config.noise_seed = NOISE_SEED;
    config.snapshot_dir = Some(snap_dir.clone());
    let second = run_loopback(&scenario, &events, config);
    std::fs::remove_dir_all(&snap_dir).unwrap();

    assert!(second.completed);
    assert_eq!(second.report.canonical(), reference.canonical());
    assert_eq!(
        second.report.outcome.directives,
        reference.outcome.directives
    );
}

#[test]
fn operator_stop_envelope_halts_the_daemon_gracefully() {
    use wolt_daemon::wire::FleetOp;
    use wolt_daemon::{wire, Envelope};
    use wolt_testbed::TopologyOutcome;

    let scenario = lab_scenario(5);
    let events = join_all(7);
    let daemon = Daemon::bind(
        "127.0.0.1:0",
        scenario.clone(),
        events,
        DaemonConfig::new(ControllerPolicy::Rssi),
    )
    .unwrap();
    let addr = daemon.local_addr().unwrap();
    let agents: Vec<_> = (0..7)
        .map(|i| {
            let scenario = scenario.clone();
            thread::spawn(move || run_agent(addr, &scenario, i, "agent"))
        })
        .collect();
    // A bare control connection sends the stop request before the
    // session can finish all events (it may land at any epoch — the
    // assertion is only that the daemon exits cleanly and reports an
    // honest `completed` flag). It waits until the anonymous site reads
    // `running` — every agent registered — so no agent can arrive after
    // the stop; if the session is already over, there is nothing to stop.
    let ctl = thread::spawn(move || {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        loop {
            wire::send(&mut stream, &Envelope::Fleet(FleetOp::Status)).unwrap();
            match wire::recv(&mut stream) {
                Ok(Some(Envelope::FleetStatus { sites })) if sites[0].state == "waiting" => {}
                Ok(Some(Envelope::FleetStatus { sites })) if sites[0].state == "running" => break,
                _ => return,
            }
        }
        wire::send(
            &mut stream,
            &Envelope::Shutdown {
                reason: "test operator".into(),
            },
        )
        .unwrap();
    });
    let outcome = daemon.run().unwrap();
    ctl.join().unwrap();
    for handle in agents {
        handle.join().unwrap().unwrap();
    }
    let TopologyOutcome { ref policy, .. } = outcome.report.outcome;
    assert_eq!(policy, "RSSI");
    assert!(outcome.epochs_done <= 7);
    assert_eq!(outcome.completed, outcome.epochs_done == 7);
}

#[test]
fn live_daemon_answers_metrics_envelope_over_the_wire() {
    use std::net::TcpStream;
    use std::time::{Duration, Instant};
    use wolt_daemon::{wire, Envelope};
    use wolt_support::obs::ObsSnapshot;

    let scenario = lab_scenario(42);
    let events = join_all(7);
    let mut config = DaemonConfig::new(ControllerPolicy::Wolt);
    config.noise_seed = NOISE_SEED;
    // Keep the listener serving metrics queries for a beat after the
    // last event, so the poller deterministically observes the finished
    // session even if it connects late.
    config.linger = Duration::from_millis(1500);
    let daemon = Daemon::bind("127.0.0.1:0", scenario.clone(), events, config).unwrap();
    let addr: SocketAddr = daemon.local_addr().unwrap();

    let agents: Vec<_> = (0..7)
        .map(|i| {
            let scenario = scenario.clone();
            thread::spawn(move || run_agent(addr, &scenario, i, &format!("laptop-{i}")))
        })
        .collect();

    // A control connection polling the live daemon until the counters
    // show real work. Several requests ride the same connection — the
    // daemon must keep a control channel open across replies.
    let poller = thread::spawn(move || -> ObsSnapshot {
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut stream = loop {
            match TcpStream::connect(addr) {
                Ok(s) => break s,
                Err(e) if Instant::now() < deadline => {
                    let _ = e;
                    thread::sleep(Duration::from_millis(20));
                }
                Err(e) => panic!("could not reach the daemon: {e}"),
            }
        };
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        loop {
            wire::send(&mut stream, &Envelope::MetricsRequest).expect("metrics request sends");
            match wire::recv(&mut stream).expect("metrics reply arrives") {
                Some(Envelope::Metrics { metrics }) => {
                    if metrics.counter("core.solves") > 0 && metrics.counter("cc.directives") > 0 {
                        return metrics;
                    }
                    assert!(
                        Instant::now() < deadline,
                        "daemon never reported a non-zero solve count; last snapshot: {metrics:?}"
                    );
                    thread::sleep(Duration::from_millis(50));
                }
                other => panic!("expected a metrics reply, got {other:?}"),
            }
        }
    });

    let outcome = daemon.run().unwrap();
    let live = poller.join().expect("metrics poller");
    for handle in agents {
        handle.join().unwrap().unwrap();
    }

    assert!(outcome.completed);
    // The live snapshot saw a working controller: frames flowed both
    // ways and the wire answered at least one metrics request (its own).
    assert!(live.counter("daemon.frames_in") > 0);
    assert!(live.counter("daemon.frames_out") > 0);
    assert!(live.counter("daemon.bytes_in") > 0);
    assert!(live.counter("daemon.metrics_requests") > 0);
}
