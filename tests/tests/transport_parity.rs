//! Counter parity across transports: the in-process rig and the TCP
//! daemon drive the same session driver, so the same session must move
//! the same protocol counters on both — including on the failure path,
//! where a client never acks and is declared dead.
//!
//! Counters are process-global, so the tests in this binary serialize on
//! one lock and reset the registry before each measured session.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::thread;
use std::time::Duration;

use wolt_daemon::{run_agent, wire, Daemon, DaemonConfig, Envelope};
use wolt_sim::Scenario;
use wolt_support::obs;
use wolt_testbed::protocol::ToAgent;
use wolt_testbed::{
    run_faulty_session, AgentState, ControllerPolicy, Deadlines, FaultPlan, RigConfig,
    SessionEvent, SessionReport,
};
use wolt_tests::lab_scenario;

const SCENARIO_SEED: u64 = 42;
const NOISE_SEED: u64 = 0;
const USERS: usize = 7;
/// The client that never acks: WOLT moves it in this scenario, so it is
/// sent a directive (see `testbed_faults`).
const WEDGED: usize = 1;

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn all_join() -> Vec<SessionEvent> {
    (0..USERS).map(SessionEvent::Join).collect()
}

/// A 250 ms base ack deadline (capped at 200 ms per attempt) so that a
/// busy scheduler cannot trip a retransmission the session did not ask
/// for: every retry counted below is forced by a silent client.
fn wide_deadlines() -> Deadlines {
    Deadlines {
        ack: Duration::from_millis(250),
        ..Deadlines::default()
    }
}

/// The nonzero `cc.*`, `core.*` and `harness.*` counters.
fn protocol_counters() -> BTreeMap<String, u64> {
    obs::snapshot()
        .counters
        .into_iter()
        .filter(|(name, v)| {
            *v > 0
                && ["cc.", "core.", "harness."]
                    .iter()
                    .any(|p| name.starts_with(p))
        })
        .collect()
}

fn counter(map: &BTreeMap<String, u64>, name: &str) -> u64 {
    map.get(name).copied().unwrap_or(0)
}

fn rig_session(
    policy: ControllerPolicy,
    deadlines: Deadlines,
    plan: &FaultPlan,
) -> (SessionReport, BTreeMap<String, u64>) {
    obs::reset();
    let config = RigConfig {
        deadlines,
        ..RigConfig::new(policy)
    };
    let report = run_faulty_session(
        &lab_scenario(USERS, SCENARIO_SEED),
        &config,
        &all_join(),
        NOISE_SEED,
        plan,
    )
    .expect("rig session completes");
    (report, protocol_counters())
}

/// An agent that handshakes and reports like any other but ignores
/// every directive: the daemon-side twin of the rig's wedged agent.
fn silent_agent(addr: SocketAddr, scenario: &Scenario, client: usize) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    wire::send(
        &mut stream,
        &Envelope::Hello {
            client,
            name: "silent".into(),
            site: None,
        },
    )
    .expect("hello");
    assert!(matches!(
        wire::recv(&mut stream),
        Ok(Some(Envelope::HelloAck { .. }))
    ));
    let mut agent = AgentState::new(scenario, client);
    loop {
        match wire::recv(&mut stream) {
            Ok(Some(Envelope::Agent(ToAgent::Shutdown))) | Ok(None) | Err(_) => return,
            Ok(Some(Envelope::Agent(cmd))) => {
                if let Some(reply) = agent.command(&cmd) {
                    wire::send(&mut stream, &Envelope::Ctrl(reply)).expect("report");
                }
            }
            Ok(Some(_)) => {}
        }
    }
}

fn daemon_session(
    policy: ControllerPolicy,
    deadlines: Deadlines,
    silent: Option<usize>,
) -> (SessionReport, BTreeMap<String, u64>) {
    obs::reset();
    let scenario = lab_scenario(USERS, SCENARIO_SEED);
    let mut config = DaemonConfig::new(policy);
    config.noise_seed = NOISE_SEED;
    config.deadlines = deadlines;
    let daemon = Daemon::bind("127.0.0.1:0", scenario.clone(), all_join(), config).expect("bind");
    let addr = daemon.local_addr().expect("bound address");
    let agents: Vec<_> = (0..USERS)
        .map(|i| {
            let scenario = scenario.clone();
            thread::spawn(move || {
                if silent == Some(i) {
                    silent_agent(addr, &scenario, i);
                } else {
                    run_agent(addr, &scenario, i, &format!("laptop-{i}")).expect("agent exits");
                }
            })
        })
        .collect();
    let outcome = daemon.run().expect("daemon session runs");
    for agent in agents {
        agent.join().expect("agent thread");
    }
    assert!(outcome.completed, "daemon session did not complete");
    (outcome.report, protocol_counters())
}

#[test]
fn a_client_that_never_acks_moves_the_same_counters_on_both_transports() {
    let _guard = lock();
    let plan = FaultPlan {
        wedged: vec![WEDGED],
        ..FaultPlan::none()
    };
    let (rig, rig_counters) = rig_session(ControllerPolicy::Wolt, wide_deadlines(), &plan);
    let (daemon, daemon_counters) =
        daemon_session(ControllerPolicy::Wolt, wide_deadlines(), Some(WEDGED));

    for (label, report, counters) in [
        ("rig", &rig, &rig_counters),
        ("daemon", &daemon, &daemon_counters),
    ] {
        assert_eq!(
            report.declared_dead,
            vec![WEDGED],
            "{label}: the silent client was not declared dead"
        );
        assert_eq!(
            report.retries as u64,
            counter(counters, "cc.retransmissions") + counter(counters, "harness.retransmissions"),
            "{label}: retries disagree with the retransmission counters"
        );
    }
    // Six transmissions of the silent client's directive: five
    // retransmissions, six expired deadlines, one dead declaration.
    assert_eq!(counter(&rig_counters, "cc.retransmissions"), 5);
    for name in [
        "cc.ack_timeouts",
        "cc.retransmissions",
        "cc.declared_dead",
        "cc.directives",
    ] {
        assert_eq!(
            counter(&rig_counters, name),
            counter(&daemon_counters, name),
            "{name} differs between the rig and the daemon"
        );
    }
}

#[test]
fn clean_lab_sessions_move_identical_counters_on_both_transports() {
    let _guard = lock();
    for policy in [
        ControllerPolicy::Wolt,
        ControllerPolicy::Greedy,
        ControllerPolicy::Rssi,
    ] {
        let (rig, rig_counters) = rig_session(policy, wide_deadlines(), &FaultPlan::none());
        let (daemon, daemon_counters) = daemon_session(policy, wide_deadlines(), None);
        assert_eq!(rig.canonical(), daemon.canonical(), "{}", policy.name());
        assert!(
            counter(&rig_counters, "cc.reports") > 0,
            "{}: nothing was counted",
            policy.name()
        );
        assert_eq!(
            rig_counters,
            daemon_counters,
            "{}: counter maps differ",
            policy.name()
        );
    }
}
