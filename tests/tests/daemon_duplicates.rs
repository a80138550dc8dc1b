//! Duplicate answers cost the controller nothing. An agent that sends
//! every scan report and departure twice leaves the session exactly as a
//! clean one: the second copy is at or below the epoch watermark, or
//! arrives while the first one's directive transaction is open, and the
//! driver drops both kinds. Below the driver, the session inbox hands
//! every report to the engine at most once, and lifecycle messages in
//! the order they were sent.

use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::Duration;

use wolt_daemon::{inbox, run_agent, wire, Daemon, DaemonConfig, Envelope};
use wolt_sim::Scenario;
use wolt_support::rng::{ChaCha8Rng, Rng, SeedableRng};
use wolt_testbed::protocol::{ToAgent, ToClient};
use wolt_testbed::{AgentState, ControllerPolicy, SessionEvent};
use wolt_tests::lab_scenario;

const USERS: usize = 7;

/// Serves one client like `run_agent`, but sends each answer to a join
/// or leave twice, back to back.
fn doubling_agent(addr: SocketAddr, scenario: &Scenario, client: usize) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    wire::send(
        &mut stream,
        &Envelope::Hello {
            client,
            name: format!("doubling-{client}"),
            site: None,
        },
    )
    .expect("hello");
    let Ok(Some(Envelope::HelloAck { attached })) = wire::recv(&mut stream) else {
        panic!("client {client}: no hello_ack");
    };
    let mut agent = AgentState::new(scenario, client);
    agent.reattach(attached);
    loop {
        let envelope = wire::recv(&mut stream)
            .unwrap_or_else(|e| panic!("client {client}: {e}"))
            .unwrap_or_else(|| panic!("client {client}: closed before the dismissal"));
        let (reply, copies) = match envelope {
            Envelope::Agent(ToAgent::Shutdown) => return,
            Envelope::Agent(cmd) => (agent.command(&cmd), 2),
            Envelope::Client(ToClient::Directive { extender, seq, .. }) => {
                (agent.directive(extender, seq), 1)
            }
            other => panic!("client {client}: unexpected {other:?}"),
        };
        let Some(reply) = reply else {
            continue;
        };
        for _ in 0..copies {
            wire::send(&mut stream, &Envelope::Ctrl(reply.clone())).expect("send");
        }
    }
}

/// Runs one loopback churn session, with every agent doubling its
/// answers or none, and returns the canonical report and the protocol
/// messages the daemon received.
fn session(doubling: bool) -> (String, usize) {
    let scenario = lab_scenario(USERS, 42);
    let mut events: Vec<SessionEvent> = (0..USERS).map(SessionEvent::Join).collect();
    events.extend([
        SessionEvent::Leave(3),
        SessionEvent::Join(3),
        SessionEvent::Leave(5),
    ]);
    let mut config = DaemonConfig::new(ControllerPolicy::Wolt);
    config.noise_seed = 7;
    let daemon = Daemon::bind("127.0.0.1:0", scenario.clone(), events, config).expect("bind");
    let addr = daemon.local_addr().expect("bound address");
    let agents: Vec<_> = (0..USERS)
        .map(|i| {
            let scenario = scenario.clone();
            thread::spawn(move || {
                if doubling {
                    doubling_agent(addr, &scenario, i);
                } else {
                    run_agent(addr, &scenario, i, &format!("clean-{i}")).expect("clean agent");
                }
            })
        })
        .collect();
    let outcome = daemon.run().expect("session");
    for agent in agents {
        agent.join().expect("agent thread");
    }
    assert!(outcome.completed);
    (outcome.report.canonical(), outcome.stats.msgs_in)
}

#[test]
fn agents_sending_every_answer_twice_leave_the_clean_session_unchanged() {
    let (doubled, doubled_msgs) = session(true);
    let (clean, clean_msgs) = session(false);
    assert!(doubled_msgs > clean_msgs, "{doubled_msgs} vs {clean_msgs}");
    assert_eq!(doubled, clean);
}

/// Session inbox traffic: scan reports (sheddable) and lifecycle
/// messages (never shed), each with a unique id in send order.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Msg {
    Report(u64),
    Lifecycle(u64),
}

fn is_report(m: &Msg) -> bool {
    matches!(m, Msg::Report(_))
}

/// One seeded run through a session inbox that interleaves sends and
/// receives, so the queue fills and drains in turn.
struct InboxRun {
    cap: usize,
    sent: Vec<Msg>,
    delivered: Vec<Msg>,
    shed: usize,
}

fn inbox_run(seed: u64) -> InboxRun {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5EDC0 ^ seed);
    // A bound of 0 is the unbounded inbox, which never sheds.
    let cap = rng.gen_range(0usize..=6);
    let (tx, rx) = inbox::channel::<Msg>(cap, is_report);
    let mut sent = Vec::new();
    let mut delivered = Vec::new();
    let mut shed = 0usize;
    for id in 0..80u64 {
        let msg = if rng.gen_bool(0.2) {
            Msg::Lifecycle(id)
        } else {
            Msg::Report(id)
        };
        sent.push(msg);
        if tx.send(msg).expect("receiver alive") {
            shed += 1;
        }
        // The engine takes a message now and then.
        if rng.gen_bool(0.3) {
            delivered.extend(rx.recv_timeout(Duration::ZERO).ok());
        }
    }
    drop(tx);
    delivered.extend(std::iter::from_fn(|| rx.recv_timeout(Duration::ZERO).ok()));
    InboxRun {
        cap,
        sent,
        delivered,
        shed,
    }
}

#[test]
fn every_report_is_shed_or_delivered_exactly_once() {
    for seed in 0..32u64 {
        let InboxRun {
            cap,
            sent,
            delivered,
            shed,
        } = inbox_run(seed);
        // Delivered messages keep their send order, so no report comes
        // twice; with the sheds they account for every report sent.
        assert!(
            delivered.windows(2).all(|w| id(w[0]) < id(w[1])),
            "seed {seed}: {delivered:?}"
        );
        let reports = |msgs: &[Msg]| msgs.iter().filter(|m| is_report(m)).count();
        assert_eq!(reports(&delivered) + shed, reports(&sent), "seed {seed}");
        if cap == 0 {
            assert_eq!(delivered, sent, "seed {seed}");
        }
    }
}

#[test]
fn lifecycle_messages_arrive_in_send_order() {
    let lifecycle =
        |msgs: &[Msg]| -> Vec<Msg> { msgs.iter().copied().filter(|m| !is_report(m)).collect() };
    for seed in 0..32u64 {
        let InboxRun {
            sent, delivered, ..
        } = inbox_run(seed);
        assert_eq!(lifecycle(&delivered), lifecycle(&sent), "seed {seed}");
    }
}

fn id(m: Msg) -> u64 {
    match m {
        Msg::Report(id) | Msg::Lifecycle(id) => id,
    }
}
