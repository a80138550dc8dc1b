//! A registered agent may speak only for its own client. One that names
//! another client — in a scan report, a departure notice, or a directive
//! ack — loses its connection like any agent that breaks the protocol,
//! and the session carries on without it: the daemon neither panics on
//! the foreign index nor lets one agent ack another's directive. One that
//! answers for its own client with an epoch from the future is ignored,
//! so it cannot push the honest answers below the epoch watermark.

use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::Duration;

use wolt_daemon::{run_agent, wire, Daemon, DaemonConfig, DaemonOutcome, Envelope};
use wolt_testbed::protocol::{ToAgent, ToController};
use wolt_testbed::{ControllerPolicy, SessionEvent};
use wolt_tests::lab_scenario;
use wolt_units::Mbps;

const ROGUE: usize = 1;
const FOREIGN: usize = 99;

/// Builds the rogue's answer to the join of the given epoch.
type Forge = fn(u64) -> ToController;

/// Handshakes as [`ROGUE`], then answers every join with `forge`'s
/// message; returns once the daemon dismisses it or closes the
/// connection.
fn rogue_agent(addr: SocketAddr, forge: Forge) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    wire::send(
        &mut stream,
        &Envelope::Hello {
            client: ROGUE,
            name: "rogue".into(),
            site: None,
        },
    )
    .expect("hello");
    assert!(matches!(
        wire::recv(&mut stream),
        Ok(Some(Envelope::HelloAck { .. }))
    ));
    loop {
        match wire::recv(&mut stream) {
            Ok(Some(Envelope::Agent(ToAgent::Join { epoch, .. }))) => {
                // The daemon may already have hung up.
                let _ = wire::send(&mut stream, &Envelope::Ctrl(forge(epoch)));
            }
            Ok(Some(Envelope::Agent(ToAgent::Shutdown))) => return,
            Ok(Some(_)) => {}
            Ok(None) | Err(_) => return,
        }
    }
}

#[test]
fn an_agent_naming_another_client_is_cut_off_and_the_session_goes_on() {
    let forgeries: [(&str, Forge); 3] = [
        ("report", |epoch| ToController::Report {
            client: FOREIGN,
            epoch,
            rates: vec![None; 3],
            attached: 0,
        }),
        ("departure", |epoch| ToController::Departed {
            client: FOREIGN,
            epoch,
        }),
        ("ack", |_| ToController::Ack {
            client: FOREIGN,
            seq: 0,
            extender: 0,
        }),
    ];
    for (kind, forge) in forgeries {
        let outcome = session(
            vec![SessionEvent::Join(0), SessionEvent::Join(ROGUE)],
            forge,
        )
        .unwrap_or_else(|e| panic!("{kind}: {e}"));
        let report = &outcome.report;
        assert!(outcome.completed, "{kind}: session did not complete");
        assert_eq!(report.unresponsive, vec![ROGUE], "{kind}");
        assert_eq!(report.survivors, vec![0], "{kind}");
        assert!(
            report.outcome.association.target(0).is_some(),
            "{kind}: the honest client was not served"
        );
    }
}

#[test]
fn a_report_from_the_future_cannot_wedge_the_honest_clients() {
    // The rogue joins first and answers for itself, a million epochs
    // ahead. Planned, that report would make client 0's honest report
    // for epoch 1 a duplicate, and client 0 would end unresponsive.
    let outcome = session(
        vec![SessionEvent::Join(ROGUE), SessionEvent::Join(0)],
        |epoch| ToController::Report {
            client: ROGUE,
            epoch: epoch + 1_000_000,
            rates: vec![Some(Mbps::new(20.0)); 3],
            attached: 0,
        },
    )
    .expect("session");
    let report = &outcome.report;
    assert!(outcome.completed, "session did not complete");
    assert_eq!(report.unresponsive, vec![ROGUE]);
    assert_eq!(report.survivors, vec![0]);
    assert!(
        report.outcome.association.target(0).is_some(),
        "the honest client was not served"
    );
}

/// Runs `events` on a two-user lab site with an honest agent for client
/// 0 and the rogue, which answers every join with `forge`'s message.
fn session(events: Vec<SessionEvent>, forge: Forge) -> Result<DaemonOutcome, String> {
    let scenario = lab_scenario(2, 42);
    let mut config = DaemonConfig::new(ControllerPolicy::Wolt);
    config.deadlines.event = Duration::from_millis(500);
    config.deadlines.event_attempts = 2;
    let daemon = Daemon::bind("127.0.0.1:0", scenario.clone(), events, config).expect("bind");
    let addr = daemon.local_addr().expect("bound address");
    let honest = thread::spawn(move || run_agent(addr, &scenario, 0, "honest"));
    let rogue = thread::spawn(move || rogue_agent(addr, forge));

    let outcome = daemon.run().map_err(|e| e.to_string())?;
    honest
        .join()
        .expect("honest agent thread")
        .map_err(|e| format!("honest agent: {e}"))?;
    rogue.join().expect("rogue agent thread");
    Ok(outcome)
}
