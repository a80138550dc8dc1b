//! The torn frame a crash mid-send leaves on the wire. DESIGN.md §10
//! says the `codec.write.mid_frame` crash point leaves the length prefix
//! written and the frame body cut. `wire::send` puts a whole frame out
//! in one write, so this pins that the armed point still writes the
//! prefix, and only the prefix, before the process dies.
//!
//! The test binary re-runs itself as one child with the point armed on
//! its first hit. The child sends one frame to a listener in the parent
//! and aborts; the parent reads what arrived and how the child died.

#![cfg(unix)]

use std::env;
use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::os::unix::process::ExitStatusExt;
use std::process::{Command, Stdio};
use std::time::Duration;

use wolt_daemon::wire::{self, CRASH_MID_FRAME};
use wolt_daemon::Envelope;
use wolt_support::crash::CRASH_ENV;
use wolt_testbed::protocol::ToController;
use wolt_units::Mbps;

/// Set only in the child: the parent's listening address.
const PEER_ENV: &str = "WIRE_TORN_FRAME_PEER";

/// The signal `std::process::abort` raises on Linux.
const SIGABRT: i32 = 6;

fn report() -> Envelope {
    Envelope::Ctrl(ToController::Report {
        client: 1,
        epoch: 4,
        rates: vec![Some(Mbps::new(54.0)), None],
        attached: 0,
    })
}

#[test]
fn a_crash_mid_frame_leaves_the_peer_exactly_the_length_prefix() {
    if let Ok(peer) = env::var(PEER_ENV) {
        let mut stream = TcpStream::connect(peer).expect("the parent listens");
        let _ = wire::send(&mut stream, &report());
        panic!("{CRASH_MID_FRAME} was armed on its first hit but did not fire");
    }

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let status = Command::new(env::current_exe().expect("the test binary's path"))
        .args([
            "a_crash_mid_frame_leaves_the_peer_exactly_the_length_prefix",
            "--exact",
            "--test-threads=1",
        ])
        .env(CRASH_ENV, format!("{CRASH_MID_FRAME}@1"))
        .env(PEER_ENV, listener.local_addr().unwrap().to_string())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("the child runs");
    assert_eq!(
        status.signal(),
        Some(SIGABRT),
        "the child must die by SIGABRT, not {status}"
    );

    // The child connected before it died, so its connection waits in the
    // backlog with whatever it wrote, then its end of stream.
    listener.set_nonblocking(true).unwrap();
    let (mut stream, _) = listener.accept().expect("the child connected");
    stream.set_nonblocking(false).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut received = Vec::new();
    stream
        .read_to_end(&mut received)
        .expect("the torn frame ends in EOF");
    let mut frame = Vec::new();
    wire::send(&mut frame, &report()).unwrap();
    assert_eq!(received, frame[..4], "the length prefix, and nothing else");
}
