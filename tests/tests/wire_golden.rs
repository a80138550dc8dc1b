//! Pins the daemon's wire bytes. Each case is one envelope and the exact
//! frame it must encode to: a 4-byte big-endian length prefix, then the
//! compact JSON body written out literally below. Every envelope tag,
//! every nested protocol message and every fleet op appears at least
//! once, plus a hostile string and a rate with no short decimal form.
//!
//! A frame that changes here is a wire-format change: agents and
//! operators built against the old bytes stop understanding the daemon.

use std::collections::BTreeSet;

use wolt_daemon::wire::{FleetOp, SiteSpec, SiteStatus};
use wolt_daemon::{wire, Envelope};
use wolt_support::obs::{HistogramSnapshot, ObsSnapshot};
use wolt_testbed::protocol::{ToAgent, ToClient, ToController};
use wolt_units::Mbps;

/// Control characters, a quote, a backslash, the escape look-alike
/// `\u0041` (which must come through as six literal characters), DEL
/// (sent raw) and an astral-plane character (sent as UTF-8, not as a
/// surrogate pair).
const HOSTILE: &str =
    "tab\there\nnul\u{0}bell\u{7}del\u{7f} quote\" back\\slash \\u0041 crab\u{1f980}";

fn annex(
    preset: &str,
    users: usize,
    seed: u64,
    policy: &str,
    stop_after: Option<usize>,
) -> SiteSpec {
    SiteSpec {
        id: "annex".into(),
        preset: preset.into(),
        users,
        seed,
        policy: policy.into(),
        stop_after,
    }
}

fn metrics() -> ObsSnapshot {
    let mut metrics = ObsSnapshot::default();
    metrics.counters.insert("daemon.frames_in".into(), 12);
    metrics.gauges.insert("daemon.connections".into(), -3);
    metrics.histograms.insert(
        "daemon.resolve_us".into(),
        HistogramSnapshot {
            bounds: vec![100, 1_000],
            counts: vec![2, 1, 0],
            count: 3,
            sum: 900,
            max: 600,
        },
    );
    metrics
}

/// Every pinned envelope with its exact JSON body.
fn cases() -> Vec<(Envelope, &'static str)> {
    vec![
        (
            Envelope::Hello {
                client: 2,
                name: "laptop-2".into(),
                site: None,
            },
            r#"{"t":"hello","client":2,"name":"laptop-2"}"#,
        ),
        (
            Envelope::Hello {
                client: 4,
                name: "laptop-4".into(),
                site: Some("floor-3".into()),
            },
            r#"{"t":"hello","client":4,"name":"laptop-4","site":"floor-3"}"#,
        ),
        (
            Envelope::Hello {
                client: 0,
                name: HOSTILE.into(),
                site: Some(HOSTILE.into()),
            },
            "{\"t\":\"hello\",\"client\":0,\
             \"name\":\"tab\\there\\nnul\\u0000bell\\u0007del\u{7f} quote\\\" back\\\\slash \\\\u0041 crab\u{1f980}\",\
             \"site\":\"tab\\there\\nnul\\u0000bell\\u0007del\u{7f} quote\\\" back\\\\slash \\\\u0041 crab\u{1f980}\"}",
        ),
        (
            Envelope::HelloAck { attached: Some(2) },
            r#"{"t":"hello_ack","attached":2}"#,
        ),
        (
            Envelope::HelloAck { attached: None },
            r#"{"t":"hello_ack","attached":null}"#,
        ),
        (Envelope::Busy { limit: 16 }, r#"{"t":"busy","limit":16}"#),
        (
            Envelope::Ctrl(ToController::Report {
                client: 3,
                epoch: 7,
                rates: vec![Some(Mbps::new(200.0 / 3.0)), None, Some(Mbps::new(54.0))],
                attached: 1,
            }),
            r#"{"t":"ctrl","m":{"t":"report","client":3,"epoch":7,"rates":[66.66666666666667,null,54.0],"attached":1}}"#,
        ),
        (
            Envelope::Ctrl(ToController::Ack {
                client: 1,
                seq: 9,
                extender: 0,
            }),
            r#"{"t":"ctrl","m":{"t":"ack","client":1,"seq":9,"extender":0}}"#,
        ),
        (
            Envelope::Ctrl(ToController::Departed {
                client: 5,
                epoch: 2,
            }),
            r#"{"t":"ctrl","m":{"t":"departed","client":5,"epoch":2}}"#,
        ),
        (
            Envelope::Client(ToClient::Directive {
                extender: 2,
                seq: 11,
                attempt: 3,
            }),
            r#"{"t":"client","m":{"t":"directive","extender":2,"seq":11,"attempt":3}}"#,
        ),
        (
            Envelope::Client(ToClient::Shutdown),
            r#"{"t":"client","m":{"t":"shutdown"}}"#,
        ),
        (
            Envelope::Agent(ToAgent::Join {
                epoch: 0,
                attempt: 1,
            }),
            r#"{"t":"agent","m":{"t":"join","epoch":0,"attempt":1}}"#,
        ),
        (
            Envelope::Agent(ToAgent::Leave {
                epoch: 4,
                attempt: 2,
            }),
            r#"{"t":"agent","m":{"t":"leave","epoch":4,"attempt":2}}"#,
        ),
        (
            Envelope::Agent(ToAgent::Shutdown),
            r#"{"t":"agent","m":{"t":"shutdown"}}"#,
        ),
        (
            Envelope::Shutdown {
                reason: "operator".into(),
            },
            r#"{"t":"stop","reason":"operator"}"#,
        ),
        (Envelope::MetricsRequest, r#"{"t":"metrics"}"#),
        (
            Envelope::Metrics { metrics: metrics() },
            r#"{"t":"metrics_reply","m":{"counters":{"daemon.frames_in":12},"gauges":{"daemon.connections":-3},"histograms":{"daemon.resolve_us":{"bounds":[100,1000],"counts":[2,1,0],"count":3,"sum":900,"max":600}}}}"#,
        ),
        (
            Envelope::SiteGone {
                site: "floor-3".into(),
            },
            r#"{"t":"site_gone","site":"floor-3"}"#,
        ),
        (
            Envelope::Fleet(FleetOp::Status),
            r#"{"t":"fleet","m":{"op":"status"}}"#,
        ),
        (
            Envelope::Fleet(FleetOp::Drain {
                site: "floor-3".into(),
            }),
            r#"{"t":"fleet","m":{"op":"drain","site":"floor-3"}}"#,
        ),
        (
            Envelope::Fleet(FleetOp::Remove {
                site: "floor-3".into(),
            }),
            r#"{"t":"fleet","m":{"op":"remove","site":"floor-3"}}"#,
        ),
        (
            Envelope::Fleet(FleetOp::Add {
                spec: annex("lab", 4, 7, "wolt", Some(2)),
            }),
            r#"{"t":"fleet","m":{"op":"add","spec":{"id":"annex","preset":"lab","users":4,"seed":7,"policy":"wolt","stop_after":2}}}"#,
        ),
        (
            Envelope::Fleet(FleetOp::Add {
                spec: annex("enterprise", 40, 1, "greedy", None),
            }),
            r#"{"t":"fleet","m":{"op":"add","spec":{"id":"annex","preset":"enterprise","users":40,"seed":1,"policy":"greedy","stop_after":null}}}"#,
        ),
        (
            Envelope::FleetStatus {
                sites: vec![SiteStatus {
                    site: "annex".into(),
                    state: "running".into(),
                    users: 4,
                    epochs_done: 2,
                    events: 4,
                }],
            },
            r#"{"t":"fleet_status","sites":[{"site":"annex","state":"running","users":4,"epochs_done":2,"events":4}]}"#,
        ),
        (
            Envelope::FleetAck {
                op: "drain".into(),
                site: "floor-3".into(),
                ok: false,
                detail: "unknown site".into(),
            },
            r#"{"t":"fleet_ack","op":"drain","site":"floor-3","ok":false,"detail":"unknown site"}"#,
        ),
    ]
}

fn frame(body: &str) -> Vec<u8> {
    let len = u32::try_from(body.len()).expect("pinned bodies are small");
    let mut frame = len.to_be_bytes().to_vec();
    frame.extend_from_slice(body.as_bytes());
    frame
}

#[test]
fn every_envelope_shape_encodes_to_its_pinned_frame() {
    for (envelope, body) in cases() {
        let mut sent = Vec::new();
        wire::send(&mut sent, &envelope).expect("a Vec accepts every write");
        assert_eq!(
            String::from_utf8_lossy(sent.get(4..).unwrap_or_default()),
            body,
            "body of {envelope:?}"
        );
        assert_eq!(sent, frame(body), "frame of {envelope:?}");
    }
}

#[test]
fn every_pinned_frame_decodes_back() {
    for (envelope, body) in cases() {
        let bytes = frame(body);
        let mut r = bytes.as_slice();
        let got = wire::recv(&mut r).expect("pinned frame decodes");
        assert_eq!(got.as_ref(), Some(&envelope), "decoding {body}");
        assert!(r.is_empty(), "{body} left {} bytes unread", r.len());
    }
    // The same frames back to back decode in order, then end cleanly.
    let stream: Vec<u8> = cases().iter().flat_map(|(_, body)| frame(body)).collect();
    let mut r = stream.as_slice();
    for (envelope, body) in cases() {
        assert_eq!(wire::recv(&mut r).expect(body), Some(envelope));
    }
    assert_eq!(wire::recv(&mut r).expect("clean end"), None);
}

/// The envelope's tag, and the nested message's or fleet op's name. The
/// match has no catch-all arm, so a new variant cannot compile until it
/// is named here and given a pinned case.
fn shape(envelope: &Envelope) -> &'static str {
    match envelope {
        Envelope::Hello { .. } => "hello",
        Envelope::HelloAck { .. } => "hello_ack",
        Envelope::Busy { .. } => "busy",
        Envelope::Ctrl(ToController::Report { .. }) => "ctrl/report",
        Envelope::Ctrl(ToController::Ack { .. }) => "ctrl/ack",
        Envelope::Ctrl(ToController::Departed { .. }) => "ctrl/departed",
        Envelope::Client(ToClient::Directive { .. }) => "client/directive",
        Envelope::Client(ToClient::Shutdown) => "client/shutdown",
        Envelope::Agent(ToAgent::Join { .. }) => "agent/join",
        Envelope::Agent(ToAgent::Leave { .. }) => "agent/leave",
        Envelope::Agent(ToAgent::Shutdown) => "agent/shutdown",
        Envelope::Shutdown { .. } => "stop",
        Envelope::MetricsRequest => "metrics",
        Envelope::Metrics { .. } => "metrics_reply",
        Envelope::SiteGone { .. } => "site_gone",
        Envelope::Fleet(FleetOp::Status) => "fleet/status",
        Envelope::Fleet(FleetOp::Drain { .. }) => "fleet/drain",
        Envelope::Fleet(FleetOp::Remove { .. }) => "fleet/remove",
        Envelope::Fleet(FleetOp::Add { .. }) => "fleet/add",
        Envelope::FleetStatus { .. } => "fleet_status",
        Envelope::FleetAck { .. } => "fleet_ack",
    }
}

#[test]
fn the_cases_cover_every_shape() {
    let shapes: BTreeSet<&str> = cases()
        .iter()
        .map(|(envelope, _)| shape(envelope))
        .collect();
    // 13 envelope tags; `ctrl`, `client`, `agent` and `fleet` split into
    // their 3 + 2 + 3 messages and 4 ops.
    assert_eq!(shapes.len(), 13 - 4 + 8 + 4, "{shapes:?}");
}

/// A writer that keeps what it is given and counts the `write` calls.
#[derive(Default)]
struct CountingWrite {
    bytes: Vec<u8>,
    writes: usize,
}

impl std::io::Write for CountingWrite {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn every_pinned_frame_leaves_in_one_write() {
    for (envelope, body) in cases() {
        let mut w = CountingWrite::default();
        wire::send(&mut w, &envelope).expect("a counting writer accepts every write");
        assert_eq!(w.writes, 1, "writes for {body}");
        assert_eq!(w.bytes, frame(body), "frame of {envelope:?}");
    }
}
