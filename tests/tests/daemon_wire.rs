//! Property tests for the daemon wire format: every envelope variant,
//! protocol message and fleet op must survive a serialize → frame →
//! parse round trip byte-for-byte, including hostile strings (control
//! characters, escape-sequence look-alikes, non-ASCII) in the
//! envelope's free-form fields, site ids, spec fields and fleet replies.

use std::io;

use wolt_daemon::wire::{FleetOp, SiteSpec, SiteStatus, MAX_FRAME_BYTES};
use wolt_daemon::{wire, Envelope};
use wolt_support::check::Runner;
use wolt_support::json::Json;
use wolt_support::obs::{HistogramSnapshot, ObsSnapshot};
use wolt_support::rng::Rng;
use wolt_testbed::protocol::{ToAgent, ToClient, ToController};
use wolt_units::Mbps;

/// Characters chosen to stress the JSON string escaper: every class of
/// mandatory escape, multi-byte UTF-8 up to astral planes, and literal
/// text that *looks* like an escape sequence.
const NASTY_CHARS: &[char] = &[
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{7}', '\u{b}',
    '\u{c}', '\u{1f}', '\u{7f}', 'é', 'ß', '←', '語', '\u{7ff}', '\u{fffd}', '🦀', '𝕎',
];

fn nasty_string(rng: &mut impl Rng) -> String {
    let len = rng.gen_range(0..24usize);
    let mut s = String::new();
    for _ in 0..len {
        if rng.gen_range(0..8usize) == 0 {
            // Escape-sequence look-alikes must come through literally.
            s.push_str(["\\u0041", "\\n", "\\\"", "\\u{1f}"][rng.gen_range(0..4usize)]);
        } else {
            s.push(NASTY_CHARS[rng.gen_range(0..NASTY_CHARS.len())]);
        }
    }
    s
}

fn rates(rng: &mut impl Rng) -> Vec<Option<Mbps>> {
    let n = rng.gen_range(0..5usize);
    (0..n)
        .map(|_| {
            if rng.gen_range(0..4usize) == 0 {
                None
            } else {
                // Awkward mantissas exercise shortest-round-trip floats.
                Some(Mbps::new(rng.gen_range(0.0..200.0f64) / 3.0))
            }
        })
        .collect()
}

/// Metric names stress the JSON object-key escaper the same way the
/// free-form fields stress string bodies.
fn metric_name(rng: &mut impl Rng) -> String {
    if rng.gen_range(0..3u32) == 0 {
        nasty_string(rng)
    } else {
        format!("daemon.metric_{}", rng.gen_range(0..32u32))
    }
}

fn arbitrary_snapshot(rng: &mut impl Rng) -> ObsSnapshot {
    let mut snap = ObsSnapshot::default();
    for _ in 0..rng.gen_range(0..5usize) {
        snap.counters
            .insert(metric_name(rng), rng.gen_range(0..u64::MAX / 2));
    }
    for _ in 0..rng.gen_range(0..4usize) {
        let magnitude = rng.gen_range(0..1_000_000u64) as i64;
        let value = if rng.gen_range(0..2u32) == 0 {
            -magnitude
        } else {
            magnitude
        };
        snap.gauges.insert(metric_name(rng), value);
    }
    for _ in 0..rng.gen_range(0..3usize) {
        let n_bounds = rng.gen_range(1..6usize);
        let mut bounds = Vec::with_capacity(n_bounds);
        let mut edge = 0u64;
        for _ in 0..n_bounds {
            edge += rng.gen_range(1..1_000u64);
            bounds.push(edge);
        }
        let counts: Vec<u64> = (0..=n_bounds).map(|_| rng.gen_range(0..50u64)).collect();
        let count = counts.iter().sum();
        snap.histograms.insert(
            metric_name(rng),
            HistogramSnapshot {
                bounds,
                counts,
                count,
                sum: rng.gen_range(0..u64::MAX / 2),
                max: rng.gen_range(0..u64::MAX / 2),
            },
        );
    }
    snap
}

fn arbitrary_spec(rng: &mut impl Rng) -> SiteSpec {
    SiteSpec {
        id: nasty_string(rng),
        preset: nasty_string(rng),
        users: rng.gen_range(0..400usize),
        seed: rng.gen_range(0..u64::MAX / 2),
        policy: nasty_string(rng),
        stop_after: if rng.gen_range(0..2u32) == 0 {
            None
        } else {
            Some(rng.gen_range(0..1_000usize))
        },
    }
}

fn arbitrary_fleet_op(rng: &mut impl Rng) -> FleetOp {
    match rng.gen_range(0..4u32) {
        0 => FleetOp::Status,
        1 => FleetOp::Drain {
            site: nasty_string(rng),
        },
        2 => FleetOp::Remove {
            site: nasty_string(rng),
        },
        _ => FleetOp::Add {
            spec: arbitrary_spec(rng),
        },
    }
}

fn arbitrary_site_status(rng: &mut impl Rng) -> SiteStatus {
    SiteStatus {
        site: nasty_string(rng),
        state: nasty_string(rng),
        users: rng.gen_range(0..400u64),
        epochs_done: rng.gen_range(0..1_000_000u64),
        events: rng.gen_range(0..1_000_000u64),
    }
}

fn arbitrary_envelope(rng: &mut impl Rng) -> Envelope {
    match rng.gen_range(0..18u32) {
        0 => Envelope::Hello {
            client: rng.gen_range(0..64usize),
            name: nasty_string(rng),
            site: if rng.gen_range(0..2u32) == 0 {
                None
            } else {
                Some(nasty_string(rng))
            },
        },
        1 => Envelope::HelloAck {
            attached: if rng.gen_range(0..2u32) == 0 {
                None
            } else {
                Some(rng.gen_range(0..8usize))
            },
        },
        2 => Envelope::Ctrl(ToController::Report {
            client: rng.gen_range(0..64usize),
            epoch: rng.gen_range(0..1_000_000u64),
            rates: rates(rng),
            attached: rng.gen_range(0..8usize),
        }),
        3 => Envelope::Ctrl(ToController::Ack {
            client: rng.gen_range(0..64usize),
            seq: rng.gen_range(0..u64::MAX / 2),
            extender: rng.gen_range(0..8usize),
        }),
        4 => Envelope::Ctrl(ToController::Departed {
            client: rng.gen_range(0..64usize),
            epoch: rng.gen_range(0..1_000_000u64),
        }),
        5 => Envelope::Client(ToClient::Directive {
            extender: rng.gen_range(0..8usize),
            seq: rng.gen_range(0..u64::MAX / 2),
            attempt: rng.gen_range(0..100u32),
        }),
        6 => Envelope::Client(ToClient::Shutdown),
        7 => Envelope::Agent(ToAgent::Join {
            epoch: rng.gen_range(0..1_000_000u64),
            attempt: rng.gen_range(1..10u32),
        }),
        8 => Envelope::Agent(ToAgent::Leave {
            epoch: rng.gen_range(0..1_000_000u64),
            attempt: rng.gen_range(1..10u32),
        }),
        9 => Envelope::Shutdown {
            reason: nasty_string(rng),
        },
        10 => Envelope::MetricsRequest,
        11 => Envelope::Busy {
            limit: rng.gen_range(0..u64::MAX / 2),
        },
        12 => Envelope::SiteGone {
            site: nasty_string(rng),
        },
        13 => Envelope::Fleet(arbitrary_fleet_op(rng)),
        14 => Envelope::FleetStatus {
            sites: (0..rng.gen_range(0..4usize))
                .map(|_| arbitrary_site_status(rng))
                .collect(),
        },
        15 => Envelope::FleetAck {
            op: nasty_string(rng),
            site: nasty_string(rng),
            ok: rng.gen_range(0..2u32) == 0,
            detail: nasty_string(rng),
        },
        16 => Envelope::Agent(ToAgent::Shutdown),
        _ => Envelope::Metrics {
            metrics: arbitrary_snapshot(rng),
        },
    }
}

/// A frame around arbitrary JSON, which need not be an envelope.
fn raw_frame(json: &Json) -> Vec<u8> {
    let body = json.to_compact();
    let mut frame = u32::try_from(body.len()).unwrap().to_be_bytes().to_vec();
    frame.extend_from_slice(body.as_bytes());
    frame
}

#[test]
fn every_envelope_round_trips_byte_identically() {
    Runner::new("daemon_envelope_round_trip")
        .cases(400)
        .run(arbitrary_envelope, |env| {
            let mut frame = Vec::new();
            wire::send(&mut frame, env).map_err(|e| format!("send failed: {e}"))?;
            let mut r = frame.as_slice();
            let back = wire::recv(&mut r)
                .map_err(|e| format!("recv failed: {e}"))?
                .ok_or("frame produced no envelope")?;
            if &back != env {
                return Err(format!("decoded {back:?} != original"));
            }
            if !r.is_empty() {
                return Err(format!("{} trailing bytes after one frame", r.len()));
            }
            // Determinism: re-encoding the decoded value reproduces the
            // exact wire bytes.
            let mut again = Vec::new();
            wire::send(&mut again, &back).map_err(|e| format!("re-send failed: {e}"))?;
            if again != frame {
                return Err("re-encoded frame differs from the original bytes".into());
            }
            Ok(())
        });
}

#[test]
fn streamed_envelopes_preserve_order_and_boundaries() {
    Runner::new("daemon_envelope_streaming").cases(60).run(
        |rng| {
            let n = rng.gen_range(1..12usize);
            (0..n).map(|_| arbitrary_envelope(rng)).collect::<Vec<_>>()
        },
        |envs| {
            let mut buf = Vec::new();
            for e in envs {
                wire::send(&mut buf, e).map_err(|e| format!("send failed: {e}"))?;
            }
            let mut r = buf.as_slice();
            for (i, expected) in envs.iter().enumerate() {
                let got = wire::recv(&mut r)
                    .map_err(|e| format!("recv {i} failed: {e}"))?
                    .ok_or_else(|| format!("stream ended early at {i}"))?;
                if &got != expected {
                    return Err(format!("envelope {i} mutated in transit"));
                }
            }
            match wire::recv(&mut r) {
                Ok(None) => Ok(()),
                other => Err(format!("expected clean EOF, got {other:?}")),
            }
        },
    );
}

#[test]
fn metrics_envelopes_round_trip_byte_identically() {
    // A focused run over metrics payloads only: deep nested snapshots
    // with hostile metric names get far more coverage than their 1-in-18
    // share of the general envelope property.
    Runner::new("daemon_metrics_round_trip").cases(200).run(
        |rng| Envelope::Metrics {
            metrics: arbitrary_snapshot(rng),
        },
        |env| {
            let mut frame = Vec::new();
            wire::send(&mut frame, env).map_err(|e| format!("send failed: {e}"))?;
            let mut r = frame.as_slice();
            let back = wire::recv(&mut r)
                .map_err(|e| format!("recv failed: {e}"))?
                .ok_or("frame produced no envelope")?;
            if &back != env {
                return Err(format!("decoded {back:?} != original"));
            }
            let mut again = Vec::new();
            wire::send(&mut again, &back).map_err(|e| format!("re-send failed: {e}"))?;
            if again != frame {
                return Err("re-encoded frame differs from the original bytes".into());
            }
            Ok(())
        },
    );
}

#[test]
fn truncated_metrics_frames_are_unexpected_eof() {
    let mut metrics = ObsSnapshot::default();
    metrics.counters.insert("daemon.frames_in".into(), 42);
    metrics.histograms.insert(
        "daemon.resolve_us".into(),
        HistogramSnapshot {
            bounds: vec![100, 1_000],
            counts: vec![1, 2, 0],
            count: 3,
            sum: 500,
            max: 400,
        },
    );
    let mut buf = Vec::new();
    wire::send(&mut buf, &Envelope::Metrics { metrics }).unwrap();
    // Every strict prefix of the frame must fail with UnexpectedEof —
    // never a panic, never a bogus decoded envelope.
    for cut in [1, 2, 3, 4, 5, buf.len() / 2, buf.len() - 1] {
        let mut r = &buf[..cut];
        assert_eq!(
            wire::recv(&mut r).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof,
            "prefix of {cut} bytes"
        );
    }
}

#[test]
fn oversized_length_prefix_is_rejected_before_allocating() {
    // A hostile peer claims a frame just past the cap. The reader must
    // refuse on the prefix alone — it never tries to allocate or read
    // the claimed body (there are only 4 bytes here to read anyway).
    let giant = u32::try_from(MAX_FRAME_BYTES + 1).unwrap().to_be_bytes();
    let mut r = giant.as_slice();
    let err = wire::recv(&mut r).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(
        err.to_string().contains("exceeds"),
        "cap rejection should name the cap, got: {err}"
    );
    // u32::MAX, the worst case a 4-byte prefix can claim.
    let mut r: &[u8] = &[0xff; 4];
    assert_eq!(
        wire::recv(&mut r).unwrap_err().kind(),
        io::ErrorKind::InvalidData
    );
}

#[test]
fn unknown_envelope_kinds_are_typed_errors() {
    for tag in ["metrics_v2", "Metrics", "METRICS", "", "metrics "] {
        let buf = raw_frame(&Json::obj([("t", Json::Str(tag.into()))]));
        let mut r = buf.as_slice();
        let err = wire::recv(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "tag {tag:?}");
        assert!(err.to_string().contains("bad envelope"), "tag {tag:?}");
    }
    // A metrics reply whose payload is structurally wrong (counts array
    // length disagrees with bounds) must be rejected, not silently
    // mis-parsed.
    let bad = Json::parse(
        r#"{"t":"metrics_reply","m":{"counters":{},"gauges":{},"histograms":{"h":{"bounds":[10],"counts":[1],"count":1,"sum":1,"max":1}}}}"#,
    )
    .unwrap();
    let buf = raw_frame(&bad);
    let mut r = buf.as_slice();
    assert_eq!(
        wire::recv(&mut r).unwrap_err().kind(),
        io::ErrorKind::InvalidData
    );
}
