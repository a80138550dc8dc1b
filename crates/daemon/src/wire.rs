//! The daemon's wire format, in one place: the [`Envelope`], the JSON of
//! every message it carries, and the length-prefixed framing.
//!
//! The in-process rig hands the [`wolt_testbed::protocol`] enums to its
//! agents as they are and needs no encoding. The daemon moves the same enums
//! over TCP inside an envelope, which adds what a socket needs: the
//! handshake, the restore handoff, the overload refusal, operator stop,
//! and metrics and fleet operations.
//!
//! The rig needs no handshake, since each in-process agent *is* its
//! client. Over TCP the daemon learns who connected from the first
//! frame ([`Envelope::Hello`]) and answers with the client's last known
//! attachment ([`Envelope::HelloAck`]), which is how a restarted daemon
//! hands a reconnecting agent its pre-crash state (the data plane — the
//! radio association — survives a controller reboot).
//!
//! # Format
//!
//! An envelope is a `{"t": ...}` tagged JSON object; a protocol message
//! rides under `"m"` as another tagged object. One frame is a 4-byte
//! big-endian length prefix followed by the compact JSON body. The
//! `wolt_support::json` encoder is deterministic (insertion-ordered
//! keys, shortest-round-trip floats), so equal messages always encode
//! to identical bytes: wire traffic is diffable and replayable.
//!
//! [`send`] writes one frame. [`recv`] reads one and treats a socket
//! timeout as an error, which is how a client bounds its wait for a
//! reply. The server's connection readers use a read timeout as a
//! polling tick instead: they wait through idle time between frames but
//! drop a peer that stalls mid-frame.
//!
//! The protocol enums belong to `wolt-testbed`, so the orphan rule keeps
//! their JSON here as private functions rather than `ToJson`/`FromJson`
//! impls.

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};

use wolt_support::json::{FromJson, Json, JsonError, ToJson};
use wolt_support::obs::ObsSnapshot;
use wolt_testbed::protocol::{ToAgent, ToClient, ToController};
use wolt_units::Mbps;

/// Hard cap on one frame's payload, over which a read rejects the stream
/// as corrupt: no protocol message comes close, and a garbage length
/// prefix must not trigger a giant allocation.
pub const MAX_FRAME_BYTES: usize = 1 << 24;

/// Crash point between a frame's length prefix and its body (see
/// [`wolt_support::crash`]): an armed abort here leaves the peer holding
/// a torn frame, the wire-level analogue of a torn snapshot write. The
/// name is older than this module and stays: crash plans (`WOLT_CRASH`)
/// and chaos reports name points by this string.
pub const CRASH_MID_FRAME: &str = "codec.write.mid_frame";

/// One daemon wire message.
#[derive(Debug, Clone, PartialEq)]
pub enum Envelope {
    /// First frame on every agent connection: who is calling. `name` is a
    /// free-form label for logs (it may contain any Unicode, including
    /// control characters — the codec must round-trip it untouched).
    Hello {
        /// Client index in the scenario.
        client: usize,
        /// Free-form agent label.
        name: String,
        /// The site this agent belongs to. `None` addresses a
        /// single-site daemon; a fleet requires it and refuses a
        /// missing or unknown site with [`Envelope::SiteGone`]. The
        /// field is omitted from the frame when `None`, so a sited
        /// hello is byte-identical to the pre-fleet handshake.
        site: Option<String>,
    },
    /// The daemon's handshake reply: the client's attachment according to
    /// the (possibly restored) controller state, which the agent adopts.
    HelloAck {
        /// Saved extender attachment, if the controller knows one.
        attached: Option<usize>,
    },
    /// The daemon's overload refusal, sent in place of any other reply
    /// when a new connection arrives past the configured connection cap.
    /// The peer should back off and retry; the daemon closes the
    /// connection after sending it.
    Busy {
        /// The daemon's configured connection limit.
        limit: u64,
    },
    /// An agent → controller protocol message.
    Ctrl(ToController),
    /// A controller → client directive or shutdown.
    Client(ToClient),
    /// A session-driver command (join/leave/shutdown).
    Agent(ToAgent),
    /// Operator request: snapshot and stop the daemon gracefully.
    Shutdown {
        /// Free-form reason, echoed into the daemon's logs.
        reason: String,
    },
    /// Operator request: reply with the daemon's metrics snapshot.
    /// Answered on any control connection (one that has not completed an
    /// agent handshake) — the daemon replies with [`Envelope::Metrics`]
    /// on the same stream and keeps the connection open for more
    /// requests.
    MetricsRequest,
    /// The daemon's reply to [`Envelope::MetricsRequest`]: a
    /// deterministic-JSON dump of every registered counter, gauge, and
    /// histogram.
    Metrics {
        /// The process-wide metrics snapshot at reply time.
        metrics: ObsSnapshot,
    },
    /// Typed refusal of a sited [`Envelope::Hello`]: this daemon does
    /// not host (or no longer hosts) the named site. Unlike
    /// [`Envelope::Busy`] this is *fatal* for the agent — a drained or
    /// removed site never comes back under this address, so retrying
    /// cannot help.
    SiteGone {
        /// The site the hello named (empty when the hello named none).
        site: String,
    },
    /// A fleet lifecycle operation, accepted on control connections
    /// (ones that have not completed an agent handshake). Mutations are
    /// answered with [`Envelope::FleetAck`], status queries with
    /// [`Envelope::FleetStatus`].
    Fleet(FleetOp),
    /// Reply to [`FleetOp::Status`]: one entry per registered site, in
    /// site-id order.
    FleetStatus {
        /// Per-site state, sorted by site id.
        sites: Vec<SiteStatus>,
    },
    /// Reply to a fleet mutation ([`FleetOp::Drain`],
    /// [`FleetOp::Remove`], [`FleetOp::Add`]).
    FleetAck {
        /// The operation this acknowledges (`"drain"`, `"remove"`,
        /// `"add"`).
        op: String,
        /// The site the operation named.
        site: String,
        /// Whether the operation was applied.
        ok: bool,
        /// Free-form detail (the refusal reason when `ok` is false).
        detail: String,
    },
}

/// One fleet lifecycle operation (see [`Envelope::Fleet`]).
#[derive(Debug, Clone, PartialEq)]
pub enum FleetOp {
    /// Report every registered site's state.
    Status,
    /// Stop accepting new agents for `site`, finish its in-flight
    /// epochs, persist, and detach it.
    Drain {
        /// The site to drain.
        site: String,
    },
    /// Drain `site` and forget it entirely (its status entry goes away
    /// once it finishes).
    Remove {
        /// The site to remove.
        site: String,
    },
    /// Register and start a new site while the fleet is running.
    Add {
        /// The new site's definition.
        spec: SiteSpec,
    },
}

impl FleetOp {
    /// The operation's wire name (`"status"`, `"drain"`, `"remove"`,
    /// `"add"`) — what [`Envelope::FleetAck`] echoes in its `op` field.
    pub fn name(&self) -> &'static str {
        match self {
            FleetOp::Status => "status",
            FleetOp::Drain { .. } => "drain",
            FleetOp::Remove { .. } => "remove",
            FleetOp::Add { .. } => "add",
        }
    }

    /// The site the operation targets (the spec's id for
    /// [`FleetOp::Add`]; empty for [`FleetOp::Status`]).
    pub fn site(&self) -> &str {
        match self {
            FleetOp::Status => "",
            FleetOp::Drain { site } | FleetOp::Remove { site } => site,
            FleetOp::Add { spec } => &spec.id,
        }
    }
}

impl FromJson for FleetOp {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let op = value
            .field("op")?
            .as_str()
            .ok_or_else(|| JsonError::shape("fleet op must be a string"))?;
        match op {
            "status" => Ok(FleetOp::Status),
            "drain" => Ok(FleetOp::Drain {
                site: String::from_json(value.field("site")?)?,
            }),
            "remove" => Ok(FleetOp::Remove {
                site: String::from_json(value.field("site")?)?,
            }),
            "add" => Ok(FleetOp::Add {
                spec: SiteSpec::from_json(value.field("spec")?)?,
            }),
            other => Err(JsonError::shape(format!("unknown fleet op {other:?}"))),
        }
    }
}

impl ToJson for FleetOp {
    fn to_json(&self) -> Json {
        match self {
            FleetOp::Status => Json::obj([("op", Json::Str("status".into()))]),
            FleetOp::Drain { site } => Json::obj([
                ("op", Json::Str("drain".into())),
                ("site", Json::Str(site.clone())),
            ]),
            FleetOp::Remove { site } => Json::obj([
                ("op", Json::Str("remove".into())),
                ("site", Json::Str(site.clone())),
            ]),
            FleetOp::Add { spec } => {
                Json::obj([("op", Json::Str("add".into())), ("spec", spec.to_json())])
            }
        }
    }
}

/// A site's definition as shipped over the wire (and in `--sites`
/// spec files): everything needed to regenerate its scenario and
/// controller deterministically. The scenario itself never crosses the
/// wire — both sides rebuild it from `(preset, users, seed)`, exactly
/// like the single-site `wolt serve`/`wolt agent` pair.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteSpec {
    /// Unique site id; must be filesystem-safe (it names the site's
    /// snapshot subdirectory): `[A-Za-z0-9._-]+`, at most 64 bytes, and
    /// not `.` or `..`.
    pub id: String,
    /// Scenario preset: `"lab"` or `"enterprise"`.
    pub preset: String,
    /// Users in the site's scenario.
    pub users: usize,
    /// Scenario *and* capacity-noise seed.
    pub seed: u64,
    /// Association policy: `"wolt"`, `"greedy"`, or `"rssi"`.
    pub policy: String,
    /// Stop this site after this many completed events (the restart
    /// tests' deterministic kill switch); `None` runs to completion.
    pub stop_after: Option<usize>,
}

impl ToJson for SiteSpec {
    fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::Str(self.id.clone())),
            ("preset", Json::Str(self.preset.clone())),
            ("users", self.users.to_json()),
            ("seed", self.seed.to_json()),
            ("policy", Json::Str(self.policy.clone())),
            ("stop_after", self.stop_after.to_json()),
        ])
    }
}

impl FromJson for SiteSpec {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(SiteSpec {
            id: String::from_json(value.field("id")?)?,
            preset: String::from_json(value.field("preset")?)?,
            users: usize::from_json(value.field("users")?)?,
            seed: u64::from_json(value.field("seed")?)?,
            policy: String::from_json(value.field("policy")?)?,
            // Optional in spec files: omitting it means run to the end.
            stop_after: match value.get("stop_after") {
                None => None,
                Some(v) => Option::<usize>::from_json(v)?,
            },
        })
    }
}

/// One site's state in a [`Envelope::FleetStatus`] reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteStatus {
    /// The site id.
    pub site: String,
    /// Lifecycle state: `"waiting"`, `"running"`, `"draining"`,
    /// `"done"`, or `"failed"`.
    pub state: String,
    /// Users in the site's scenario.
    pub users: u64,
    /// Events completed so far (including restored ones).
    pub epochs_done: u64,
    /// Events configured in total.
    pub events: u64,
}

impl ToJson for SiteStatus {
    fn to_json(&self) -> Json {
        Json::obj([
            ("site", Json::Str(self.site.clone())),
            ("state", Json::Str(self.state.clone())),
            ("users", self.users.to_json()),
            ("epochs_done", self.epochs_done.to_json()),
            ("events", self.events.to_json()),
        ])
    }
}

impl FromJson for SiteStatus {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(SiteStatus {
            site: String::from_json(value.field("site")?)?,
            state: String::from_json(value.field("state")?)?,
            users: u64::from_json(value.field("users")?)?,
            epochs_done: u64::from_json(value.field("epochs_done")?)?,
            events: u64::from_json(value.field("events")?)?,
        })
    }
}

impl ToJson for Envelope {
    fn to_json(&self) -> Json {
        match self {
            Envelope::Hello { client, name, site } => {
                let mut fields = vec![
                    ("t", Json::Str("hello".into())),
                    ("client", client.to_json()),
                    ("name", Json::Str(name.clone())),
                ];
                // Omitted when `None`: a site-less hello stays
                // byte-identical to the pre-fleet handshake.
                if let Some(site) = site {
                    fields.push(("site", Json::Str(site.clone())));
                }
                Json::obj(fields)
            }
            Envelope::HelloAck { attached } => Json::obj([
                ("t", Json::Str("hello_ack".into())),
                ("attached", attached.to_json()),
            ]),
            Envelope::Busy { limit } => {
                Json::obj([("t", Json::Str("busy".into())), ("limit", limit.to_json())])
            }
            Envelope::Ctrl(m) => {
                Json::obj([("t", Json::Str("ctrl".into())), ("m", ctrl_to_json(m))])
            }
            Envelope::Client(m) => {
                Json::obj([("t", Json::Str("client".into())), ("m", client_to_json(m))])
            }
            Envelope::Agent(m) => {
                Json::obj([("t", Json::Str("agent".into())), ("m", agent_to_json(m))])
            }
            Envelope::Shutdown { reason } => Json::obj([
                ("t", Json::Str("stop".into())),
                ("reason", Json::Str(reason.clone())),
            ]),
            Envelope::MetricsRequest => Json::obj([("t", Json::Str("metrics".into()))]),
            Envelope::Metrics { metrics } => Json::obj([
                ("t", Json::Str("metrics_reply".into())),
                ("m", metrics.to_json()),
            ]),
            Envelope::SiteGone { site } => Json::obj([
                ("t", Json::Str("site_gone".into())),
                ("site", Json::Str(site.clone())),
            ]),
            Envelope::Fleet(op) => {
                Json::obj([("t", Json::Str("fleet".into())), ("m", op.to_json())])
            }
            Envelope::FleetStatus { sites } => Json::obj([
                ("t", Json::Str("fleet_status".into())),
                ("sites", sites.to_json()),
            ]),
            Envelope::FleetAck {
                op,
                site,
                ok,
                detail,
            } => Json::obj([
                ("t", Json::Str("fleet_ack".into())),
                ("op", Json::Str(op.clone())),
                ("site", Json::Str(site.clone())),
                ("ok", ok.to_json()),
                ("detail", Json::Str(detail.clone())),
            ]),
        }
    }
}

impl FromJson for Envelope {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match tag(value)? {
            "hello" => Ok(Envelope::Hello {
                client: usize::from_json(value.field("client")?)?,
                name: String::from_json(value.field("name")?)?,
                // Absent on pre-fleet agents: decode as site-less.
                site: match value.get("site") {
                    None => None,
                    Some(v) => Some(String::from_json(v)?),
                },
            }),
            "hello_ack" => Ok(Envelope::HelloAck {
                attached: Option::<usize>::from_json(value.field("attached")?)?,
            }),
            "busy" => Ok(Envelope::Busy {
                limit: u64::from_json(value.field("limit")?)?,
            }),
            "ctrl" => Ok(Envelope::Ctrl(ctrl_from_json(value.field("m")?)?)),
            "client" => Ok(Envelope::Client(client_from_json(value.field("m")?)?)),
            "agent" => Ok(Envelope::Agent(agent_from_json(value.field("m")?)?)),
            "stop" => Ok(Envelope::Shutdown {
                reason: String::from_json(value.field("reason")?)?,
            }),
            "metrics" => Ok(Envelope::MetricsRequest),
            "metrics_reply" => Ok(Envelope::Metrics {
                metrics: ObsSnapshot::from_json(value.field("m")?)?,
            }),
            "site_gone" => Ok(Envelope::SiteGone {
                site: String::from_json(value.field("site")?)?,
            }),
            "fleet" => Ok(Envelope::Fleet(FleetOp::from_json(value.field("m")?)?)),
            "fleet_status" => Ok(Envelope::FleetStatus {
                sites: Vec::<SiteStatus>::from_json(value.field("sites")?)?,
            }),
            "fleet_ack" => Ok(Envelope::FleetAck {
                op: String::from_json(value.field("op")?)?,
                site: String::from_json(value.field("site")?)?,
                ok: bool::from_json(value.field("ok")?)?,
                detail: String::from_json(value.field("detail")?)?,
            }),
            other => Err(JsonError::shape(format!("unknown envelope tag {other:?}"))),
        }
    }
}

/// Reads the `"t"` tag of an envelope or protocol message object.
fn tag(value: &Json) -> Result<&str, JsonError> {
    value
        .field("t")?
        .as_str()
        .ok_or_else(|| JsonError::shape("message tag must be a string"))
}

fn rates_to_json(rates: &[Option<Mbps>]) -> Json {
    Json::Arr(
        rates
            .iter()
            .map(|r| match r {
                Some(m) => Json::Num(m.value()),
                None => Json::Null,
            })
            .collect(),
    )
}

fn rates_from_json(value: &Json) -> Result<Vec<Option<Mbps>>, JsonError> {
    value
        .as_arr()
        .ok_or_else(|| JsonError::shape("rates must be an array"))?
        .iter()
        .map(|r| {
            if r.is_null() {
                Ok(None)
            } else {
                r.as_f64()
                    .map(|v| Some(Mbps::new(v)))
                    .ok_or_else(|| JsonError::shape("rate must be a number or null"))
            }
        })
        .collect()
}

fn ctrl_to_json(msg: &ToController) -> Json {
    match msg {
        ToController::Report {
            client,
            epoch,
            rates,
            attached,
        } => Json::obj([
            ("t", Json::Str("report".into())),
            ("client", client.to_json()),
            ("epoch", epoch.to_json()),
            ("rates", rates_to_json(rates)),
            ("attached", attached.to_json()),
        ]),
        ToController::Ack {
            client,
            seq,
            extender,
        } => Json::obj([
            ("t", Json::Str("ack".into())),
            ("client", client.to_json()),
            ("seq", seq.to_json()),
            ("extender", extender.to_json()),
        ]),
        ToController::Departed { client, epoch } => Json::obj([
            ("t", Json::Str("departed".into())),
            ("client", client.to_json()),
            ("epoch", epoch.to_json()),
        ]),
    }
}

fn ctrl_from_json(value: &Json) -> Result<ToController, JsonError> {
    match tag(value)? {
        "report" => Ok(ToController::Report {
            client: usize::from_json(value.field("client")?)?,
            epoch: u64::from_json(value.field("epoch")?)?,
            rates: rates_from_json(value.field("rates")?)?,
            attached: usize::from_json(value.field("attached")?)?,
        }),
        "ack" => Ok(ToController::Ack {
            client: usize::from_json(value.field("client")?)?,
            seq: u64::from_json(value.field("seq")?)?,
            extender: usize::from_json(value.field("extender")?)?,
        }),
        "departed" => Ok(ToController::Departed {
            client: usize::from_json(value.field("client")?)?,
            epoch: u64::from_json(value.field("epoch")?)?,
        }),
        other => Err(JsonError::shape(format!(
            "unknown ToController tag {other:?}"
        ))),
    }
}

fn client_to_json(msg: &ToClient) -> Json {
    match msg {
        ToClient::Directive {
            extender,
            seq,
            attempt,
        } => Json::obj([
            ("t", Json::Str("directive".into())),
            ("extender", extender.to_json()),
            ("seq", seq.to_json()),
            ("attempt", attempt.to_json()),
        ]),
        ToClient::Shutdown => Json::obj([("t", Json::Str("shutdown".into()))]),
    }
}

fn client_from_json(value: &Json) -> Result<ToClient, JsonError> {
    match tag(value)? {
        "directive" => Ok(ToClient::Directive {
            extender: usize::from_json(value.field("extender")?)?,
            seq: u64::from_json(value.field("seq")?)?,
            attempt: u32::from_json(value.field("attempt")?)?,
        }),
        "shutdown" => Ok(ToClient::Shutdown),
        other => Err(JsonError::shape(format!("unknown ToClient tag {other:?}"))),
    }
}

fn agent_to_json(msg: &ToAgent) -> Json {
    match msg {
        ToAgent::Join { epoch, attempt } => Json::obj([
            ("t", Json::Str("join".into())),
            ("epoch", epoch.to_json()),
            ("attempt", attempt.to_json()),
        ]),
        ToAgent::Leave { epoch, attempt } => Json::obj([
            ("t", Json::Str("leave".into())),
            ("epoch", epoch.to_json()),
            ("attempt", attempt.to_json()),
        ]),
        ToAgent::Shutdown => Json::obj([("t", Json::Str("shutdown".into()))]),
    }
}

fn agent_from_json(value: &Json) -> Result<ToAgent, JsonError> {
    match tag(value)? {
        "join" => Ok(ToAgent::Join {
            epoch: u64::from_json(value.field("epoch")?)?,
            attempt: u32::from_json(value.field("attempt")?)?,
        }),
        "leave" => Ok(ToAgent::Leave {
            epoch: u64::from_json(value.field("epoch")?)?,
            attempt: u32::from_json(value.field("attempt")?)?,
        }),
        "shutdown" => Ok(ToAgent::Shutdown),
        other => Err(JsonError::shape(format!("unknown ToAgent tag {other:?}"))),
    }
}

/// Writes one envelope as a length-prefixed frame and returns the bytes
/// put on the wire (prefix and body), so transports can meter traffic.
///
/// # Errors
///
/// Propagates I/O failures from the underlying writer.
pub fn send(w: &mut impl Write, envelope: &Envelope) -> io::Result<usize> {
    let body = envelope.to_json().to_compact();
    let len = u32::try_from(body.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&len.to_be_bytes())?;
    wolt_support::crash_point!(CRASH_MID_FRAME);
    w.write_all(body.as_bytes())?;
    w.flush()?;
    Ok(4 + body.len())
}

/// Reads one envelope. `Ok(None)` is a cleanly closed connection (end of
/// stream at a frame boundary).
///
/// # Errors
///
/// [`io::ErrorKind::UnexpectedEof`] for a stream truncated mid-frame;
/// [`io::ErrorKind::InvalidData`] for an oversized length prefix, a
/// non-UTF-8 body, malformed JSON, or JSON that is not an envelope. A
/// socket read timeout surfaces as the error the socket returned.
pub fn recv(r: &mut impl Read) -> io::Result<Option<Envelope>> {
    read_envelope(r, None).map(|frame| frame.map(|(envelope, _)| envelope))
}

/// The server's read: one envelope and the bytes it took on the wire,
/// from a stream whose read timeout is a polling tick. A stall (a read
/// failing with [`io::ErrorKind::WouldBlock`] or
/// [`io::ErrorKind::TimedOut`]) is judged by where it falls:
///
/// - at a frame boundary, idling is legitimate (a control connection may
///   sit quiet between metrics polls), so the read waits, and ends as a
///   clean close (`Ok(None)`) once `stop` is set;
/// - mid-frame, a peer that sent part of a frame and went quiet is broken
///   or a slowloris pinning the reader, so more than `mid_frame_stalls`
///   consecutive stalled ticks fail the read with
///   [`io::ErrorKind::TimedOut`].
///
/// On a blocking stream no stall surfaces and this reads like [`recv`].
///
/// # Errors
///
/// As [`recv`], plus [`io::ErrorKind::TimedOut`] for a mid-frame stall
/// past the budget.
pub(crate) fn recv_patient(
    r: &mut impl Read,
    stop: &AtomicBool,
    mid_frame_stalls: u32,
) -> io::Result<Option<(Envelope, usize)>> {
    read_envelope(r, Some((stop, mid_frame_stalls)))
}

/// One frame read and decoded. `patience` is [`recv_patient`]'s stall
/// policy; without it a stall is an error like any other.
fn read_envelope(
    r: &mut impl Read,
    patience: Option<(&AtomicBool, u32)>,
) -> io::Result<Option<(Envelope, usize)>> {
    let mut prefix = [0u8; 4];
    if !fill(r, &mut prefix, true, patience)? {
        return Ok(None);
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    let mut body = vec![0u8; len];
    fill(r, &mut body, false, patience)?;
    let invalid = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
    let text = String::from_utf8(body).map_err(|_| invalid("frame body is not UTF-8".into()))?;
    let json = Json::parse(&text).map_err(|e| invalid(format!("bad frame JSON: {e}")))?;
    let envelope = Envelope::from_json(&json).map_err(|e| invalid(format!("bad envelope: {e}")))?;
    Ok(Some((envelope, 4 + len)))
}

/// Fills `buf` from `r`. Returns `Ok(false)` for a clean close, which
/// only a frame's start (`at_start`, before its first byte) allows: end
/// of stream, or a patient read told to `stop` while idle there. Stalls
/// count consecutively; any byte read resets the count.
fn fill(
    r: &mut impl Read,
    buf: &mut [u8],
    at_start: bool,
    patience: Option<(&AtomicBool, u32)>,
) -> io::Result<bool> {
    let mut filled = 0;
    let mut stalls = 0u32;
    while filled < buf.len() {
        let idle = at_start && filled == 0;
        match r.read(&mut buf[filled..]) {
            Ok(0) if idle => return Ok(false),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream truncated inside a frame",
                ))
            }
            Ok(n) => {
                filled += n;
                stalls = 0;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                let Some((stop, mid_frame_stalls)) = patience else {
                    return Err(e);
                };
                if idle {
                    if stop.load(Ordering::Relaxed) {
                        return Ok(false);
                    }
                } else {
                    stalls += 1;
                    if stalls > mid_frame_stalls {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "peer stalled mid-frame past the read deadline",
                        ));
                    }
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use wolt_support::obs::HistogramSnapshot;

    /// A frame around arbitrary JSON, which need not be an envelope.
    fn raw_frame(json: &Json) -> Vec<u8> {
        let body = json.to_compact();
        let mut frame = u32::try_from(body.len()).unwrap().to_be_bytes().to_vec();
        frame.extend_from_slice(body.as_bytes());
        frame
    }

    fn round_trip(env: Envelope) {
        let mut buf = Vec::new();
        send(&mut buf, &env).unwrap();
        let mut r = buf.as_slice();
        assert_eq!(recv(&mut r).unwrap().expect("one envelope"), env);
        assert!(recv(&mut r).unwrap().is_none());
    }

    #[test]
    fn every_envelope_variant_round_trips() {
        round_trip(Envelope::Hello {
            client: 4,
            name: "laptop-4".into(),
            site: None,
        });
        round_trip(Envelope::Hello {
            client: 4,
            name: "laptop-4".into(),
            site: Some("floor-3".into()),
        });
        round_trip(Envelope::HelloAck { attached: Some(2) });
        round_trip(Envelope::HelloAck { attached: None });
        round_trip(Envelope::Busy { limit: 16 });
        round_trip(Envelope::Ctrl(ToController::Report {
            client: 0,
            epoch: 1,
            rates: vec![Some(Mbps::new(33.25)), None],
            attached: 1,
        }));
        round_trip(Envelope::Client(ToClient::Directive {
            extender: 1,
            seq: 5,
            attempt: 2,
        }));
        round_trip(Envelope::Agent(ToAgent::Join {
            epoch: 0,
            attempt: 1,
        }));
        round_trip(Envelope::Shutdown {
            reason: "operator".into(),
        });
        round_trip(Envelope::MetricsRequest);
        let mut metrics = ObsSnapshot::default();
        metrics.counters.insert("daemon.frames_in".into(), 12);
        metrics.gauges.insert("daemon.connections".into(), 3);
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
        round_trip(Envelope::Metrics { metrics });
        round_trip(Envelope::Metrics {
            metrics: ObsSnapshot::default(),
        });
        round_trip(Envelope::SiteGone {
            site: "floor-3".into(),
        });
        round_trip(Envelope::Fleet(FleetOp::Status));
        round_trip(Envelope::Fleet(FleetOp::Drain {
            site: "floor-3".into(),
        }));
        round_trip(Envelope::Fleet(FleetOp::Remove {
            site: "floor-3".into(),
        }));
        round_trip(Envelope::Fleet(FleetOp::Add {
            spec: SiteSpec {
                id: "annex".into(),
                preset: "lab".into(),
                users: 4,
                seed: 7,
                policy: "wolt".into(),
                stop_after: Some(2),
            },
        }));
        round_trip(Envelope::FleetStatus {
            sites: vec![
                SiteStatus {
                    site: "annex".into(),
                    state: "running".into(),
                    users: 4,
                    epochs_done: 2,
                    events: 4,
                },
                SiteStatus {
                    site: "floor-3".into(),
                    state: "done".into(),
                    users: 3,
                    epochs_done: 3,
                    events: 3,
                },
            ],
        });
        round_trip(Envelope::FleetStatus { sites: Vec::new() });
        round_trip(Envelope::FleetAck {
            op: "drain".into(),
            site: "floor-3".into(),
            ok: false,
            detail: "unknown site".into(),
        });
    }

    #[test]
    fn site_less_hello_is_byte_identical_to_the_pre_fleet_frame() {
        // A fleet-aware agent talking to a single-site daemon must put
        // exactly the old bytes on the wire: the `site` field is
        // omitted, not null.
        let mut buf = Vec::new();
        send(
            &mut buf,
            &Envelope::Hello {
                client: 2,
                name: "laptop-2".into(),
                site: None,
            },
        )
        .unwrap();
        let old = raw_frame(&Json::obj([
            ("t", Json::Str("hello".into())),
            ("client", Json::Int(2)),
            ("name", Json::Str("laptop-2".into())),
        ]));
        assert_eq!(buf, old);
    }

    #[test]
    fn spec_files_may_omit_stop_after() {
        let spec = SiteSpec::from_json(&Json::obj([
            ("id", Json::Str("a".into())),
            ("preset", Json::Str("lab".into())),
            ("users", Json::Int(3)),
            ("seed", Json::Int(1)),
            ("policy", Json::Str("wolt".into())),
        ]))
        .unwrap();
        assert_eq!(spec.stop_after, None);
    }

    #[test]
    fn nasty_strings_survive_the_wire() {
        for name in [
            "tabs\tand\nnewlines\r",
            "nul\u{0}and bell\u{7}",
            "quotes \" backslash \\ slash /",
            "非ASCII → λ ∀ 🦀",
            "escape-looking \\u0041 literal",
        ] {
            round_trip(Envelope::Hello {
                client: 0,
                name: name.into(),
                site: Some(name.into()),
            });
            round_trip(Envelope::Shutdown {
                reason: name.into(),
            });
        }
    }

    #[test]
    fn unknown_tags_are_rejected() {
        let buf = raw_frame(&Json::obj([("t", Json::Str("warp".into()))]));
        let mut r = buf.as_slice();
        assert_eq!(recv(&mut r).unwrap_err().kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn unknown_tags_are_shape_errors() {
        // A protocol message with an unknown or missing tag fails the
        // whole envelope, whichever envelope carries it.
        for env in ["ctrl", "client", "agent"] {
            for m in [r#"{"t":"warp","client":0}"#, r#"{"client":0}"#] {
                let json = Json::parse(&format!(r#"{{"t":"{env}","m":{m}}}"#)).unwrap();
                let buf = raw_frame(&json);
                let err = recv(&mut buf.as_slice()).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{env} {m}");
                assert!(err.to_string().contains("bad envelope"), "{env} {m}");
            }
        }
    }

    #[test]
    fn truncated_and_corrupt_frames_are_rejected() {
        let mut buf = Vec::new();
        send(
            &mut buf,
            &Envelope::Agent(ToAgent::Join {
                epoch: 0,
                attempt: 1,
            }),
        )
        .unwrap();
        // Truncated mid-prefix.
        let mut r = &buf[..2];
        assert_eq!(
            recv(&mut r).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        // Truncated mid-body.
        let mut r = &buf[..buf.len() - 3];
        assert_eq!(
            recv(&mut r).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        // Giant length prefix: rejected before allocating.
        let giant = u32::try_from(MAX_FRAME_BYTES + 1).unwrap().to_be_bytes();
        let mut r = giant.as_slice();
        assert_eq!(recv(&mut r).unwrap_err().kind(), io::ErrorKind::InvalidData);
        // Valid prefix, garbage JSON body; then a body that is not UTF-8.
        for body in [&b"{{{"[..], &[0xff, 0xfe, 0xfd]] {
            let mut bad = 3u32.to_be_bytes().to_vec();
            bad.extend_from_slice(body);
            let mut r = bad.as_slice();
            assert_eq!(recv(&mut r).unwrap_err().kind(), io::ErrorKind::InvalidData);
        }
    }

    /// A reader that replays a script of data chunks and stalls, so the
    /// patient read can be exercised without real sockets.
    struct ScriptedRead {
        script: VecDeque<Result<Vec<u8>, io::ErrorKind>>,
    }

    impl Read for ScriptedRead {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.script.pop_front() {
                None => Ok(0),
                Some(Ok(mut chunk)) => {
                    let n = chunk.len().min(buf.len());
                    buf[..n].copy_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        // Requeue what this short read did not consume.
                        self.script.push_front(Ok(chunk.split_off(n)));
                    }
                    Ok(n)
                }
                Some(Err(kind)) => Err(io::Error::new(kind, "scripted stall")),
            }
        }
    }

    fn scripted(events: Vec<Result<Vec<u8>, io::ErrorKind>>) -> ScriptedRead {
        ScriptedRead {
            script: events.into(),
        }
    }

    fn shutdown_frame() -> Vec<u8> {
        let mut frame = Vec::new();
        send(&mut frame, &Envelope::Agent(ToAgent::Shutdown)).unwrap();
        frame
    }

    #[test]
    fn patient_read_outwaits_boundary_idle_but_bounds_mid_frame_stalls() {
        let frame = shutdown_frame();
        // Many stalls before the first byte, then the frame split around
        // a couple of mid-frame stalls (within the budget of 3).
        let stall = || Err(io::ErrorKind::WouldBlock);
        let mut r = scripted(vec![
            stall(),
            stall(),
            stall(),
            stall(),
            stall(),
            Ok(frame[..2].to_vec()),
            stall(),
            stall(),
            Ok(frame[2..6].to_vec()),
            Err(io::ErrorKind::TimedOut),
            Ok(frame[6..].to_vec()),
        ]);
        let stop = AtomicBool::new(false);
        let (envelope, bytes) = recv_patient(&mut r, &stop, 3).unwrap().expect("one frame");
        assert_eq!(envelope, Envelope::Agent(ToAgent::Shutdown));
        assert_eq!(bytes, frame.len());
    }

    #[test]
    fn patient_read_times_out_a_mid_frame_staller() {
        // One length byte arrives, then the peer goes silent: a
        // slowloris. The budget of 2 consecutive stalls expires.
        let mut r = scripted(vec![
            Ok(vec![0]),
            Err(io::ErrorKind::WouldBlock),
            Err(io::ErrorKind::WouldBlock),
            Err(io::ErrorKind::WouldBlock),
        ]);
        let stop = AtomicBool::new(false);
        assert_eq!(
            recv_patient(&mut r, &stop, 2).unwrap_err().kind(),
            io::ErrorKind::TimedOut
        );
    }

    #[test]
    fn patient_read_ends_cleanly_when_told_to_stop_waiting() {
        // Stopped, the read ends at the first idle stall and leaves the
        // frame behind it unread.
        let mut r = scripted(vec![Err(io::ErrorKind::WouldBlock), Ok(shutdown_frame())]);
        let stop = AtomicBool::new(true);
        assert!(recv_patient(&mut r, &stop, 100).unwrap().is_none());
        assert_eq!(r.script.len(), 1);
    }

    #[test]
    fn patient_read_matches_plain_read_on_blocking_streams() {
        let mut frame = Vec::new();
        send(
            &mut frame,
            &Envelope::Agent(ToAgent::Join {
                epoch: 3,
                attempt: 1,
            }),
        )
        .unwrap();
        let stop = AtomicBool::new(false);
        let plain = recv(&mut frame.as_slice()).unwrap();
        let patient = recv_patient(&mut frame.as_slice(), &stop, 0).unwrap();
        assert_eq!(plain, patient.map(|(envelope, _)| envelope));
    }
}
