//! `wolt-daemon` — the WOLT Central Controller as a networked service.
//!
//! The paper's §V-A architecture is a server ("the CC") that laptops
//! talk to over the network. The in-process testbed
//! ([`wolt_testbed::rig`]) emulates that in one thread on virtual time;
//! this crate runs it for real: one TCP server ([`server`]) speaking a
//! length-prefixed JSON wire protocol, an agent client ([`run_agent`],
//! [`run_agent_with`]) for the laptop side, and a crash-safe
//! generational snapshot store ([`store::SnapshotStore`]) so a restarted
//! — or killed — controller resumes mid-session without re-issuing
//! directives, rolling back over torn writes to the newest generation
//! that checksums clean.
//!
//! An enterprise deployment is rarely one PLC segment: each floor or
//! wing is its own electrically-isolated powerline network. The server
//! hosts any number of such **sites** behind one address — a
//! [`Fleet`] — and the single-site [`Daemon`] is a fleet of one
//! anonymous site. Agents declare their site in the handshake; the
//! [`router::FleetRouter`] maps the hello to that site's session inbox
//! or answers with the typed [`Envelope::SiteGone`]. Sites are
//! partitioned across shard threads by [`shard::partition`], a pure
//! function of the sorted site list, and each site snapshots into its
//! own directory stamped with its id, so a fleet of N sites produces,
//! per site, a canonical [`wolt_testbed::SessionReport`] byte-identical
//! to N separate single-site servers — at any shard count, including
//! across a kill/restart. Spec files for `wolt serve --sites` are
//! parsed by [`spec`].
//!
//! Every association *decision* lives in the shared
//! [`wolt_testbed::ControllerCore`], and the protocol around it —
//! commands, directive transactions, retransmission, dead declarations —
//! in the shared [`wolt_testbed::SessionDriver`] and
//! [`wolt_testbed::AgentState`]; this crate contributes only transport.
//! That is what makes the daemon's clean-session
//! [`wolt_testbed::SessionReport`] canonically byte-identical to
//! [`wolt_testbed::run_session`] for the same (scenario, seed, policy):
//! both transports feed the identical driver the identical inputs in the
//! identical order.
//!
//! The wire format has one home, [`wire`]: the envelope, the JSON of
//! the testbed's protocol messages, the framing, and the two public
//! calls that move frames, [`wire::send`] and [`wire::recv`].
//!
//! Hermetic like the rest of the workspace: `std::net` only, no external
//! crates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod engine;
pub mod inbox;
pub mod router;
pub mod server;
pub mod shard;
pub mod snapshot;
pub mod spec;
pub mod store;
pub mod wire;

mod error;

pub use agent::{run_agent, run_agent_with, AgentOutcome, AgentRetry};
pub use engine::{EngineStep, Incoming, SessionEngine};
pub use error::{DaemonError, SnapshotCorrupt};
pub use server::{Daemon, DaemonConfig, DaemonOutcome, DaemonStats, Fleet, FleetOutcome, SiteDef};
pub use snapshot::DaemonSnapshot;
pub use spec::FleetSpec;
pub use store::SnapshotStore;
pub use wire::Envelope;

/// Every named crash point the daemon's write paths declare, with the
/// most scheduled hits that still land inside a short session (a seeded
/// [`wolt_support::crash::CrashPlan`] picks a hit count in
/// `1..=max_hits` per point). This is the catalogue the chaos harness
/// sweeps: killing the daemon at any of these points must leave a store
/// a restart recovers from with a byte-identical final report.
pub fn crash_catalogue() -> Vec<(&'static str, u64)> {
    vec![
        (store::CRASH_MID_WRITE, 3),
        (store::CRASH_PRE_PRUNE, 3),
        (server::CRASH_PRE_SNAPSHOT, 3),
        (server::CRASH_POST_SNAPSHOT, 3),
        (wire::CRASH_MID_FRAME, 5),
    ]
}
