//! Testbed emulation for WOLT: the Central Controller architecture in
//! process, on virtual time.
//!
//! The paper evaluates WOLT on a physical testbed of TP-Link TL-WPA8630
//! extenders and seven laptops running "a user-space utility that runs on
//! users' devices as well as the server" (§V-A). This crate reproduces
//! that software architecture faithfully — minus the hardware, which is
//! replaced by the `wolt-sim` scenario substrate:
//!
//! * [`protocol`] — the client ↔ Central Controller messages (scan
//!   report, association directive, ack, departure). The rig hands them
//!   over as they are; `wolt-daemon`'s `wire` module gives them their
//!   JSON and framing for TCP.
//! * [`rig`] — the Central Controller and one agent per client laptop in
//!   the calling thread, on virtual time: clients join sequentially, the
//!   air replays a seeded fault plan, and the CC runs WOLT / Greedy /
//!   RSSI on *estimated* PLC capacities while outcomes are evaluated on
//!   the true ones.
//! * [`session`] — the protocol as one clock-free state machine: the
//!   [`session::SessionDriver`] (commands, directive transactions,
//!   retransmission, dead declarations) and the [`session::AgentState`]
//!   every agent follows. The in-process [`rig`] and the networked
//!   `wolt-daemon` are both thin transports over it.
//! * [`controller`] — the transport-agnostic Central Controller brain
//!   ([`controller::ControllerCore`]): epoch dedup, report ingest,
//!   policy planning, monotone directive sequencing, declared-dead
//!   bookkeeping, and JSON snapshot/restore.
//! * [`faults`] — seeded deterministic fault injection (message drop /
//!   delay / duplication, crashed and wedged agents) for exercising the
//!   resilient control loop.
//! * [`experiment`] — the §V-D experiment: 25 random lab topologies,
//!   3 extenders, 7 laptops, with the Fig. 4a/4b/5 analyses.
//!
//! # Example
//!
//! ```
//! use wolt_testbed::experiment::{aggregate_summary, TestbedExperiment};
//!
//! # fn main() -> Result<(), wolt_testbed::TestbedError> {
//! let comparisons = TestbedExperiment {
//!     topologies: 3, // the paper uses 25; keep doc examples quick
//!     ..TestbedExperiment::default()
//! }
//! .run()?;
//! let summary = aggregate_summary(&comparisons);
//! assert!(summary.wolt > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod controller;
pub mod experiment;
pub mod faults;
pub mod protocol;
pub mod rig;
pub mod session;

mod error;

pub use controller::{ControllerConfig, ControllerCore, ControllerSnapshot, Directive};
pub use error::TestbedError;
pub use faults::{FaultPlan, LinkFaults};
pub use rig::{
    run_faulty_session, run_rig, run_session, ControllerPolicy, Deadlines, RigConfig, SessionEvent,
    SessionReport, TopologyOutcome,
};
pub use session::{
    check_session, estimate_capacities, AgentState, Ended, EventOutcome, Input, Outbound,
    SessionDriver, SessionProgress, Step,
};
