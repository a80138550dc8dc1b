//! Wire messages between client agents and the Central Controller.
//!
//! Mirrors the paper's software architecture (§V-A): "When a user arrives
//! (needs association), it scans all available networks and estimate\[s\]
//! the WiFi channel quality of each extender … The users (clients) gather
//! this information on the reachable extenders and send it to the CC …
//! a new user initially connects to the extender with the highest RSSI to
//! communicate with the server and later switches extenders if needed,
//! based on the new assignment from the CC."
//!
//! Because these messages travel over a real (and in this rig, optionally
//! faulty) medium, every message carries enough identity to be processed
//! idempotently:
//!
//! * reports and departure notices carry the harness **epoch** (event
//!   index) that produced them, so the CC applies each event exactly once
//!   no matter how many retransmissions or duplicates arrive;
//! * directives carry a monotone **sequence number**, so a client applies
//!   each re-association exactly once and stale retries are recognized;
//! * directives and their acks carry the delivery **attempt**, so the
//!   fault layer can make an independent, deterministic drop/delay
//!   decision per retransmission.

use wolt_units::Mbps;

/// Messages a client agent sends to the Central Controller.
#[derive(Debug, Clone, PartialEq)]
pub enum ToController {
    /// Scan report: the client's estimated achievable rate to each
    /// extender (`None` = out of range), plus the extender it attached to
    /// initially (highest RSSI).
    Report {
        /// Client index.
        client: usize,
        /// Harness epoch (event index) of the join that produced this
        /// report; retransmissions repeat it.
        epoch: u64,
        /// Estimated achievable rate per extender.
        rates: Vec<Option<Mbps>>,
        /// Extender the client attached to for CC connectivity.
        attached: usize,
    },
    /// Acknowledgement that a directive was applied (the client finished
    /// re-associating).
    Ack {
        /// Client index.
        client: usize,
        /// Sequence number of the directive being acknowledged.
        seq: u64,
        /// The extender the client is now associated with.
        extender: usize,
    },
    /// The client has left the network.
    Departed {
        /// Client index.
        client: usize,
        /// Harness epoch (event index) of the leave that produced this
        /// notice; retransmissions repeat it.
        epoch: u64,
    },
}

impl ToController {
    /// The client the message speaks for.
    pub fn client(&self) -> usize {
        match self {
            ToController::Report { client, .. }
            | ToController::Ack { client, .. }
            | ToController::Departed { client, .. } => *client,
        }
    }
}

/// Messages the Central Controller sends to a client agent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ToClient {
    /// Associate with this extender.
    Directive {
        /// Target extender index.
        extender: usize,
        /// Sequence number: a client applies each directive once and
        /// re-acks (without re-associating) when a retry of an
        /// already-applied sequence arrives.
        seq: u64,
        /// Delivery attempt (1-based); retries of the same `seq`
        /// increment it.
        attempt: u32,
    },
    /// Experiment over; the agent should exit.
    Shutdown,
}

/// Harness → client agent control messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ToAgent {
    /// Begin the join procedure (scan → attach → report).
    Join {
        /// Harness epoch (event index) of this join.
        epoch: u64,
        /// Delivery attempt (1-based); the harness re-sends a join whose
        /// completion it never observed.
        attempt: u32,
    },
    /// Leave the network (detach and notify the CC).
    Leave {
        /// Harness epoch (event index) of this leave.
        epoch: u64,
        /// Delivery attempt (1-based).
        attempt: u32,
    },
    /// Exit the agent loop.
    Shutdown,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_cloneable_and_comparable() {
        let m = ToController::Report {
            client: 1,
            epoch: 0,
            rates: vec![Some(Mbps::new(10.0)), None],
            attached: 0,
        };
        assert_eq!(m.clone(), m);
        let d = ToClient::Directive {
            extender: 2,
            seq: 1,
            attempt: 1,
        };
        assert_ne!(d, ToClient::Shutdown);
        let j = ToAgent::Join {
            epoch: 3,
            attempt: 1,
        };
        assert_eq!(j.clone(), j);
    }

    #[test]
    fn retries_differ_only_in_attempt() {
        let first = ToClient::Directive {
            extender: 2,
            seq: 9,
            attempt: 1,
        };
        let retry = ToClient::Directive {
            extender: 2,
            seq: 9,
            attempt: 2,
        };
        assert_ne!(first, retry);
    }

    #[test]
    fn messages_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<ToController>();
        assert_send::<ToClient>();
        assert_send::<ToAgent>();
    }
}
