//! Seeded, deterministic fault injection for the testbed rig.
//!
//! The paper's testbed is a real enterprise network: client reports cross
//! a real medium, directives can be lost or delayed, and extender-attached
//! laptops crash or hang without notice. A [`FaultPlan`] reproduces those
//! conditions on the rig's channels — message **drop**, **delay**, and
//! **duplication** on the client ↔ Central Controller links, plus two
//! agent-level faults: **crash** (the agent thread exits right after its
//! first scan report, without ever sending `Departed`) and **wedge** (the
//! agent keeps running but never applies or acknowledges a directive).
//!
//! # Determinism contract
//!
//! Every per-message decision is a pure function of
//! `(plan seed, link, message identity)`, where the identity is the
//! message's protocol key — `(client, epoch, attempt)` for reports and
//! departure notices, `(client, seq, attempt)` for directives and acks —
//! **not** a draw from a shared sequential RNG stream. Thread scheduling,
//! retry timing, and the number of retransmissions therefore cannot shift
//! any other message's fate: two runs with the same seed and plan make
//! identical drop/duplicate/delay decisions for every message identity
//! they have in common, and the session outcome is byte-identical
//! regardless of wall-clock jitter or `WOLT_THREADS`. The workspace
//! integration tests pin this at 1/2/8 threads.

use std::time::Duration;

use wolt_support::rng::{ChaCha8Rng, Rng, RngCore, SeedableRng, SplitMix64};

use crate::TestbedError;

/// Per-link message fault rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaults {
    /// Probability that a message is silently dropped.
    pub drop: f64,
    /// Probability that a delivered message is delivered twice.
    pub duplicate: f64,
    /// Maximum extra in-flight latency; each delivered message is delayed
    /// by a uniform draw from `[0, max_delay]`.
    pub max_delay: Duration,
}

impl LinkFaults {
    /// A perfectly reliable link.
    pub const fn none() -> Self {
        Self {
            drop: 0.0,
            duplicate: 0.0,
            max_delay: Duration::ZERO,
        }
    }

    /// Whether this link injects no faults at all.
    pub fn is_none(&self) -> bool {
        self.drop == 0.0 && self.duplicate == 0.0 && self.max_delay.is_zero()
    }

    fn validate(&self, link: &'static str) -> Result<(), TestbedError> {
        for (name, p) in [("drop", self.drop), ("duplicate", self.duplicate)] {
            if !(p.is_finite() && (0.0..=1.0).contains(&p)) {
                return Err(TestbedError::AssignmentFailed {
                    context: format!("fault plan: {link} {name} probability {p} outside [0, 1]"),
                });
            }
        }
        Ok(())
    }
}

/// Which rig link a message travels on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Link {
    /// Client agent → Central Controller (reports, acks, departures).
    ToCc,
    /// Central Controller → client agent (directives).
    ToClient,
}

/// The stable identity of one message transmission, used to key its fault
/// decision. Retries of the same logical message differ in `attempt` and
/// get independent decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageKey {
    /// Message kind discriminant (report / departed / ack / directive).
    pub kind: u8,
    /// Client index.
    pub client: u64,
    /// Epoch (reports, departures) or directive sequence number (acks,
    /// directives).
    pub marker: u64,
    /// Delivery attempt, 1-based.
    pub attempt: u64,
}

impl MessageKey {
    /// Key for a scan report.
    pub fn report(client: usize, epoch: u64, attempt: u32) -> Self {
        Self {
            kind: 0,
            client: client as u64,
            marker: epoch,
            attempt: u64::from(attempt),
        }
    }

    /// Key for a departure notice.
    pub fn departed(client: usize, epoch: u64, attempt: u32) -> Self {
        Self {
            kind: 1,
            client: client as u64,
            marker: epoch,
            attempt: u64::from(attempt),
        }
    }

    /// Key for a directive ack.
    pub fn ack(client: usize, seq: u64, attempt: u32) -> Self {
        Self {
            kind: 2,
            client: client as u64,
            marker: seq,
            attempt: u64::from(attempt),
        }
    }

    /// Key for a directive.
    pub fn directive(client: usize, seq: u64, attempt: u32) -> Self {
        Self {
            kind: 3,
            client: client as u64,
            marker: seq,
            attempt: u64::from(attempt),
        }
    }
}

/// The fate of one message transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// Deliver nothing.
    pub drop: bool,
    /// Deliver a second copy.
    pub duplicate: bool,
    /// Extra in-flight latency before delivery.
    pub delay: Duration,
}

impl Decision {
    /// Faithful delivery.
    pub const DELIVER: Self = Self {
        drop: false,
        duplicate: false,
        delay: Duration::ZERO,
    };
}

/// A complete, seeded description of the faults injected into one
/// session.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for every per-message decision.
    pub seed: u64,
    /// Faults on the client → CC link.
    pub to_cc: LinkFaults,
    /// Faults on the CC → client link. Its `max_delay` is served by the
    /// receiving agent before it processes the directive, which keeps the
    /// session loop non-blocking.
    pub to_client: LinkFaults,
    /// Clients whose agent thread exits silently right after sending its
    /// first scan report — no `Departed`, no acks, channel closed.
    pub crashed: Vec<usize>,
    /// Clients that join and report normally but never apply or
    /// acknowledge any directive.
    pub wedged: Vec<usize>,
}

impl FaultPlan {
    /// The fault-free plan (strict mode: the rig behaves exactly like the
    /// lossless original, and unresponsive endpoints are hard errors).
    pub fn none() -> Self {
        Self {
            seed: 0,
            to_cc: LinkFaults::none(),
            to_client: LinkFaults::none(),
            crashed: Vec::new(),
            wedged: Vec::new(),
        }
    }

    /// Whether the plan injects no faults at all.
    pub fn is_none(&self) -> bool {
        self.to_cc.is_none()
            && self.to_client.is_none()
            && self.crashed.is_empty()
            && self.wedged.is_empty()
    }

    /// Whether `client`'s agent is expected to misbehave (crash or
    /// wedge), so the harness treats its silence as a planned fault
    /// rather than a harness bug.
    pub fn expects_agent_fault(&self, client: usize) -> bool {
        self.crashed.contains(&client) || self.wedged.contains(&client)
    }

    /// Validates probabilities and fault-set consistency.
    ///
    /// # Errors
    ///
    /// Returns [`TestbedError::AssignmentFailed`] describing the first
    /// invalid field.
    pub fn validate(&self) -> Result<(), TestbedError> {
        self.to_cc.validate("to_cc")?;
        self.to_client.validate("to_client")?;
        if let Some(c) = self.crashed.iter().find(|c| self.wedged.contains(c)) {
            return Err(TestbedError::AssignmentFailed {
                context: format!("fault plan: client {c} is both crashed and wedged"),
            });
        }
        Ok(())
    }

    /// The deterministic fate of the message identified by `key` on
    /// `link`. Independent of call order, thread, and wall clock.
    pub fn decide(&self, link: Link, key: MessageKey) -> Decision {
        let faults = match link {
            Link::ToCc => &self.to_cc,
            Link::ToClient => &self.to_client,
        };
        if faults.is_none() {
            return Decision::DELIVER;
        }
        let mut rng = ChaCha8Rng::seed_from_u64(mix(&[
            self.seed,
            link as u64,
            u64::from(key.kind),
            key.client,
            key.marker,
            key.attempt,
        ]));
        // Fixed draw order so each field's distribution is independent of
        // the other probabilities.
        let drop = rng.gen_range(0.0..1.0) < faults.drop;
        let duplicate = rng.gen_range(0.0..1.0) < faults.duplicate;
        let delay = if faults.max_delay.is_zero() {
            Duration::ZERO
        } else {
            faults.max_delay.mul_f64(rng.gen_range(0.0..=1.0))
        };
        Decision {
            drop,
            duplicate: duplicate && !drop,
            delay,
        }
    }
}

/// Hashes the parts into one 64-bit decision seed by chaining SplitMix64.
fn mix(parts: &[u64]) -> u64 {
    let mut h: u64 = 0x574F_4C54_5F66_6C74; // "WOLT_flt"
    for &p in parts {
        h = SplitMix64::new(h ^ p).next_u64();
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossy_plan() -> FaultPlan {
        FaultPlan {
            seed: 42,
            to_cc: LinkFaults {
                drop: 0.3,
                duplicate: 0.2,
                max_delay: Duration::from_millis(5),
            },
            to_client: LinkFaults {
                drop: 0.3,
                duplicate: 0.0,
                max_delay: Duration::ZERO,
            },
            crashed: vec![2],
            wedged: vec![4],
        }
    }

    #[test]
    fn decisions_are_deterministic_and_key_sensitive() {
        let plan = lossy_plan();
        let key = MessageKey::ack(3, 17, 1);
        assert_eq!(plan.decide(Link::ToCc, key), plan.decide(Link::ToCc, key));
        // Different attempt, client, or link → independent decision seed.
        let decisions: Vec<Decision> = (1..=64)
            .map(|attempt| plan.decide(Link::ToCc, MessageKey::ack(3, 17, attempt)))
            .collect();
        assert!(
            decisions.iter().any(|d| d.drop) && decisions.iter().any(|d| !d.drop),
            "64 attempts at drop=0.3 should mix fates: {decisions:?}"
        );
    }

    #[test]
    fn decision_independent_of_call_order() {
        let plan = lossy_plan();
        let a = MessageKey::report(0, 0, 1);
        let b = MessageKey::directive(1, 5, 2);
        let first = (plan.decide(Link::ToCc, a), plan.decide(Link::ToClient, b));
        let second = (plan.decide(Link::ToClient, b), plan.decide(Link::ToCc, a));
        assert_eq!(first.0, second.1);
        assert_eq!(first.1, second.0);
    }

    #[test]
    fn drop_rate_is_approximately_honored() {
        let plan = lossy_plan();
        let n = 2000;
        let dropped = (0..n)
            .filter(|&i| plan.decide(Link::ToCc, MessageKey::report(i, 0, 1)).drop)
            .count();
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.05, "empirical drop rate {rate}");
    }

    #[test]
    fn fault_free_plan_always_delivers() {
        let plan = FaultPlan::none();
        assert!(plan.is_none());
        for i in 0..100 {
            assert_eq!(
                plan.decide(Link::ToCc, MessageKey::report(i, 0, 1)),
                Decision::DELIVER
            );
        }
    }

    #[test]
    fn dropped_messages_are_not_duplicated() {
        let plan = FaultPlan {
            to_cc: LinkFaults {
                drop: 0.5,
                duplicate: 1.0,
                max_delay: Duration::ZERO,
            },
            ..lossy_plan()
        };
        for i in 0..200 {
            let d = plan.decide(Link::ToCc, MessageKey::ack(i, 1, 1));
            assert!(!(d.drop && d.duplicate), "dropped AND duplicated: {d:?}");
        }
    }

    #[test]
    fn validation_catches_bad_plans() {
        let mut plan = lossy_plan();
        assert!(plan.validate().is_ok());
        plan.to_cc.drop = 1.5;
        assert!(plan.validate().is_err());
        plan.to_cc.drop = 0.1;
        plan.wedged = vec![2];
        assert!(plan.validate().is_err(), "client both crashed and wedged");
    }

    #[test]
    fn agent_fault_expectations() {
        let plan = lossy_plan();
        assert!(plan.expects_agent_fault(2));
        assert!(plan.expects_agent_fault(4));
        assert!(!plan.expects_agent_fault(0));
        assert!(!FaultPlan::none().expects_agent_fault(2));
    }
}
