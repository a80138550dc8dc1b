//! The agent client: one laptop's user-space utility, speaking the
//! daemon's wire protocol over TCP.
//!
//! This is the networked twin of the rig's in-process agent, minus the
//! fault layer: both wrap the same [`AgentState`] — scan once
//! per join, report rates to the controller, apply directives
//! newest-sequence-wins and ack every received transmission. A
//! reconnecting agent adopts the attachment the daemon hands back in the
//! handshake — the radio stayed associated while the controller was
//! down.
//!
//! The agent *expects* the controller to flap: a failed connect, a
//! [`Envelope::Busy`] refusal, or a connection lost mid-session all feed
//! the same bounded, seeded-jitter backoff loop ([`AgentRetry`]) before
//! the agent reconnects and re-adopts whatever state the (possibly
//! rolled-back) controller hands it. Only an exhausted budget surfaces,
//! as the typed [`DaemonError::GaveUp`].
//!
//! [`run_agent_with`] is the one agent loop: it takes the site the hello
//! names and the reconnect policy. [`run_agent`] runs it with a site-less
//! hello and the default policy.

use std::io::{self, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::thread;
use std::time::Duration;

use wolt_sim::Scenario;
use wolt_support::obs;
use wolt_support::rng::{RngCore as _, SplitMix64};
use wolt_testbed::protocol::{ToAgent, ToClient};
use wolt_testbed::AgentState;

use crate::wire::{self, Envelope};
use crate::DaemonError;

/// Reconnect policy: bounded exponential backoff with seeded jitter.
#[derive(Debug, Clone)]
pub struct AgentRetry {
    /// Connect attempts per reconnect round before giving up with
    /// [`DaemonError::GaveUp`] (at least 1).
    pub attempts: u32,
    /// Backoff after the first failed attempt; doubles per attempt.
    pub base: Duration,
    /// Ceiling on any single backoff.
    pub cap: Duration,
    /// Jitter seed. The wait is scaled by a factor in `[0.5, 1.0)`
    /// derived from `(seed, client, attempt)`, so a fleet of agents
    /// retrying after the same controller crash desynchronizes instead
    /// of stampeding — deterministically, given their seeds.
    pub seed: u64,
}

impl Default for AgentRetry {
    fn default() -> Self {
        Self {
            attempts: 10,
            base: Duration::from_millis(25),
            cap: Duration::from_secs(1),
            seed: 0,
        }
    }
}

impl AgentRetry {
    /// The wait after failed attempt `attempt` (1-based): a jittered
    /// fraction in `[0.5, 1.0)` of `capped = min(base · 2^(attempt−1),
    /// cap)`.
    ///
    /// Computed in integer nanoseconds so both documented bounds hold
    /// *exactly*: the doubling saturates (never wraps or stalls below
    /// `cap`, even past the old 20-bit shift boundary or from a
    /// sub-millisecond `base`), and the jittered wait can never round up
    /// to `capped` itself the way `mul_f64` could.
    fn backoff(&self, client: usize, attempt: u32) -> Duration {
        let base = self.base.as_nanos().max(1);
        let cap = self.cap.as_nanos().max(1);
        let shift = attempt.saturating_sub(1);
        let doubled = if shift >= base.leading_zeros() {
            u128::MAX
        } else {
            base << shift
        };
        let capped = doubled.min(cap);
        let mut mix = SplitMix64::new(self.seed ^ ((client as u64) << 32) ^ u64::from(attempt));
        // wait = half + floor(half · r / 2^64) ∈ [half, 2·half), i.e.
        // within [capped/2, capped) — strictly below the ceiling. The
        // product is split so a huge cap cannot overflow the u128.
        let half = capped / 2;
        let r = u128::from(mix.next_u64());
        let extra = (half >> 64) * r + (((half & u128::from(u64::MAX)) * r) >> 64);
        Duration::from_nanos(u64::try_from(half + extra).unwrap_or(u64::MAX))
    }
}

/// Whether a handshake failure is worth another attempt.
enum ConnectFailure {
    /// The daemon is down, restarting, or at its connection cap.
    Retryable(String),
    /// The peer is not a WOLT daemon (protocol violation): retrying
    /// cannot help.
    Fatal(DaemonError),
}

/// One connect + handshake; on success the agent holds an accepted
/// stream and the controller's view of its attachment. The stream comes
/// back inside the buffer it is read through from the handshake on, so
/// frames sent right behind the `hello_ack` stay in that buffer; writes
/// go to the stream itself.
fn connect_once(
    addr: &impl ToSocketAddrs,
    client: usize,
    name: &str,
    site: Option<&str>,
) -> Result<(BufReader<TcpStream>, Option<usize>), ConnectFailure> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| ConnectFailure::Retryable(format!("connect: {e}")))?;
    let _ = stream.set_nodelay(true);
    wire::send(
        &mut stream,
        &Envelope::Hello {
            client,
            name: name.to_string(),
            site: site.map(str::to_string),
        },
    )
    .map_err(|e| ConnectFailure::Retryable(format!("handshake send: {e}")))?;
    let mut reader = BufReader::new(stream);
    match wire::recv(&mut reader) {
        Ok(Some(Envelope::HelloAck { attached })) => Ok((reader, attached)),
        Ok(Some(Envelope::Busy { limit })) => Err(ConnectFailure::Retryable(
            DaemonError::Busy { limit }.to_string(),
        )),
        // A drained or removed site never comes back under this address:
        // retrying would spin against the refusal forever.
        Ok(Some(Envelope::SiteGone { site })) => {
            Err(ConnectFailure::Fatal(DaemonError::SiteGone { site }))
        }
        Ok(other) => Err(ConnectFailure::Fatal(DaemonError::Protocol {
            context: format!("expected hello_ack, got {other:?}"),
        })),
        Err(e) => Err(ConnectFailure::Retryable(format!("handshake recv: {e}"))),
    }
}

/// What the agent observed, returned when the daemon dismisses it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AgentOutcome {
    /// The extender the agent is attached to at exit (None if departed).
    pub attached: Option<usize>,
    /// Directives applied (newest-sequence transmissions only).
    pub directives_applied: usize,
}

/// Runs one agent to completion with the default reconnect policy and a
/// site-less hello: see [`run_agent_with`].
///
/// # Errors
///
/// As [`run_agent_with`].
pub fn run_agent(
    addr: impl ToSocketAddrs,
    scenario: &Scenario,
    client: usize,
    name: &str,
) -> Result<AgentOutcome, DaemonError> {
    run_agent_with(addr, scenario, None, client, name, &AgentRetry::default())
}

/// Runs one agent to completion: connect (with `retry`'s bounded
/// backoff), handshake, then serve join/leave commands and directives
/// until the daemon dismisses it. A connection lost mid-session —
/// controller crash, restart, read-deadline kill — re-enters the same
/// backoff loop and resumes from whatever attachment the daemon's
/// (possibly rolled-back) state hands back in the new handshake.
///
/// `client` is this agent's index in `scenario`; the scenario must be
/// the same one the daemon runs (both sides regenerate it from the same
/// seed), since the agent's scan rates come from it.
///
/// `site` names the agent's site in the hello, so a multi-site server
/// routes the connection to the segment that owns this client. `None`
/// sends the site-less hello a single-site [`crate::Daemon`] expects,
/// byte-identical to the handshake from before sites existed.
///
/// # Errors
///
/// [`DaemonError::GaveUp`] when a reconnect round exhausts
/// `retry.attempts`; [`DaemonError::InvalidConfig`] for an out-of-range
/// client index; [`DaemonError::Protocol`] when the daemon violates the
/// handshake; [`DaemonError::SiteGone`] when the server does not host
/// (or no longer hosts) `site` — fatal, not retried, because a drained
/// or removed site never comes back under the same address.
pub fn run_agent_with(
    addr: impl ToSocketAddrs,
    scenario: &Scenario,
    site: Option<&str>,
    client: usize,
    name: &str,
    retry: &AgentRetry,
) -> Result<AgentOutcome, DaemonError> {
    let n_users = scenario.user_positions.len();
    if client >= n_users {
        return Err(DaemonError::InvalidConfig {
            context: format!("client {client} out of range for {n_users} users"),
        });
    }
    let mut agent = AgentState::new(scenario, client);
    loop {
        // Connect round: a fresh budget each time the agent has to go
        // back to dialing, so a controller that keeps crashing (and
        // keeps being restarted) never strands a patient agent.
        let attempts = retry.attempts.max(1);
        let mut connected = None;
        let mut last_error = String::new();
        for attempt in 1..=attempts {
            match connect_once(&addr, client, name, site) {
                Ok(ok) => {
                    connected = Some(ok);
                    break;
                }
                Err(ConnectFailure::Fatal(e)) => return Err(e),
                Err(ConnectFailure::Retryable(why)) => {
                    last_error = why;
                    if attempt < attempts {
                        obs::counter_inc("agent.reconnects");
                        thread::sleep(retry.backoff(client, attempt));
                    }
                }
            }
        }
        let Some((mut stream, attached)) = connected else {
            return Err(DaemonError::GaveUp {
                attempting: format!("connect to the daemon as client {client}"),
                attempts,
                last_error,
            });
        };
        // A restored attachment means this client was mid-session when
        // the controller died: the radio is still associated.
        agent.reattach(attached);
        match serve(&mut stream, &mut agent)? {
            ServeEnd::Dismissed(outcome) => return Ok(outcome),
            // The daemon vanished mid-session (crash, restart,
            // read-deadline kill): dial again.
            ServeEnd::Lost => {}
        }
    }
}

/// How one served connection ended.
enum ServeEnd {
    /// The daemon said shutdown: the agent is done.
    Dismissed(AgentOutcome),
    /// The connection died without a dismissal: reconnect.
    Lost,
}

/// Whether a receive failure means the connection died (retryable) as
/// opposed to the peer not speaking the protocol (fatal): a crashed or
/// restarting daemon yields resets and truncations, never well-framed
/// garbage.
fn recv_failure_is_lost(e: &io::Error) -> bool {
    e.kind() != io::ErrorKind::InvalidData
}

/// Serves one connection until the daemon dismisses the agent or the
/// connection is lost.
///
/// # Errors
///
/// [`DaemonError::Protocol`] when the peer sends a well-formed frame an
/// agent must never see — lost connections are a [`ServeEnd`], not an
/// error.
fn serve(
    stream: &mut BufReader<TcpStream>,
    agent: &mut AgentState,
) -> Result<ServeEnd, DaemonError> {
    loop {
        let envelope = match wire::recv(stream) {
            Ok(Some(envelope)) => envelope,
            // EOF without a dismissal is a dead daemon, not a goodbye.
            Ok(None) => return Ok(ServeEnd::Lost),
            Err(e) if recv_failure_is_lost(&e) => return Ok(ServeEnd::Lost),
            Err(e) => {
                return Err(DaemonError::Protocol {
                    context: format!("agent receive: {e}"),
                })
            }
        };
        let reply = match envelope {
            Envelope::Agent(ToAgent::Shutdown)
            | Envelope::Client(ToClient::Shutdown)
            | Envelope::Shutdown { .. } => {
                return Ok(ServeEnd::Dismissed(AgentOutcome {
                    attached: agent.attached(),
                    directives_applied: agent.applied(),
                }))
            }
            Envelope::Agent(cmd) => agent.command(&cmd),
            Envelope::Client(ToClient::Directive { extender, seq, .. }) => {
                agent.directive(extender, seq)
            }
            other => {
                return Err(DaemonError::Protocol {
                    context: format!("unexpected envelope for an agent: {other:?}"),
                })
            }
        };
        let Some(reply) = reply else {
            continue;
        };
        if wire::send(stream.get_mut(), &Envelope::Ctrl(reply)).is_err() {
            return Ok(ServeEnd::Lost);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn retry(base: Duration, cap: Duration) -> AgentRetry {
        AgentRetry {
            attempts: 10,
            base,
            cap,
            seed: 0xC0FFEE,
        }
    }

    /// The ceiling `capped = min(base · 2^(attempt−1), cap)` without
    /// jitter, mirroring the documented contract.
    fn ceiling(r: &AgentRetry, attempt: u32) -> Duration {
        let base = r.base.as_nanos().max(1);
        let shift = attempt.saturating_sub(1);
        let doubled = if shift >= base.leading_zeros() {
            u128::MAX
        } else {
            base << shift
        };
        Duration::from_nanos(
            u64::try_from(doubled.min(r.cap.as_nanos().max(1))).unwrap_or(u64::MAX),
        )
    }

    #[test]
    fn backoff_stays_in_documented_jitter_range() {
        let r = retry(Duration::from_millis(25), Duration::from_secs(1));
        for client in 0..16 {
            for attempt in 1..=64 {
                let capped = ceiling(&r, attempt);
                let wait = r.backoff(client, attempt);
                assert!(
                    wait >= capped / 2 && wait < capped,
                    "client {client} attempt {attempt}: {wait:?} outside [{:?}, {capped:?})",
                    capped / 2
                );
            }
        }
    }

    #[test]
    fn backoff_honors_cap_past_the_shift_boundary() {
        // A sub-millisecond base needs > 20 doublings to reach a 1 s
        // cap; the old 20-bit shift clamp stalled it at ~105 ms forever.
        let r = retry(Duration::from_nanos(100), Duration::from_secs(1));
        for attempt in [21, 24, 25, 40, 64, u32::MAX] {
            let wait = r.backoff(3, attempt);
            assert!(wait < r.cap, "attempt {attempt}: {wait:?} >= cap");
        }
        // Once doubled past the cap, the jittered wait must reach the
        // cap's range — at least cap/2.
        for attempt in [25, 40, 64, u32::MAX] {
            let wait = r.backoff(3, attempt);
            assert!(
                wait >= r.cap / 2,
                "attempt {attempt}: {wait:?} never reached the cap range"
            );
        }
    }

    #[test]
    fn backoff_never_equals_the_ceiling_exactly() {
        // mul_f64's rounding could return `capped` itself, violating the
        // strict upper bound; integer math cannot.
        let r = retry(Duration::from_secs(1), Duration::from_secs(1));
        for client in 0..64 {
            for attempt in 1..=8 {
                assert!(r.backoff(client, attempt) < ceiling(&r, attempt));
            }
        }
    }

    #[test]
    fn backoff_is_deterministic_per_seed_client_attempt() {
        let r = retry(Duration::from_millis(25), Duration::from_secs(1));
        assert_eq!(r.backoff(2, 3), r.backoff(2, 3));
        assert_ne!(r.backoff(2, 3), r.backoff(3, 3));
        let other = AgentRetry {
            seed: 1,
            ..r.clone()
        };
        assert_ne!(r.backoff(2, 3), other.backoff(2, 3));
    }

    #[test]
    fn backoff_survives_degenerate_durations() {
        // Zero base/cap clamp to 1 ns rather than dividing by zero or
        // wrapping; huge caps saturate instead of overflowing.
        let r = retry(Duration::ZERO, Duration::ZERO);
        assert!(r.backoff(0, 1) <= Duration::from_nanos(1));
        // A cap beyond u64 nanoseconds saturates the returned Duration
        // at u64::MAX ns (~584 years) instead of wrapping.
        let huge = retry(Duration::from_secs(u64::MAX), Duration::MAX);
        let wait = huge.backoff(0, u32::MAX);
        assert_eq!(wait, Duration::from_nanos(u64::MAX));
    }
}
