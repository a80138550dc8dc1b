//! The `wolt-daemon` server: the Central Controller as a long-running
//! TCP service.
//!
//! The in-process rig ([`wolt_testbed::rig`]) wires the controller and
//! the client agents together with mpsc channels inside one process. The
//! daemon replaces the channel transport with TCP — agents connect over
//! loopback (or a LAN), handshake with [`Envelope::Hello`], and then
//! speak exactly the [`wolt_testbed::protocol`] messages the rig speaks —
//! while every *decision* (planning, sequencing, epoch dedup,
//! declared-dead bookkeeping) stays in the shared
//! [`wolt_testbed::ControllerCore`]. Because both transports drive the
//! same core with the same inputs in the same order, a clean TCP session
//! produces a [`SessionReport`] whose canonical rendering is
//! byte-identical to the in-process run for the same scenario, seed, and
//! policy.
//!
//! # Concurrency
//!
//! One reader task per connection (on a [`wolt_support::pool::TaskPool`])
//! parses frames and forwards them into a single bounded
//! [`inbox`](crate::inbox) queue; the session loop — a
//! [`SessionEngine`](crate::engine::SessionEngine) stepped by this one
//! thread — is the only code that touches the controller core or writes
//! to agent sockets. The accept loop runs on its own thread with a
//! nonblocking listener so shutdown is prompt. (`Daemon` is exactly a
//! one-engine fleet: `wolt_fleet` steps many of these engines on shared
//! shard threads.)
//!
//! # Persistence
//!
//! After every completed epoch the daemon snapshots its full state (see
//! [`DaemonSnapshot`](crate::snapshot::DaemonSnapshot)) through the
//! generational [`SnapshotStore`](crate::store::SnapshotStore): each save
//! is a fresh checksummed `snapshot.<gen>.json` in `snapshot_dir`, and
//! restore rolls back over torn or corrupt generations to the newest one
//! that verifies. A restarted daemon restores that snapshot, hands each
//! reconnecting agent its saved attachment in the handshake (the radio
//! association outlives the controller process), and resumes at the
//! saved epoch — issuing no extra directives for work already done.
//!
//! # Overload
//!
//! Three independent guards keep a misbehaving or excessive peer from
//! taking the daemon down, each with an exact counter: connections past
//! `max_connections` are refused with a typed [`Envelope::Busy`] reply
//! (`daemon.conns_rejected`); a peer that stalls mid-frame past
//! `read_stall` loses its connection (`daemon.read_timeouts`) while
//! idling *between* frames stays free; and the session inbox is bounded
//! at `inbox_cap` entries, shedding the oldest queued telemetry first —
//! never acks or lifecycle messages (`daemon.frames_shed`).

use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use wolt_plc::capacity::CapacityEstimator;
use wolt_sim::Scenario;
use wolt_support::obs;
use wolt_testbed::{check_session, ControllerPolicy, Deadlines, SessionEvent, SessionReport};

use crate::engine::{self, EngineStep, HelloDecision, Incoming, SessionEngine};
use crate::store;
use crate::wire::{self, Envelope};
use crate::DaemonError;

pub use crate::engine::{CRASH_POST_SNAPSHOT, CRASH_PRE_SNAPSHOT};

/// Daemon configuration beyond the scenario and event list.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Association logic at the CC.
    pub policy: ControllerPolicy,
    /// Offline PLC capacity estimation procedure (measurement noise).
    pub estimator: CapacityEstimator,
    /// Deadline and retry budgets, shared with the in-process rig.
    pub deadlines: Deadlines,
    /// Seed for the capacity-estimation noise (the rig's `seed`).
    pub noise_seed: u64,
    /// Directory for the generational snapshot store
    /// ([`crate::store::SnapshotStore`]); `None` disables persistence.
    pub snapshot_dir: Option<PathBuf>,
    /// Snapshot generations kept on disk (must be ≥ 1 when persistence
    /// is on); older generations are pruned after each save.
    pub snapshot_keep: usize,
    /// Stop (snapshot + graceful shutdown) after this many events have
    /// completed in total — an operational kill switch and the hook the
    /// restart tests use to stop deterministically mid-session.
    pub stop_after: Option<usize>,
    /// How long to wait for every agent to connect before giving up.
    pub connect_deadline: Duration,
    /// How long to keep the listener (and metrics service) alive after
    /// the last event completes, before dismissing agents and shutting
    /// down. Zero by default. Gives external scrapers a deterministic
    /// window to read the finished session's counters over the
    /// [`Envelope::MetricsRequest`] envelope.
    pub linger: Duration,
    /// Concurrent connections accepted before new arrivals are refused
    /// with [`Envelope::Busy`]; `0` means unlimited.
    pub max_connections: usize,
    /// Session-inbox bound; past it the oldest queued telemetry frame is
    /// shed (acks and lifecycle messages never are). `0` means
    /// unbounded.
    pub inbox_cap: usize,
    /// How long a peer may stall *mid-frame* before its connection is
    /// dropped (idle between frames is always allowed). `Duration::ZERO`
    /// disables the deadline (fully blocking reads, as before).
    pub read_stall: Duration,
}

impl DaemonConfig {
    /// Config with the given policy and defaults for everything else.
    pub fn new(policy: ControllerPolicy) -> Self {
        Self {
            policy,
            estimator: CapacityEstimator::default(),
            deadlines: Deadlines::default(),
            noise_seed: 0,
            snapshot_dir: None,
            snapshot_keep: store::DEFAULT_KEEP,
            stop_after: None,
            connect_deadline: Duration::from_secs(30),
            linger: Duration::ZERO,
            max_connections: 0,
            inbox_cap: 0,
            read_stall: Duration::from_secs(5),
        }
    }
}

/// Transport-level counters from one daemon run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DaemonStats {
    /// Protocol messages received from agents (reports, acks,
    /// departures).
    pub msgs_in: usize,
    /// Per-event re-solve latency: from receiving the triggering report
    /// to the directive transaction completing (all acks in).
    pub resolve_latencies: Vec<Duration>,
    /// Wall-clock time spent driving the session (agents connected →
    /// last event done).
    pub elapsed: Duration,
}

/// What one daemon run produced.
#[derive(Debug, Clone)]
pub struct DaemonOutcome {
    /// The evaluated session outcome (partial if the run was stopped).
    pub report: SessionReport,
    /// Whether every configured event completed.
    pub completed: bool,
    /// Events completed in total (including ones restored from a
    /// snapshot).
    pub epochs_done: usize,
    /// Transport counters.
    pub stats: DaemonStats,
}

/// The Central Controller as a TCP server.
pub struct Daemon {
    listener: TcpListener,
    scenario: Scenario,
    events: Vec<SessionEvent>,
    config: DaemonConfig,
}

impl Daemon {
    /// Binds the daemon's listening socket.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Io`] when the address cannot be bound;
    /// [`DaemonError::Testbed`] for an empty scenario or zero retry
    /// budgets.
    pub fn bind(
        addr: impl ToSocketAddrs,
        scenario: Scenario,
        events: Vec<SessionEvent>,
        config: DaemonConfig,
    ) -> Result<Self, DaemonError> {
        check_session(&scenario, &config.deadlines)?;
        let listener = TcpListener::bind(addr)?;
        Ok(Self {
            listener,
            scenario,
            events,
            config,
        })
    }

    /// The bound address (useful after binding port 0).
    ///
    /// # Errors
    ///
    /// Propagates the OS failure to report the socket address.
    pub fn local_addr(&self) -> Result<SocketAddr, DaemonError> {
        Ok(self.listener.local_addr()?)
    }

    /// Runs the session to completion (or a stop request) and returns
    /// the evaluated outcome.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Timeout`] when the expected agents never connect;
    /// [`DaemonError::Testbed`] for session-machinery failures;
    /// [`DaemonError::Io`] for socket failures.
    pub fn run(self) -> Result<DaemonOutcome, DaemonError> {
        // One reader per expected agent plus slack for an operator
        // connection.
        let workers = self.scenario.user_positions.len() + 2;
        let linger = self.config.linger;
        let max_connections = self.config.max_connections;
        let read_stall = self.config.read_stall;

        // The daemon is a one-engine fleet: a site-less engine plus an
        // accept path that routes every hello to it.
        let (mut engine, tx) = SessionEngine::new("", self.scenario, self.events, self.config)?;
        let greeting = engine.greeting();
        let stop = Arc::new(AtomicBool::new(false));

        let handler: Arc<dyn Fn(TcpStream) + Send + Sync> = {
            let stop = Arc::clone(&stop);
            let tx = tx.clone();
            Arc::new(move |stream| {
                let route = |client: usize, site: Option<&str>| -> HelloDecision {
                    if let Some(site) = site {
                        // This daemon hosts exactly one anonymous site; a
                        // sited hello is looking for a fleet.
                        return HelloDecision::Reject(Envelope::SiteGone {
                            site: site.to_string(),
                        });
                    }
                    if client < greeting.len() {
                        HelloDecision::Accept {
                            sender: tx.clone(),
                            attached: greeting[client],
                        }
                    } else {
                        HelloDecision::Close
                    }
                };
                let control = |stream: &mut TcpStream, envelope: Envelope| -> bool {
                    match envelope {
                        Envelope::Shutdown { reason } => {
                            obs::trace("daemon", format!("operator stop: {reason}"));
                            let _ = tx.send(Incoming::Stop { reason });
                            false
                        }
                        Envelope::MetricsRequest => {
                            obs::counter_inc("daemon.metrics_requests");
                            let reply = Envelope::Metrics {
                                metrics: obs::snapshot(),
                            };
                            match wire::send_counted(stream, &reply) {
                                Ok(sent) => {
                                    engine::note_frame_out(sent);
                                    true
                                }
                                Err(_) => false,
                            }
                        }
                        Envelope::Fleet(op) => {
                            // Answer honestly so `wolt fleet …` against a
                            // single-site daemon fails with a reason, not
                            // a hang.
                            let reply = Envelope::FleetAck {
                                op: op.name().to_string(),
                                site: op.site().to_string(),
                                ok: false,
                                detail: "this daemon is not a fleet".to_string(),
                            };
                            match wire::send_counted(stream, &reply) {
                                Ok(sent) => {
                                    engine::note_frame_out(sent);
                                    true
                                }
                                Err(_) => false,
                            }
                        }
                        _ => false,
                    }
                };
                engine::serve_connection(stream, &stop, read_stall, &route, &control);
            })
        };
        let acceptor = engine::spawn_acceptor(
            self.listener,
            Arc::clone(&stop),
            workers,
            max_connections,
            handler,
        )?;
        drop(tx);

        let result = loop {
            match engine.step() {
                Ok(EngineStep::Finished) => break Ok(()),
                Ok(_) => {}
                Err(e) => break Err(e),
            }
        };
        // Linger: keep the listener (and with it the metrics service)
        // alive for a beat before dismissing agents, so scrapers polling
        // over TCP deterministically observe the finished session.
        if !linger.is_zero() {
            thread::sleep(linger);
        }
        // Graceful teardown happens even on error paths: tell every
        // connected agent to exit so their sockets close and the reader
        // pool can drain.
        engine.dismiss_agents();
        stop.store(true, Ordering::Relaxed);
        // Agents that registered after the session loop stopped reading
        // still need a dismissal, or their reader tasks (and the pool
        // join inside the acceptor thread) would wait forever.
        while !acceptor.is_finished() {
            if engine.reap_strays(Duration::from_millis(20)) {
                break;
            }
        }
        let _ = acceptor.join();
        result?;
        engine.finish()
    }
}
