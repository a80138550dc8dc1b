//! The session engine: one site's Central Controller session loop, as
//! a state machine the server's shards step (see [`crate::server`]).
//!
//! The protocol itself is the shared [`SessionDriver`]: commands,
//! directive transactions, retransmission, dead declarations and the
//! session ledger. The engine is its TCP transport: it owns the agent
//! writers, the bounded inbox receiver, the clock, and the per-epoch
//! snapshot schedule. What it does *not* own is the accept path: reader
//! tasks are fed by whoever accepts connections, through the
//! [`Incoming`] sender returned by [`SessionEngine::new`].
//!
//! [`SessionEngine::step`] runs one bounded unit of work — a short
//! connect-wait poll, or one full session event (command, report,
//! directive transaction, snapshot) — and returns. A shard round-robins
//! `step` across its sites; a single-site server is one shard with one
//! site. Because one engine is stepped by exactly one thread and every
//! decision stays inside its own driver, the canonical report a site
//! produces is byte-identical however many engines share the process —
//! the fleet's headline invariant is structural, not coincidental: the
//! single-site daemon *is* a one-site fleet.

use std::io::{BufReader, Write as _};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use wolt_sim::Scenario;
use wolt_support::pool::TaskPool;
use wolt_support::{crash_point, obs};
use wolt_testbed::protocol::{ToAgent, ToClient, ToController};
use wolt_testbed::{
    check_session, estimate_capacities, ControllerConfig, ControllerCore, ControllerPolicy, Ended,
    EventOutcome, Input, Outbound, SessionDriver, SessionEvent, SessionProgress, Step,
    TestbedError,
};

use crate::inbox::{self, Inbox, InboxSender};
use crate::server::{DaemonConfig, DaemonOutcome, DaemonStats, SiteDef};
use crate::snapshot::DaemonSnapshot;
use crate::store::{self, SnapshotStore};
use crate::wire::{self, Envelope};
use crate::DaemonError;

/// Crash point after an epoch's event completed but before its snapshot
/// is written: the restarted daemon replays the whole event.
pub const CRASH_PRE_SNAPSHOT: &str = "daemon.epoch.pre_snapshot";

/// Crash point right after an epoch's snapshot is durable: the restarted
/// daemon resumes at the next event with zero replay.
pub const CRASH_POST_SNAPSHOT: &str = "daemon.epoch.post_snapshot";

/// The socket read timeout of a connection reader: the polling tick
/// that counts out `read_stall` and lets an idle reader see `stop`.
const READ_TICK: Duration = Duration::from_millis(25);

/// How long a site waits for all of its agents to connect before giving
/// up.
const CONNECT_DEADLINE: Duration = Duration::from_secs(30);

/// How long one connect-wait [`SessionEngine::step`] blocks on the inbox
/// before yielding, so a shard hosting several waiting sites keeps all
/// of them responsive.
const WAIT_TICK: Duration = Duration::from_millis(25);

/// Wire-traffic metering: the reader tasks account every frame and byte
/// that crosses the daemon's sockets, inbound.
pub fn note_frame_in(bytes: usize) {
    static FRAMES: std::sync::OnceLock<obs::Counter> = std::sync::OnceLock::new();
    static BYTES: std::sync::OnceLock<obs::Counter> = std::sync::OnceLock::new();
    FRAMES
        .get_or_init(|| obs::counter("daemon.frames_in"))
        .inc();
    BYTES
        .get_or_init(|| obs::counter("daemon.bytes_in"))
        .add(bytes as u64);
}

/// Wire-traffic metering, outbound twin of [`note_frame_in`].
pub fn note_frame_out(bytes: usize) {
    static FRAMES: std::sync::OnceLock<obs::Counter> = std::sync::OnceLock::new();
    static BYTES: std::sync::OnceLock<obs::Counter> = std::sync::OnceLock::new();
    FRAMES
        .get_or_init(|| obs::counter("daemon.frames_out"))
        .inc();
    BYTES
        .get_or_init(|| obs::counter("daemon.bytes_out"))
        .add(bytes as u64);
}

/// Whether the inbox shed policy may drop a queued message under
/// pressure: only telemetry (scan reports), which the harness's
/// retransmission schedule recovers. Acks and lifecycle messages are
/// load-bearing — dropping one would wedge a transaction or the session.
pub fn incoming_sheddable(msg: &Incoming) -> bool {
    matches!(msg, Incoming::Msg(ToController::Report { .. }))
}

/// Everything a reader task can feed a session engine.
pub enum Incoming {
    /// A connection completed its handshake for `client`.
    Register {
        /// The client index the hello named.
        client: usize,
        /// The write half of the agent's connection.
        writer: TcpStream,
    },
    /// A protocol message from a registered agent.
    Msg(ToController),
    /// An operator asked this engine's session to stop.
    Stop {
        /// Free-form reason, echoed into the logs.
        reason: String,
    },
    /// A registered agent's connection ended.
    Gone {
        /// The client whose connection died.
        client: usize,
    },
}

/// What one [`SessionEngine::step`] accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineStep {
    /// Not driving yet: agents are still connecting (or a stop arrived
    /// before they all did, and the next step ends the session).
    Waiting,
    /// The session is running: every agent registered, and this step
    /// started driving or drove one session event.
    Progressed,
    /// The session is over (completed or stopped): time to dismiss
    /// agents and call [`SessionEngine::finish`].
    Finished,
}

/// Where the engine is in its lifecycle.
enum Phase {
    /// Collecting agent registrations until every client has a writer.
    /// The connect deadline arms on the first step.
    Waiting { deadline: Option<Instant> },
    /// Driving session events.
    Driving,
    /// All events driven (or the run was stopped).
    Done { stopped: bool },
}

/// One site's session loop as a steppable state machine. See the module
/// docs for the driving contract; the sequence is always
/// `new → step…step (until Finished or Err) → dismiss_agents →
/// reap_strays… → finish`.
pub struct SessionEngine {
    scenario: Scenario,
    policy: ControllerPolicy,
    stop_after: Option<usize>,
    store: Option<SnapshotStore>,
    driver: SessionDriver,
    writers: Vec<Option<TcpStream>>,
    rx: Inbox<Incoming>,
    /// The driver's clock origin.
    origin: Instant,
    greeting: Arc<Vec<Option<usize>>>,
    phase: Phase,
    msgs_in: usize,
    latencies: Vec<Duration>,
    stop_reason: Option<String>,
    /// When the engine left the connect wait.
    drive_started: Option<Instant>,
    /// Wall-clock time from `drive_started` to the end of the last
    /// event.
    drive_elapsed: Duration,
    teardown_started: Option<Instant>,
    /// Per-site deterministic counters (`None` for the site-less
    /// single-site daemon).
    ctr_epochs: Option<obs::Counter>,
    ctr_solved: Option<obs::Counter>,
}

impl SessionEngine {
    /// Builds the engine for one site: estimates capacities, restores
    /// the newest snapshot (when `config.snapshot_dir` is set), and
    /// opens the session inbox. Returns the engine and the inbox sender
    /// the accept path clones into every reader task — the engine holds
    /// no sender itself, so once every reader is gone the inbox
    /// disconnects and teardown can prove quiescence.
    ///
    /// The site's id stamps its snapshot store and names its per-site
    /// metrics. The anonymous site `""` of a single-site server keeps
    /// its store directly in `snapshot_dir` and counts no per-site
    /// metrics; a named site persists under `<snapshot_dir>/<id>/`.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Testbed`] for an empty scenario or zero retry
    /// budgets; [`DaemonError::SnapshotCorrupt`] for an unrecoverable
    /// (or wrong-site) store; [`DaemonError::Protocol`] for a snapshot
    /// that does not match the scenario.
    pub fn new(
        site: SiteDef,
        config: &DaemonConfig,
    ) -> Result<(Self, InboxSender<Incoming>), DaemonError> {
        let SiteDef {
            id,
            scenario,
            events,
            policy,
            noise_seed,
            stop_after,
        } = site;
        check_session(&scenario, &config.deadlines)?;
        let n_users = scenario.user_positions.len();
        let core_config = ControllerConfig {
            policy,
            estimated_capacities: estimate_capacities(&scenario, &config.estimator, noise_seed)?,
            strict: false,
        };

        // Cold start or snapshot restore. The store falls back over torn
        // or corrupt generations by itself; only an unrecoverable store
        // (every generation damaged, or stamped for another site)
        // errors out.
        let store = match &config.snapshot_dir {
            Some(root) => {
                let dir = if id.is_empty() {
                    root.clone()
                } else {
                    root.join(&id)
                };
                Some(SnapshotStore::open_site(dir, store::DEFAULT_KEEP, &id)?)
            }
            None => None,
        };
        let restored = match &store {
            Some(store) => store.load()?.map(|(_generation, snap)| snap),
            None => None,
        };
        let driver = match restored {
            Some(snap) => {
                if snap.present.len() != n_users {
                    return Err(DaemonError::Protocol {
                        context: "snapshot is for a different scenario size".into(),
                    });
                }
                let core = ControllerCore::restore(core_config, snap.core)?;
                let progress = SessionProgress {
                    epochs_done: snap.epochs_done,
                    present: snap.present,
                    unresponsive: snap.unresponsive,
                    initial_attach: snap.initial_attach,
                    retries: snap.retries,
                };
                SessionDriver::resume(core, events, config.deadlines, progress)
            }
            None => SessionDriver::new(
                ControllerCore::new(n_users, core_config),
                events,
                config.deadlines,
            ),
        };

        // What reconnecting agents are told in the handshake: the saved
        // association at startup (always `None` on a cold start).
        let greeting: Arc<Vec<Option<usize>>> = Arc::new(driver.core().association().to_vec());

        let (tx, rx) = inbox::channel::<Incoming>(config.inbox_cap, incoming_sheddable);
        let site_counter = |name| (!id.is_empty()).then(|| obs::site_counter(&id, name));
        Ok((
            Self {
                scenario,
                policy,
                stop_after,
                store,
                driver,
                writers: (0..n_users).map(|_| None).collect(),
                rx,
                origin: Instant::now(),
                greeting,
                phase: Phase::Waiting { deadline: None },
                msgs_in: 0,
                latencies: Vec::new(),
                stop_reason: None,
                drive_started: None,
                drive_elapsed: Duration::ZERO,
                teardown_started: None,
                ctr_epochs: site_counter("epochs"),
                ctr_solved: site_counter("solved"),
            },
            tx,
        ))
    }

    /// The handshake greeting: each client's saved attachment at
    /// startup.
    pub fn greeting(&self) -> Arc<Vec<Option<usize>>> {
        Arc::clone(&self.greeting)
    }

    /// Events completed so far (including restored ones).
    pub fn epochs_done(&self) -> usize {
        self.driver.progress().epochs_done
    }

    /// Events configured in total.
    pub fn n_events(&self) -> usize {
        self.driver.n_events()
    }

    /// Runs one bounded unit of work: a short connect-wait poll while
    /// agents are still registering, or one full session event once
    /// they have. Call repeatedly until it returns
    /// [`EngineStep::Finished`] (or errs), then tear down.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Timeout`] when the expected agents never connect;
    /// [`DaemonError::Testbed`] for session-machinery failures;
    /// [`DaemonError::Io`] for socket and snapshot failures. After an
    /// error the engine is finished driving: dismiss its agents and
    /// discard it (the error replaces the outcome).
    pub fn step(&mut self) -> Result<EngineStep, DaemonError> {
        match self.phase {
            Phase::Waiting { deadline } => self.step_wait(deadline),
            Phase::Driving => self.step_drive(),
            Phase::Done { .. } => Ok(EngineStep::Finished),
        }
    }

    /// One connect-wait poll: one bounded receive while registrations
    /// arrive.
    fn step_wait(&mut self, deadline: Option<Instant>) -> Result<EngineStep, DaemonError> {
        let deadline = deadline.unwrap_or_else(|| Instant::now() + CONNECT_DEADLINE);
        self.phase = Phase::Waiting {
            deadline: Some(deadline),
        };
        if !self.writers.iter().any(Option::is_none) {
            return Ok(self.start_driving());
        }
        let wait = deadline
            .saturating_duration_since(Instant::now())
            .min(WAIT_TICK);
        match self.rx.recv_timeout(wait) {
            Ok(Incoming::Register { client, writer }) => {
                self.writers[client] = Some(writer);
                if self.writers.iter().any(Option::is_none) {
                    return Ok(EngineStep::Waiting);
                }
                Ok(self.start_driving())
            }
            Ok(Incoming::Gone { client }) => {
                self.writers[client] = None;
                Ok(EngineStep::Waiting)
            }
            Ok(Incoming::Stop { reason }) => {
                // An operator may stop a session that never assembled
                // (that is how a fleet drains a site whose agents are
                // yet to connect): proceed to the driving phase, whose
                // first event observes the stop reason and ends the run.
                self.stop_reason = Some(reason);
                self.start_driving();
                Ok(EngineStep::Waiting)
            }
            Ok(Incoming::Msg(_)) => {
                // Agents do not speak before their first command; drop
                // pre-session noise.
                self.msgs_in += 1;
                Ok(EngineStep::Waiting)
            }
            Err(RecvTimeoutError::Timeout) => {
                if Instant::now() >= deadline {
                    let missing: Vec<usize> = self
                        .writers
                        .iter()
                        .enumerate()
                        .filter_map(|(i, w)| w.is_none().then_some(i))
                        .collect();
                    return Err(DaemonError::Timeout {
                        waiting_for: format!("agents {missing:?} to connect"),
                    });
                }
                Ok(EngineStep::Waiting)
            }
            Err(RecvTimeoutError::Disconnected) => Err(TestbedError::ChannelClosed {
                endpoint: "acceptor",
            }
            .into()),
        }
    }

    /// Leaves the connect wait: for the driving phase, or straight for
    /// the end when a restored session already reached `stop_after`.
    fn start_driving(&mut self) -> EngineStep {
        self.drive_started = Some(Instant::now());
        if self.stop_after.is_some_and(|k| self.epochs_done() >= k) {
            return self.end(true);
        }
        self.phase = Phase::Driving;
        EngineStep::Progressed
    }

    /// Ends the session, closing the driving span.
    fn end(&mut self, stopped: bool) -> EngineStep {
        self.phase = Phase::Done { stopped };
        self.drive_elapsed = self.drive_started.map_or(Duration::ZERO, |t| t.elapsed());
        EngineStep::Finished
    }

    /// Drives one session event (skipping over events of unresponsive
    /// clients), snapshots, and checks the stop conditions.
    fn step_drive(&mut self) -> Result<EngineStep, DaemonError> {
        let before = self.epochs_done();
        let begun = self.driver.begin(self.origin.elapsed());
        self.count_epochs(before);
        let Some(step) = begun? else {
            return Ok(self.end(false));
        };
        let before = self.epochs_done();
        let ended = match self.stop_reason {
            Some(_) => None,
            None => self.drive_event(step)?,
        };
        let Some(ended) = ended else {
            return Ok(self.end(true));
        };
        if ended.outcome == EventOutcome::Completed {
            if let Some(c) = &self.ctr_solved {
                c.inc();
            }
            if let SessionEvent::Join(i) = ended.event {
                // The CC's view after the join transaction: on a
                // fault-free network it *is* the physical attachment the
                // rig reads.
                let attached = self.driver.core().association()[i];
                self.driver.record_join(i, attached);
            }
        }
        self.count_epochs(before);
        if let Some(store) = self.store.as_mut() {
            // A crash on either side of the save is recoverable: before
            // it, the restarted daemon replays this event; after it, the
            // daemon resumes at the next one. Both replays are
            // byte-identical because the snapshot carries complete
            // decision state and agents re-derive theirs from the
            // handshake.
            crash_point!(CRASH_PRE_SNAPSHOT);
            let t0 = Instant::now();
            let progress = self.driver.progress();
            store.save(&DaemonSnapshot {
                epochs_done: progress.epochs_done,
                present: progress.present.clone(),
                unresponsive: progress.unresponsive.clone(),
                initial_attach: progress.initial_attach.clone(),
                retries: progress.retries,
                core: self.driver.core().snapshot(),
            })?;
            obs::observe_duration("daemon.snapshot_write_us", t0.elapsed());
            crash_point!(CRASH_POST_SNAPSHOT);
        }
        if self.stop_reason.is_some() || self.stop_after == Some(self.epochs_done()) {
            return Ok(self.end(true));
        }
        Ok(EngineStep::Progressed)
    }

    /// Counts the epochs finished since `before` in the per-site
    /// metrics.
    fn count_epochs(&self, before: usize) {
        if let Some(c) = &self.ctr_epochs {
            c.add((self.epochs_done() - before) as u64);
        }
    }

    /// Runs the event the driver just began until it ends: delivers each
    /// step's sends, then feeds the driver whatever arrives next. Returns
    /// `None` when an operator stop abandons the event before its report
    /// was planned (a stop mid-transaction lets the transaction settle
    /// first).
    fn drive_event(&mut self, mut step: Step) -> Result<Option<Ended>, DaemonError> {
        let mut planned_at = Instant::now();
        loop {
            let unreachable = self.deliver(std::mem::take(&mut step.sends));
            if let Some(ended) = step.ended {
                if ended.outcome == EventOutcome::Completed {
                    // Re-solve latency: from receiving the report that
                    // was planned to the last ack.
                    let took = planned_at.elapsed();
                    obs::observe_duration("daemon.resolve_us", took);
                    self.latencies.push(took);
                }
                return Ok(Some(ended));
            }
            let input = match unreachable {
                Some(client) => Input::Unreachable(client),
                None => match self.recv(step.deadline)? {
                    Some(input) => input,
                    None => return Ok(None),
                },
            };
            let t0 = Instant::now();
            step = self.driver.handle(self.origin.elapsed(), input)?;
            if step.planned {
                planned_at = t0;
            }
        }
    }

    /// Waits until `deadline` for the driver's next input: one protocol
    /// message, or [`Input::Tick`] once the deadline passes.
    /// Registrations and disconnects are applied to the writers on the
    /// way. `None` when an operator stop arrived outside a transaction.
    fn recv(&mut self, deadline: Option<Duration>) -> Result<Option<Input>, DaemonError> {
        loop {
            let wait = deadline.map_or(WAIT_TICK, |d| d.saturating_sub(self.origin.elapsed()));
            let incoming = match self.rx.recv_timeout(wait) {
                Ok(incoming) => incoming,
                Err(RecvTimeoutError::Timeout) => return Ok(Some(Input::Tick)),
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(TestbedError::ChannelClosed {
                        endpoint: "acceptor",
                    }
                    .into())
                }
            };
            match incoming {
                Incoming::Msg(msg) => {
                    self.msgs_in += 1;
                    return Ok(Some(Input::Msg(msg)));
                }
                Incoming::Register { client, writer } => self.writers[client] = Some(writer),
                // A dead connection surfaces through the driver: the next
                // command finds no writer, and unacked directives run
                // into their dead declaration.
                Incoming::Gone { client } => self.writers[client] = None,
                Incoming::Stop { reason } => {
                    if !self.driver.transacting() {
                        self.stop_reason = Some(reason);
                        return Ok(None);
                    }
                    // Finish converging first; the engine stops after
                    // this event.
                    self.stop_reason.get_or_insert(reason);
                }
            }
        }
    }

    /// Writes the driver's sends to the agents' sockets. A broken pipe
    /// drops the writer. Returns the client whose command found no
    /// connection; a directive that finds none is left to its ack
    /// deadlines.
    fn deliver(&mut self, sends: Vec<Outbound>) -> Option<usize> {
        let mut unreachable = None;
        for send in sends {
            let (client, envelope) = match send {
                Outbound::Command { client, cmd } => (client, Envelope::Agent(cmd)),
                Outbound::Directive {
                    client,
                    extender,
                    seq,
                    attempt,
                } => (
                    client,
                    Envelope::Client(ToClient::Directive {
                        extender,
                        seq,
                        attempt,
                    }),
                ),
            };
            match self.writers[client]
                .as_mut()
                .map(|w| wire::send(w, &envelope))
            {
                Some(Ok(sent)) => note_frame_out(sent),
                _ => {
                    self.writers[client] = None;
                    if matches!(envelope, Envelope::Agent(_)) {
                        unreachable = Some(client);
                    }
                }
            }
        }
        unreachable
    }

    /// Tells every connected agent to exit (so sockets close and reader
    /// tasks drain) and flushes the writers. Marks the start of the
    /// teardown window counted into the outcome's elapsed time.
    pub fn dismiss_agents(&mut self) {
        self.teardown_started.get_or_insert_with(Instant::now);
        for w in self.writers.iter_mut().flatten() {
            if let Ok(sent) = wire::send(w, &Envelope::Agent(ToAgent::Shutdown)) {
                note_frame_out(sent);
            }
            let _ = w.flush();
        }
    }

    /// One bounded teardown poll: agents that registered after the
    /// session stopped reading still need a dismissal, or their reader
    /// tasks would wait forever. Returns `true` once the inbox has
    /// disconnected — every reader task is gone, the engine is
    /// quiescent.
    pub fn reap_strays(&mut self, wait: Duration) -> bool {
        match self.rx.recv_timeout(wait) {
            Ok(Incoming::Register { mut writer, .. }) => {
                let _ = wire::send(&mut writer, &Envelope::Agent(ToAgent::Shutdown));
                false
            }
            Ok(_) => false,
            Err(RecvTimeoutError::Timeout) => false,
            Err(RecvTimeoutError::Disconnected) => true,
        }
    }

    /// Assembles the session outcome. Call after driving has finished
    /// and the agents are dismissed.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Testbed`] when the report cannot be assembled;
    /// [`DaemonError::InvalidConfig`] when the engine is still mid-run
    /// (a driver bug).
    pub fn finish(self) -> Result<DaemonOutcome, DaemonError> {
        let Phase::Done { stopped } = self.phase else {
            return Err(DaemonError::InvalidConfig {
                context: "finish() called while the engine is still driving".into(),
            });
        };
        let teardown = self
            .teardown_started
            .map_or(Duration::ZERO, |t| t.elapsed());
        let report = self.driver.report(
            &self.scenario,
            self.driver.core().association(),
            self.policy.name(),
            &[],
            &[],
        )?;
        let epochs_done = self.epochs_done();
        let completed = !stopped && epochs_done == self.n_events();
        Ok(DaemonOutcome {
            report,
            completed,
            epochs_done,
            stats: DaemonStats {
                msgs_in: self.msgs_in,
                resolve_latencies: self.latencies,
                elapsed: self.drive_elapsed + teardown,
            },
        })
    }
}

/// What the accept path decided for one agent hello.
pub enum HelloDecision {
    /// Register the agent with this session inbox and greet it with its
    /// saved attachment.
    Accept {
        /// The session inbox of the site that owns this agent.
        sender: InboxSender<Incoming>,
        /// The saved attachment for the handshake ack.
        attached: Option<usize>,
    },
    /// Refuse with a typed reply, then close (e.g.
    /// [`Envelope::SiteGone`]).
    Reject(Envelope),
    /// Close silently (a malformed hello, e.g. an out-of-range client).
    Close,
}

/// Per-connection reader: handshake, then forward frames into the
/// session inbox the router picked, until the connection ends.
///
/// `route` maps a hello's `(client, site)` to a [`HelloDecision`];
/// `control` handles every other pre-handshake envelope (operator stop,
/// metrics and fleet queries) and returns whether to keep serving the
/// connection.
///
/// Reads are patient: idling between frames is free (and ends cleanly
/// once `stop` is set, so a silent control connection cannot hang
/// teardown), but a peer that stalls mid-frame for longer than
/// `read_stall` loses the connection and is counted in
/// `daemon.read_timeouts`.
pub fn serve_connection(
    stream: TcpStream,
    stop: &Arc<AtomicBool>,
    read_stall: Duration,
    route: &dyn Fn(usize, Option<&str>) -> HelloDecision,
    control: &dyn Fn(&mut TcpStream, Envelope) -> bool,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_TICK));
    let mid_frame_stalls = u32::try_from(read_stall.as_millis() / READ_TICK.as_millis())
        .map_or(u32::MAX, |n| n.max(1));
    // Every frame of the connection, before and after the handshake, is
    // read through one buffer; replies go to the raw stream.
    let mut reader = BufReader::new(stream);
    let recv = |reader: &mut BufReader<TcpStream>| {
        let result = wire::recv_patient(reader, stop, mid_frame_stalls);
        if matches!(&result, Err(e) if e.kind() == std::io::ErrorKind::TimedOut) {
            obs::counter_inc("daemon.read_timeouts");
        }
        result
    };
    // Pre-handshake: the connection is a control channel until it sends
    // `Hello`. Control connections may issue any number of metrics or
    // fleet queries (each answered inline — safe here because no
    // session-loop writer shares this stream yet) and/or a stop request.
    let (client, tx) = loop {
        match recv(&mut reader) {
            Ok(Some((Envelope::Hello { client, site, .. }, bytes))) => {
                match route(client, site.as_deref()) {
                    HelloDecision::Accept { sender, attached } => {
                        note_frame_in(bytes);
                        match wire::send(reader.get_mut(), &Envelope::HelloAck { attached }) {
                            Ok(sent) => note_frame_out(sent),
                            Err(_) => return,
                        }
                        break (client, sender);
                    }
                    HelloDecision::Reject(reply) => {
                        note_frame_in(bytes);
                        if let Ok(sent) = wire::send(reader.get_mut(), &reply) {
                            note_frame_out(sent);
                        }
                        return;
                    }
                    HelloDecision::Close => return,
                }
            }
            Ok(Some((envelope, bytes))) => {
                note_frame_in(bytes);
                if !control(reader.get_mut(), envelope) {
                    return;
                }
            }
            _ => return,
        }
    };
    let writer = match reader.get_ref().try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    if tx.send(Incoming::Register { client, writer }).is_err() {
        return;
    }
    loop {
        match recv(&mut reader) {
            // An agent speaks only for its own client: a message naming
            // another one is a protocol violation like any unexpected
            // envelope, and ends the connection below.
            Ok(Some((Envelope::Ctrl(msg), bytes))) if msg.client() == client => {
                note_frame_in(bytes);
                if tx.send(Incoming::Msg(msg)).is_err() {
                    return;
                }
            }
            Ok(Some((Envelope::Shutdown { reason }, bytes))) => {
                note_frame_in(bytes);
                let _ = tx.send(Incoming::Stop { reason });
            }
            Ok(Some((Envelope::MetricsRequest, bytes))) => {
                // A registered agent connection shares its write half
                // with the session loop; replying here could interleave
                // frames. Count and drop.
                note_frame_in(bytes);
                obs::counter_inc("daemon.metrics_requests");
            }
            Ok(Some(_)) | Ok(None) | Err(_) => {
                let _ = tx.send(Incoming::Gone { client });
                return;
            }
        }
    }
}

/// Spawns the accept loop: a nonblocking listener polled until `stop`,
/// dispatching each connection onto a reader pool of `workers` tasks.
/// Connections past `max_connections` (0 = unlimited) are refused with a
/// typed [`Envelope::Busy`] reply and counted in
/// `daemon.conns_rejected`.
///
/// The pool lives (and joins its readers) on the spawned thread, so
/// `JoinHandle::join` returning means every reader task has exited.
///
/// # Errors
///
/// Propagates the failure to switch the listener to nonblocking mode.
pub fn spawn_acceptor(
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    workers: usize,
    max_connections: usize,
    handler: Arc<dyn Fn(TcpStream) + Send + Sync>,
) -> std::io::Result<thread::JoinHandle<()>> {
    listener.set_nonblocking(true)?;
    let pool = TaskPool::new(workers);
    // Live connections, shared with the reader tasks so the cap
    // reflects closures as they happen.
    let active = Arc::new(AtomicUsize::new(0));
    Ok(thread::spawn(move || {
        // The pool lives (and joins its readers) on this thread.
        let pool = pool;
        while !stop.load(Ordering::Relaxed) {
            match listener.accept() {
                Ok((mut stream, _)) => {
                    if max_connections > 0 && active.load(Ordering::Relaxed) >= max_connections {
                        // Refuse with a typed reply so the peer can tell
                        // overload from a dead daemon and back off
                        // instead of hammering.
                        obs::counter_inc("daemon.conns_rejected");
                        pool.execute(move || {
                            let _ = stream.set_nodelay(true);
                            if let Ok(sent) = wire::send(
                                &mut stream,
                                &Envelope::Busy {
                                    limit: max_connections as u64,
                                },
                            ) {
                                note_frame_out(sent);
                            }
                        });
                        continue;
                    }
                    active.fetch_add(1, Ordering::Relaxed);
                    let handler = Arc::clone(&handler);
                    let active = Arc::clone(&active);
                    pool.execute(move || {
                        handler(stream);
                        active.fetch_sub(1, Ordering::Relaxed);
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(2));
                }
                Err(_) => break,
            }
        }
    }))
}
