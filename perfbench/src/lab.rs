//! `lab-loopback`: a real `Daemon` on 127.0.0.1 with the lab preset (3
//! extenders) and 2 users, one `run_agent` thread and one connection per
//! user, driven by a seeded leave/join script, persistence off.
//!
//! A run is a sequence of identical sessions (same scenario, same
//! script); each one is bound, handshaken, driven and checked on its own,
//! so every session is one timing block and contributes one set-up time.
//! The traced mode ends with a few sessions that have the generational
//! snapshot store on (an fsync'd save every epoch, a fresh directory per
//! session), which is where the store layer is measured.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

use wolt_daemon::store::DEFAULT_KEEP;
use wolt_daemon::{
    run_agent, wire, AgentOutcome, Daemon, DaemonConfig, DaemonError, DaemonOutcome, Envelope,
    SnapshotStore,
};
use wolt_sim::scenario::ScenarioConfig;
use wolt_sim::Scenario;
use wolt_support::obs;
use wolt_support::rng::{ChaCha8Rng, Rng, SeedableRng};
use wolt_testbed::protocol::{ToAgent, ToClient, ToController};
use wolt_testbed::{run_faulty_session, ControllerPolicy, FaultPlan, RigConfig, SessionEvent};

use crate::inproc::{Closed, Site};
use crate::spans::Tracer;
use crate::stats::Deltas;
use crate::{Layers, Measured, RunArgs};

/// Users, each one agent thread with one connection: the two-connection
/// load cap.
pub const USERS: usize = 2;

/// Events in each session's script.
const SESSION_EVENTS: usize = 2000;

/// Sessions with the snapshot store on that a traced run ends with.
const STORE_SESSIONS: usize = 2;

/// Sessions that may fail their checks before a run stops measuring.
const MAX_BROKEN_SESSIONS: usize = 3;

/// The lab scenario of `scenario_seed`.
fn scenario(scenario_seed: u64) -> Result<Scenario, String> {
    let mut rng = ChaCha8Rng::seed_from_u64(scenario_seed);
    Scenario::generate(&ScenarioConfig::lab(USERS), &mut rng)
        .map_err(|e| format!("lab scenario: {e}"))
}

/// Every user joins, then `events - USERS` events of leave/join cycles,
/// each cycle's user drawn from `seed` (the `loadgen` churn pattern with
/// a seeded order).
pub fn script(seed: u64, events: usize) -> Vec<SessionEvent> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut out: Vec<SessionEvent> = (0..USERS).map(SessionEvent::Join).collect();
    while out.len() + 2 <= events {
        let user = rng.gen_range(0..USERS);
        out.push(SessionEvent::Leave(user));
        out.push(SessionEvent::Join(user));
    }
    out
}

/// One lab workload's fixed inputs.
struct Lab<'a> {
    args: &'a RunArgs,
    events: Vec<SessionEvent>,
    /// The in-process rig's canonical report for the same scenario,
    /// events and noise seed: what every session must reproduce.
    reference: String,
    /// Where session stores live while persistence is on.
    store_root: Option<PathBuf>,
    sessions: u64,
}

/// What one checked session produced.
struct SessionRun {
    setup: Duration,
    outcome: DaemonOutcome,
    snapshot_bytes: u64,
}

impl Lab<'_> {
    fn config(&self, store: Option<&Path>) -> DaemonConfig {
        let mut config = DaemonConfig::new(ControllerPolicy::Wolt);
        config.noise_seed = self.args.scenario_seed;
        config.snapshot_dir = store.map(Path::to_path_buf);
        config
    }

    /// Binds a daemon, connects the agents, drives the script and checks
    /// the outcome. Set-up is the session's wall time up to the end of
    /// `Daemon::run` minus the daemon's own driving time: scenario
    /// generation, bind, capacity estimation and the agent handshakes.
    fn session(&mut self, tracer: &mut Tracer) -> Result<SessionRun, String> {
        let id = self.sessions;
        self.sessions += 1;
        let store = self
            .store_root
            .as_ref()
            .map(|root| root.join(format!("session-{id}")));
        let root = tracer.begin("session", id, None);
        let started = Instant::now();
        let scenario = scenario(self.args.scenario_seed)?;
        let bind = tracer.begin("daemon.bind", id, Some(root));
        let daemon = Daemon::bind(
            "127.0.0.1:0",
            scenario.clone(),
            self.events.clone(),
            self.config(store.as_deref()),
        )
        .map_err(|e| format!("bind: {e}"))?;
        tracer.end(bind);
        let addr = daemon
            .local_addr()
            .map_err(|e| format!("local address: {e}"))?;
        let agents: Vec<_> = (0..USERS)
            .map(|i| spawn_agent(addr, scenario.clone(), i))
            .collect();
        let run = tracer.begin("daemon.run", id, Some(root));
        let outcome = daemon.run();
        tracer.end(run);
        let wall = started.elapsed();
        let mut agent_errors = Vec::new();
        for agent in agents {
            let (from, result, to) = agent.join().map_err(|_| "an agent thread panicked")?;
            tracer.record_between("agent.run", id, Some(root), from, to);
            if let Err(e) = result {
                agent_errors.push(e.to_string());
            }
        }
        tracer.end(root);

        let outcome = outcome.map_err(|e| format!("session {id}: {e}"))?;
        let snapshot_bytes = match &store {
            Some(dir) => {
                let checked = self.check_store(dir);
                let _ = std::fs::remove_dir_all(dir);
                checked?
            }
            None => 0,
        };
        if let Some(e) = agent_errors.first() {
            return Err(format!("session {id}: agent failed: {e}"));
        }
        if !outcome.completed || outcome.epochs_done != self.events.len() {
            return Err(format!(
                "session {id}: {} of {} events done",
                outcome.epochs_done,
                self.events.len()
            ));
        }
        if outcome.report.canonical() != self.reference {
            return Err(format!(
                "session {id}: the report differs from the in-process replay"
            ));
        }
        Ok(SessionRun {
            setup: wall.saturating_sub(outcome.stats.elapsed),
            outcome,
            snapshot_bytes,
        })
    }

    /// The store must load the final epoch; returns the newest
    /// generation's size in bytes.
    fn check_store(&self, dir: &Path) -> Result<u64, String> {
        let store = SnapshotStore::open(dir, DEFAULT_KEEP).map_err(|e| format!("store: {e}"))?;
        let (generation, snapshot) = store
            .load()
            .map_err(|e| format!("store load: {e}"))?
            .ok_or("the store is empty")?;
        if snapshot.epochs_done != self.events.len() {
            return Err(format!(
                "the store loads epoch {} of {}",
                snapshot.epochs_done,
                self.events.len()
            ));
        }
        std::fs::metadata(store.generation_path(generation))
            .map(|m| m.len())
            .map_err(|e| format!("newest generation: {e}"))
    }

    /// Runs checked sessions until the daemons' driving time reaches
    /// `budget` and at least `min_sessions` completed.
    fn sessions(
        &mut self,
        budget: Duration,
        min_sessions: usize,
        tracer: &mut Tracer,
    ) -> (Measured, u64) {
        let mut m = Measured::default();
        let mut snapshot_bytes = 0;
        let before = obs::snapshot();
        let events = self.events.len() as u64;
        let mut broken = 0;
        while (m.blocks.len() < min_sessions || m.driving < budget) && broken < MAX_BROKEN_SESSIONS
        {
            m.attempted += events;
            match self.session(tracer) {
                Ok(run) => {
                    let report = &run.outcome.report;
                    let stats = &run.outcome.stats;
                    let latencies_us: Vec<f64> = stats
                        .resolve_latencies
                        .iter()
                        .map(|d| d.as_secs_f64() * 1e6)
                        .collect();
                    m.add_block(
                        &latencies_us,
                        stats.elapsed,
                        report.outcome.directives as u64,
                    );
                    m.setups_s.push(run.setup.as_secs_f64());
                    m.retries += report.retries as u64;
                    m.aggregate_mbps = report.outcome.aggregate;
                    for &i in &report.unresponsive {
                        m.fail(format!("client {i} went unresponsive"));
                    }
                    snapshot_bytes = run.snapshot_bytes;
                }
                Err(e) => {
                    // Nothing of a session that failed its checks counts
                    // as a timing.
                    broken += 1;
                    m.fail_many(events, e);
                }
            }
        }
        let deltas = Deltas::new(before, obs::snapshot());
        for counter in [
            "cc.degraded_solves",
            "cc.declared_dead",
            "daemon.frames_shed",
        ] {
            let n = deltas.counter(counter);
            if n > 0 {
                m.fail_many(n, format!("{counter} moved by {n}"));
            }
        }
        m.deltas = Some(deltas);
        (m, snapshot_bytes)
    }
}

type AgentThread = thread::JoinHandle<(Instant, Result<AgentOutcome, DaemonError>, Instant)>;

fn spawn_agent(addr: SocketAddr, scenario: Scenario, i: usize) -> AgentThread {
    thread::spawn(move || {
        let from = Instant::now();
        let result = run_agent(addr, &scenario, i, &format!("bench-{i}"));
        (from, result, Instant::now())
    })
}

/// Runs `lab-loopback`: the end-to-end sessions, or with tracing an
/// untraced half, a traced half, and the store sessions.
pub fn run(args: &RunArgs) -> Result<(Measured, Option<Layers>), String> {
    let events = script(args.seed, SESSION_EVENTS);
    let reference = run_faulty_session(
        &scenario(args.scenario_seed)?,
        &RigConfig::new(ControllerPolicy::Wolt),
        &events,
        args.scenario_seed,
        &FaultPlan::none(),
    )
    .map_err(|e| format!("in-process replay: {e}"))?
    .canonical();
    let mut lab = Lab {
        args,
        events,
        reference,
        store_root: None,
        sessions: 0,
    };
    // One checked warm-up session: thread pools, sockets and page cache
    // settle before anything is timed.
    lab.session(&mut Tracer::off())?;

    if !args.trace {
        return Ok((lab.sessions(args.budget, 1, &mut Tracer::off()).0, None));
    }
    let half = args.budget / 2;
    let (untraced, _) = lab.sessions(half, 1, &mut Tracer::off());
    let mut tracer = Tracer::new();
    let (traced, _) = lab.sessions(half, 1, &mut tracer);
    let store_root = args.scratch_dir().join("stores");
    lab.store_root = Some(store_root.clone());
    let (stored, snapshot_bytes) = lab.sessions(Duration::ZERO, STORE_SESSIONS, &mut tracer);
    let _ = std::fs::remove_dir_all(store_root);
    let layers = lab.layers(&untraced, &traced, &stored, snapshot_bytes, &mut tracer)?;
    args.write_spans(&tracer);
    Ok((untraced.merge(traced).merge(stored), Some(layers)))
}

impl Lab<'_> {
    /// Per-layer metrics: counters and cycle times of the traced
    /// sessions, the store from the store sessions, then (outside any
    /// session) the decision core replayed in-process over the same
    /// script and the wire codec timed on the script's envelopes.
    fn layers(
        &self,
        untraced: &Measured,
        traced: &Measured,
        stored: &Measured,
        snapshot_bytes: u64,
        tracer: &mut Tracer,
    ) -> Result<Layers, String> {
        let d = traced.deltas.as_ref().expect("sessions record deltas");
        let events = traced.completed();
        let mut l = Layers::default();
        l.set_core_counters(d, events);
        // An event's cycle is command out, report in, then the decision
        // and its acks (the event latency); the agent leg is the rest.
        let leg_us = traced.driving.as_secs_f64() * 1e6 - traced.latency_sum_us;
        l.set(
            "daemon.agent_leg_us",
            crate::stats::ratio(leg_us, events as f64),
        );
        let frames = d.counter("daemon.frames_in") + d.counter("daemon.frames_out");
        let bytes = d.counter("daemon.bytes_in") + d.counter("daemon.bytes_out");
        l.set(
            "daemon.frames_per_event",
            crate::stats::ratio(frames as f64, events as f64),
        );
        l.set(
            "daemon.bytes_per_frame",
            crate::stats::ratio(bytes as f64, frames as f64),
        );
        l.set(
            "daemon.retries_per_event",
            crate::stats::ratio(traced.retries as f64, events as f64),
        );
        let saves = stored.deltas.as_ref().expect("sessions record deltas");
        l.set(
            "daemon.snapshot_us",
            saves.histogram_mean("daemon.snapshot_write_us"),
        );
        l.set("daemon.snapshot_bytes", snapshot_bytes as f64);
        l.set_overhead(untraced, traced);

        let envelopes = self.replay(tracer, &mut l)?;
        let (encode_ns, decode_ns) = codec(&envelopes, tracer)?;
        l.set("daemon.encode_ns", encode_ns);
        l.set("daemon.decode_ns", decode_ns);
        l.add_span_summary(tracer);
        Ok(l)
    }

    /// Replays the script through an in-process controller with the
    /// session's inputs, re-solving every decision stage by stage, and
    /// returns the envelopes a session exchanges for it.
    fn replay(&self, tracer: &mut Tracer, l: &mut Layers) -> Result<Vec<Envelope>, String> {
        let site = Site::new(&scenario(self.args.scenario_seed)?, self.args.scenario_seed)?;
        let mut closed = Closed::new(site);
        let mut envelopes = Vec::new();
        for &event in &self.events {
            let run = closed.drive(event, tracer)?;
            closed.verify()?;
            closed.resolve(run.epoch, tracer)?;
            let epoch = run.epoch;
            match event {
                SessionEvent::Join(client) => {
                    envelopes.push(Envelope::Agent(ToAgent::Join { epoch, attempt: 1 }));
                    envelopes.push(Envelope::Ctrl(ToController::Report {
                        client,
                        epoch,
                        rates: closed.site().scans[client].clone(),
                        attached: closed.site().strongest[client],
                    }));
                }
                SessionEvent::Leave(client) => {
                    envelopes.push(Envelope::Agent(ToAgent::Leave { epoch, attempt: 1 }));
                    envelopes.push(Envelope::Ctrl(ToController::Departed { client, epoch }));
                }
            }
            for dir in &run.directives {
                envelopes.push(Envelope::Client(ToClient::Directive {
                    extender: dir.extender,
                    seq: dir.seq,
                    attempt: 1,
                }));
                envelopes.push(Envelope::Ctrl(ToController::Ack {
                    client: dir.client,
                    seq: dir.seq,
                    extender: dir.extender,
                }));
            }
        }
        l.set_decision_spans(tracer);
        Ok(envelopes)
    }
}

/// Times `wire::send` into a buffer and `wire::recv` back out of it for
/// every envelope, under `wire.encode` / `wire.decode` spans, checking
/// the round trip. Returns the mean nanoseconds per frame of each.
fn codec(envelopes: &[Envelope], tracer: &mut Tracer) -> Result<(f64, f64), String> {
    let mut buf = Vec::with_capacity(512);
    for (k, envelope) in envelopes.iter().enumerate() {
        let k = k as u64;
        buf.clear();
        let span = tracer.begin("wire.encode", k, None);
        let sent = wire::send(&mut buf, std::hint::black_box(envelope));
        tracer.end(span);
        sent.map_err(|e| format!("encode: {e}"))?;
        let span = tracer.begin("wire.decode", k, None);
        let got = wire::recv(&mut std::hint::black_box(buf.as_slice()));
        tracer.end(span);
        match got {
            Ok(Some(decoded)) if decoded == *envelope => {}
            other => return Err(format!("codec round trip of {envelope:?} gave {other:?}")),
        }
    }
    let mean_ns = |name| crate::stats::mean(&tracer.durations_us(name)).unwrap_or(0.0) * 1e3;
    Ok((mean_ns("wire.encode"), mean_ns("wire.decode")))
}
