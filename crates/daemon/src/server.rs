//! The `wolt-daemon` server: the Central Controller as a long-running
//! TCP service, hosting one PLC segment ("site") or many behind one
//! listener.
//!
//! The in-process rig ([`wolt_testbed::rig`]) runs the controller and
//! the client agents in one thread, on virtual time. The server replaces
//! that in-process transport with TCP and the wall clock — agents connect over
//! loopback (or a LAN), handshake with [`Envelope::Hello`], and then
//! speak exactly the [`wolt_testbed::protocol`] messages the rig speaks —
//! while every *decision* (planning, sequencing, epoch dedup,
//! declared-dead bookkeeping) stays in the shared
//! [`wolt_testbed::ControllerCore`]. Because both transports drive the
//! same core with the same inputs in the same order, a clean TCP session
//! produces a [`SessionReport`] whose
//! canonical rendering is byte-identical to the in-process run for the
//! same scenario, seed, and policy.
//!
//! # One server, one or many sites
//!
//! [`Fleet`] is the server: one listener, one snapshot root, one metrics
//! endpoint, and one [`SessionEngine`] per site. [`Daemon`] is a fleet
//! of one anonymous site `""`: its agents send site-less hellos, its
//! store lives directly in `snapshot_dir`, and it answers `fleet` ops
//! like any fleet (it refuses `site add`: a single-site server reports
//! one outcome). Named sites persist under `<snapshot_dir>/<id>/`.
//!
//! # Execution model
//!
//! Sites are partitioned across at most `shards` shards (never more
//! than there are sites) by [`crate::shard::partition`]; each shard
//! round-robins [`SessionEngine::step`] over its sites, so one thread
//! owns each engine exclusively and a site's decision sequence is
//! independent of every other site's schedule. Shard 0 runs on the
//! thread that called `run`, so a single-site server steps its one
//! engine on the caller's thread. One reader task per connection (on a
//! [`wolt_support::pool::TaskPool`] owned by the accept thread) parses
//! frames and forwards them to the site's bounded inbox; the engine is
//! the only code that touches the controller core or writes to agent
//! sockets.
//!
//! # Lifecycle
//!
//! The [`FleetRouter`] routes agent hellos and carries the `site add` /
//! `site drain` / `site remove` operations arriving over the wire
//! ([`FleetOp`]). A site that finishes — completed, drained, stopped,
//! failed, or timed out waiting for its agents — dismisses its agents,
//! persists, and detaches; its neighbours never notice. When the last
//! live site finishes, the server closes its registry (late adds are
//! refused, not lost) and lingers for `linger` with the listener, the
//! metrics service and that site's agents still up, so scrapers observe
//! the finished session. Then it stops the accept path, and that site's
//! teardown ends once the listener has closed.
//!
//! # Persistence
//!
//! After every completed epoch a site snapshots its full state (see
//! [`DaemonSnapshot`](crate::snapshot::DaemonSnapshot)) through the
//! generational [`SnapshotStore`](crate::store::SnapshotStore), stamped
//! with the site id. A restarted server restores each site, hands each
//! reconnecting agent its saved attachment in the handshake (the radio
//! association outlives the controller process), and resumes at the
//! saved epoch — issuing no extra directives for work already done.
//!
//! # Overload
//!
//! Three independent guards keep a misbehaving or excessive peer from
//! taking the server down, each with an exact counter: connections past
//! `max_connections` are refused with a typed [`Envelope::Busy`] reply
//! (`daemon.conns_rejected`); a peer that stalls mid-frame past
//! `read_stall` loses its connection (`daemon.read_timeouts`) while
//! idling *between* frames stays free; and each session inbox is bounded
//! at `inbox_cap` entries: telemetry past the cap sheds the oldest
//! queued telemetry (`daemon.frames_shed`), while acks and lifecycle
//! messages ride in past the cap and shed nothing.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use wolt_plc::capacity::CapacityEstimator;
use wolt_sim::Scenario;
use wolt_support::obs;
use wolt_support::pool::resolve_threads;
use wolt_testbed::{check_session, ControllerPolicy, Deadlines, SessionEvent, SessionReport};

use crate::engine::{self, EngineStep, SessionEngine};
use crate::router::{FleetRouter, SiteProgress};
use crate::wire::{self, Envelope, FleetOp, SiteSpec};
use crate::{shard, spec, store, DaemonError};

pub use crate::engine::{CRASH_POST_SNAPSHOT, CRASH_PRE_SNAPSHOT};

/// How long a finished site waits for its reader tasks to drain before
/// assembling its outcome anyway.
const REAP_BUDGET: Duration = Duration::from_secs(2);

/// How long an idle shard waits for a new site before checking again
/// whether the server is done.
const IDLE_TICK: Duration = Duration::from_millis(20);

/// Server configuration beyond the sites themselves.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Association logic of the anonymous site [`Daemon::bind`] hosts
    /// (a named site carries its own in [`SiteDef`]).
    pub policy: ControllerPolicy,
    /// Offline PLC capacity estimation procedure (measurement noise).
    pub estimator: CapacityEstimator,
    /// Deadline and retry budgets, shared with the in-process rig.
    pub deadlines: Deadlines,
    /// Capacity-estimation noise seed of the anonymous site (the rig's
    /// `seed`).
    pub noise_seed: u64,
    /// Root of the generational snapshot stores
    /// ([`crate::store::SnapshotStore`]): the anonymous site persists
    /// directly in it, a named site under `<snapshot_dir>/<id>/`. `None`
    /// disables persistence.
    pub snapshot_dir: Option<PathBuf>,
    /// Snapshot generations kept on disk per site (must be ≥ 1 when
    /// persistence is on); older generations are pruned after each save.
    pub snapshot_keep: usize,
    /// Stop the anonymous site (snapshot + graceful shutdown) after this
    /// many events have completed in total — an operational kill switch
    /// and the hook the restart tests use to stop deterministically
    /// mid-session.
    pub stop_after: Option<usize>,
    /// How long each site waits for all of its agents to connect before
    /// giving up.
    pub connect_deadline: Duration,
    /// How long to keep the listener (and metrics service) alive after
    /// the last site's last event, before dismissing its agents and
    /// shutting down. Zero by default. Gives external scrapers a
    /// deterministic window to read the finished session's counters over
    /// the [`Envelope::MetricsRequest`] envelope.
    pub linger: Duration,
    /// Concurrent connections accepted before new arrivals are refused
    /// with [`Envelope::Busy`]; `0` means unlimited.
    pub max_connections: usize,
    /// Per-site session-inbox bound; a telemetry frame past it sheds the
    /// oldest queued telemetry frame (acks and lifecycle messages are
    /// never shed and shed nothing). `0` means unbounded.
    pub inbox_cap: usize,
    /// How long a peer may stall *mid-frame* before its connection is
    /// dropped (idle between frames is always allowed). Counted in the
    /// connection readers' 25 ms read ticks, at least one.
    pub read_stall: Duration,
    /// Most shard threads stepping the sites (never more than there are
    /// sites); `0` resolves like the rest of the workspace
    /// (`WOLT_THREADS`, then available parallelism).
    pub shards: usize,
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
            shards: 0,
        }
    }
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self::new(ControllerPolicy::Wolt)
    }
}

/// Transport-level counters from one site's run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DaemonStats {
    /// Protocol messages received from agents (reports, acks,
    /// departures).
    pub msgs_in: usize,
    /// Per-event re-solve latency: from receiving the triggering report
    /// to the directive transaction completing (all acks in).
    pub resolve_latencies: Vec<Duration>,
    /// Wall-clock time spent driving the session (agents connected →
    /// last event done) plus its teardown (agents dismissed and their
    /// connections drained; for the server's last site, the listener
    /// closed too). The linger window between the two is not counted.
    pub elapsed: Duration,
}

/// What one site's run produced.
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

/// One site, fully materialized: everything a [`SessionEngine`] needs
/// beyond the shared [`DaemonConfig`].
#[derive(Debug, Clone)]
pub struct SiteDef {
    /// Unique, filesystem-safe site id (see
    /// [`crate::spec::validate_site_id`]); empty for the anonymous site.
    pub id: String,
    /// The site's network scenario.
    pub scenario: Scenario,
    /// The site's session events.
    pub events: Vec<SessionEvent>,
    /// Association policy at this site's controller.
    pub policy: ControllerPolicy,
    /// Capacity-estimation noise seed.
    pub noise_seed: u64,
    /// Stop this site after this many completed events (`None` runs to
    /// completion).
    pub stop_after: Option<usize>,
}

impl SiteDef {
    /// The anonymous site of a single-site server, with the config's
    /// policy, noise seed and `stop_after`.
    pub fn anonymous(scenario: Scenario, events: Vec<SessionEvent>, config: &DaemonConfig) -> Self {
        Self {
            id: String::new(),
            scenario,
            events,
            policy: config.policy,
            noise_seed: config.noise_seed,
            stop_after: config.stop_after,
        }
    }
}

/// What one server run produced: each site's outcome (or error), keyed
/// by site id.
#[derive(Debug)]
pub struct FleetOutcome {
    /// Per-site results, in site-id order.
    pub sites: BTreeMap<String, Result<DaemonOutcome, DaemonError>>,
}

impl FleetOutcome {
    /// The canonical fleet report: each successful site's
    /// [`SessionReport::canonical`] rendering, keyed by site id. This is
    /// the map the headline invariant is stated over — each value must
    /// be byte-identical to the canonical report of a single-site server
    /// run of the same site.
    pub fn canonical_reports(&self) -> BTreeMap<String, String> {
        self.sites
            .iter()
            .filter_map(|(id, r)| {
                r.as_ref()
                    .ok()
                    .map(|outcome| (id.clone(), outcome.report.canonical()))
            })
            .collect()
    }

    /// Whether every site finished every configured event cleanly.
    pub fn all_completed(&self) -> bool {
        !self.sites.is_empty()
            && self
                .sites
                .values()
                .all(|r| r.as_ref().map(|o| o.completed).unwrap_or(false))
    }
}

/// The Central Controller server: every site behind one listening
/// socket.
pub struct Fleet {
    listener: TcpListener,
    defs: Vec<SiteDef>,
    config: DaemonConfig,
}

impl Fleet {
    /// Validates the site list and binds the listening socket. The list
    /// is either one anonymous site (id `""`) or any number of sites
    /// with unique filesystem-safe ids.
    ///
    /// # Errors
    ///
    /// [`DaemonError::InvalidConfig`] for an invalid site list;
    /// [`DaemonError::Testbed`] for an empty scenario or zero retry
    /// budgets; [`DaemonError::Io`] when the address cannot be bound.
    pub fn bind(
        addr: impl ToSocketAddrs,
        defs: Vec<SiteDef>,
        config: DaemonConfig,
    ) -> Result<Self, DaemonError> {
        if defs.is_empty() {
            return Err(DaemonError::InvalidConfig {
                context: "a fleet needs at least one site".into(),
            });
        }
        let anonymous = matches!(defs.as_slice(), [only] if only.id.is_empty());
        let mut seen: Vec<&str> = Vec::new();
        for def in &defs {
            if !anonymous {
                spec::validate_site_id(&def.id)?;
            }
            if seen.contains(&def.id.as_str()) {
                return Err(DaemonError::InvalidConfig {
                    context: format!("duplicate site id {:?}", def.id),
                });
            }
            seen.push(&def.id);
            check_session(&def.scenario, &config.deadlines)?;
        }
        let listener = TcpListener::bind(addr)?;
        Ok(Self {
            listener,
            defs,
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

    /// Runs every site to completion (or drain/stop) and returns the
    /// per-site outcomes.
    ///
    /// # Errors
    ///
    /// [`DaemonError::SnapshotCorrupt`] / [`DaemonError::Protocol`] when
    /// a site's snapshot store cannot be restored at startup;
    /// [`DaemonError::Io`] for listener failures. Failures *during* a
    /// site's session do not fail the server — they land in that site's
    /// slot of the [`FleetOutcome`].
    pub fn run(self) -> Result<FleetOutcome, DaemonError> {
        let Fleet {
            listener,
            mut defs,
            config,
        } = self;
        defs.sort_by(|a, b| a.id.cmp(&b.id));
        let requested = if config.shards > 0 {
            config.shards
        } else {
            resolve_threads(None)
        };
        let shards = requested.min(defs.len());
        // One reader per expected agent, plus slack for operator
        // connections.
        let workers = defs
            .iter()
            .map(|d| d.scenario.user_positions.len())
            .sum::<usize>()
            + 2;
        let (intakes, mut receivers): (Vec<_>, Vec<_>) =
            (0..shards).map(|_| mpsc::channel()).unzip();
        let server = Arc::new(Server {
            anonymous: defs[0].id.is_empty(),
            router: FleetRouter::new(),
            stop: Arc::new(AtomicBool::new(false)),
            intakes: Mutex::new(intakes),
            loads: (0..shards).map(|_| AtomicUsize::new(0)).collect(),
            outcomes: Mutex::default(),
            acceptor: Mutex::default(),
            config,
        });

        // Materialize every engine up front (restoring snapshots), in
        // sorted-id order so store errors surface deterministically, then
        // deal them out by the deterministic initial partition.
        let ids: Vec<String> = defs.iter().map(|d| d.id.clone()).collect();
        let mut runs: BTreeMap<String, SiteRun> = BTreeMap::new();
        for def in defs {
            let run = server.start_site(def)?;
            runs.insert(run.id.clone(), run);
        }
        let mut buckets: Vec<Vec<SiteRun>> = shard::partition(&ids, shards)
            .into_iter()
            .enumerate()
            .map(|(k, bucket)| {
                server.loads[k].store(bucket.len(), Ordering::Relaxed);
                bucket.iter().filter_map(|id| runs.remove(id)).collect()
            })
            .collect();

        let handler: Arc<dyn Fn(TcpStream) + Send + Sync> = {
            let server = Arc::clone(&server);
            Arc::new(move |stream| server.serve(stream))
        };
        let acceptor = engine::spawn_acceptor(
            listener,
            Arc::clone(&server.stop),
            workers,
            server.config.max_connections,
            handler,
        )?;
        *lock(&server.acceptor) = Some(acceptor);

        // Shard 0 runs on this thread; every other shard gets its own.
        let first_intake = receivers.remove(0);
        let first_sites = buckets.remove(0);
        let threads: Vec<_> = receivers
            .into_iter()
            .zip(buckets)
            .enumerate()
            .map(|(i, (intake, sites))| {
                let server = Arc::clone(&server);
                thread::spawn(move || server.shard_loop(i + 1, sites, intake))
            })
            .collect();
        server.shard_loop(0, first_sites, first_intake);
        for t in threads {
            let _ = t.join();
        }
        // The last site's teardown stops and joins the accept path; this
        // is reached only when that teardown panicked.
        let acceptor = lock(&server.acceptor).take();
        if let Some(acceptor) = acceptor {
            server.stop.store(true, Ordering::Relaxed);
            let _ = acceptor.join();
        }
        let sites = std::mem::take(&mut *lock(&server.outcomes));
        Ok(FleetOutcome { sites })
    }
}

/// The single-site Central Controller: a [`Fleet`] hosting one anonymous
/// site.
pub struct Daemon(Fleet);

impl Daemon {
    /// Binds the server's listening socket for one anonymous site.
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
        let site = SiteDef::anonymous(scenario, events, &config);
        Fleet::bind(addr, vec![site], config).map(Self)
    }

    /// The bound address (useful after binding port 0).
    ///
    /// # Errors
    ///
    /// Propagates the OS failure to report the socket address.
    pub fn local_addr(&self) -> Result<SocketAddr, DaemonError> {
        self.0.local_addr()
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
        self.0.run()?.sites.remove("").unwrap_or_else(|| {
            Err(DaemonError::InvalidConfig {
                context: "the anonymous site left no outcome".into(),
            })
        })
    }
}

/// One site riding a shard: the id, its exclusively-owned engine, and
/// the progress cell `fleet status` reads.
struct SiteRun {
    id: String,
    engine: SessionEngine,
    progress: Arc<SiteProgress>,
}

/// State shared by the shards and the accept path of one running server.
struct Server {
    config: DaemonConfig,
    /// Whether this server hosts the anonymous site (and so refuses
    /// `site add`).
    anonymous: bool,
    router: FleetRouter,
    /// Set when the last site finishes: the accept loop exits and idle
    /// connections close.
    stop: Arc<AtomicBool>,
    /// Each shard's intake for sites added at run time; cleared when the
    /// registry closes, which wakes idle shards.
    intakes: Mutex<Vec<mpsc::Sender<SiteRun>>>,
    /// Sites per shard, for placing added sites on the least-loaded one.
    loads: Vec<AtomicUsize>,
    outcomes: Mutex<BTreeMap<String, Result<DaemonOutcome, DaemonError>>>,
    acceptor: Mutex<Option<thread::JoinHandle<()>>>,
}

impl Server {
    /// Builds a site's engine (restoring any prior snapshot) and
    /// registers it with the router.
    fn start_site(&self, def: SiteDef) -> Result<SiteRun, DaemonError> {
        let id = def.id.clone();
        let (engine, tx) = SessionEngine::new(def, &self.config)?;
        let progress = self
            .router
            .register(
                &id,
                engine.greeting(),
                tx,
                engine.n_events() as u64,
                engine.epochs_done() as u64,
            )
            .map_err(|context| DaemonError::InvalidConfig { context })?;
        Ok(SiteRun {
            id,
            engine,
            progress,
        })
    }

    /// One connection's reader task: the shared accept path, routing
    /// hellos through the router and answering control envelopes.
    fn serve(&self, stream: TcpStream) {
        engine::serve_connection(
            stream,
            &self.stop,
            self.config.read_stall,
            &|client, site| self.router.route_hello(client, site),
            &|stream, envelope| self.control(stream, envelope),
        );
    }

    /// Handles one pre-handshake envelope (operator stop, metrics, fleet
    /// ops); returns whether to keep serving the connection.
    fn control(&self, stream: &mut TcpStream, envelope: Envelope) -> bool {
        let reply = match envelope {
            Envelope::Shutdown { reason } => {
                self.router.stop_all(&reason);
                return false;
            }
            Envelope::MetricsRequest => {
                obs::counter_inc("daemon.metrics_requests");
                Envelope::Metrics {
                    metrics: obs::snapshot(),
                }
            }
            Envelope::Fleet(op) => match &op {
                FleetOp::Status => Envelope::FleetStatus {
                    sites: self.router.status(),
                },
                FleetOp::Drain { site } => ack(&op, self.router.drain(site)),
                FleetOp::Remove { site } => ack(&op, self.router.remove(site)),
                FleetOp::Add { spec } => ack(&op, self.add_site(spec)),
            },
            _ => return false,
        };
        match wire::send(stream, &reply) {
            Ok(sent) => {
                engine::note_frame_out(sent);
                true
            }
            Err(_) => false,
        }
    }

    /// The wire-level `site add`: materialize, build the engine
    /// (restoring any prior snapshot under the snapshot root), register,
    /// and hand the site to the least-loaded shard.
    fn add_site(&self, spec: &SiteSpec) -> Result<(), String> {
        if self.anonymous {
            return Err(
                "this server hosts one anonymous site; start it with --sites to add sites".into(),
            );
        }
        let def = spec::materialize(spec).map_err(|e| e.to_string())?;
        let run = self.start_site(def).map_err(|e| e.to_string())?;
        let id = run.id.clone();
        let k = self
            .loads
            .iter()
            .enumerate()
            .min_by_key(|(i, load)| (load.load(Ordering::Relaxed), *i))
            .map_or(0, |(i, _)| i);
        let delivered = lock(&self.intakes)
            .get(k)
            .is_some_and(|intake| intake.send(run).is_ok());
        if !delivered {
            self.router.finish_driving();
            self.router.finish_site(&id, 0, false);
            return Err("the server is shutting down".into());
        }
        self.loads[k].fetch_add(1, Ordering::Relaxed);
        obs::counter_inc("fleet.sites_added");
        Ok(())
    }

    /// One shard: round-robin one engine step per site, retire sites as
    /// they finish, absorb added sites from the intake. Returns once the
    /// registry has closed and this shard's last site is retired.
    fn shard_loop(&self, k: usize, mut sites: Vec<SiteRun>, intake: mpsc::Receiver<SiteRun>) {
        loop {
            while let Ok(run) = intake.try_recv() {
                sites.push(run);
            }
            if sites.is_empty() {
                if self.router.closed() {
                    return;
                }
                match intake.recv_timeout(IDLE_TICK) {
                    Ok(run) => sites.push(run),
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => return,
                }
                continue;
            }
            let mut i = 0;
            while i < sites.len() {
                match sites[i].engine.step() {
                    Ok(EngineStep::Finished) => {
                        self.loads[k].fetch_sub(1, Ordering::Relaxed);
                        self.retire(sites.remove(i), None);
                    }
                    Err(e) => {
                        self.loads[k].fetch_sub(1, Ordering::Relaxed);
                        self.retire(sites.remove(i), Some(e));
                    }
                    Ok(step) => {
                        let run = &sites[i];
                        run.progress
                            .note(run.engine.epochs_done(), step == EngineStep::Progressed);
                        i += 1;
                    }
                }
            }
        }
    }

    /// Tears one finished (or failed) site down: dismiss its agents,
    /// stop routing to it, drain stray registrations, assemble its
    /// outcome. The last live site takes the server down with it: the
    /// registry closes, the server lingers with that site's agents still
    /// connected, and the accept path is stopped and joined before the
    /// site's teardown ends.
    fn retire(&self, mut run: SiteRun, error: Option<DaemonError>) {
        let last = self.router.finish_driving();
        if last {
            lock(&self.intakes).clear();
            if !self.config.linger.is_zero() {
                thread::sleep(self.config.linger);
            }
        }
        run.engine.dismiss_agents();
        if last {
            self.stop.store(true, Ordering::Relaxed);
        }
        // Drop the router's sender first so the inbox can actually reach
        // disconnect once this site's reader tasks exit.
        self.router.detach(&run.id);
        let deadline = Instant::now() + REAP_BUDGET;
        while !run.engine.reap_strays(Duration::from_millis(20)) && Instant::now() < deadline {}
        if last {
            let acceptor = lock(&self.acceptor).take();
            if let Some(acceptor) = acceptor {
                let _ = acceptor.join();
            }
        }
        let epochs_done = run.engine.epochs_done() as u64;
        let result = match error {
            Some(e) => Err(e),
            None => run.engine.finish(),
        };
        self.router
            .finish_site(&run.id, epochs_done, result.is_ok());
        lock(&self.outcomes).insert(run.id, result);
    }
}

/// Locks a server mutex, recovering the data if a holder panicked.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// Builds the `fleet_ack` for a mutation's result.
fn ack(op: &FleetOp, result: Result<(), String>) -> Envelope {
    let (ok, detail) = match result {
        Ok(()) => (true, String::new()),
        Err(why) => (false, why),
    };
    Envelope::FleetAck {
        op: op.name().to_string(),
        site: op.site().to_string(),
        ok,
        detail,
    }
}
