//! The fleet server: one TCP listener, one snapshot root, N independent
//! per-site session engines stepped on a small set of shard threads.
//!
//! # Execution model
//!
//! Every site is a [`SessionEngine`] — exactly the state machine the
//! single-site daemon runs, created with the site's id (which stamps
//! its snapshot store and its `site.<id>.*` metrics). Sites are
//! partitioned across `shards` threads by [`crate::shard::partition`];
//! each shard round-robins [`SessionEngine::step`] over its sites, so
//! one thread owns each engine exclusively and a site's decision
//! sequence is independent of every other site's schedule. That is the
//! whole determinism argument: N sites behind one fleet produce, per
//! site, the same canonical report as N separate daemons, at any shard
//! count.
//!
//! # Lifecycle
//!
//! The [`crate::router::FleetRouter`] routes agent hellos and carries
//! the `site add` / `site drain` / `site remove` operations arriving
//! over the wire ([`wolt_daemon::wire::FleetOp`]). A drained site stops
//! accepting agents, finishes its in-flight event, persists, and
//! detaches; survivors never notice. When the last site finishes the
//! fleet closes its registry (late adds are refused, not lost), lingers
//! if configured, and tears down the accept path.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use wolt_daemon::engine::{self, EngineStep, SessionEngine};
use wolt_daemon::wire::{self, Envelope, FleetOp, SiteSpec};
use wolt_daemon::{DaemonConfig, DaemonError, DaemonOutcome};
use wolt_sim::Scenario;
use wolt_support::obs;
use wolt_support::pool::resolve_threads;
use wolt_testbed::{ControllerPolicy, Deadlines, SessionEvent};

use crate::router::FleetRouter;
use crate::{shard, spec};

/// How long a shard waits for a finished site's reader tasks to drain
/// before assembling its outcome anyway.
const REAP_BUDGET: Duration = Duration::from_secs(2);

/// One site, fully materialized: everything a [`SessionEngine`] needs.
#[derive(Debug, Clone)]
pub struct SiteDef {
    /// Unique, filesystem-safe site id (see
    /// [`crate::spec::validate_site_id`]).
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

/// Fleet-wide configuration. Per-site knobs (policy, seeds, events)
/// live in each [`SiteDef`]; everything here applies to the shared
/// process.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Shard threads stepping the sites; `0` resolves like the rest of
    /// the workspace (`WOLT_THREADS`, then available parallelism).
    pub shards: usize,
    /// Fleet snapshot root; each site persists under
    /// `<root>/<site-id>/`. `None` disables persistence.
    pub snapshot_root: Option<PathBuf>,
    /// Snapshot generations kept per site.
    pub snapshot_keep: usize,
    /// Deadline and retry budgets, shared by every site.
    pub deadlines: Deadlines,
    /// Per-site budget for all of its agents to connect.
    pub connect_deadline: Duration,
    /// Listener grace period after the last site finishes.
    pub linger: Duration,
    /// Process-wide concurrent-connection cap (`0` = unlimited).
    pub max_connections: usize,
    /// Per-site session-inbox bound (`0` = unbounded).
    pub inbox_cap: usize,
    /// Mid-frame stall budget per connection.
    pub read_stall: Duration,
}

impl Default for FleetConfig {
    fn default() -> Self {
        let single = DaemonConfig::new(ControllerPolicy::Wolt);
        Self {
            shards: 0,
            snapshot_root: None,
            snapshot_keep: single.snapshot_keep,
            deadlines: single.deadlines,
            connect_deadline: single.connect_deadline,
            linger: Duration::ZERO,
            max_connections: 0,
            inbox_cap: 0,
            read_stall: single.read_stall,
        }
    }
}

/// The per-engine daemon config a fleet site runs under.
fn daemon_config_for(def: &SiteDef, config: &FleetConfig) -> DaemonConfig {
    let mut c = DaemonConfig::new(def.policy);
    c.deadlines = config.deadlines;
    c.noise_seed = def.noise_seed;
    c.snapshot_dir = config.snapshot_root.as_ref().map(|root| root.join(&def.id));
    c.snapshot_keep = config.snapshot_keep;
    c.stop_after = def.stop_after;
    c.connect_deadline = config.connect_deadline;
    c.inbox_cap = config.inbox_cap;
    c.read_stall = config.read_stall;
    c
}

/// What one fleet run produced: each site's outcome (or error), keyed
/// by site id.
#[derive(Debug)]
pub struct FleetOutcome {
    /// Per-site results, in site-id order.
    pub sites: BTreeMap<String, Result<DaemonOutcome, DaemonError>>,
}

impl FleetOutcome {
    /// The canonical fleet report: each successful site's
    /// [`wolt_testbed::SessionReport::canonical`] rendering, keyed by
    /// site id. This is the map the headline invariant is stated over —
    /// each value must be byte-identical to the canonical report of a
    /// single-site daemon run of the same site.
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

/// One site riding a shard: the id plus its exclusively-owned engine.
struct SiteRun {
    id: String,
    engine: SessionEngine,
}

type Outcomes = Arc<Mutex<BTreeMap<String, Result<DaemonOutcome, DaemonError>>>>;

/// The multi-site controller behind one listening socket.
pub struct Fleet {
    listener: TcpListener,
    defs: Vec<SiteDef>,
    config: FleetConfig,
}

impl Fleet {
    /// Validates the site list (non-empty, unique filesystem-safe ids)
    /// and binds the fleet's listening socket.
    ///
    /// # Errors
    ///
    /// [`DaemonError::InvalidConfig`] for an invalid site list;
    /// [`DaemonError::Io`] when the address cannot be bound.
    pub fn bind(
        addr: impl ToSocketAddrs,
        defs: Vec<SiteDef>,
        config: FleetConfig,
    ) -> Result<Self, DaemonError> {
        if defs.is_empty() {
            return Err(DaemonError::InvalidConfig {
                context: "a fleet needs at least one site".into(),
            });
        }
        let mut seen: Vec<&str> = Vec::new();
        for def in &defs {
            spec::validate_site_id(&def.id)?;
            if seen.contains(&def.id.as_str()) {
                return Err(DaemonError::InvalidConfig {
                    context: format!("duplicate site id {:?}", def.id),
                });
            }
            seen.push(&def.id);
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
    /// [`DaemonError::SnapshotCorrupt`] /
    /// [`DaemonError::Protocol`] when a site's snapshot store cannot be
    /// restored at startup; [`DaemonError::Io`] for listener failures.
    /// Failures *during* a site's session do not fail the fleet — they
    /// land in that site's slot of the [`FleetOutcome`].
    pub fn run(self) -> Result<FleetOutcome, DaemonError> {
        let shards_n = if self.config.shards > 0 {
            self.config.shards
        } else {
            resolve_threads(None)
        };
        let router = Arc::new(FleetRouter::new());
        let outcomes: Outcomes = Arc::new(Mutex::new(BTreeMap::new()));
        let stop = Arc::new(AtomicBool::new(false));

        // Materialize every engine up front (restoring snapshots), in
        // sorted-id order so store errors surface deterministically.
        let mut defs = self.defs;
        defs.sort_by(|a, b| a.id.cmp(&b.id));
        let total_users: usize = defs.iter().map(|d| d.scenario.user_positions.len()).sum();
        let mut runs: BTreeMap<String, SiteRun> = BTreeMap::new();
        for def in &defs {
            let dconfig = daemon_config_for(def, &self.config);
            let (engine, tx) =
                SessionEngine::new(&def.id, def.scenario.clone(), def.events.clone(), dconfig)?;
            router
                .register(
                    &def.id,
                    engine.greeting(),
                    tx,
                    engine.n_events() as u64,
                    engine.epochs_done() as u64,
                )
                .map_err(|context| DaemonError::InvalidConfig { context })?;
            runs.insert(
                def.id.clone(),
                SiteRun {
                    id: def.id.clone(),
                    engine,
                },
            );
        }

        // Deterministic initial partition; dynamic adds later go to the
        // least-loaded shard (ties toward the lowest index).
        let ids: Vec<String> = runs.keys().cloned().collect();
        let assignment = shard::partition(&ids, shards_n);
        let counts: Arc<Vec<AtomicUsize>> =
            Arc::new((0..shards_n).map(|_| AtomicUsize::new(0)).collect());
        let intakes: Arc<Mutex<Vec<mpsc::Sender<SiteRun>>>> =
            Arc::new(Mutex::new(Vec::with_capacity(shards_n)));
        let mut shard_threads = Vec::with_capacity(shards_n);
        for (k, bucket) in assignment.into_iter().enumerate() {
            let initial: Vec<SiteRun> = bucket
                .into_iter()
                .map(|id| runs.remove(&id).expect("partition covers the registry"))
                .collect();
            counts[k].store(initial.len(), Ordering::Relaxed);
            let (tx, rx) = mpsc::channel::<SiteRun>();
            intakes.lock().unwrap_or_else(|e| e.into_inner()).push(tx);
            let router = Arc::clone(&router);
            let outcomes = Arc::clone(&outcomes);
            let stop = Arc::clone(&stop);
            let counts = Arc::clone(&counts);
            shard_threads.push(thread::spawn(move || {
                shard_loop(initial, rx, &stop, &router, &outcomes, &counts[k]);
            }));
        }
        debug_assert!(runs.is_empty());

        // One reader per expected agent, plus slack for operator
        // connections.
        let workers = total_users + shards_n + 2;
        let handler: Arc<dyn Fn(TcpStream) + Send + Sync> = {
            let stop = Arc::clone(&stop);
            let router = Arc::clone(&router);
            let intakes = Arc::clone(&intakes);
            let counts = Arc::clone(&counts);
            let config = self.config.clone();
            let read_stall = self.config.read_stall;
            Arc::new(move |stream| {
                let route = |client: usize, site: Option<&str>| router.route_hello(client, site);
                let control = |stream: &mut TcpStream, envelope: Envelope| -> bool {
                    match envelope {
                        Envelope::Shutdown { reason } => {
                            obs::trace("fleet", format!("operator stop: {reason}"));
                            router.stop_all(&reason);
                            false
                        }
                        Envelope::MetricsRequest => {
                            obs::counter_inc("daemon.metrics_requests");
                            let reply = Envelope::Metrics {
                                metrics: obs::snapshot(),
                            };
                            send_reply(stream, &reply)
                        }
                        Envelope::Fleet(op) => {
                            let reply = match &op {
                                FleetOp::Status => Envelope::FleetStatus {
                                    sites: router.status(),
                                },
                                FleetOp::Drain { site } => ack(&op, router.drain(site)),
                                FleetOp::Remove { site } => ack(&op, router.remove(site)),
                                FleetOp::Add { spec } => {
                                    ack(&op, add_site(spec, &config, &router, &intakes, &counts))
                                }
                            };
                            send_reply(stream, &reply)
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
            self.config.max_connections,
            handler,
        )?;

        // The fleet is done when every site is: drained, completed,
        // failed, or timed out waiting for its agents — each of those is
        // a terminal engine state, so this wait is bounded.
        router.wait_all_done();
        if !self.config.linger.is_zero() {
            thread::sleep(self.config.linger);
        }
        stop.store(true, Ordering::Relaxed);
        intakes.lock().unwrap_or_else(|e| e.into_inner()).clear();
        for t in shard_threads {
            let _ = t.join();
        }
        let _ = acceptor.join();

        let sites = std::mem::take(&mut *outcomes.lock().unwrap_or_else(|e| e.into_inner()));
        Ok(FleetOutcome { sites })
    }
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

/// Sends a control reply; `false` (stop serving) on a dead connection.
fn send_reply(stream: &mut TcpStream, reply: &Envelope) -> bool {
    match wire::send_counted(stream, reply) {
        Ok(sent) => {
            engine::note_frame_out(sent);
            true
        }
        Err(_) => false,
    }
}

/// The wire-level `site add`: materialize, build the engine (restoring
/// any prior snapshot under the fleet root), register with the router,
/// and hand the site to the least-loaded shard.
fn add_site(
    spec: &SiteSpec,
    config: &FleetConfig,
    router: &FleetRouter,
    intakes: &Mutex<Vec<mpsc::Sender<SiteRun>>>,
    counts: &[AtomicUsize],
) -> Result<(), String> {
    let def = spec::materialize(spec).map_err(|e| e.to_string())?;
    let dconfig = daemon_config_for(&def, config);
    let (engine, tx) = SessionEngine::new(&def.id, def.scenario, def.events, dconfig)
        .map_err(|e| e.to_string())?;
    router.register(
        &def.id,
        engine.greeting(),
        tx,
        engine.n_events() as u64,
        engine.epochs_done() as u64,
    )?;
    let k = counts
        .iter()
        .enumerate()
        .min_by_key(|(i, c)| (c.load(Ordering::Relaxed), *i))
        .map(|(i, _)| i)
        .expect("a fleet always has at least one shard");
    let delivered = intakes
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .get(k)
        .map(|intake| {
            intake
                .send(SiteRun {
                    id: def.id.clone(),
                    engine,
                })
                .is_ok()
        })
        .unwrap_or(false);
    if !delivered {
        router.finish_site(&def.id, 0, false);
        return Err("the fleet is shutting down".into());
    }
    counts[k].fetch_add(1, Ordering::Relaxed);
    obs::counter_inc("fleet.sites_added");
    Ok(())
}

/// One shard thread: round-robin one engine step per site, retire sites
/// as they finish, absorb dynamically added sites from the intake.
fn shard_loop(
    mut sites: Vec<SiteRun>,
    intake: mpsc::Receiver<SiteRun>,
    stop: &AtomicBool,
    router: &FleetRouter,
    outcomes: &Outcomes,
    count: &AtomicUsize,
) {
    loop {
        while let Ok(run) = intake.try_recv() {
            sites.push(run);
        }
        if sites.is_empty() {
            if stop.load(Ordering::Relaxed) {
                return;
            }
            match intake.recv_timeout(Duration::from_millis(20)) {
                Ok(run) => sites.push(run),
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => return,
            }
            continue;
        }
        let mut i = 0;
        while i < sites.len() {
            let run = &mut sites[i];
            match run.engine.step() {
                Ok(EngineStep::Finished) => {
                    let run = sites.remove(i);
                    retire(run, router, outcomes, None);
                    count.fetch_sub(1, Ordering::Relaxed);
                }
                Ok(progress) => {
                    router.note_progress(
                        &run.id,
                        run.engine.epochs_done() as u64,
                        progress == EngineStep::Progressed,
                    );
                    i += 1;
                }
                Err(e) => {
                    let run = sites.remove(i);
                    retire(run, router, outcomes, Some(e));
                    count.fetch_sub(1, Ordering::Relaxed);
                }
            }
        }
    }
}

/// Tears one finished (or failed) site down without blocking its shard
/// siblings for long: dismiss agents, stop routing, drain stray
/// registrations, assemble the outcome.
fn retire(mut run: SiteRun, router: &FleetRouter, outcomes: &Outcomes, error: Option<DaemonError>) {
    run.engine.dismiss_agents();
    // Drop the router's sender first so the inbox can actually reach
    // disconnect once this site's reader tasks exit.
    router.detach(&run.id);
    let deadline = Instant::now() + REAP_BUDGET;
    while Instant::now() < deadline {
        if run.engine.reap_strays(Duration::from_millis(20)) {
            break;
        }
    }
    let epochs_done = run.engine.epochs_done() as u64;
    let result = match error {
        Some(e) => Err(e),
        None => run.engine.finish(),
    };
    router.finish_site(&run.id, epochs_done, result.is_ok());
    outcomes
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(run.id, result);
}
