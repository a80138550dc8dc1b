//! The fleet's headline invariant and its control surface.
//!
//! A fleet multiplexing N sites behind one daemon must be *observably
//! indistinguishable*, per site, from N separate single-site daemons:
//! the canonical session reports byte-identical, at every shard count,
//! including across a kill/restart from the fleet snapshot root. On top
//! of that structural contract, the suite pins the lifecycle surface —
//! typed `site_gone` rejects for unknown and drained sites (fatal to
//! agents, not retried), and the wire-level `site add`/`drain`/`remove`
//! operations against a live fleet.

use std::collections::BTreeMap;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use wolt_daemon::wire::{self, FleetOp, SiteSpec};
use wolt_daemon::{
    run_agent, run_agent_with, AgentRetry, Daemon, DaemonConfig, DaemonError, Envelope, Fleet,
    FleetOutcome, SiteDef,
};
use wolt_sim::Scenario;
use wolt_support::obs;
use wolt_testbed::{ControllerPolicy, SessionEvent};
use wolt_tests::lab_scenario;

/// Serializes the tests in this binary: the obs registry and the
/// `WOLT_THREADS` variable are process-global.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn with_threads<T>(threads: &str, f: impl FnOnce() -> T) -> T {
    let original = std::env::var("WOLT_THREADS").ok();
    std::env::set_var("WOLT_THREADS", threads);
    let out = f();
    match original {
        Some(v) => std::env::set_var("WOLT_THREADS", v),
        None => std::env::remove_var("WOLT_THREADS"),
    }
    out
}

fn all_join(users: usize) -> Vec<SessionEvent> {
    (0..users).map(SessionEvent::Join).collect()
}

/// A fresh directory under the system temp root, unique per call.
fn fresh_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("wolt-fleet-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The acceptance-test fleet: three sites with different sizes, seeds,
/// and policies, so any cross-site state bleed shows up as a diff.
fn three_sites() -> Vec<SiteDef> {
    [
        ("alpha", 3usize, 11u64, ControllerPolicy::Wolt),
        ("beta", 4, 12, ControllerPolicy::Greedy),
        ("gamma", 5, 13, ControllerPolicy::Rssi),
    ]
    .into_iter()
    .map(|(id, users, seed, policy)| SiteDef {
        id: id.to_string(),
        scenario: lab_scenario(users, seed),
        events: all_join(users),
        policy,
        noise_seed: seed,
        stop_after: None,
    })
    .collect()
}

/// Runs one site as its own independent single-site daemon and returns
/// the canonical report — the baseline the fleet must reproduce.
fn single_site_canonical(def: &SiteDef) -> String {
    let mut config = DaemonConfig::new(def.policy);
    config.noise_seed = def.noise_seed;
    let daemon = Daemon::bind(
        "127.0.0.1:0",
        def.scenario.clone(),
        def.events.clone(),
        config,
    )
    .expect("single-site bind");
    let addr = daemon.local_addr().expect("bound address");
    let agents: Vec<_> = (0..def.scenario.user_positions.len())
        .map(|i| {
            let scenario = def.scenario.clone();
            thread::spawn(move || run_agent(addr, &scenario, i, &format!("solo-{i}")))
        })
        .collect();
    let outcome = daemon.run().expect("single-site session runs");
    for handle in agents {
        handle.join().expect("agent thread").expect("agent exits");
    }
    assert!(outcome.completed, "single-site baseline did not complete");
    outcome.report.canonical()
}

/// Boots a fleet over the given defs, connects every site's agents, and
/// returns the outcome.
fn run_fleet(defs: Vec<SiteDef>, snapshot_root: Option<PathBuf>) -> FleetOutcome {
    let scenarios: Vec<(String, Scenario)> = defs
        .iter()
        .map(|d| (d.id.clone(), d.scenario.clone()))
        .collect();
    let config = DaemonConfig {
        snapshot_dir: snapshot_root,
        ..DaemonConfig::default()
    };
    let fleet = Fleet::bind("127.0.0.1:0", defs, config).expect("fleet bind");
    let addr = fleet.local_addr().expect("bound address");
    let agents: Vec<_> = scenarios
        .iter()
        .flat_map(|(site, scenario)| {
            (0..scenario.user_positions.len()).map(|i| {
                let site = site.clone();
                let scenario = scenario.clone();
                thread::spawn(move || {
                    run_agent_with(
                        addr,
                        &scenario,
                        Some(&site),
                        i,
                        &format!("{site}-{i}"),
                        &AgentRetry::default(),
                        1,
                    )
                })
            })
        })
        .collect();
    let outcome = fleet.run().expect("fleet runs");
    for handle in agents {
        handle.join().expect("agent thread").expect("agent exits");
    }
    outcome
}

/// The headline invariant, including crash-safety: per-site fleet
/// reports are byte-identical to three independent single-site daemons
/// at every shard count, and a fleet killed mid-run (per-site
/// `stop_after`) resumes from its snapshot root to the same bytes.
#[test]
fn fleet_matches_independent_daemons_across_shards_and_restart() {
    let _guard = lock();
    let defs = three_sites();
    let baselines: BTreeMap<String, String> = defs
        .iter()
        .map(|def| (def.id.clone(), single_site_canonical(def)))
        .collect();

    for threads in ["1", "2", "8"] {
        with_threads(threads, || {
            // Clean run, no persistence: straight equality.
            let clean = run_fleet(three_sites(), None);
            assert!(
                clean.all_completed(),
                "clean fleet at {threads} shards did not complete"
            );
            assert_eq!(
                clean.canonical_reports(),
                baselines,
                "clean fleet diverged from single-site daemons at WOLT_THREADS={threads}"
            );

            // Interrupted run: every site stops after two epochs, then a
            // second fleet process restarts from the same snapshot root
            // with fresh agents and must land on the same bytes.
            let root = fresh_dir(&format!("restart-{threads}"));
            let mut interrupted = three_sites();
            for def in &mut interrupted {
                def.stop_after = Some(2);
            }
            let first = run_fleet(interrupted, Some(root.clone()));
            for (id, result) in &first.sites {
                let outcome = result.as_ref().expect("interrupted site outcome");
                assert!(!outcome.completed, "site {id} was not interrupted");
                assert_eq!(outcome.epochs_done, 2, "site {id} stopped elsewhere");
            }
            let resumed = run_fleet(three_sites(), Some(root.clone()));
            assert!(
                resumed.all_completed(),
                "resumed fleet at {threads} shards did not complete"
            );
            assert_eq!(
                resumed.canonical_reports(),
                baselines,
                "restart from the fleet root diverged at WOLT_THREADS={threads}"
            );
            let _ = std::fs::remove_dir_all(&root);
        });
    }
}

/// The per-site metric labels are part of the determinism contract:
/// canonical reports AND the merged `site.*` counter totals must be
/// identical at every shard count (the registry merge is
/// shard-order-invariant).
#[test]
fn fleet_site_counters_are_shard_count_invariant() {
    let _guard = lock();
    let measure = || {
        obs::reset();
        let defs: Vec<SiteDef> = three_sites().into_iter().take(2).collect();
        let outcome = run_fleet(defs, None);
        assert!(outcome.all_completed(), "matrix fleet did not complete");
        let site_counters: BTreeMap<String, u64> = obs::snapshot()
            .counters
            .into_iter()
            .filter(|(name, _)| name.starts_with("site."))
            .collect();
        (outcome.canonical_reports(), site_counters)
    };
    let (base_reports, base_counters) = with_threads("1", measure);
    // Non-vacuousness: both sites counted epochs and solves.
    for site in ["alpha", "beta"] {
        for metric in ["epochs", "solved"] {
            let name = format!("site.{site}.{metric}");
            assert!(
                base_counters.get(&name).copied().unwrap_or(0) > 0,
                "{name} never counted — the matrix is vacuous"
            );
        }
    }
    for threads in ["2", "8"] {
        let (reports, counters) = with_threads(threads, measure);
        assert_eq!(
            reports, base_reports,
            "canonical reports diverged at WOLT_THREADS={threads}"
        );
        assert_eq!(
            counters, base_counters,
            "merged site.* counters diverged at WOLT_THREADS={threads}"
        );
    }
}

/// An agent naming a site the daemon does not host gets the typed
/// `site_gone` refusal and fails *fast* — the old behavior was to retry
/// the full backoff schedule against a refusal that can never heal.
#[test]
fn unknown_site_is_fatal_to_the_agent_not_retried() {
    let _guard = lock();
    let def = SiteDef {
        id: "only".into(),
        scenario: lab_scenario(2, 5),
        events: all_join(2),
        policy: ControllerPolicy::Wolt,
        noise_seed: 5,
        stop_after: None,
    };
    let scenario = def.scenario.clone();
    let fleet = Fleet::bind("127.0.0.1:0", vec![def], DaemonConfig::default()).expect("fleet bind");
    let addr = fleet.local_addr().expect("bound address");

    let ghost = {
        let scenario = scenario.clone();
        thread::spawn(move || {
            // A generous retry budget: if site_gone were treated as a
            // transient failure, this would spin for many seconds.
            let retry = AgentRetry {
                attempts: 50,
                base: Duration::from_millis(100),
                cap: Duration::from_secs(2),
                seed: 0,
            };
            let started = Instant::now();
            let result = run_agent_with(addr, &scenario, Some("phantom"), 0, "ghost", &retry, 1);
            (result, started.elapsed())
        })
    };
    let agents: Vec<_> = (0..2)
        .map(|i| {
            let scenario = scenario.clone();
            thread::spawn(move || {
                run_agent_with(
                    addr,
                    &scenario,
                    Some("only"),
                    i,
                    &format!("real-{i}"),
                    &AgentRetry::default(),
                    1,
                )
            })
        })
        .collect();

    let outcome = fleet.run().expect("fleet runs");
    assert!(outcome.all_completed(), "hosted site did not complete");
    for handle in agents {
        handle.join().expect("agent thread").expect("agent exits");
    }
    let (result, elapsed) = ghost.join().expect("ghost thread");
    match result {
        Err(DaemonError::SiteGone { site }) => assert_eq!(site, "phantom"),
        other => panic!("expected DaemonError::SiteGone, got {other:?}"),
    }
    assert!(
        elapsed < Duration::from_secs(5),
        "site_gone took {elapsed:?} — the agent retried a permanent refusal"
    );
}

/// A single-site daemon is a one-site fleet with no registry: any sited
/// hello is refused with `site_gone`, both at the wire level and
/// through the agent API.
#[test]
fn single_site_daemon_refuses_sited_hellos() {
    let _guard = lock();
    let scenario = lab_scenario(1, 9);
    let mut config = DaemonConfig::new(ControllerPolicy::Wolt);
    config.noise_seed = 9;
    let daemon =
        Daemon::bind("127.0.0.1:0", scenario.clone(), all_join(1), config).expect("daemon bind");
    let addr = daemon.local_addr().expect("bound address");
    let daemon = thread::spawn(move || daemon.run());

    // Wire level: the reject names the site and the connection closes.
    let mut probe = TcpStream::connect(addr).expect("probe connects");
    probe
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    wire::send(
        &mut probe,
        &Envelope::Hello {
            client: 0,
            name: "misdirected".into(),
            site: Some("floor-9".into()),
        },
    )
    .expect("probe hello");
    match wire::recv(&mut probe).expect("probe reply") {
        Some(Envelope::SiteGone { site }) => assert_eq!(site, "floor-9"),
        other => panic!("expected site_gone, got {other:?}"),
    }
    drop(probe);

    // Agent API: typed and fatal.
    match run_agent_with(
        addr,
        &scenario,
        Some("floor-9"),
        0,
        "misdirected",
        &AgentRetry::default(),
        1,
    ) {
        Err(DaemonError::SiteGone { site }) => assert_eq!(site, "floor-9"),
        other => panic!("expected DaemonError::SiteGone, got {other:?}"),
    }

    // The session itself is unharmed: the real (unsited) agent runs.
    let agent = {
        let scenario = scenario.clone();
        thread::spawn(move || run_agent(addr, &scenario, 0, "real"))
    };
    let outcome = daemon.join().expect("daemon thread").expect("session runs");
    agent.join().expect("agent thread").expect("agent exits");
    assert!(outcome.completed, "single-site session did not complete");
}

/// One control round-trip against a live fleet.
fn fleet_op(stream: &mut TcpStream, op: FleetOp) -> Envelope {
    wire::send(stream, &Envelope::Fleet(op)).expect("fleet op sends");
    wire::recv(stream)
        .expect("fleet reply arrives")
        .expect("fleet replied before closing")
}

/// Polls `fleet status` until `done` approves the site list.
fn await_status(
    stream: &mut TcpStream,
    what: &str,
    done: impl Fn(&[wire::SiteStatus]) -> bool,
) -> Vec<wire::SiteStatus> {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        match fleet_op(stream, FleetOp::Status) {
            Envelope::FleetStatus { sites } => {
                if done(&sites) {
                    return sites;
                }
                assert!(
                    Instant::now() < deadline,
                    "fleet never reached the expected state ({what}); last: {sites:?}"
                );
                thread::sleep(Duration::from_millis(20));
            }
            other => panic!("expected fleet_status, got {other:?}"),
        }
    }
}

/// The lifecycle surface over the wire: status lists every site, add
/// boots a new site into the running fleet, drain detaches one site
/// without touching its neighbours, remove forgets it, and a drained
/// site's hello gets `site_gone`.
#[test]
fn fleet_ops_drive_a_live_fleet() {
    let _guard = lock();
    let alpha_scenario = lab_scenario(2, 21);
    let defs = vec![
        SiteDef {
            id: "alpha".into(),
            scenario: alpha_scenario.clone(),
            events: all_join(2),
            policy: ControllerPolicy::Wolt,
            noise_seed: 21,
            stop_after: None,
        },
        // Two sites that never get agents: they idle in their connect
        // window and keep the fleet alive while we drive the ops.
        SiteDef {
            id: "idle".into(),
            scenario: lab_scenario(1, 22),
            events: all_join(1),
            policy: ControllerPolicy::Wolt,
            noise_seed: 22,
            stop_after: None,
        },
        SiteDef {
            id: "hold".into(),
            scenario: lab_scenario(1, 23),
            events: all_join(1),
            policy: ControllerPolicy::Wolt,
            noise_seed: 23,
            stop_after: None,
        },
    ];
    let fleet = Fleet::bind("127.0.0.1:0", defs, DaemonConfig::default()).expect("fleet bind");
    let addr = fleet.local_addr().expect("bound address");
    let fleet = thread::spawn(move || fleet.run());

    let mut ctl = TcpStream::connect(addr).expect("control connects");
    ctl.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    // Status lists all three sites, sorted.
    let sites = await_status(&mut ctl, "registry up", |s| s.len() == 3);
    let ids: Vec<&str> = sites.iter().map(|s| s.site.as_str()).collect();
    assert_eq!(ids, ["alpha", "hold", "idle"]);

    // Add a fourth site while the fleet runs, then serve it.
    match fleet_op(
        &mut ctl,
        FleetOp::Add {
            spec: SiteSpec {
                id: "fresh".into(),
                preset: "lab".into(),
                users: 1,
                seed: 77,
                policy: "wolt".into(),
                stop_after: None,
            },
        },
    ) {
        Envelope::FleetAck { op, ok: true, .. } => assert_eq!(op, "add"),
        other => panic!("expected an ack for add, got {other:?}"),
    }
    // A duplicate add is refused, not re-registered.
    match fleet_op(
        &mut ctl,
        FleetOp::Add {
            spec: SiteSpec {
                id: "alpha".into(),
                preset: "lab".into(),
                users: 1,
                seed: 1,
                policy: "wolt".into(),
                stop_after: None,
            },
        },
    ) {
        Envelope::FleetAck {
            ok: false, detail, ..
        } => {
            assert!(detail.contains("alpha"), "unhelpful nack: {detail:?}")
        }
        other => panic!("expected a nack for duplicate add, got {other:?}"),
    }

    let fresh_scenario = lab_scenario(1, 77);
    let fresh_agent = thread::spawn(move || {
        run_agent_with(
            addr,
            &fresh_scenario,
            Some("fresh"),
            0,
            "fresh-0",
            &AgentRetry::default(),
            1,
        )
    });
    let alpha_agents: Vec<_> = (0..2)
        .map(|i| {
            let scenario = alpha_scenario.clone();
            thread::spawn(move || {
                run_agent_with(
                    addr,
                    &scenario,
                    Some("alpha"),
                    i,
                    &format!("alpha-{i}"),
                    &AgentRetry::default(),
                    1,
                )
            })
        })
        .collect();

    // Drain the idle site: it finishes (stopped, no agents ever came)
    // while alpha and fresh are untouched.
    match fleet_op(
        &mut ctl,
        FleetOp::Drain {
            site: "idle".into(),
        },
    ) {
        Envelope::FleetAck { op, ok: true, .. } => assert_eq!(op, "drain"),
        other => panic!("expected an ack for drain, got {other:?}"),
    }
    await_status(&mut ctl, "idle drained", |s| {
        s.iter().any(|s| s.site == "idle" && s.state == "done")
    });

    // A hello naming the drained site gets the typed reject.
    let mut late = TcpStream::connect(addr).expect("late agent connects");
    late.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    wire::send(
        &mut late,
        &Envelope::Hello {
            client: 0,
            name: "late".into(),
            site: Some("idle".into()),
        },
    )
    .expect("late hello");
    match wire::recv(&mut late).expect("late reply") {
        Some(Envelope::SiteGone { site }) => assert_eq!(site, "idle"),
        other => panic!("expected site_gone for the drained site, got {other:?}"),
    }
    drop(late);

    // Remove forgets the (already finished) site entirely.
    match fleet_op(
        &mut ctl,
        FleetOp::Remove {
            site: "idle".into(),
        },
    ) {
        Envelope::FleetAck { op, ok: true, .. } => assert_eq!(op, "remove"),
        other => panic!("expected an ack for remove, got {other:?}"),
    }
    let sites = await_status(&mut ctl, "idle removed", |s| {
        s.iter().all(|s| s.site != "idle")
    });
    assert!(sites.iter().any(|s| s.site == "fresh"));

    // Release the holdout so the fleet can finish.
    match fleet_op(
        &mut ctl,
        FleetOp::Drain {
            site: "hold".into(),
        },
    ) {
        Envelope::FleetAck { ok: true, .. } => {}
        other => panic!("expected an ack for the final drain, got {other:?}"),
    }
    drop(ctl);

    let outcome = fleet.join().expect("fleet thread").expect("fleet runs");
    for handle in alpha_agents {
        handle.join().expect("agent thread").expect("agent exits");
    }
    fresh_agent
        .join()
        .expect("fresh agent thread")
        .expect("fresh agent exits");

    let alpha = outcome.sites["alpha"].as_ref().expect("alpha outcome");
    assert!(alpha.completed, "alpha was disturbed by the ops");
    let fresh = outcome.sites["fresh"].as_ref().expect("fresh outcome");
    assert!(fresh.completed, "the added site did not complete");
    let idle = outcome.sites["idle"].as_ref().expect("idle outcome");
    assert!(!idle.completed, "the drained site cannot have completed");
    assert_eq!(idle.epochs_done, 0);
    let hold = outcome.sites["hold"].as_ref().expect("hold outcome");
    assert!(!hold.completed, "the drained holdout cannot have completed");
}

/// A single-site server is a fleet of one anonymous site: `fleet status`
/// lists that site as `""`, and `site add` is refused with a reason —
/// the server reports exactly one outcome, so an added site's would be
/// lost.
#[test]
fn single_site_server_answers_fleet_status_with_the_anonymous_site() {
    let _guard = lock();
    let scenario = lab_scenario(2, 41);
    let mut config = DaemonConfig::new(ControllerPolicy::Wolt);
    config.noise_seed = 41;
    let daemon =
        Daemon::bind("127.0.0.1:0", scenario.clone(), all_join(2), config).expect("daemon bind");
    let addr = daemon.local_addr().expect("bound address");
    let daemon = thread::spawn(move || daemon.run());

    let mut ctl = TcpStream::connect(addr).expect("control connects");
    ctl.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    match fleet_op(&mut ctl, FleetOp::Status) {
        Envelope::FleetStatus { sites } => {
            assert_eq!(sites.len(), 1, "one site expected: {sites:?}");
            let site = &sites[0];
            assert_eq!(site.site, "");
            assert_eq!(site.state, "waiting");
            assert_eq!((site.users, site.events, site.epochs_done), (2, 2, 0));
        }
        other => panic!("expected fleet_status, got {other:?}"),
    }
    match fleet_op(
        &mut ctl,
        FleetOp::Add {
            spec: SiteSpec {
                id: "annex".into(),
                preset: "lab".into(),
                users: 1,
                seed: 7,
                policy: "wolt".into(),
                stop_after: None,
            },
        },
    ) {
        Envelope::FleetAck {
            op,
            site,
            ok: false,
            detail,
        } => {
            assert_eq!((op.as_str(), site.as_str()), ("add", "annex"));
            assert!(
                detail.contains("anonymous"),
                "unhelpful refusal: {detail:?}"
            );
        }
        other => panic!("expected a refusal for add, got {other:?}"),
    }
    drop(ctl);

    let agents: Vec<_> = (0..2)
        .map(|i| {
            let scenario = scenario.clone();
            thread::spawn(move || run_agent(addr, &scenario, i, &format!("solo-{i}")))
        })
        .collect();
    let outcome = daemon.join().expect("daemon thread").expect("session runs");
    for handle in agents {
        handle.join().expect("agent thread").expect("agent exits");
    }
    assert!(outcome.completed, "the anonymous site did not complete");
    assert_eq!(outcome.epochs_done, 2);
}

/// `running` means every agent registered and the session driving: with
/// one of a site's two agents connected, `fleet status` reads `waiting`,
/// and the second registration makes it `running`.
#[test]
fn a_site_reads_waiting_until_every_agent_registered() {
    let _guard = lock();
    let def = SiteDef {
        id: "pair".into(),
        scenario: lab_scenario(2, 31),
        events: all_join(2),
        policy: ControllerPolicy::Wolt,
        noise_seed: 31,
        stop_after: None,
    };
    let fleet = Fleet::bind("127.0.0.1:0", vec![def], DaemonConfig::default()).expect("fleet bind");
    let addr = fleet.local_addr().expect("bound address");
    let fleet = thread::spawn(move || fleet.run());

    // A bare handshake registers a client without running an agent.
    let hello = |client: usize| {
        let mut stream = TcpStream::connect(addr).expect("agent connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        wire::send(
            &mut stream,
            &Envelope::Hello {
                client,
                name: format!("bare-{client}"),
                site: Some("pair".into()),
            },
        )
        .expect("hello sends");
        match wire::recv(&mut stream).expect("hello reply") {
            Some(Envelope::HelloAck { .. }) => stream,
            other => panic!("expected hello_ack, got {other:?}"),
        }
    };
    let mut ctl = TcpStream::connect(addr).expect("control connects");
    ctl.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    let _first = hello(0);
    // The session sees a registration within one 25 ms connect-wait
    // tick; keep reading well past that.
    let until = Instant::now() + Duration::from_millis(300);
    while Instant::now() < until {
        match fleet_op(&mut ctl, FleetOp::Status) {
            Envelope::FleetStatus { sites } => assert_eq!(
                sites[0].state, "waiting",
                "one of two agents registered, yet: {sites:?}"
            ),
            other => panic!("expected fleet_status, got {other:?}"),
        }
        thread::sleep(Duration::from_millis(20));
    }
    let _second = hello(1);
    await_status(&mut ctl, "both agents registered", |s| {
        s[0].state == "running"
    });

    // Release the site: its bare clients never answer the first command.
    match fleet_op(
        &mut ctl,
        FleetOp::Drain {
            site: "pair".into(),
        },
    ) {
        Envelope::FleetAck { ok: true, .. } => {}
        other => panic!("expected an ack for drain, got {other:?}"),
    }
    drop(ctl);
    let outcome = fleet.join().expect("fleet thread").expect("fleet runs");
    let pair = outcome.sites["pair"].as_ref().expect("pair outcome");
    assert!(!pair.completed, "a drained site cannot have completed");
}
