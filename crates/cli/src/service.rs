//! The `serve` and `agent` verbs: the networked Central Controller as
//! CLI commands.
//!
//! Both sides regenerate the scenario from the same `(preset, users,
//! seed)` triple instead of shipping rate tables over the wire — the
//! agent needs the scenario only for its scan results, and a shared seed
//! keeps the two binaries in lockstep without a file exchange.

use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

use wolt_daemon::wire::FleetOp;
use wolt_daemon::{
    run_agent_with, wire, AgentRetry, DaemonConfig, DaemonError, DaemonOutcome, Envelope, Fleet,
    FleetSpec, SiteDef,
};
use wolt_sim::scenario::ScenarioConfig;
use wolt_sim::Scenario;
use wolt_support::json::{Json, ToJson};
use wolt_support::obs;
use wolt_support::rng::{ChaCha8Rng, SeedableRng};
use wolt_testbed::{ControllerPolicy, SessionEvent};

use crate::commands::PresetChoice;
use crate::CliError;

/// Parses a controller policy name for the session daemon (`serve`
/// drives one of the three online controllers, not the offline solvers).
///
/// # Errors
///
/// Returns [`CliError::Usage`] listing the accepted names.
pub fn parse_controller_policy(name: &str) -> Result<ControllerPolicy, CliError> {
    ControllerPolicy::from_key(name).ok_or_else(|| CliError::Usage {
        message: format!(
            "unknown controller policy {:?} (try wolt | greedy | rssi)",
            name.to_ascii_lowercase()
        ),
    })
}

/// Regenerates the scenario both `serve` and `agent` run against.
///
/// # Errors
///
/// Propagates scenario-generation failures as [`CliError::Library`].
pub fn scenario_for(preset: PresetChoice, users: usize, seed: u64) -> Result<Scenario, CliError> {
    let config = match preset {
        PresetChoice::Enterprise => ScenarioConfig::enterprise(users),
        PresetChoice::Lab => ScenarioConfig::lab(users),
    };
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Ok(Scenario::generate(&config, &mut rng)?)
}

/// Everything `wolt serve` needs, parsed off the command line.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Address to bind (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Fleet spec file (`{"sites": [...]}`); `None` serves one anonymous
    /// site built from the flags below.
    pub sites: Option<PathBuf>,
    /// Scenario preset shared with the agents.
    pub preset: PresetChoice,
    /// Number of users (= expected agents).
    pub users: usize,
    /// Scenario seed shared with the agents.
    pub seed: u64,
    /// Online controller to run.
    pub policy: ControllerPolicy,
    /// Seed for the capacity-estimation noise.
    pub noise_seed: u64,
    /// Most shard threads (`0` resolves like `--threads`: `WOLT_THREADS`,
    /// then the machine's parallelism).
    pub shards: usize,
    /// Snapshot root for crash/restart resume: the anonymous site keeps
    /// its generations directly inside it, a named site under
    /// `<root>/<id>/`.
    pub snapshot: Option<PathBuf>,
    /// File to write the bound address to, for scripts that pass port 0.
    pub addr_file: Option<PathBuf>,
    /// File to dump the final metrics snapshot to (atomic write) once the
    /// server ends.
    pub metrics_out: Option<PathBuf>,
    /// How long the server keeps serving metrics queries after the last
    /// site's last event, before dismissing its agents.
    pub linger: Duration,
}

/// Boots the server, runs every site to completion (or drain/stop), and
/// returns the result as pretty JSON. Without `--sites` the one
/// anonymous site is a session in which every user joins in index order,
/// printed as `{completed, epochs_done, msgs_in, canonical}`; with it,
/// each site prints the same object (or `{error}`) under
/// `{"sites": {id: …}}`.
///
/// # Errors
///
/// [`CliError::Net`] when the address cannot be bound (e.g. the port is
/// already taken) or the single-site session fails on the wire;
/// [`CliError::Io`] for spec, snapshot and addr-file filesystem failures;
/// [`CliError::Library`] for an invalid spec (per-site *session* failures
/// of a `--sites` run land in the JSON instead).
pub fn serve(opts: &ServeOptions) -> Result<String, CliError> {
    let mut config = DaemonConfig::new(opts.policy);
    config.noise_seed = opts.noise_seed;
    config.snapshot_dir = opts.snapshot.clone();
    config.linger = opts.linger;
    config.shards = opts.shards;
    let defs = match &opts.sites {
        Some(path) => FleetSpec::parse(&std::fs::read_to_string(path)?)?.materialize()?,
        None => {
            let scenario = scenario_for(opts.preset, opts.users, opts.seed)?;
            let events = (0..opts.users).map(SessionEvent::Join).collect();
            vec![SiteDef::anonymous(scenario, events, &config)]
        }
    };
    let n_sites = defs.len();
    let n_agents: usize = defs.iter().map(|d| d.scenario.user_positions.len()).sum();
    let fleet = Fleet::bind(opts.addr.as_str(), defs, config)?;
    let bound = fleet.local_addr()?;
    if let Some(path) = &opts.addr_file {
        std::fs::write(path, format!("{bound}\n"))?;
    }
    eprintln!("wolt-daemon listening on {bound} ({n_sites} site(s), {n_agents} agents expected)");
    let mut outcome = fleet.run()?;
    if let Some(path) = &opts.metrics_out {
        write_atomic(path, &obs::snapshot().to_json().to_pretty())?;
        eprintln!("wrote metrics to {}", path.display());
    }
    let site_json = |result: Result<DaemonOutcome, DaemonError>| match result {
        Ok(o) => Json::obj(vec![
            ("completed", o.completed.to_json()),
            ("epochs_done", o.epochs_done.to_json()),
            ("msgs_in", o.stats.msgs_in.to_json()),
            ("canonical", o.report.canonical().to_json()),
        ]),
        Err(e) => Json::obj(vec![("error", e.to_string().to_json())]),
    };
    let json = match outcome.sites.remove("") {
        Some(result) => site_json(Ok(result?)),
        None => Json::obj(vec![(
            "sites",
            Json::Obj(
                outcome
                    .sites
                    .into_iter()
                    .map(|(id, result)| (id, site_json(result)))
                    .collect(),
            ),
        )]),
    };
    Ok(json.to_pretty())
}

/// Queries a running server's site registry and returns it as pretty
/// JSON (a single-site server lists its anonymous site `""`).
///
/// # Errors
///
/// [`CliError::Net`] when the fleet cannot be reached or answers with
/// the wrong envelope.
pub fn fleet_status(addr: &str) -> Result<String, CliError> {
    match fleet_roundtrip(addr, &FleetOp::Status)? {
        Envelope::FleetStatus { sites } => Ok(sites.to_json().to_pretty()),
        other => Err(CliError::Net {
            message: format!("unexpected reply to fleet status: {other:?}"),
        }),
    }
}

/// Sends one fleet mutation (`drain` / `remove` / `add`) and returns
/// the acknowledgement line.
///
/// # Errors
///
/// [`CliError::Net`] when the fleet cannot be reached or the operation
/// is refused (the refusal detail is in the message).
pub fn fleet_mutate(addr: &str, op: &FleetOp) -> Result<String, CliError> {
    match fleet_roundtrip(addr, op)? {
        Envelope::FleetAck {
            op, site, ok: true, ..
        } => Ok(format!("fleet {op} {site}: ok")),
        Envelope::FleetAck {
            op,
            site,
            ok: false,
            detail,
        } => Err(CliError::Net {
            message: format!("fleet {op} {site} refused: {detail}"),
        }),
        other => Err(CliError::Net {
            message: format!("unexpected reply to fleet op: {other:?}"),
        }),
    }
}

/// One control round-trip: connect, send the op, read the reply.
fn fleet_roundtrip(addr: &str, op: &FleetOp) -> Result<Envelope, CliError> {
    let net = |message: String| CliError::Net { message };
    let mut stream =
        TcpStream::connect(addr).map_err(|e| net(format!("connect to {addr}: {e}")))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| net(format!("configure socket: {e}")))?;
    wire::send(&mut stream, &Envelope::Fleet(op.clone()))
        .map_err(|e| net(format!("send fleet op: {e}")))?;
    wire::recv(&mut stream)
        .map_err(|e| net(format!("read fleet reply: {e}")))?
        .ok_or_else(|| net("fleet closed the connection without a reply".into()))
}

/// Writes `text` to `path` via a sibling temp file and a rename, so a
/// reader never observes a partial dump.
fn write_atomic(path: &Path, text: &str) -> Result<(), CliError> {
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(".tmp");
    let tmp = PathBuf::from(tmp_name);
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Connects to a running daemon as a control client, requests its
/// metrics snapshot, and returns it as pretty JSON.
///
/// # Errors
///
/// [`CliError::Net`] when the daemon cannot be reached, closes the
/// connection without answering, or replies with the wrong envelope.
pub fn metrics(addr: &str) -> Result<String, CliError> {
    let net = |message: String| CliError::Net { message };
    let mut stream =
        TcpStream::connect(addr).map_err(|e| net(format!("connect to {addr}: {e}")))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| net(format!("configure socket: {e}")))?;
    wire::send(&mut stream, &Envelope::MetricsRequest)
        .map_err(|e| net(format!("send metrics request: {e}")))?;
    match wire::recv(&mut stream).map_err(|e| net(format!("read metrics reply: {e}")))? {
        Some(Envelope::Metrics { metrics }) => Ok(metrics.to_json().to_pretty()),
        Some(other) => Err(net(format!(
            "unexpected reply to metrics request: {other:?}"
        ))),
        None => Err(net(
            "daemon closed the connection without a metrics reply".into()
        )),
    }
}

/// Connects one agent to a running daemon and serves the session; the
/// returned line summarizes what the agent did. With `site`, the hello
/// names that fleet site, and a `site_gone` refusal (drained, removed,
/// or never hosted) fails fast instead of retrying.
///
/// # Errors
///
/// [`CliError::Net`] when the daemon cannot be reached, the connection
/// drops mid-session, or the named site is gone.
#[allow(clippy::too_many_arguments)] // mirrors the CLI flag surface one-to-one
pub fn agent(
    addr: &str,
    preset: PresetChoice,
    users: usize,
    seed: u64,
    client: usize,
    name: &str,
    site: Option<&str>,
    burst: u32,
) -> Result<String, CliError> {
    let scenario = scenario_for(preset, users, seed)?;
    let outcome = run_agent_with(
        addr,
        &scenario,
        site,
        client,
        name,
        &AgentRetry::default(),
        burst,
    )?;
    Ok(format!(
        "agent {client} ({name}) done: attached={} directives_applied={}",
        outcome
            .attached
            .map_or_else(|| "-".into(), |e| e.to_string()),
        outcome.directives_applied,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lab_opts(addr: &str) -> ServeOptions {
        ServeOptions {
            addr: addr.to_string(),
            sites: None,
            preset: PresetChoice::Lab,
            users: 7,
            seed: 1,
            policy: ControllerPolicy::Wolt,
            noise_seed: 0,
            shards: 0,
            snapshot: None,
            addr_file: None,
            metrics_out: None,
            linger: Duration::ZERO,
        }
    }

    #[test]
    fn controller_policy_names_parse() {
        assert!(matches!(
            parse_controller_policy("WOLT").unwrap(),
            ControllerPolicy::Wolt
        ));
        assert!(matches!(
            parse_controller_policy("rssi").unwrap(),
            ControllerPolicy::Rssi
        ));
        assert!(matches!(
            parse_controller_policy("optimal"),
            Err(CliError::Usage { .. })
        ));
    }

    #[test]
    fn serve_on_an_occupied_port_is_a_typed_net_error() {
        // Hold the port for the duration of the test; std's TcpListener
        // does not set SO_REUSEADDR, so the second bind must fail.
        let guard = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = guard.local_addr().unwrap().to_string();
        let err = serve(&lab_opts(&addr)).unwrap_err();
        assert!(
            matches!(err, CliError::Net { .. }),
            "expected CliError::Net, got {err:?}"
        );
        assert!(err.to_string().contains("network error"));
    }

    #[test]
    fn agent_against_a_dead_port_is_a_typed_net_error() {
        // Grab a free port, then close the listener so nothing accepts.
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap().to_string();
        drop(probe);
        let err = agent(&addr, PresetChoice::Lab, 7, 1, 0, "lonely", None, 1).unwrap_err();
        assert!(
            matches!(err, CliError::Net { .. }),
            "expected CliError::Net, got {err:?}"
        );
    }

    #[test]
    fn agent_with_out_of_range_client_is_not_a_net_error() {
        let err = agent("127.0.0.1:1", PresetChoice::Lab, 7, 1, 99, "ghost", None, 1).unwrap_err();
        assert!(matches!(err, CliError::Library { .. }));
    }
}
