//! The `chaos` verb: a deterministic crash-recovery harness for the
//! daemon.
//!
//! For every crash point in [`wolt_daemon::crash_catalogue`], the
//! supervisor spawns a real `wolt serve` child with a seeded
//! [`CrashPlan`] armed through [`CRASH_ENV`], lets the plan abort the
//! daemon at the scheduled hit, then restarts it *unarmed* against the
//! same snapshot directory until the session completes. In-process
//! agents ride along and reconnect across the kill. The proof obligation
//! is byte-equality: every crashed-then-recovered run must end with a
//! [`wolt_testbed::SessionReport::canonical`] string identical to an
//! uncrashed baseline run of the same `(preset, users, seed, policy)`.
//!
//! Only the *first* incarnation of each run is armed, so a restart can
//! never crash-loop on the same point; `--max-restarts` bounds the
//! supervisor regardless.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wolt_daemon::{crash_catalogue, run_agent_with, AgentRetry};
use wolt_sim::Scenario;
use wolt_support::crash::{CrashPlan, CRASH_ENV};
use wolt_support::json::{Json, ToJson};
use wolt_testbed::ControllerPolicy;

use crate::commands::PresetChoice;
use crate::service::scenario_for;
use crate::CliError;

/// How long the supervisor waits for a child daemon to publish its
/// bound address before declaring the spawn dead.
const ADDR_WAIT: Duration = Duration::from_secs(10);

/// Everything `wolt chaos` needs, parsed off the command line.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Scenario preset shared between daemon and agents.
    pub preset: PresetChoice,
    /// Number of users (= agents the supervisor runs in-process).
    pub users: usize,
    /// Scenario seed.
    pub seed: u64,
    /// Online controller the daemon runs.
    pub policy: ControllerPolicy,
    /// Seed for the capacity-estimation noise.
    pub noise_seed: u64,
    /// Seed for the crash schedule (which hit of each point fires) and
    /// the agents' reconnect jitter.
    pub chaos_seed: u64,
    /// Run only this crash point instead of the whole catalogue.
    pub point: Option<String>,
    /// Most daemon restarts tolerated per crash point before the run is
    /// declared unrecoverable.
    pub max_restarts: u32,
    /// Directory for snapshot stores, address files, and child reports.
    /// Left in place afterwards for post-mortems.
    pub workdir: PathBuf,
}

/// One crash point's verdict in the sweep report.
struct PointResult {
    point: String,
    scheduled_hit: u64,
    crashes: u32,
    rollbacks: u64,
    recovery_ms: u128,
    matches: bool,
}

/// Runs the chaos sweep and returns the report as pretty JSON.
///
/// # Errors
///
/// [`CliError::Library`] when a run exhausts `--max-restarts`, an armed
/// point never fires, or a recovered run's canonical report diverges
/// from the baseline; [`CliError::Io`] / [`CliError::Net`] for spawn and
/// filesystem failures.
pub fn chaos(opts: &ChaosOptions) -> Result<String, CliError> {
    let exe = std::env::current_exe()?;
    let scenario = Arc::new(scenario_for(opts.preset, opts.users, opts.seed)?);
    let catalogue = crash_catalogue();
    let sweep: Vec<(&str, u64)> = match &opts.point {
        Some(name) => {
            let entry =
                catalogue
                    .iter()
                    .find(|(n, _)| n == name)
                    .ok_or_else(|| CliError::Usage {
                        message: format!(
                            "unknown crash point {name:?} (catalogue: {})",
                            catalogue
                                .iter()
                                .map(|(n, _)| *n)
                                .collect::<Vec<_>>()
                                .join(", ")
                        ),
                    })?;
            vec![*entry]
        }
        None => catalogue,
    };

    std::fs::create_dir_all(&opts.workdir)?;
    eprintln!(
        "chaos: sweeping {} crash point(s), workdir {}",
        sweep.len(),
        opts.workdir.display()
    );

    let baseline = run_to_completion(&exe, opts, &scenario, "baseline", None)?;
    if baseline.crashes != 0 {
        return Err(CliError::Library {
            message: format!(
                "baseline run crashed {} time(s) with no plan armed",
                baseline.crashes
            ),
        });
    }

    let mut results: Vec<PointResult> = Vec::new();
    for &(name, max_hits) in &sweep {
        let plan = CrashPlan::seeded(opts.chaos_seed, &[(name, max_hits)]);
        let scheduled_hit = plan.trigger(name).unwrap_or(0);
        let label = name.replace('.', "_");
        let run = run_to_completion(&exe, opts, &scenario, &label, Some(plan.to_env()))?;
        if run.crashes == 0 {
            return Err(CliError::Library {
                message: format!(
                    "crash point {name:?} (hit {scheduled_hit}) never fired — \
                     the session completed uncrashed, so nothing was tested"
                ),
            });
        }
        let matches = run.canonical == baseline.canonical;
        eprintln!(
            "chaos: {name} hit={scheduled_hit} crashes={} rollbacks={} \
             recovery={}ms canonical_match={matches}",
            run.crashes, run.rollbacks, run.recovery_ms
        );
        results.push(PointResult {
            point: name.to_string(),
            scheduled_hit,
            crashes: run.crashes,
            rollbacks: run.rollbacks,
            recovery_ms: run.recovery_ms,
            matches,
        });
    }

    let all_match = results.iter().all(|r| r.matches);
    let report = Json::obj(vec![
        ("chaos_seed", opts.chaos_seed.to_json()),
        ("baseline_canonical", baseline.canonical.to_json()),
        (
            "points",
            Json::Arr(
                results
                    .iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("point", r.point.to_json()),
                            ("scheduled_hit", r.scheduled_hit.to_json()),
                            ("crashes", r.crashes.to_json()),
                            ("rollbacks", r.rollbacks.to_json()),
                            ("recovery_ms", (r.recovery_ms as u64).to_json()),
                            ("canonical_match", r.matches.to_json()),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("all_match", all_match.to_json()),
    ]);
    if !all_match {
        let diverged: Vec<&str> = results
            .iter()
            .filter(|r| !r.matches)
            .map(|r| r.point.as_str())
            .collect();
        return Err(CliError::Library {
            message: format!(
                "canonical report diverged after recovery at: {} \
                 (workdir {} kept for post-mortem)",
                diverged.join(", "),
                opts.workdir.display()
            ),
        });
    }
    Ok(report.to_pretty())
}

/// What one crash-point run (possibly spanning several daemon
/// incarnations) ended with.
struct RunOutcome {
    canonical: String,
    crashes: u32,
    rollbacks: u64,
    recovery_ms: u128,
}

/// Drives one session to clean completion: spawn the daemon (armed on
/// the first incarnation only), run the agents in-process, and respawn
/// the daemon against the same snapshot store every time the plan kills
/// it.
fn run_to_completion(
    exe: &Path,
    opts: &ChaosOptions,
    scenario: &Arc<Scenario>,
    label: &str,
    armed: Option<String>,
) -> Result<RunOutcome, CliError> {
    let run_dir = opts.workdir.join(label);
    let store_dir = run_dir.join("store");
    std::fs::create_dir_all(&store_dir)?;
    let started = Instant::now();
    for incarnation in 1..=u64::from(opts.max_restarts) + 1 {
        // Every earlier incarnation died at its crash point.
        let crashes = (incarnation - 1) as u32;
        let addr_file = run_dir.join(format!("addr.{incarnation}"));
        let out_file = run_dir.join(format!("report.{incarnation}.json"));
        let metrics_file = run_dir.join(format!("metrics.{incarnation}.json"));
        let arm = if incarnation == 1 {
            armed.as_deref()
        } else {
            None
        };
        let mut child = spawn_serve(
            exe,
            opts,
            &store_dir,
            &addr_file,
            &out_file,
            &metrics_file,
            arm,
        )?;
        let addr = wait_for_addr(&addr_file, &mut child)?;

        // Agents run in *this* process (no plan armed here), one thread
        // per user. A short, seeded retry budget makes a dead daemon
        // cheap to detect: threads of a killed incarnation drain with
        // GaveUp and fresh agents greet the replacement.
        let retry = AgentRetry {
            attempts: 5,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(160),
            seed: opts.chaos_seed,
        };
        let agents: Vec<_> = (0..opts.users)
            .map(|client| {
                let addr = addr.clone();
                let scenario = Arc::clone(scenario);
                let retry = retry.clone();
                std::thread::spawn(move || {
                    run_agent_with(
                        addr.as_str(),
                        &scenario,
                        None,
                        client,
                        "chaos-agent",
                        &retry,
                        1,
                    )
                })
            })
            .collect();
        let status = child.wait()?;
        for agent in agents {
            // A killed daemon leaves its agents with GaveUp; that is the
            // expected shape of a crash, not a harness failure.
            let _ = agent.join();
        }

        if status.success() {
            let report = Json::parse(&std::fs::read_to_string(&out_file)?).map_err(|e| {
                CliError::Library {
                    message: format!("child report {}: {e}", out_file.display()),
                }
            })?;
            let completed = report
                .get("completed")
                .and_then(Json::as_bool)
                .unwrap_or(false);
            let canonical = report
                .get("canonical")
                .and_then(Json::as_str)
                .ok_or_else(|| CliError::Library {
                    message: format!("child report {} has no canonical", out_file.display()),
                })?
                .to_string();
            if !completed {
                return Err(CliError::Library {
                    message: format!("run {label:?} exited cleanly without completing"),
                });
            }
            let rollbacks = read_counter(&metrics_file, "daemon.snapshot_rollbacks");
            return Ok(RunOutcome {
                canonical,
                crashes,
                rollbacks,
                recovery_ms: started.elapsed().as_millis(),
            });
        }
        eprintln!(
            "chaos: {label} incarnation {incarnation} died ({status}); \
             restarting against {}",
            store_dir.display()
        );
    }
    Err(CliError::Library {
        message: format!(
            "run {label:?} did not recover within {} restart(s)",
            opts.max_restarts
        ),
    })
}

/// Spawns one `wolt serve` incarnation, armed iff `arm` is a plan.
fn spawn_serve(
    exe: &Path,
    opts: &ChaosOptions,
    store_dir: &Path,
    addr_file: &Path,
    out_file: &Path,
    metrics_file: &Path,
    arm: Option<&str>,
) -> Result<Child, CliError> {
    let mut cmd = Command::new(exe);
    cmd.arg("serve")
        .arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--preset")
        .arg(opts.preset.name())
        .arg("--users")
        .arg(opts.users.to_string())
        .arg("--seed")
        .arg(opts.seed.to_string())
        .arg("--policy")
        .arg(opts.policy.key())
        .arg("--noise-seed")
        .arg(opts.noise_seed.to_string())
        .arg("--snapshot")
        .arg(store_dir)
        .arg("--addr-file")
        .arg(addr_file)
        .arg("--metrics-out")
        .arg(metrics_file)
        .arg("--output")
        .arg(out_file)
        .stdin(Stdio::null());
    // Only the first incarnation carries the plan: restarts must be
    // unarmed or the same point would kill every recovery attempt.
    match arm {
        Some(plan) => cmd.env(CRASH_ENV, plan),
        None => cmd.env_remove(CRASH_ENV),
    };
    Ok(cmd.spawn()?)
}

/// Polls the child's `--addr-file` until the bound address appears.
fn wait_for_addr(addr_file: &Path, child: &mut Child) -> Result<String, CliError> {
    let deadline = Instant::now() + ADDR_WAIT;
    loop {
        if let Ok(text) = std::fs::read_to_string(addr_file) {
            let addr = text.trim();
            if !addr.is_empty() {
                return Ok(addr.to_string());
            }
        }
        if let Some(status) = child.try_wait()? {
            return Err(CliError::Net {
                message: format!("daemon child exited before binding ({status})"),
            });
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            return Err(CliError::Net {
                message: format!(
                    "daemon child never published an address to {}",
                    addr_file.display()
                ),
            });
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Reads one counter out of a `--metrics-out` dump; 0 when the file or
/// counter is absent (metrics are best-effort evidence, not the proof).
fn read_counter(metrics_file: &Path, name: &str) -> u64 {
    let Ok(text) = std::fs::read_to_string(metrics_file) else {
        return 0;
    };
    let Ok(json) = Json::parse(&text) else {
        return 0;
    };
    json.get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_i64)
        .and_then(|v| u64::try_from(v).ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_point_is_a_usage_error() {
        let opts = ChaosOptions {
            preset: PresetChoice::Lab,
            users: 7,
            seed: 1,
            policy: ControllerPolicy::Wolt,
            noise_seed: 0,
            chaos_seed: 1,
            point: Some("no.such.point".into()),
            max_restarts: 3,
            workdir: std::env::temp_dir().join("wolt-chaos-test-unknown-point"),
        };
        let err = chaos(&opts).unwrap_err();
        assert!(matches!(err, CliError::Usage { .. }), "{err:?}");
        assert!(err.to_string().contains("codec.write.mid_frame"));
    }

    #[test]
    fn counter_reader_tolerates_missing_files_and_shapes() {
        let missing = Path::new("/nonexistent/metrics.json");
        assert_eq!(read_counter(missing, "daemon.snapshot_rollbacks"), 0);
    }

    #[test]
    fn policy_names_round_trip_through_the_serve_parser() {
        for policy in [
            ControllerPolicy::Wolt,
            ControllerPolicy::Greedy,
            ControllerPolicy::Rssi,
        ] {
            let name = policy.key();
            let parsed = crate::service::parse_controller_policy(name).unwrap();
            assert_eq!(parsed.key(), name);
        }
    }
}
