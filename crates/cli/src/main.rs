//! `wolt` — command-line interface to the WOLT association framework.
//!
//! ```text
//! wolt generate --preset lab --users 7 --seed 1 --output net.json
//! wolt solve    --input net.json --policy wolt
//! wolt compare  --input net.json
//! wolt serve    --addr 127.0.0.1:0 --users 7 --seed 1 --addr-file addr.txt
//! wolt agent    --addr 127.0.0.1:4800 --users 7 --seed 1 --client 3
//! wolt metrics  --addr 127.0.0.1:4800
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use wolt_cli::args::ParsedArgs;
use wolt_cli::chaos::{self, ChaosOptions};
use wolt_cli::commands::{
    compare_with_threads, generate, solve_explained_with_threads, solve_with_threads, PolicyChoice,
    PresetChoice,
};
use wolt_cli::service::{self, ServeOptions};
use wolt_cli::spec::NetworkSpec;
use wolt_cli::CliError;
use wolt_daemon::wire::{FleetOp, SiteSpec};
use wolt_support::json::ToJson;

const USAGE: &str = "\
wolt — auto-configuration of integrated PLC-WiFi networks (WOLT, ICDCS 2020)

USAGE:
  wolt generate --preset <enterprise|lab> --users <N> [--seed S] [--output FILE]
  wolt solve    --input FILE [--policy <wolt|greedy|selfish|rssi|optimal|random>] [--seed S] [--threads T] [--explain true] [--output FILE]
  wolt compare  --input FILE [--seed S] [--threads T]
  wolt serve    --addr HOST:PORT [--preset P] [--users N] [--seed S] [--policy <wolt|greedy|rssi>] [--noise-seed S] [--snapshot DIR] [--addr-file FILE] [--metrics-out FILE] [--linger-ms MS] [--output FILE]
  wolt serve    --addr HOST:PORT --sites SPEC.json [--shards T] [--snapshot DIR] [--addr-file FILE] [--metrics-out FILE] [--linger-ms MS] [--output FILE]
  wolt agent    --addr HOST:PORT --client I [--site ID] [--preset P] [--users N] [--seed S] [--name NAME]
  wolt fleet status --addr HOST:PORT [--output FILE]
  wolt fleet drain  --addr HOST:PORT --site ID
  wolt fleet remove --addr HOST:PORT --site ID
  wolt fleet add    --addr HOST:PORT --site ID --preset P --users N --seed S [--policy P] [--stop-after N]
  wolt metrics  --addr HOST:PORT [--output FILE]
  wolt chaos    --workdir DIR [--preset P] [--users N] [--seed S] [--policy P] [--noise-seed S] [--chaos-seed S] [--point NAME] [--max-restarts N] [--output FILE]

The network file is JSON: {\"capacities\": [c_j …], \"rates\": [[r_ij …] …]}.
--threads caps the worker threads of policies that fan out internally
(currently `optimal`); it defaults to WOLT_THREADS, then the machine's
parallelism. Reports are byte-identical at every thread count.

serve runs the Central Controller daemon for one session in which all N
users join; agent connects one laptop to it. Both sides regenerate the
scenario from the same (--preset, --users, --seed), so no network file
changes hands. Pass --addr 127.0.0.1:0 with --addr-file to let the OS
pick a port and hand it to the agents.

metrics queries a live daemon's counters and histograms over the wire
(a WOLT_OBS snapshot as JSON). serve's --metrics-out dumps the same
snapshot to a file when the session ends; --linger-ms keeps the daemon
answering metrics queries that long after the last event completes.

chaos sweeps the daemon's crash-point catalogue: for each point it
spawns a real `wolt serve` child armed (via WOLT_CRASH) with a seeded
CrashPlan, lets the plan abort it mid-write, restarts it unarmed against
the same --snapshot store, and fails unless every recovered session's
canonical report is byte-identical to an uncrashed baseline run.

serve --sites runs a multi-site fleet: every site in the spec file gets
its own controller session behind the one address, stepped on --shards
threads (default WOLT_THREADS). Agents pick their segment with
`agent --site ID` (the spec's per-site preset/users/seed must match the
agent's flags). --snapshot becomes the fleet root: each site persists
under <DIR>/<ID>/. Without --sites, serve is the same server hosting one
anonymous site \"\" that keeps its store directly in --snapshot. The
fleet verbs drive a live server over the wire: status lists every site,
drain stops routing new agents to a site and lets it finish and
persist, remove additionally forgets it, add boots a new site without
restarting the daemon (a server without --sites refuses add).";

fn main() -> ExitCode {
    match run(std::env::args().skip(1)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            if matches!(e, CliError::Usage { .. }) {
                eprintln!("\n{USAGE}");
            }
            ExitCode::FAILURE
        }
    }
}

fn run<I: IntoIterator<Item = String>>(args: I) -> Result<(), CliError> {
    let mut args: Vec<String> = args.into_iter().collect();
    // `fleet` carries a sub-verb (`wolt fleet drain --addr …`); lift it
    // out before the flag parser, which allows no positionals.
    let mut fleet_verb = None;
    if args.first().map(String::as_str) == Some("fleet") {
        if args.len() < 2 || args[1].starts_with('-') {
            return Err(CliError::Usage {
                message: "fleet needs a verb: status | drain | remove | add".into(),
            });
        }
        fleet_verb = Some(args.remove(1));
    }
    let parsed = ParsedArgs::parse(args)?;
    if let Some(verb) = fleet_verb {
        return run_fleet_verb(&verb, &parsed);
    }
    match parsed.command.as_str() {
        "generate" => {
            let preset = PresetChoice::parse(parsed.require("preset")?)?;
            let users: usize = parsed
                .require("users")?
                .parse()
                .map_err(|_| CliError::Usage {
                    message: "--users must be a positive integer".into(),
                })?;
            let seed = parsed.get_parsed_or("seed", 0u64)?;
            let spec = generate(preset, users, seed)?;
            emit(&spec.to_json(), parsed.get("output"))?;
            Ok(())
        }
        "solve" => {
            let spec = load_spec(parsed.require("input")?)?;
            let policy = PolicyChoice::parse(parsed.get("policy").unwrap_or("wolt"))?;
            let seed = parsed.get_parsed_or("seed", 0u64)?;
            let threads = parsed.get_parsed::<usize>("threads")?;
            if parsed.get_parsed_or("explain", false)? {
                emit(
                    &solve_explained_with_threads(&spec, policy, seed, threads)?,
                    parsed.get("output"),
                )?;
            } else {
                let report = solve_with_threads(&spec, policy, seed, threads)?;
                emit(&report.to_json().to_pretty(), parsed.get("output"))?;
            }
            Ok(())
        }
        "compare" => {
            let spec = load_spec(parsed.require("input")?)?;
            let seed = parsed.get_parsed_or("seed", 0u64)?;
            let threads = parsed.get_parsed::<usize>("threads")?;
            let reports = compare_with_threads(&spec, seed, threads)?;
            println!("{:<16} {:>12} {:>8}", "policy", "aggregate", "jain");
            for r in &reports {
                println!(
                    "{:<16} {:>9.2} Mb {:>8}",
                    r.policy,
                    r.aggregate_mbps,
                    r.jain.map_or_else(|| "-".into(), |j| format!("{j:.2}")),
                );
            }
            Ok(())
        }
        "serve" => {
            let sites = parsed.get("sites").map(PathBuf::from);
            if sites.is_some() {
                for single_only in ["users", "preset", "seed", "policy", "noise-seed"] {
                    if parsed.get(single_only).is_some() {
                        return Err(CliError::Usage {
                            message: format!(
                                "--sites and --{single_only} do not combine; per-site settings \
                                 live in the spec file"
                            ),
                        });
                    }
                }
            }
            let opts = ServeOptions {
                addr: parsed.require("addr")?.to_string(),
                sites,
                preset: PresetChoice::parse(parsed.get("preset").unwrap_or("lab"))?,
                users: parsed.get_parsed_or("users", 7usize)?,
                seed: parsed.get_parsed_or("seed", 0u64)?,
                policy: service::parse_controller_policy(parsed.get("policy").unwrap_or("wolt"))?,
                noise_seed: parsed.get_parsed_or("noise-seed", 0u64)?,
                shards: parsed.get_parsed_or("shards", 0usize)?,
                snapshot: parsed.get("snapshot").map(Into::into),
                addr_file: parsed.get("addr-file").map(Into::into),
                metrics_out: parsed.get("metrics-out").map(Into::into),
                linger: std::time::Duration::from_millis(parsed.get_parsed_or("linger-ms", 0u64)?),
            };
            let text = service::serve(&opts)?;
            emit(&text, parsed.get("output"))?;
            Ok(())
        }
        "agent" => {
            let summary = service::agent(
                parsed.require("addr")?,
                PresetChoice::parse(parsed.get("preset").unwrap_or("lab"))?,
                parsed.get_parsed_or("users", 7usize)?,
                parsed.get_parsed_or("seed", 0u64)?,
                parsed
                    .require("client")?
                    .parse()
                    .map_err(|_| CliError::Usage {
                        message: "--client must be a user index".into(),
                    })?,
                parsed.get("name").unwrap_or("agent"),
                parsed.get("site"),
            )?;
            eprintln!("{summary}");
            Ok(())
        }
        "metrics" => {
            let text = service::metrics(parsed.require("addr")?)?;
            emit(&text, parsed.get("output"))?;
            Ok(())
        }
        "chaos" => {
            let opts = ChaosOptions {
                preset: PresetChoice::parse(parsed.get("preset").unwrap_or("lab"))?,
                users: parsed.get_parsed_or("users", 7usize)?,
                seed: parsed.get_parsed_or("seed", 0u64)?,
                policy: service::parse_controller_policy(parsed.get("policy").unwrap_or("wolt"))?,
                noise_seed: parsed.get_parsed_or("noise-seed", 0u64)?,
                chaos_seed: parsed.get_parsed_or("chaos-seed", 0u64)?,
                point: parsed.get("point").map(Into::into),
                max_restarts: parsed.get_parsed_or("max-restarts", 3u32)?,
                workdir: parsed.require("workdir")?.into(),
            };
            let text = chaos::chaos(&opts)?;
            emit(&text, parsed.get("output"))?;
            Ok(())
        }
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::Usage {
            message: format!("unknown subcommand {other:?}"),
        }),
    }
}

/// Dispatches `wolt fleet <verb>` against a live fleet daemon.
fn run_fleet_verb(verb: &str, parsed: &ParsedArgs) -> Result<(), CliError> {
    let addr = parsed.require("addr")?;
    match verb {
        "status" => {
            let text = service::fleet_status(addr)?;
            emit(&text, parsed.get("output"))?;
            Ok(())
        }
        "drain" => {
            let site = parsed.require("site")?.to_string();
            eprintln!("{}", service::fleet_mutate(addr, &FleetOp::Drain { site })?);
            Ok(())
        }
        "remove" => {
            let site = parsed.require("site")?.to_string();
            eprintln!(
                "{}",
                service::fleet_mutate(addr, &FleetOp::Remove { site })?
            );
            Ok(())
        }
        "add" => {
            let spec = SiteSpec {
                id: parsed.require("site")?.to_string(),
                preset: parsed.require("preset")?.to_string(),
                users: parsed
                    .require("users")?
                    .parse()
                    .map_err(|_| CliError::Usage {
                        message: "--users must be a positive integer".into(),
                    })?,
                seed: parsed.get_parsed_or("seed", 0u64)?,
                policy: parsed.get("policy").unwrap_or("wolt").to_string(),
                stop_after: parsed.get_parsed::<usize>("stop-after")?,
            };
            eprintln!("{}", service::fleet_mutate(addr, &FleetOp::Add { spec })?);
            Ok(())
        }
        other => Err(CliError::Usage {
            message: format!("unknown fleet verb {other:?} (try status | drain | remove | add)"),
        }),
    }
}

fn load_spec(path: &str) -> Result<NetworkSpec, CliError> {
    let text = std::fs::read_to_string(path)?;
    NetworkSpec::from_json(&text)
}

fn emit(text: &str, output: Option<&str>) -> Result<(), CliError> {
    use std::io::Write as _;
    match output {
        Some(path) => {
            std::fs::write(path, text)?;
            eprintln!("wrote {path}");
        }
        None => {
            // Tolerate a closed pipe (`wolt ... | head`) instead of
            // panicking like the println! macro would.
            if let Err(e) = writeln!(std::io::stdout(), "{text}") {
                if e.kind() != std::io::ErrorKind::BrokenPipe {
                    return Err(e.into());
                }
            }
        }
    }
    Ok(())
}
