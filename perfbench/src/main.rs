//! `wolt-perfbench` — the repository benchmark.
//!
//! Two workloads drive the WOLT controller through its public APIs:
//!
//! * `enterprise-churn` — `ControllerCore` in-process at enterprise scale;
//! * `lab-loopback` — a real `Daemon` on 127.0.0.1 with `run_agent`s.
//!
//! Each run checks its outputs, then prints a metric table and, as its
//! last line, one JSON object: the end-to-end metrics, or with
//! `--trace 1` the per-layer metrics from a traced run. See `README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--scenario-seed <n>]
//! ```

mod churn;
mod inproc;
mod lab;
mod report;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Duration;

use spans::Tracer;
use stats::Deltas;

/// The fewest events a timing block holds, so that its p99 has ten
/// samples beyond it.
pub const BLOCK_EVENTS: usize = 1000;

/// Blocks every measured stream runs at least, whatever the budget.
pub const MIN_BLOCKS: usize = 4;

/// Where runs keep what they write (snapshot stores, span dumps),
/// relative to the directory the benchmark runs in.
const SCRATCH: &str = ".bench_run";

const USAGE: &str = "usage: wolt-perfbench --workload <enterprise-churn|lab-loopback|all> \
--seed <n> --seconds <s> --trace <0|1> [--scenario-seed <n>]";

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `ControllerCore` in-process, 15 extenders, 199–200 of 240 users.
    EnterpriseChurn,
    /// A loopback `Daemon` with 2 agents, persistence off.
    LabLoopback,
}

impl Workload {
    const ALL: [Workload; 2] = [Workload::EnterpriseChurn, Workload::LabLoopback];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EnterpriseChurn => "enterprise-churn",
            Workload::LabLoopback => "lab-loopback",
        }
    }

    fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The scenario (site) seed used unless `--scenario-seed` overrides
    /// it. `--seed` varies the traffic over this fixed site; README.md
    /// records why each was chosen.
    pub fn default_scenario_seed(self) -> u64 {
        match self {
            Workload::EnterpriseChurn => 2,
            Workload::LabLoopback => 42,
        }
    }
}

/// One run's settings.
#[derive(Debug)]
pub struct RunArgs {
    /// The workload run.
    pub workload: Workload,
    /// Seeds the traffic: which users join, leave and arrive, and when.
    pub seed: u64,
    /// Seeds the site: the scenario and its capacity-estimation noise.
    pub scenario_seed: u64,
    /// Driving time to measure.
    pub budget: Duration,
    /// Traced mode: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

impl RunArgs {
    /// This run's private scratch directory.
    pub fn scratch_dir(&self) -> PathBuf {
        PathBuf::from(SCRATCH).join(format!("{}-{}", self.workload.name(), std::process::id()))
    }

    /// Writes the traced run's spans under [`SCRATCH`]; a failure to
    /// write is reported, not fatal.
    pub fn write_spans(&self, tracer: &Tracer) {
        let path = PathBuf::from(SCRATCH).join("spans").join(format!(
            "{}-seed{}.tsv",
            self.workload.name(),
            self.seed
        ));
        match tracer.write_tsv(&path) {
            Ok(()) => eprintln!("spans: {} ({} spans)", path.display(), tracer.spans().len()),
            Err(e) => eprintln!("spans: could not write {}: {e}", path.display()),
        }
    }
}

/// What a run measured. Events are timed in blocks (a lab session, or a
/// fixed number of enterprise events). Noise from a shared machine only
/// ever slows a block, so each timing metric is read at the quartile of
/// blocks it disturbed least: a burst of noise then moves the slower
/// blocks, not the result. Only completed, checked events are timed;
/// everything else is a failure.
#[derive(Debug, Default)]
pub struct Measured {
    /// Events attempted.
    pub attempted: u64,
    /// Events that failed or belong to a failed check.
    pub failed: u64,
    /// Why, for the first few failures.
    pub problems: Vec<String>,
    /// Per-block timings.
    pub blocks: Vec<stats::Block>,
    /// Driving time of all blocks: the loop's time with checks excluded.
    pub driving: Duration,
    /// Sum of all event latencies, in microseconds.
    pub latency_sum_us: f64,
    /// Directive and command retransmissions.
    pub retries: u64,
    /// Each set-up's duration, in seconds.
    pub setups_s: Vec<f64>,
    /// Aggregate throughput of the final association, in Mbit/s.
    pub aggregate_mbps: f64,
    /// Program counters moved while measuring.
    pub deltas: Option<Deltas>,
}

impl Measured {
    /// Counts one failed event.
    pub fn fail(&mut self, why: String) {
        self.fail_many(1, why);
    }

    /// Counts `n` failed events with one reason.
    pub fn fail_many(&mut self, n: u64, why: String) {
        self.failed += n;
        if self.problems.len() < 10 {
            self.problems.push(why);
        }
    }

    /// Adds a block of completed events: their latencies, the driving
    /// time they took and the directives they issued.
    pub fn add_block(&mut self, latencies_us: &[f64], driving: Duration, moves: u64) {
        self.driving += driving;
        self.latency_sum_us += latencies_us.iter().sum::<f64>();
        self.blocks
            .push(stats::Block::new(latencies_us, driving, moves));
    }

    /// Events completed and checked.
    pub fn completed(&self) -> u64 {
        self.blocks.iter().map(|b| b.events).sum()
    }

    /// Completed events per second of driving time: the upper quartile
    /// over blocks.
    pub fn events_per_s(&self) -> f64 {
        self.block_quartile(|b| b.events_per_s(), 75.0)
    }

    /// Median event latency: the lower quartile over blocks of each
    /// block's median.
    pub fn event_p50_us(&self) -> f64 {
        self.block_quartile(|b| b.p50_us, 25.0)
    }

    /// Directives per event over the first [`MIN_BLOCKS`] blocks: a
    /// fixed stretch of the seeded stream, so the ratio does not depend
    /// on how fast the machine drove it.
    pub fn moves_per_event(&self) -> f64 {
        let head = &self.blocks[..self.blocks.len().min(MIN_BLOCKS)];
        let moves: u64 = head.iter().map(|b| b.moves).sum();
        let events: u64 = head.iter().map(|b| b.events).sum();
        stats::ratio(moves as f64, events as f64)
    }

    /// The `p`-th percentile over blocks of a per-block value; 0 with no
    /// blocks.
    fn block_quartile(&self, f: impl Fn(&stats::Block) -> f64, p: f64) -> f64 {
        let mut values: Vec<f64> = self.blocks.iter().map(f).collect();
        values.sort_by(f64::total_cmp);
        stats::percentile(&values, p).unwrap_or(0.0)
    }

    /// The parts of a traced run as one for the result line, which
    /// reports only events attempted, failed and completed.
    pub fn merge(mut self, other: Measured) -> Measured {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
        self.blocks.extend(other.blocks);
        self
    }
}

/// Per-layer metric values by name; a layer a workload does not
/// exercise stays absent and prints as 0.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
    /// Per-span-name totals of the traced run, for the table.
    spans: Vec<String>,
}

impl Layers {
    /// Sets metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The metric's value, 0 when unset.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// The decision core's times from the spans of driven and re-solved
    /// events: `handle_report`/`handle_departed` latency and each solver
    /// stage's mean self time.
    pub fn set_decision_spans(&mut self, tracer: &Tracer) {
        let decide = tracer.durations_us("testbed.decide");
        self.set_tail("testbed.decide_p50_us", &decide, 50.0);
        self.set_tail("testbed.decide_p99_us", &decide, 99.0);
        for (metric, span) in [
            ("testbed.view_build_us", "testbed.view_build"),
            ("core.phase1_us", "core.phase1"),
            ("core.phase2_us", "core.phase2"),
            ("core.evaluate_us", "core.evaluate"),
        ] {
            self.set(metric, tracer.mean_self_us(span));
        }
    }

    /// Sets `name` to the `want`-th percentile of `samples` under the
    /// tail rule, noting a fallback to a lower percentile.
    fn set_tail(&mut self, name: &'static str, samples: &[f64], want: f64) {
        if let Some(t) = stats::tail(samples, want) {
            if t.percentile != want {
                self.notes.push(format!(
                    "{name}: {} samples support only p{}",
                    t.samples, t.percentile
                ));
            }
            self.set(name, t.value);
        }
    }

    /// The solver's work per event and per solve, from the program's
    /// own counters.
    pub fn set_core_counters(&mut self, d: &Deltas, events: u64) {
        self.set("core.solves_per_event", d.per_event("core.solves", events));
        self.set(
            "core.warm_solves_per_event",
            d.per_event("core.warm_solves", events),
        );
        self.set(
            "core.phase2_iterations_per_solve",
            d.per("core.phase2_iterations", "core.solves"),
        );
        self.set(
            "core.polish_rounds_per_solve",
            d.per("core.polish_rounds", "core.solves"),
        );
        self.set(
            "core.probes_per_solve",
            d.per("core.incremental_probes", "core.solves"),
        );
        self.set(
            "core.probe_yield",
            d.per("core.incremental_applies", "core.incremental_probes"),
        );
        self.set(
            "testbed.view_reuse_ratio",
            stats::ratio(
                d.counter("cc.view_reuses") as f64,
                (d.counter("cc.view_builds") + d.counter("cc.view_reuses")) as f64,
            ),
        );
    }

    /// Summarises the traced run's spans by name: count, mean duration
    /// and mean self time.
    pub fn add_span_summary(&mut self, tracer: &Tracer) {
        for (name, (count, total, own)) in tracer.summary() {
            let mean_us = |d: Duration| d.as_secs_f64() * 1e6 / count as f64;
            self.spans.push(format!(
                "span {name:<22} n={count:<7} mean={:>10.3} us  self={:>10.3} us",
                mean_us(total),
                mean_us(own)
            ));
        }
    }

    /// `trace.overhead_pct`: how much slower the traced half drove than
    /// the untraced half, in percent of the untraced rate.
    pub fn set_overhead(&mut self, untraced: &Measured, traced: &Measured) {
        let base = untraced.events_per_s();
        self.set(
            "trace.overhead_pct",
            stats::ratio(base - traced.events_per_s(), base) * 100.0,
        );
    }
}

/// The parsed command line.
struct Cli {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    scenario_seed: Option<u64>,
}

impl Cli {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut workloads = None;
        let (mut seed, mut seconds, mut trace, mut scenario_seed) = (None, None, None, None);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .as_str();
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: not a whole number: {value}"))
            };
            match flag.as_str() {
                "--workload" if value == "all" => workloads = Some(Workload::ALL.to_vec()),
                "--workload" => {
                    let w = Workload::parse(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?;
                    workloads = Some(vec![w]);
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?).filter(|&s| (1..=60).contains(&s)),
                "--trace" => trace = Some(number()?).filter(|&t| t <= 1),
                "--scenario-seed" => scenario_seed = Some(number()?),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            workloads: workloads.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds must be 1 to 60")?,
            trace: trace.ok_or("--trace must be 0 or 1")? == 1,
            scenario_seed,
        })
    }

    fn run_args(&self, workload: Workload) -> RunArgs {
        RunArgs {
            workload,
            seed: self.seed,
            scenario_seed: self
                .scenario_seed
                .unwrap_or_else(|| workload.default_scenario_seed()),
            budget: Duration::from_secs(self.seconds),
            trace: self.trace,
        }
    }
}

fn run(args: &RunArgs) -> Result<(Measured, Option<Layers>), String> {
    match args.workload {
        Workload::EnterpriseChurn => churn::run(args),
        Workload::LabLoopback => lab::run(args),
    }
}

/// Runs each workload in a process of its own (so peak memory does not
/// mix), passing the same flags through.
fn run_each(cli: &Cli, raw: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot find this program: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in &cli.workloads {
        let mut args: Vec<String> = Vec::new();
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            let value = it.next().cloned().unwrap_or_default();
            let value = if flag == "--workload" {
                w.name().to_string()
            } else {
                value
            };
            args.extend([flag.clone(), value]);
        }
        match Command::new(&exe).args(&args).status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("{}: exited with {status}", w.name());
                ok = false;
            }
            Err(e) => {
                eprintln!("{}: could not start: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let cli = match Cli::parse(&raw) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.workloads.len() > 1 {
        return run_each(&cli, &raw);
    }
    // The program's observability is on by default (as under
    // `wolt serve`); the per-layer counters depend on it.
    wolt_support::obs::set_enabled(true);
    let args = cli.run_args(cli.workloads[0]);
    let result = run(&args);
    let _ = std::fs::remove_dir_all(args.scratch_dir());
    // Fails, and so keeps the directory, when it holds span dumps.
    let _ = std::fs::remove_dir(SCRATCH);
    match result {
        Ok((measured, layers)) => {
            report::print(&args, &measured, layers.as_ref());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}
