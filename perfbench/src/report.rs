//! The metric catalogue and the run's output: a table for people, then
//! one JSON object as the last line of standard output.

use std::fmt::Write as _;

use crate::stats;
use crate::{Layers, Measured, RunArgs};

/// A metric's name, unit and better direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn spec(name: &'static str, unit: &'static str, better: &'static str) -> Spec {
    Spec { name, unit, better }
}

/// End-to-end metrics, reported by untraced runs of every workload and
/// bounded in `BENCHMARK.json`.
pub const END_TO_END: [Spec; 6] = [
    spec("events_per_s", "events/s", "higher"),
    spec("event_p50_us", "us", "lower"),
    spec("setup_s", "s", "lower"),
    spec("aggregate_mbps", "Mbit/s", "higher"),
    spec("moves_per_event", "directives/event", "lower"),
    spec("peak_rss_mb", "MiB", "lower"),
];

/// The latency tail. Printed by every untraced run but left out of the
/// result line: over loopback TCP on a shared two-core machine it swings
/// with the neighbours' load far past any usable bound (see README.md).
pub const EVENT_P99: Spec = spec("event_p99_us", "us", "lower");

/// Failed events over attempted ones. Printed with its base by every run
/// but carried in the result line as `failed` and `attempted`: a clean
/// run reads 0, which a metric with a relative bound cannot be.
pub const FAILED_RATIO: Spec = spec("failed_ratio", "ratio", "lower");

/// Per-layer metrics, reported by traced runs; 0 where the workload
/// does not exercise the layer.
pub const PER_LAYER: [Spec; 22] = [
    spec("testbed.decide_p50_us", "us", "lower"),
    spec("testbed.decide_p99_us", "us", "lower"),
    spec("testbed.view_build_us", "us", "lower"),
    spec("testbed.view_reuse_ratio", "ratio", "higher"),
    spec("core.phase1_us", "us", "lower"),
    spec("core.phase2_us", "us", "lower"),
    spec("core.evaluate_us", "us", "lower"),
    spec("core.solves_per_event", "solves/event", "lower"),
    spec("core.warm_solves_per_event", "solves/event", "higher"),
    spec("core.phase2_iterations_per_solve", "iters/solve", "lower"),
    spec("core.polish_rounds_per_solve", "rounds/solve", "lower"),
    spec("core.probes_per_solve", "probes/solve", "lower"),
    spec("core.probe_yield", "ratio", "higher"),
    spec("daemon.agent_leg_us", "us", "lower"),
    spec("daemon.frames_per_event", "frames/event", "lower"),
    spec("daemon.bytes_per_frame", "B/frame", "lower"),
    spec("daemon.encode_ns", "ns", "lower"),
    spec("daemon.decode_ns", "ns", "lower"),
    spec("daemon.retries_per_event", "retries/event", "lower"),
    spec("daemon.snapshot_us", "us", "lower"),
    spec("daemon.snapshot_bytes", "B", "lower"),
    spec("trace.overhead_pct", "%", "lower"),
];

/// The event tail: the median over blocks of each block's p99, with a
/// note on its sample support and spread.
fn event_p99(m: &Measured, notes: &mut Vec<String>) -> f64 {
    let tails: Vec<stats::Tail> = m.blocks.iter().filter_map(|b| b.p99).collect();
    if tails.is_empty() || tails.len() < m.blocks.len() {
        notes.push("a block has too few events for a tail percentile".to_string());
        return f64::NAN;
    }
    let lowest = tails
        .iter()
        .map(|t| t.percentile)
        .fold(f64::INFINITY, f64::min);
    let fewest = tails.iter().map(|t| t.samples).min().unwrap_or(0);
    let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    let rates: Vec<f64> = m.blocks.iter().map(|b| b.events_per_s()).collect();
    notes.push(format!(
        "timings come from {} blocks; each block's tail is p{lowest} or higher over at least \
         {fewest} samples ({} beyond it)",
        m.blocks.len(),
        stats::beyond(fewest, lowest)
    ));
    notes.push(format!(
        "block quartiles: events_per_s {}, event_p99_us {}",
        quartiles(&rates),
        quartiles(&values)
    ));
    stats::median(&values).unwrap_or(f64::NAN)
}

/// End-to-end values of an untraced run, in [`END_TO_END`] order.
fn end_to_end(m: &Measured, peak_rss_mib: f64) -> Vec<f64> {
    vec![
        m.events_per_s(),
        m.event_p50_us(),
        stats::median(&m.setups_s).unwrap_or(f64::NAN),
        m.aggregate_mbps,
        m.moves_per_event(),
        peak_rss_mib,
    ]
}

/// `q1 / median / q3` of `values`, for the table.
fn quartiles(values: &[f64]) -> String {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let q = |p| stats::percentile(&sorted, p).unwrap_or(f64::NAN);
    format!("{:.1} / {:.1} / {:.1}", q(25.0), q(50.0), q(75.0))
}

/// Prints the run's table and result line.
pub fn print(args: &RunArgs, m: &Measured, layers: Option<&Layers>) {
    let mut notes = Vec::new();
    let peak = stats::peak_rss_mib().unwrap_or_else(|e| {
        notes.push(format!("peak RSS unavailable: {e}"));
        f64::NAN
    });
    let (specs, values): (&[Spec], Vec<f64>) = match layers {
        Some(l) => {
            notes.extend(l.notes.iter().cloned());
            (
                &PER_LAYER,
                PER_LAYER.iter().map(|s| l.get(s.name)).collect(),
            )
        }
        None => (&END_TO_END, end_to_end(m, peak)),
    };

    println!(
        "wolt-perfbench workload={} seed={} scenario_seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.scenario_seed,
        args.budget.as_secs(),
        u8::from(args.trace)
    );
    println!("  {:<34} {:>14}  {:<16} better", "metric", "value", "unit");
    let row = |s: &Spec, v: f64, extra: &str| {
        println!(
            "  {:<34} {:>14.4}  {:<16} {:<6} {extra}",
            s.name, v, s.unit, s.better
        );
    };
    for (s, v) in specs.iter().zip(&values) {
        row(s, *v, "");
    }
    if layers.is_none() {
        row(
            &EVENT_P99,
            event_p99(m, &mut notes),
            "(not in the result line)",
        );
    }
    row(
        &FAILED_RATIO,
        stats::ratio(m.failed as f64, m.attempted as f64),
        &format!("({} failed of {} attempted)", m.failed, m.attempted),
    );
    if let Some(l) = layers {
        for line in &l.spans {
            println!("  {line}");
        }
    }
    for note in &notes {
        println!("  note: {note}");
    }
    for problem in &m.problems {
        eprintln!("failed: {problem}");
    }

    let finite = values.iter().all(|v| v.is_finite());
    let correct = finite && m.failed == 0 && m.attempted > 0 && m.completed() > 0;
    println!(
        "{}",
        result_line(correct, m.attempted, m.failed, specs, &values)
    );
}

/// The result object: `correct`, `attempted`, `failed` and every metric
/// with its value and unit. A value that is not finite prints as 0 (and
/// the run is then not correct).
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    specs: &[Spec],
    values: &[f64],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (k, (s, v)) in specs.iter().zip(values).enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        let sep = if k == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            s.name, s.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wolt_support::json::Json;

    #[test]
    fn result_line_is_json_with_every_metric() {
        let line = result_line(true, 1200, 0, &END_TO_END[..2], &[123.25, f64::NAN]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1200, \"failed\": 0, \"metrics\": {\
             \"events_per_s\": {\"value\": 123.25, \"unit\": \"events/s\"}, \
             \"event_p50_us\": {\"value\": 0, \"unit\": \"us\"}}}"
        );
        let parsed = Json::parse(&line).expect("valid JSON");
        assert!(parsed.field("metrics").is_ok());
    }

    /// `BENCHMARK.json` at the repository root declares exactly the
    /// metrics this program reports.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<Spec> {
            let Ok(Json::Arr(items)) = json.field(key) else {
                panic!("{key} is not an array");
            };
            items
                .iter()
                .map(|m| {
                    let s = |k: &str| match m.field(k) {
                        Ok(Json::Str(s)) => s.clone(),
                        other => panic!("{key}: {k} is {other:?}"),
                    };
                    let leak = |s: String| -> &'static str { Box::leak(s.into_boxed_str()) };
                    spec(leak(s("name")), leak(s("unit")), leak(s("better")))
                })
                .collect()
        };
        assert_eq!(declared("end_to_end"), END_TO_END.to_vec());
        assert_eq!(declared("per_layer"), PER_LAYER.to_vec());
        let Ok(Json::Arr(workloads)) = json.field("workloads") else {
            panic!("workloads is not an array");
        };
        let names: Vec<String> = workloads
            .iter()
            .map(|w| match w.field("name") {
                Ok(Json::Str(s)) => s.clone(),
                other => panic!("workload name is {other:?}"),
            })
            .collect();
        let ours: Vec<&str> = crate::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
    }
}
