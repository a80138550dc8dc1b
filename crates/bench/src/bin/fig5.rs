//! Fig. 5 — WOLT's effect on the worst and best users.
//!
//! Paper result (one topology): WOLT's three poorest users lose only
//! ≈ 6 Mbit/s in total versus Greedy, while its three best users gain
//! ≈ 38 Mbit/s — a modest fairness hit buys a large efficiency win.

use wolt_bench::{columns, f2, header, measured, row, sort_by_metric};
use wolt_testbed::experiment::{best_worst_users, TestbedExperiment};

fn main() {
    header(
        "Fig 5 — per-user throughput for WOLT's worst-3 and best-3 users vs Greedy",
        "worst-3 lose ≈ 6 Mbit/s total; best-3 gain ≈ 38 Mbit/s total",
        "one topology from the 25-topology testbed experiment",
    );

    let comparisons = TestbedExperiment::default().run().expect("experiment runs");
    // The paper picks "a randomly chosen topology … results are very
    // similar with all our scenarios"; we pick the topology whose WOLT
    // gain over Greedy is closest to the experiment median.
    let mut gains: Vec<(usize, f64)> = comparisons
        .iter()
        .map(|c| (c.topology, c.wolt.aggregate - c.greedy.aggregate))
        .collect();
    if let Err(e) = sort_by_metric(&mut gains) {
        eprintln!("fig5: unusable gain ({e}); topology {}", gains[e.index].0);
        std::process::exit(1);
    }
    let median_topology = gains[gains.len() / 2].0;
    let chosen = &comparisons[median_topology];

    let bw = best_worst_users(chosen, 3);

    columns(&["group", "user_rank", "wolt_mbps", "greedy_mbps"]);
    for (rank, (w, g)) in bw.worst.iter().enumerate() {
        row(&["worst".to_string(), (rank + 1).to_string(), f2(*w), f2(*g)]);
    }
    for (rank, (w, g)) in bw.best.iter().enumerate() {
        row(&["best".to_string(), (rank + 1).to_string(), f2(*w), f2(*g)]);
    }

    let worst_delta: f64 = bw.worst.iter().map(|(w, g)| w - g).sum();
    let best_delta: f64 = bw.best.iter().map(|(w, g)| w - g).sum();
    // The paper's shape: the weak users lose, and the strong users gain
    // more than the weak ones lose.
    let paper_shape = worst_delta < 0.0 && best_delta > -worst_delta;
    measured(&format!(
        "topology {median_topology}: worst-3 users change by {worst_delta:+.1} Mbit/s total \
         (paper ≈ −6), best-3 by {best_delta:+.1} Mbit/s total (paper ≈ +38); the worst-3 \
         lose and the best-3 gain more than that: {paper_shape}"
    ));
}
