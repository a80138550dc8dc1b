//! Fig. 4a — testbed comparison of WOLT, Greedy and RSSI.
//!
//! Paper setup: 3 extenders and 7 laptops in a 2408 m² lab, 25 random
//! topologies. Average improvements: +26% over Greedy, +70% over RSSI.
//! We run the same experiment through the controller rig.

use wolt_bench::{columns, f2, header, measured, row};
use wolt_testbed::experiment::{aggregate_summary, TestbedExperiment};

fn main() {
    header(
        "Fig 4a — average aggregate throughput on the testbed",
        "WOLT ≈ +26% over Greedy and ≈ +70% over RSSI (25 topologies, 3 extenders, 7 users)",
        "CC rig (virtual time) on 25 seeded lab scenarios",
    );

    let comparisons = TestbedExperiment::default().run().expect("experiment runs");

    columns(&["topology", "wolt_mbps", "greedy_mbps", "rssi_mbps"]);
    for c in &comparisons {
        row(&[
            c.topology.to_string(),
            f2(c.wolt.aggregate),
            f2(c.greedy.aggregate),
            f2(c.rssi.aggregate),
        ]);
    }

    let summary = aggregate_summary(&comparisons);
    measured(&format!(
        "mean aggregates: WOLT = {:.1}, Greedy = {:.1}, RSSI = {:.1} Mbit/s; \
         WOLT is {:+.0}% vs Greedy (paper +26%) and {:+.0}% vs RSSI (paper +70%)",
        summary.wolt,
        summary.greedy,
        summary.rssi,
        100.0 * (summary.wolt / summary.greedy - 1.0),
        100.0 * (summary.wolt / summary.rssi - 1.0),
    ));
}
