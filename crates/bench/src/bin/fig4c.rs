//! Fig. 4c — validating simulator fidelity against the testbed.
//!
//! Paper setup: mirror a testbed topology inside the simulator (same
//! channel qualities, 3 extenders, 7 users) and compare the two. We run
//! the identical scenario through (a) the controller rig (the
//! "testbed") and (b) the offline policies on the same network (the
//! "simulation"), expecting near-identical aggregates.

use wolt_bench::{columns, f2, header, measured, row};
use wolt_core::baselines::{Greedy, Rssi};
use wolt_core::{evaluate, AssociationPolicy, Wolt};
use wolt_plc::capacity::CapacityEstimator;
use wolt_sim::scenario::ScenarioConfig;
use wolt_sim::Scenario;
use wolt_support::rng::ChaCha8Rng;
use wolt_support::rng::SeedableRng;
use wolt_testbed::{run_rig, ControllerPolicy, RigConfig};

fn main() {
    header(
        "Fig 4c — simulation vs testbed on an identical topology",
        "simulation results are 'very consistent' with the testbed",
        "one seeded lab topology; CC rig vs offline policies, zero estimation noise",
    );

    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let scenario =
        Scenario::generate(&ScenarioConfig::lab(7), &mut rng).expect("scenario generates");
    let network = scenario.network().expect("network builds");

    // Zero-noise estimation so the only difference is the code path.
    let noiseless = CapacityEstimator {
        rounds: 1,
        noise_sigma: 0.0,
    };

    columns(&["policy", "testbed_mbps", "simulation_mbps", "gap_percent"]);
    let mut worst_gap: f64 = 0.0;

    let wolt = Wolt::new();
    let greedy = Greedy::new();
    let cases: [(ControllerPolicy, &dyn AssociationPolicy); 3] = [
        (ControllerPolicy::Wolt, &wolt),
        (ControllerPolicy::Greedy, &greedy),
        (ControllerPolicy::Rssi, &Rssi),
    ];
    for (rig_policy, offline) in cases {
        let rig_outcome = run_rig(
            &scenario,
            &RigConfig {
                estimator: noiseless,
                ..RigConfig::new(rig_policy)
            },
            0,
        )
        .expect("rig runs");
        let offline_assoc = offline.associate(&network).expect("policy runs");
        let offline_eval = evaluate(&network, &offline_assoc).expect("valid association");
        let sim = offline_eval.aggregate.value();
        let gap = 100.0 * (rig_outcome.aggregate - sim).abs() / sim;
        worst_gap = worst_gap.max(gap);
        row(&[
            rig_policy.name().to_string(),
            f2(rig_outcome.aggregate),
            f2(sim),
            f2(gap),
        ]);
    }

    measured(&format!(
        "testbed rig and pure simulation agree within {worst_gap:.2}% on every \
         policy — the fidelity check the paper's Fig. 4c makes"
    ));
}
