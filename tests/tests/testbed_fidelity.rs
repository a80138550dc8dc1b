//! Integration: the testbed rig agrees with the pure simulation (the
//! check behind the paper's Fig. 4c).

use wolt_core::baselines::{Greedy, Rssi};
use wolt_core::{evaluate, AssociationPolicy, Wolt};
use wolt_plc::capacity::CapacityEstimator;
use wolt_testbed::{run_rig, ControllerPolicy, RigConfig};
use wolt_tests::lab_scenario;

fn noiseless(policy: ControllerPolicy) -> RigConfig {
    RigConfig {
        estimator: CapacityEstimator {
            rounds: 1,
            noise_sigma: 0.0,
        },
        ..RigConfig::new(policy)
    }
}

#[test]
fn rig_and_simulation_agree_for_rssi() {
    for seed in 0..6 {
        let scenario = lab_scenario(7, seed);
        let net = scenario.network().expect("builds");
        let rig = run_rig(&scenario, &noiseless(ControllerPolicy::Rssi), 0).expect("rig runs");
        let sim = evaluate(&net, &Rssi.associate(&net).expect("runs")).expect("valid");
        assert!(
            (rig.aggregate - sim.aggregate.value()).abs() < 1e-9,
            "seed {seed}: rig {} vs sim {}",
            rig.aggregate,
            sim.aggregate
        );
    }
}

#[test]
fn rig_and_simulation_agree_for_greedy() {
    for seed in 0..6 {
        let scenario = lab_scenario(7, seed);
        let net = scenario.network().expect("builds");
        let rig = run_rig(&scenario, &noiseless(ControllerPolicy::Greedy), 0).expect("rig runs");
        let sim = evaluate(&net, &Greedy::new().associate(&net).expect("runs")).expect("valid");
        assert!(
            (rig.aggregate - sim.aggregate.value()).abs() < 1e-9,
            "seed {seed}: rig {} vs sim {}",
            rig.aggregate,
            sim.aggregate
        );
    }
}

#[test]
fn rig_and_simulation_agree_for_wolt() {
    for seed in 0..6 {
        let scenario = lab_scenario(7, seed);
        let net = scenario.network().expect("builds");
        let rig = run_rig(&scenario, &noiseless(ControllerPolicy::Wolt), 0).expect("rig runs");
        let sim = evaluate(&net, &Wolt::new().associate(&net).expect("runs")).expect("valid");
        assert!(
            (rig.aggregate - sim.aggregate.value()).abs() < 1e-9,
            "seed {seed}: rig {} vs sim {}",
            rig.aggregate,
            sim.aggregate
        );
    }
}

#[test]
fn estimation_noise_only_perturbs_decisions_slightly() {
    // With the default 3% measurement noise, the WOLT decision computed on
    // estimated capacities still lands within a few percent of the
    // noiseless aggregate.
    let mut noiseless_total = 0.0;
    let mut noisy_total = 0.0;
    for seed in 0..10 {
        let scenario = lab_scenario(7, seed);
        noiseless_total += run_rig(&scenario, &noiseless(ControllerPolicy::Wolt), seed)
            .expect("rig runs")
            .aggregate;
        noisy_total += run_rig(&scenario, &RigConfig::new(ControllerPolicy::Wolt), seed)
            .expect("rig runs")
            .aggregate;
    }
    let rel = (noiseless_total - noisy_total).abs() / noiseless_total;
    assert!(rel < 0.05, "estimation noise cost {rel:.3} of throughput");
}

#[test]
fn rssi_rig_sends_no_directives_wolt_rig_reassigns() {
    let scenario = lab_scenario(7, 3);
    let rssi = run_rig(&scenario, &RigConfig::new(ControllerPolicy::Rssi), 0).expect("runs");
    assert_eq!(rssi.directives, 0);
    assert_eq!(rssi.switches, 0);
    let wolt = run_rig(&scenario, &RigConfig::new(ControllerPolicy::Wolt), 0).expect("runs");
    // On a heterogeneous topology WOLT almost always moves someone off
    // the RSSI default; directives must cover every switch.
    assert!(wolt.directives >= wolt.switches);
}

#[test]
fn testbed_experiment_reproduces_fig4a_ordering() {
    use wolt_testbed::experiment::{aggregate_summary, TestbedExperiment};
    let comparisons = TestbedExperiment {
        topologies: 10,
        ..TestbedExperiment::default()
    }
    .run()
    .expect("experiment runs");
    let summary = aggregate_summary(&comparisons);
    assert!(summary.wolt >= summary.greedy * 0.98, "{summary:?}");
    assert!(summary.wolt > summary.rssi, "{summary:?}");
}
