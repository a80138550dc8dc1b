//! Coalesced telemetry plans once per drained batch, warm-started.
//!
//! A fixed burst of scan reports (each client reporting twice back to
//! back, epochs strictly increasing) is replayed through
//! `ControllerCore` twice: one report at a time, which plans cold once
//! per frame, and in drained batches that are coalesced to each
//! client's newest frame, which plan once per batch from the previous
//! association. The exact solve counts pin both halves of the saving.
//!
//! The obs registry is process-wide, so this binary holds this one test
//! and nothing else moves its counters.

use wolt_support::obs;
use wolt_testbed::{
    coalesce_frames, ControllerConfig, ControllerCore, ControllerPolicy, ReportFrame,
};
use wolt_tests::lab_scenario;

const USERS: usize = 7;
const SCENARIO_SEED: u64 = 45;
const FRAMES: usize = 160;
const BATCH: usize = 8;

#[test]
fn coalesced_burst_plans_once_per_batch_and_warm_starts() {
    obs::set_enabled(true);
    let scenario = lab_scenario(USERS, SCENARIO_SEED);
    let n_ext = scenario.extender_positions.len();
    let config = || ControllerConfig {
        policy: ControllerPolicy::Wolt,
        estimated_capacities: scenario.capacities.clone(),
        strict: false,
    };
    let frames: Vec<ReportFrame> = (0..FRAMES)
        .map(|i| {
            let client = (i / 2) % USERS;
            let rates: Vec<_> = (0..n_ext).map(|j| scenario.rate(client, j)).collect();
            let attached = (0..n_ext)
                .max_by(|&a, &b| {
                    let r = |j: usize| rates[j].map_or(f64::NEG_INFINITY, f64::from);
                    r(a).total_cmp(&r(b))
                })
                .expect("scenario has extenders");
            ReportFrame {
                client,
                epoch: (i + 1) as u64,
                rates,
                attached,
            }
        })
        .collect();

    let before = obs::snapshot();
    let mut plain = ControllerCore::new(USERS, config());
    for f in &frames {
        assert!(!plain.is_duplicate(f.epoch));
        plain
            .handle_report(f.client, f.epoch, &f.rates, f.attached)
            .expect("per-report replay plans");
    }
    let mid = obs::snapshot();

    let mut batched = ControllerCore::new(USERS, config());
    let mut frames_coalesced = 0;
    for chunk in frames.chunks(BATCH) {
        let (kept, dropped) = coalesce_frames(chunk.to_vec());
        frames_coalesced += dropped;
        let outcome = batched
            .handle_report_batch(&kept)
            .expect("batched replay plans");
        assert_eq!(outcome.ingested, kept.len());
    }
    let after = obs::snapshot();

    let delta = |from: &obs::ObsSnapshot, to: &obs::ObsSnapshot, name: &str| {
        to.counter(name) - from.counter(name)
    };
    // One report at a time: every frame is its own cold solve.
    assert_eq!(delta(&before, &mid, "core.solves"), FRAMES as u64);
    assert_eq!(delta(&before, &mid, "core.warm_solves"), 0);
    // Coalesced: each batch of 8 keeps one frame per client (4 of 8)
    // and plans once, warm-started from the previous association.
    assert_eq!(frames_coalesced, FRAMES / 2);
    assert_eq!(delta(&mid, &after, "core.solves"), 0);
    assert_eq!(
        delta(&mid, &after, "core.warm_solves"),
        (FRAMES / BATCH) as u64
    );
}
