//! Decision-quality sweep: one WOLT solve on each of 325 seeded sites.
//!
//! The sites are the enterprise preset (15 extenders) at 20, 40, 60, 100,
//! 150, 200, 250 and 300 users and the lab preset (3 extenders) at 4, 8,
//! 12, 16 and 20 users, seeds 1–25 each. For every site the binary prints
//! one tab-separated row: the Phase II fractional solve's iterations and
//! line-search trials (0 when Phase II has no user), the WiFi objective
//! Σ_j T_wifi(j) and the end-to-end aggregate of the final association,
//! a CRC-32 over that association, and the best of three solve times in
//! microseconds. Every column but the last is deterministic.
//!
//! `scripts/quality_ab.sh` runs this binary on two revisions and compares
//! them site by site, so a solver change is judged by what it decides.
//!
//! ```text
//! cargo run --release --offline -p wolt-bench --bin site_sweep > sweep.tsv
//! ```

use std::time::{Duration, Instant};

use wolt_core::phase2::wifi_objective;
use wolt_core::{evaluate, Network, Wolt};
use wolt_sim::scenario::ScenarioConfig;
use wolt_sim::Scenario;
use wolt_support::crc::crc32;
use wolt_support::rng::{ChaCha8Rng, SeedableRng};

const ENTERPRISE_USERS: [usize; 8] = [20, 40, 60, 100, 150, 200, 250, 300];
const LAB_USERS: [usize; 5] = [4, 8, 12, 16, 20];
const SEEDS: std::ops::RangeInclusive<u64> = 1..=25;
/// Solves per site; the row reports the fastest.
const REPEATS: usize = 3;

/// A swept preset: its name, its user counts and its scenario.
type Preset = (&'static str, &'static [usize], fn(usize) -> ScenarioConfig);

fn network(config: &ScenarioConfig, seed: u64) -> Network {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Scenario::generate(config, &mut rng)
        .expect("scenario generates")
        .network()
        .expect("network builds")
}

fn main() {
    println!(
        "site\tusers\tseed\titerations\ttrials\twifi_objective\taggregate_mbps\tassociation_crc\tsolve_us"
    );
    let presets: [Preset; 2] = [
        ("enterprise", &ENTERPRISE_USERS, ScenarioConfig::enterprise),
        ("lab", &LAB_USERS, ScenarioConfig::lab),
    ];
    for (preset, sizes, config) in presets {
        for &users in sizes {
            let config = config(users);
            for seed in SEEDS {
                let net = network(&config, seed);
                let wolt = Wolt::new();
                let mut best = Duration::MAX;
                let mut outcome = None;
                for _ in 0..REPEATS {
                    let started = Instant::now();
                    let solved = wolt.associate_detailed(&net).expect("site solves");
                    best = best.min(started.elapsed());
                    outcome = Some(solved);
                }
                let (_, p2) = outcome.expect("at least one solve");
                let (iterations, trials) = p2
                    .fractional
                    .as_ref()
                    .map_or((0, 0), |r| (r.iterations, r.trials));
                let targets: Vec<u8> = (0..net.users())
                    .flat_map(|i| {
                        let j = p2.association.target(i).expect("complete association");
                        (j as u32).to_le_bytes()
                    })
                    .collect();
                let aggregate = evaluate(&net, &p2.association)
                    .expect("valid association")
                    .aggregate
                    .value();
                println!(
                    "{preset}\t{users}\t{seed}\t{iterations}\t{trials}\t{}\t{aggregate}\t{:08x}\t{:.1}",
                    wifi_objective(&net, &p2.association),
                    crc32(&targets),
                    best.as_secs_f64() * 1e6,
                );
            }
        }
    }
}
