//! The Central Controller protocol, live: client agents scan, attach,
//! report, and follow directives.
//!
//! This is the paper's testbed software architecture (§V-A) running in
//! process, on virtual time, against the simulated lab. `wolt serve` and
//! `wolt agent` run the same protocol over TCP.
//!
//! ```text
//! cargo run -p wolt-examples --bin controller_protocol
//! ```

use wolt_examples::{banner, mbps};
use wolt_sim::scenario::ScenarioConfig;
use wolt_sim::Scenario;
use wolt_support::rng::ChaCha8Rng;
use wolt_support::rng::SeedableRng;
use wolt_testbed::{run_rig, ControllerPolicy, RigConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    banner("central-controller rig (3 extenders, 7 laptops)");
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let scenario = Scenario::generate(&ScenarioConfig::lab(7), &mut rng)?;

    for policy in [
        ControllerPolicy::Rssi,
        ControllerPolicy::Greedy,
        ControllerPolicy::Wolt,
    ] {
        let outcome = run_rig(&scenario, &RigConfig::new(policy), 0)?;
        banner(policy.name());
        println!(
            "aggregate {}   directives sent: {}   clients moved off RSSI attach: {}",
            mbps(outcome.aggregate),
            outcome.directives,
            outcome.switches
        );
        for (user, t) in outcome.per_user.iter().enumerate() {
            println!(
                "  laptop {user} on extender {}: {}",
                outcome.association.target(user).expect("complete"),
                mbps(*t)
            );
        }
    }

    banner("takeaway");
    println!("the RSSI default sends no directives; WOLT's re-association messages");
    println!("buy the aggregate-throughput improvement the paper measures in Fig. 4a.");
    Ok(())
}
