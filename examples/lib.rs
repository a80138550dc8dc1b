//! Shared helpers for the WOLT examples.
//!
//! The runnable examples live in this package as binaries:
//!
//! * `quickstart` — build a network by hand, run WOLT, inspect the result.
//! * `case_study` — the paper's Fig. 3 walkthrough with commentary.
//! * `enterprise_floor` — generate a full enterprise scenario and compare
//!   all policies.
//! * `online_dynamics` — users arriving/departing over epochs.
//! * `controller_protocol` — the Central-Controller rig, on virtual time.
//!
//! Run any of them with `cargo run -p wolt-examples --bin <name>`.

/// Prints a section banner.
pub fn banner(title: &str) {
    println!();
    println!("== {title} ==");
}

/// Formats Mbit/s values consistently across examples.
pub fn mbps(v: f64) -> String {
    format!("{v:6.2} Mbit/s")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mbps_formats() {
        assert_eq!(mbps(1.5), "  1.50 Mbit/s");
    }
}
