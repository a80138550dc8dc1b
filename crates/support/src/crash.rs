//! Deterministic crash-point injection: seeded, named process-abort
//! hooks for chaos testing.
//!
//! A crash-safe daemon can only be *proven* crash-safe by killing it at
//! the worst possible moments — mid-snapshot-write, between completing an
//! epoch and persisting it, halfway through a wire frame — and checking
//! that a restart converges to the byte-identical result. This module
//! provides the hooks: code under test declares named crash points with
//! [`crash_point!`](crate::crash_point!), and a supervisor process arms
//! a [`CrashPlan`] through the [`CRASH_ENV`] environment variable before
//! spawning the victim. When the scheduled hit of an armed point
//! executes, the process [`std::process::abort`]s — no destructors, no
//! flushes, exactly the torn state a power cut would leave.
//!
//! # Determinism contract
//!
//! Mirroring `wolt_testbed::faults`: every trigger is keyed by the
//! crash point's *name*, with an independent per-name hit counter, so
//! executions of unrelated points never shift when a trigger fires.
//! [`CrashPlan::seeded`] derives each point's scheduled hit as a pure
//! function of `(seed, point name)` — reordering the catalogue or adding
//! new points leaves existing points' schedules untouched. A process with
//! no plan in its environment pays one atomic load per crash point.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use crate::rng::{RngCore, SplitMix64};

/// Environment variable carrying the armed plan into a victim process.
pub const CRASH_ENV: &str = "WOLT_CRASH";

/// A schedule of process aborts: for each named crash point, the 1-based
/// execution count at which the process must die.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CrashPlan {
    /// `(point name, 1-based hit index)` pairs, at most one per name.
    pub points: Vec<(String, u64)>,
}

impl CrashPlan {
    /// The empty plan: no point ever fires.
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether the plan schedules no aborts at all.
    pub fn is_none(&self) -> bool {
        self.points.is_empty()
    }

    /// A plan that aborts on the `hit`-th execution of one point.
    ///
    /// # Panics
    ///
    /// Panics when `hit` is zero (hit indices are 1-based).
    pub fn single(name: &str, hit: u64) -> Self {
        assert!(hit >= 1, "crash-point hit indices are 1-based");
        Self {
            points: vec![(name.to_string(), hit)],
        }
    }

    /// Derives one scheduled hit per catalogue entry: point `name` with
    /// at most `max_hits` expected executions gets a hit index in
    /// `[1, max_hits]` that depends only on `(seed, name)` — never on
    /// the other catalogue entries or their order. Entries with
    /// `max_hits == 0` are skipped (the point cannot execute this run).
    pub fn seeded(seed: u64, catalogue: &[(&str, u64)]) -> Self {
        let points = catalogue
            .iter()
            .filter(|(_, max_hits)| *max_hits > 0)
            .map(|&(name, max_hits)| {
                let hit = 1 + mix_name(seed, name) % max_hits;
                (name.to_string(), hit)
            })
            .collect();
        Self { points }
    }

    /// The scheduled hit index for `name`, if armed.
    pub fn trigger(&self, name: &str) -> Option<u64> {
        self.points
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, hit)| hit)
    }

    /// Serializes the plan for [`CRASH_ENV`]: `name@hit,name@hit,…`.
    pub fn to_env(&self) -> String {
        self.points
            .iter()
            .map(|(name, hit)| format!("{name}@{hit}"))
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Parses a [`CRASH_ENV`] value. The empty string is the empty plan.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed entry (missing `@`,
    /// unparseable or zero hit index, duplicate point name).
    pub fn from_env(value: &str) -> Result<Self, String> {
        let mut points: Vec<(String, u64)> = Vec::new();
        for entry in value.split(',').filter(|e| !e.is_empty()) {
            let (name, hit) = entry
                .rsplit_once('@')
                .ok_or_else(|| format!("crash plan entry {entry:?} is not name@hit"))?;
            let hit: u64 = hit
                .parse()
                .map_err(|_| format!("crash plan entry {entry:?} has a non-numeric hit"))?;
            if hit == 0 {
                return Err(format!("crash plan entry {entry:?}: hits are 1-based"));
            }
            if name.is_empty() {
                return Err(format!("crash plan entry {entry:?} has an empty name"));
            }
            if points.iter().any(|(n, _)| n == name) {
                return Err(format!("crash plan names point {name:?} twice"));
            }
            points.push((name.to_string(), hit));
        }
        Ok(Self { points })
    }
}

/// Hashes `(seed, name)` into the per-point schedule draw by chaining
/// SplitMix64 over the name bytes, so each point's draw is independent
/// of every other point.
fn mix_name(seed: u64, name: &str) -> u64 {
    let mut h = SplitMix64::new(seed ^ 0x574F_4C54_5F63_7273).next_u64(); // "WOLT_crs"
    for &b in name.as_bytes() {
        h = SplitMix64::new(h ^ u64::from(b)).next_u64();
    }
    h
}

/// The process-wide armed plan plus its per-point execution counters.
struct Armed {
    triggers: BTreeMap<String, u64>,
    counters: Mutex<BTreeMap<String, u64>>,
}

fn armed() -> Option<&'static Armed> {
    static ARMED: OnceLock<Option<Armed>> = OnceLock::new();
    ARMED
        .get_or_init(|| {
            let value = std::env::var(CRASH_ENV).ok()?;
            let plan =
                CrashPlan::from_env(&value).unwrap_or_else(|e| panic!("invalid {CRASH_ENV}: {e}"));
            if plan.is_none() {
                return None;
            }
            Some(Armed {
                triggers: plan.points.into_iter().collect(),
                counters: Mutex::new(BTreeMap::new()),
            })
        })
        .as_ref()
}

/// Executes one named crash point: a no-op unless [`CRASH_ENV`] armed a
/// plan naming this point, in which case the scheduled hit aborts the
/// process (SIGABRT — no destructors run, no buffers flush).
///
/// Call through [`crash_point!`](crate::crash_point!) so the call sites
/// read as annotations.
pub fn hit(name: &str) {
    let Some(armed) = armed() else { return };
    let Some(&trigger) = armed.triggers.get(name) else {
        return;
    };
    let count = {
        let mut counters = armed.counters.lock().unwrap_or_else(|e| e.into_inner());
        let count = counters.entry(name.to_string()).or_insert(0);
        *count += 1;
        *count
    };
    if count == trigger {
        // The one observable trace a post-mortem gets: say who fired.
        eprintln!("crash_point {name:?} firing on hit {count}: aborting");
        std::process::abort();
    }
}

/// Declares one named crash point (see [`hit`]). Near-zero cost when no
/// plan is armed; aborts the process at the scheduled hit when one is.
#[macro_export]
macro_rules! crash_point {
    ($name:expr) => {
        $crate::crash::hit($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_round_trips() {
        let plan = CrashPlan {
            points: vec![
                ("daemon.snapshot.mid_write".into(), 3),
                ("codec.write.mid_frame".into(), 17),
            ],
        };
        let env = plan.to_env();
        assert_eq!(env, "daemon.snapshot.mid_write@3,codec.write.mid_frame@17");
        assert_eq!(CrashPlan::from_env(&env).unwrap(), plan);
        assert_eq!(CrashPlan::from_env("").unwrap(), CrashPlan::none());
    }

    #[test]
    fn malformed_env_entries_are_rejected() {
        for bad in [
            "no-hit-index",
            "point@",
            "point@zero",
            "point@0",
            "@3",
            "p@1,p@2",
        ] {
            assert!(CrashPlan::from_env(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn seeded_schedule_is_keyed_by_name_alone() {
        let catalogue = [
            ("daemon.snapshot.mid_write", 7u64),
            ("daemon.epoch.pre_snapshot", 7),
            ("codec.write.mid_frame", 40),
        ];
        let plan = CrashPlan::seeded(9, &catalogue);
        // Reordering and extending the catalogue never shifts an
        // existing point's schedule.
        let reordered = CrashPlan::seeded(
            9,
            &[
                ("codec.write.mid_frame", 40),
                ("brand.new.point", 3),
                ("daemon.snapshot.mid_write", 7),
                ("daemon.epoch.pre_snapshot", 7),
            ],
        );
        for (name, _) in &catalogue {
            assert_eq!(plan.trigger(name), reordered.trigger(name), "{name}");
        }
        // Bounds hold and hits are 1-based.
        for (name, max) in &catalogue {
            let hit = plan.trigger(name).unwrap();
            assert!((1..=*max).contains(&hit), "{name} scheduled at {hit}");
        }
        // Different seeds reach different schedules for at least one
        // point (overwhelmingly likely with a 40-wide range).
        let other = CrashPlan::seeded(10, &catalogue);
        assert_ne!(
            catalogue
                .iter()
                .map(|(n, _)| plan.trigger(n))
                .collect::<Vec<_>>(),
            catalogue
                .iter()
                .map(|(n, _)| other.trigger(n))
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn zero_max_hits_points_are_skipped() {
        let plan = CrashPlan::seeded(1, &[("never.runs", 0), ("runs", 5)]);
        assert_eq!(plan.trigger("never.runs"), None);
        assert!(plan.trigger("runs").is_some());
    }

    #[test]
    fn unarmed_hits_are_no_ops() {
        // No WOLT_CRASH in the test environment: a hot loop over the
        // macro must be a no-op (and certainly must not abort the test
        // runner).
        for _ in 0..10_000 {
            crate::crash_point!("daemon.snapshot.mid_write");
        }
    }
}
