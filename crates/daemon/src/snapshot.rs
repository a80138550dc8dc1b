//! Daemon state persistence: the controller's decision state plus the
//! session driver's bookkeeping, written as canonical JSON after every
//! completed epoch and restored on restart.
//!
//! The snapshot is everything a restarted daemon needs to resume exactly
//! where the dead one stopped: the [`ControllerSnapshot`] (each client's
//! last report, association view, sequence counters) and the driver
//! ledger (which events completed, who is present, the initial
//! attachments used for switch counting). Because `wolt_support::json` is
//! deterministic, two snapshots of equal state are byte-identical on disk.
//!
//! This module owns the snapshot's *shape*; durability lives in the
//! generational [`crate::store::SnapshotStore`], which writes each
//! snapshot as a fresh checksummed `snapshot.<gen>.json` and rolls back
//! over torn or corrupt generations at load time.

use wolt_support::json::{FromJson, Json, JsonError, ToJson};
use wolt_testbed::ControllerSnapshot;

/// The persisted daemon state.
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonSnapshot {
    /// Events completed so far; the daemon resumes at this index.
    pub epochs_done: usize,
    /// Per-client presence (joined and not departed) at snapshot time.
    pub present: Vec<bool>,
    /// Per-client unresponsiveness at snapshot time.
    pub unresponsive: Vec<bool>,
    /// Each client's first post-join attachment (for switch counting).
    pub initial_attach: Vec<Option<usize>>,
    /// Retransmissions so far (timing-dependent bookkeeping, excluded
    /// from canonical reports but carried for observability).
    pub retries: usize,
    /// The controller's full decision state.
    pub core: ControllerSnapshot,
}

impl ToJson for DaemonSnapshot {
    fn to_json(&self) -> Json {
        Json::obj([
            ("epochs_done", self.epochs_done.to_json()),
            ("present", self.present.to_json()),
            ("unresponsive", self.unresponsive.to_json()),
            ("initial_attach", self.initial_attach.to_json()),
            ("retries", self.retries.to_json()),
            ("core", self.core.to_json()),
        ])
    }
}

impl FromJson for DaemonSnapshot {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            epochs_done: usize::from_json(value.field("epochs_done")?)?,
            present: Vec::<bool>::from_json(value.field("present")?)?,
            unresponsive: Vec::<bool>::from_json(value.field("unresponsive")?)?,
            initial_attach: Vec::<Option<usize>>::from_json(value.field("initial_attach")?)?,
            retries: usize::from_json(value.field("retries")?)?,
            core: ControllerSnapshot::from_json(value.field("core")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wolt_testbed::{ControllerConfig, ControllerCore, ControllerPolicy};
    use wolt_units::Mbps;

    fn sample() -> DaemonSnapshot {
        let mut core = ControllerCore::new(
            2,
            ControllerConfig {
                policy: ControllerPolicy::Wolt,
                estimated_capacities: vec![Mbps::new(50.0), Mbps::new(30.0)],
                strict: false,
            },
        );
        core.handle_report(0, 0, &[Some(Mbps::new(20.0)), Some(Mbps::new(5.0))], 0)
            .unwrap();
        DaemonSnapshot {
            epochs_done: 1,
            present: vec![true, false],
            unresponsive: vec![false, false],
            initial_attach: vec![Some(0), None],
            retries: 3,
            core: core.snapshot(),
        }
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let snap = sample();
        let text = snap.to_json().to_compact();
        let back = DaemonSnapshot::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, snap);
        // Canonical encoder: equal state, identical bytes.
        assert_eq!(back.to_json().to_compact(), text);
    }
}
