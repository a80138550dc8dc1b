//! Last-known-good client telemetry for a resilient Central Controller.
//!
//! The paper's CC plans on rate estimates that clients *report* over a
//! real network (§V-A): reports can be lost, delayed, or duplicated, and
//! clients vanish without notice. This module gives the controller a
//! cache of the last rates each client reported, smoothed exponentially
//! (successive reports of a noisy link converge instead of whiplashing
//! the planner) and aged with a staleness counter, so the CC can keep
//! planning — degrading to slightly stale data — instead of stalling or
//! panicking when a report goes missing.
//!
//! Duplicate delivery is first-class: a retransmitted or fault-duplicated
//! report carries the epoch of the event that produced it, and
//! [`TelemetryCache::record`] applies each `(client, epoch)` pair at most
//! once. That keeps the smoothed state — and therefore every association
//! decision derived from it — independent of how many copies of a report
//! the network happened to deliver.

use wolt_units::Mbps;

/// What the cache knows about one client.
#[derive(Debug, Clone, PartialEq)]
struct ClientEntry {
    /// Smoothed per-extender achievable rates (`None` = unreachable).
    rates: Vec<Option<Mbps>>,
    /// Epochs elapsed since the last accepted report.
    staleness: u64,
    /// Epoch of the last accepted report (duplicate suppression).
    last_epoch: u64,
}

/// Per-client last-known-good rate cache with exponential smoothing and
/// staleness ages.
#[derive(Debug, Clone)]
pub struct TelemetryCache {
    alpha: f64,
    entries: Vec<Option<ClientEntry>>,
    /// Bumped on every mutation that can change the *rates* a planner
    /// would read (accepted report, forget) — see
    /// [`version`](Self::version).
    version: u64,
}

impl PartialEq for TelemetryCache {
    /// Equality compares cache *content* (alpha and entries), not
    /// [`version`](Self::version): the version is a session-local
    /// invalidation stamp, deliberately not part of snapshots, so a
    /// restored cache must compare equal to its original.
    fn eq(&self, other: &Self) -> bool {
        self.alpha == other.alpha && self.entries == other.entries
    }
}

impl TelemetryCache {
    /// An empty cache for `clients` clients with smoothing factor
    /// `alpha` ∈ (0, 1]: each accepted report contributes `alpha` of the
    /// new sample and `1 - alpha` of the cached value. `alpha = 1.0`
    /// disables smoothing (the cache holds the latest report verbatim).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is not in `(0, 1]` — a zero or negative weight
    /// would ignore every report, which is never what a controller wants.
    pub fn new(clients: usize, alpha: f64) -> Self {
        assert!(
            alpha.is_finite() && 0.0 < alpha && alpha <= 1.0,
            "smoothing alpha must be in (0, 1], got {alpha}"
        );
        Self {
            alpha,
            entries: vec![None; clients],
            version: 0,
        }
    }

    /// A monotone stamp of the cache's *rate content*: any mutation that
    /// could change what a planner derives from the cache (an accepted
    /// report whose smoothed rates differ from the cached ones, a
    /// [`forget`](Self::forget)) bumps it, while content
    /// no-ops — rejected duplicates, re-reports of unchanged rates (the
    /// EWMA fixed point), [`advance_epoch`](Self::advance_epoch) aging,
    /// forgetting an unknown client — do not. A planner caching a view
    /// built from these rates can compare versions instead of rates.
    ///
    /// The version is session-local: it is not snapshotted, and a cache
    /// rebuilt via [`from_entries`](Self::from_entries) restarts at a
    /// fresh count (equality ignores it).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of client slots.
    pub fn clients(&self) -> usize {
        self.entries.len()
    }

    /// Accepts a report from `client` produced at `epoch`, unless that
    /// epoch was already applied (a retransmission or network duplicate),
    /// and returns whether the report was applied.
    ///
    /// A first report (or a report from a client previously
    /// [forgotten](Self::forget)) is stored verbatim; later reports are
    /// blended per-extender with weight `alpha`. A reachability change
    /// (`Some` ↔ `None`) takes the new sample outright: averaging a rate
    /// with "out of range" is meaningless.
    ///
    /// # Panics
    ///
    /// Panics if `client` is out of range.
    pub fn record(&mut self, client: usize, epoch: u64, rates: &[Option<Mbps>]) -> bool {
        match &mut self.entries[client] {
            Some(entry) => {
                if entry.last_epoch == epoch {
                    wolt_support::obs::counter_inc("cc.telemetry_dups");
                    return false;
                }
                wolt_support::obs::counter_inc("cc.telemetry_hits");
                let mut changed = false;
                for (cached, &new) in entry.rates.iter_mut().zip(rates) {
                    let next = match (*cached, new) {
                        (Some(old), Some(new)) => Some(Mbps::new(
                            self.alpha * new.value() + (1.0 - self.alpha) * old.value(),
                        )),
                        _ => new,
                    };
                    changed |= next != *cached;
                    *cached = next;
                }
                entry.staleness = 0;
                entry.last_epoch = epoch;
                // A re-report of unchanged rates (the EWMA fixed point)
                // leaves the planning content intact: keep the version,
                // so a cached planning view stays reusable across epochs.
                if changed {
                    self.version += 1;
                }
                true
            }
            slot @ None => {
                *slot = Some(ClientEntry {
                    rates: rates.to_vec(),
                    staleness: 0,
                    last_epoch: epoch,
                });
                self.version += 1;
                true
            }
        }
    }

    /// Ages every known client by one epoch.
    pub fn advance_epoch(&mut self) {
        for entry in self.entries.iter_mut().flatten() {
            entry.staleness += 1;
        }
    }

    /// Drops everything known about `client` (departure, or a client the
    /// controller has declared dead).
    ///
    /// # Panics
    ///
    /// Panics if `client` is out of range.
    pub fn forget(&mut self, client: usize) {
        if self.entries[client].take().is_some() {
            self.version += 1;
        }
    }

    /// Whether the cache holds rates for `client`.
    pub fn is_known(&self, client: usize) -> bool {
        self.entries.get(client).is_some_and(Option::is_some)
    }

    /// The smoothed last-known-good rates of `client`, if any.
    pub fn rates(&self, client: usize) -> Option<&[Option<Mbps>]> {
        self.entries[client].as_ref().map(|e| e.rates.as_slice())
    }

    /// Epochs since `client` last reported, if it is known.
    pub fn staleness(&self, client: usize) -> Option<u64> {
        self.entries[client].as_ref().map(|e| e.staleness)
    }

    /// Indices of all known clients, ascending.
    pub fn known_clients(&self) -> Vec<usize> {
        (0..self.entries.len())
            .filter(|&i| self.entries[i].is_some())
            .collect()
    }

    /// The smoothing factor this cache was built with.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// A copy of every client slot, for snapshotting a controller to
    /// disk. Pair with [`from_entries`](Self::from_entries) to restore.
    pub fn entries(&self) -> Vec<Option<TelemetryEntry>> {
        self.entries
            .iter()
            .map(|slot| {
                slot.as_ref().map(|e| TelemetryEntry {
                    rates: e.rates.clone(),
                    staleness: e.staleness,
                    last_epoch: e.last_epoch,
                })
            })
            .collect()
    }

    /// Rebuilds a cache from a snapshot taken with
    /// [`entries`](Self::entries).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is not in `(0, 1]`, as [`new`](Self::new) does.
    pub fn from_entries(alpha: f64, entries: Vec<Option<TelemetryEntry>>) -> Self {
        let mut cache = Self::new(entries.len(), alpha);
        cache.entries = entries
            .into_iter()
            .map(|slot| {
                slot.map(|e| ClientEntry {
                    rates: e.rates,
                    staleness: e.staleness,
                    last_epoch: e.last_epoch,
                })
            })
            .collect();
        cache
    }
}

/// One client's cache slot as exposed for snapshot/restore.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryEntry {
    /// Smoothed per-extender achievable rates (`None` = unreachable).
    pub rates: Vec<Option<Mbps>>,
    /// Epochs elapsed since the last accepted report.
    pub staleness: u64,
    /// Epoch of the last accepted report.
    pub last_epoch: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mb(v: f64) -> Option<Mbps> {
        Some(Mbps::new(v))
    }

    #[test]
    fn first_report_stored_verbatim() {
        let mut cache = TelemetryCache::new(3, 0.5);
        assert!(cache.record(1, 0, &[mb(10.0), None]));
        assert_eq!(cache.rates(1).unwrap(), &[mb(10.0), None]);
        assert_eq!(cache.staleness(1), Some(0));
        assert!(!cache.is_known(0));
        assert_eq!(cache.known_clients(), vec![1]);
    }

    #[test]
    fn smoothing_blends_toward_new_samples() {
        let mut cache = TelemetryCache::new(1, 0.5);
        cache.record(0, 0, &[mb(10.0)]);
        cache.record(0, 1, &[mb(20.0)]);
        let got = cache.rates(0).unwrap()[0].unwrap().value();
        assert!(
            (got - 15.0).abs() < 1e-12,
            "EWMA(10, 20; 0.5) = 15, got {got}"
        );
        // Repeated identical samples are a fixed point.
        cache.record(0, 2, &[mb(15.0)]);
        assert!((cache.rates(0).unwrap()[0].unwrap().value() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn alpha_one_keeps_latest_report() {
        let mut cache = TelemetryCache::new(1, 1.0);
        cache.record(0, 0, &[mb(10.0)]);
        cache.record(0, 1, &[mb(40.0)]);
        assert_eq!(cache.rates(0).unwrap(), &[mb(40.0)]);
    }

    #[test]
    fn duplicate_epoch_is_ignored() {
        let mut cache = TelemetryCache::new(1, 0.5);
        assert!(cache.record(0, 7, &[mb(10.0)]));
        // A duplicated delivery of the same report must not re-smooth.
        assert!(!cache.record(0, 7, &[mb(10.0)]));
        cache.record(0, 8, &[mb(20.0)]);
        assert!(!cache.record(0, 8, &[mb(20.0)]));
        let got = cache.rates(0).unwrap()[0].unwrap().value();
        assert!(
            (got - 15.0).abs() < 1e-12,
            "duplicate shifted EWMA to {got}"
        );
    }

    #[test]
    fn reachability_change_takes_new_sample() {
        let mut cache = TelemetryCache::new(1, 0.25);
        cache.record(0, 0, &[mb(10.0), None]);
        cache.record(0, 1, &[None, mb(30.0)]);
        assert_eq!(cache.rates(0).unwrap(), &[None, mb(30.0)]);
    }

    #[test]
    fn staleness_ages_and_resets() {
        let mut cache = TelemetryCache::new(2, 1.0);
        cache.record(0, 0, &[mb(5.0)]);
        cache.advance_epoch();
        cache.advance_epoch();
        assert_eq!(cache.staleness(0), Some(2));
        assert_eq!(cache.staleness(1), None);
        cache.record(0, 2, &[mb(5.0)]);
        assert_eq!(cache.staleness(0), Some(0));
    }

    #[test]
    fn forget_then_rejoin_starts_fresh() {
        let mut cache = TelemetryCache::new(1, 0.5);
        cache.record(0, 0, &[mb(10.0)]);
        cache.forget(0);
        assert!(!cache.is_known(0));
        assert_eq!(cache.rates(0), None);
        // Rejoin: stored verbatim, not blended with the forgotten value.
        assert!(cache.record(0, 5, &[mb(40.0)]));
        assert_eq!(cache.rates(0).unwrap(), &[mb(40.0)]);
    }

    #[test]
    #[should_panic(expected = "smoothing alpha")]
    fn zero_alpha_rejected() {
        let _ = TelemetryCache::new(1, 0.0);
    }

    #[test]
    fn version_tracks_rate_content_only() {
        let mut cache = TelemetryCache::new(2, 0.5);
        let v0 = cache.version();
        // No-ops leave the version alone…
        cache.advance_epoch();
        cache.forget(0);
        assert_eq!(cache.version(), v0);
        // …accepted reports bump it…
        assert!(cache.record(0, 0, &[mb(10.0)]));
        let v1 = cache.version();
        assert!(v1 > v0);
        // …a rejected duplicate does not…
        assert!(!cache.record(0, 0, &[mb(10.0)]));
        assert_eq!(cache.version(), v1);
        // …nor does an accepted re-report of unchanged rates (EWMA of
        // identical samples is a fixed point at alpha = 0.5)…
        assert!(cache.record(0, 1, &[mb(10.0)]));
        assert_eq!(cache.version(), v1);
        // …while genuinely new rates do.
        assert!(cache.record(0, 2, &[mb(30.0)]));
        assert!(cache.version() > v1);
        // …and forgetting a known client does.
        let v2 = cache.version();
        cache.forget(0);
        assert!(cache.version() > v2);
    }

    #[test]
    fn snapshot_round_trips_through_entries() {
        let mut cache = TelemetryCache::new(3, 0.5);
        cache.record(0, 4, &[mb(10.0), None]);
        cache.record(2, 5, &[None, mb(30.0)]);
        cache.advance_epoch();
        let restored = TelemetryCache::from_entries(cache.alpha(), cache.entries());
        assert_eq!(restored, cache);
        // The restored cache keeps behaving identically: duplicate
        // suppression and smoothing state survive the round trip.
        assert!(!restored.clone().record(2, 5, &[None, mb(30.0)]));
        let mut a = cache;
        let mut b = restored;
        a.record(0, 6, &[mb(20.0), None]);
        b.record(0, 6, &[mb(20.0), None]);
        assert_eq!(a, b);
    }
}
