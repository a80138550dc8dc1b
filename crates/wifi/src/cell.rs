//! Throughput-fair WiFi cell model (Eq. 1 of the WOLT paper).
//!
//! Saturated 802.11 stations sharing one access point all achieve the same
//! long-term throughput — the "performance anomaly" of Heusse et al. — so a
//! cell serving users with achievable rates `r_1 … r_n` delivers
//!
//! ```text
//! per-user  t   = 1 / Σ_i (1/r_i)
//! aggregate T   = n / Σ_i (1/r_i)          (harmonic-mean law, Eq. 1)
//! ```
//!
//! [`aggregate_throughput`]/[`per_user_throughput`] compute this directly;
//! [`CellLoad`] maintains the harmonic weight `Σ 1/r_i` incrementally so the
//! greedy baseline and Phase-II local search can evaluate "what if user *i*
//! joined/left extender *j*" in O(1).

use wolt_units::Mbps;

use crate::WifiError;

/// Aggregate cell throughput `n / Σ(1/r_i)` (Eq. 1).
///
/// # Errors
///
/// Returns [`WifiError::EmptyCell`] for an empty rate list and
/// [`WifiError::UnusableRate`] if any rate is zero, negative, or
/// non-finite.
///
/// # Example
///
/// ```
/// use wolt_units::Mbps;
/// use wolt_wifi::cell::aggregate_throughput;
///
/// # fn main() -> Result<(), wolt_wifi::WifiError> {
/// // The RSSI-based association of the paper's Fig. 3b: users at 15 and
/// // 40 Mbit/s on one extender share ≈ 22 Mbit/s total (11 each).
/// let t = aggregate_throughput(&[Mbps::new(15.0), Mbps::new(40.0)])?;
/// assert!((t.value() - 21.82).abs() < 0.01);
/// # Ok(())
/// # }
/// ```
pub fn aggregate_throughput(rates: &[Mbps]) -> Result<Mbps, WifiError> {
    Ok(per_user_throughput(rates)? * rates.len() as f64)
}

/// Per-user throughput `1 / Σ(1/r_i)` — equal for every user in the cell.
///
/// # Errors
///
/// Same as [`aggregate_throughput`].
pub fn per_user_throughput(rates: &[Mbps]) -> Result<Mbps, WifiError> {
    if rates.is_empty() {
        return Err(WifiError::EmptyCell);
    }
    let mut weight = 0.0;
    for r in rates {
        if !r.is_usable() {
            return Err(WifiError::UnusableRate {
                rate_mbps: r.value(),
            });
        }
        weight += 1.0 / r.value();
    }
    Ok(Mbps::new(1.0 / weight))
}

/// Incrementally-maintained cell state: user count and harmonic weight.
///
/// Supports O(1) join/leave and O(1) "what-if" queries, which the greedy
/// baseline performs once per (arriving user × extender).
///
/// # Example
///
/// ```
/// use wolt_units::Mbps;
/// use wolt_wifi::cell::CellLoad;
///
/// let mut cell = CellLoad::new();
/// cell.join(Mbps::new(15.0));
/// let with_both = cell.aggregate_if_joined(Mbps::new(40.0));
/// assert!((with_both.value() - 21.82).abs() < 0.01);
/// cell.join(Mbps::new(40.0));
/// assert_eq!(cell.aggregate(), with_both);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CellLoad {
    users: usize,
    harmonic_weight: f64,
}

impl CellLoad {
    /// An empty cell.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cell pre-loaded with the given user rates.
    ///
    /// # Panics
    ///
    /// Panics if any rate is unusable; use [`CellLoad::join`] with validated
    /// rates for fallible construction.
    pub fn with_rates(rates: &[Mbps]) -> Self {
        let mut cell = Self::new();
        for &r in rates {
            cell.join(r);
        }
        cell
    }

    /// Number of users in the cell.
    pub fn users(&self) -> usize {
        self.users
    }

    /// True when the cell has no users.
    pub fn is_empty(&self) -> bool {
        self.users == 0
    }

    /// The harmonic weight `Σ 1/r_i`.
    pub fn harmonic_weight(&self) -> f64 {
        self.harmonic_weight
    }

    /// Adds a user with achievable rate `rate`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not usable (zero, negative, or non-finite).
    pub fn join(&mut self, rate: Mbps) {
        assert!(rate.is_usable(), "cannot join with rate {rate}");
        self.join_inverse(1.0 / rate.value());
    }

    /// Adds a user whose inverse rate `1/r` is `inverse`, as
    /// [`CellLoad::join`] does for `r`: a caller that scores one link many
    /// times divides once. `inverse` must be `1/r` of a usable rate.
    pub fn join_inverse(&mut self, inverse: f64) {
        self.users += 1;
        self.harmonic_weight += inverse;
    }

    /// Removes a user with achievable rate `rate`.
    ///
    /// # Panics
    ///
    /// Panics if the cell is empty or `rate` is not usable. Removing a rate
    /// that was never added silently corrupts the weight — callers own that
    /// bookkeeping (the simulator tracks per-user rates).
    pub fn leave(&mut self, rate: Mbps) {
        assert!(self.users > 0, "cannot leave an empty cell");
        assert!(rate.is_usable(), "cannot leave with rate {rate}");
        self.leave_inverse(1.0 / rate.value());
    }

    /// Removes a user whose inverse rate `1/r` is `inverse`, as
    /// [`CellLoad::leave`] does for `r`.
    ///
    /// # Panics
    ///
    /// Panics if the cell is empty.
    pub fn leave_inverse(&mut self, inverse: f64) {
        assert!(self.users > 0, "cannot leave an empty cell");
        self.users -= 1;
        self.harmonic_weight -= inverse;
        if self.users == 0 {
            // Clear float dust so an emptied cell compares equal to new().
            self.harmonic_weight = 0.0;
        }
    }

    /// Aggregate throughput of the current cell (0 when empty).
    pub fn aggregate(&self) -> Mbps {
        if self.users == 0 {
            Mbps::ZERO
        } else {
            Mbps::new(self.users as f64 / self.harmonic_weight)
        }
    }

    /// Per-user throughput of the current cell (0 when empty).
    pub fn per_user(&self) -> Mbps {
        if self.users == 0 {
            Mbps::ZERO
        } else {
            Mbps::new(1.0 / self.harmonic_weight)
        }
    }

    /// Aggregate throughput if a user with rate `rate` joined (query only —
    /// the cell is not modified).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not usable.
    pub fn aggregate_if_joined(&self, rate: Mbps) -> Mbps {
        assert!(rate.is_usable(), "cannot evaluate join with rate {rate}");
        self.aggregate_if_joined_inverse(1.0 / rate.value())
    }

    /// Aggregate throughput if a user of inverse rate `inverse` (`1/r`)
    /// joined, as [`CellLoad::aggregate_if_joined`] gives it for `r`.
    pub fn aggregate_if_joined_inverse(&self, inverse: f64) -> Mbps {
        let users = self.users + 1;
        Mbps::new(users as f64 / (self.harmonic_weight + inverse))
    }

    /// Aggregate throughput if a user with rate `rate` left (query only).
    ///
    /// # Panics
    ///
    /// Panics if the cell is empty or `rate` is not usable.
    pub fn aggregate_if_left(&self, rate: Mbps) -> Mbps {
        assert!(self.users > 0, "cannot evaluate leave on an empty cell");
        assert!(rate.is_usable(), "cannot evaluate leave with rate {rate}");
        self.aggregate_if_left_inverse(1.0 / rate.value())
    }

    /// Aggregate throughput if a member of inverse rate `inverse` (`1/r`)
    /// left, as [`CellLoad::aggregate_if_left`] gives it for `r`.
    ///
    /// # Panics
    ///
    /// Panics if the cell is empty.
    pub fn aggregate_if_left_inverse(&self, inverse: f64) -> Mbps {
        assert!(self.users > 0, "cannot evaluate leave on an empty cell");
        let users = self.users - 1;
        if users == 0 {
            Mbps::ZERO
        } else {
            Mbps::new(users as f64 / (self.harmonic_weight - inverse))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mbps(v: f64) -> Mbps {
        Mbps::new(v)
    }

    #[test]
    fn single_user_gets_full_rate() {
        let t = aggregate_throughput(&[mbps(30.0)]).unwrap();
        assert!((t.value() - 30.0).abs() < 1e-12);
    }

    #[test]
    fn equal_rates_split_evenly() {
        let t = per_user_throughput(&[mbps(30.0), mbps(30.0)]).unwrap();
        assert!((t.value() - 15.0).abs() < 1e-12);
        let agg = aggregate_throughput(&[mbps(30.0), mbps(30.0)]).unwrap();
        assert!((agg.value() - 30.0).abs() < 1e-12);
    }

    #[test]
    fn performance_anomaly_slow_user_drags_cell() {
        // One 54 Mbit/s user alone: 54. Adding a 1 Mbit/s user crushes the
        // aggregate to below 2 Mbit/s — the anomaly the paper re-measures in
        // Fig. 2a.
        let alone = aggregate_throughput(&[mbps(54.0)]).unwrap();
        let mixed = aggregate_throughput(&[mbps(54.0), mbps(1.0)]).unwrap();
        assert!(alone.value() > 50.0);
        assert!(mixed.value() < 2.0, "aggregate {mixed}");
    }

    #[test]
    fn fig3b_rssi_cell() {
        // Fig. 3b: users with 15 and 40 Mbit/s on extender 1 get ~11 each.
        let per = per_user_throughput(&[mbps(15.0), mbps(40.0)]).unwrap();
        assert!((per.value() - 10.909).abs() < 0.001);
    }

    #[test]
    fn aggregate_bounded_by_slowest_and_fastest() {
        let rates = [mbps(6.0), mbps(20.0), mbps(50.0)];
        let agg = aggregate_throughput(&rates).unwrap();
        // Aggregate is n times the harmonic mean / n = harmonic mean of the
        // rates, which lies between min and max.
        assert!(agg.value() >= 6.0 && agg.value() <= 50.0);
    }

    #[test]
    fn empty_cell_rejected() {
        assert_eq!(aggregate_throughput(&[]).unwrap_err(), WifiError::EmptyCell);
        assert_eq!(per_user_throughput(&[]).unwrap_err(), WifiError::EmptyCell);
    }

    #[test]
    fn unusable_rate_rejected() {
        let err = aggregate_throughput(&[mbps(10.0), Mbps::ZERO]).unwrap_err();
        assert_eq!(err, WifiError::UnusableRate { rate_mbps: 0.0 });
    }

    #[test]
    fn cell_load_matches_direct_computation() {
        let rates = [mbps(15.0), mbps(40.0), mbps(7.5)];
        let mut cell = CellLoad::new();
        for &r in &rates {
            cell.join(r);
        }
        let direct = aggregate_throughput(&rates).unwrap();
        assert!((cell.aggregate().value() - direct.value()).abs() < 1e-12);
        assert_eq!(cell.users(), 3);
    }

    #[test]
    fn cell_load_join_leave_round_trip() {
        let mut cell = CellLoad::with_rates(&[mbps(20.0), mbps(30.0)]);
        let before = cell.aggregate();
        cell.join(mbps(10.0));
        cell.leave(mbps(10.0));
        assert!((cell.aggregate().value() - before.value()).abs() < 1e-9);
    }

    #[test]
    fn cell_load_what_if_queries_do_not_mutate() {
        let cell = CellLoad::with_rates(&[mbps(20.0)]);
        let hypothetical = cell.aggregate_if_joined(mbps(20.0));
        assert!((hypothetical.value() - 20.0).abs() < 1e-12);
        assert_eq!(cell.users(), 1);
        assert!((cell.aggregate().value() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn cell_load_if_left_matches_actual_leave() {
        let mut cell = CellLoad::with_rates(&[mbps(20.0), mbps(5.0)]);
        let predicted = cell.aggregate_if_left(mbps(5.0));
        cell.leave(mbps(5.0));
        assert!((cell.aggregate().value() - predicted.value()).abs() < 1e-12);
    }

    #[test]
    fn inverse_rate_methods_match_rate_methods_bit_for_bit() {
        // Phase II's polish caches `1/r` and scores through the inverse
        // forms; its decisions are the rate forms' only if every result
        // keeps its bits.
        let rates = [mbps(54.0), mbps(11.0), mbps(5.5), mbps(1.0), mbps(36.6)];
        let mut by_rate = CellLoad::with_rates(&rates[..2]);
        let mut by_inverse = by_rate;
        for &r in &rates[2..] {
            let inverse = 1.0 / r.value();
            assert_eq!(
                by_rate.aggregate_if_joined(r).value().to_bits(),
                by_inverse
                    .aggregate_if_joined_inverse(inverse)
                    .value()
                    .to_bits()
            );
            by_rate.join(r);
            by_inverse.join_inverse(inverse);
            assert_eq!(
                by_rate.aggregate_if_left(r).value().to_bits(),
                by_inverse
                    .aggregate_if_left_inverse(inverse)
                    .value()
                    .to_bits()
            );
        }
        by_rate.leave(rates[3]);
        by_inverse.leave_inverse(1.0 / rates[3].value());
        assert_eq!(by_rate, by_inverse);
    }

    #[test]
    fn emptied_cell_equals_fresh_cell() {
        let mut cell = CellLoad::new();
        cell.join(mbps(33.0));
        cell.leave(mbps(33.0));
        assert_eq!(cell, CellLoad::new());
        assert_eq!(cell.aggregate(), Mbps::ZERO);
        assert_eq!(cell.per_user(), Mbps::ZERO);
    }

    #[test]
    #[should_panic(expected = "empty cell")]
    fn leave_on_empty_panics() {
        CellLoad::new().leave(mbps(5.0));
    }

    #[test]
    #[should_panic(expected = "cannot join")]
    fn join_with_zero_rate_panics() {
        CellLoad::new().join(Mbps::ZERO);
    }

    #[test]
    fn adding_fast_user_helps_adding_slow_user_hurts() {
        // Lemma 1 of the paper in miniature: joining with a rate above the
        // cell's harmonic mean raises the aggregate; below lowers it.
        let cell = CellLoad::with_rates(&[mbps(20.0), mbps(20.0)]);
        let base = cell.aggregate();
        assert!(cell.aggregate_if_joined(mbps(40.0)) > base);
        assert!(cell.aggregate_if_joined(mbps(5.0)) < base);
        // Joining with exactly the harmonic mean keeps it unchanged.
        let same = cell.aggregate_if_joined(mbps(20.0));
        assert!((same.value() - base.value()).abs() < 1e-12);
    }
}
