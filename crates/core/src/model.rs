//! Network model: users, extenders, rates, and associations.
//!
//! Mirrors the paper's Table I notation:
//!
//! | Paper | Here |
//! |---|---|
//! | `A` — set of extenders | `Network::extenders()` (indices `0..A`) |
//! | `U` — set of users | `Network::users()` (indices `0..U`) |
//! | `c_j` — PLC rate of extender j | `Network::capacity(j)` |
//! | `r_ij` — WiFi rate of user i at extender j | `Network::rate(i, j)` |
//! | `B_j` — user limit of extender j | `Network::user_limit(j)` |
//! | `x_ij` — association indicator | [`Association`] |
//! | `N_j` — users on extender j | `Association::users_of(j)` |

use wolt_opt::Matrix;
use wolt_support::json::{FromJson, Json, JsonError, ToJson};
use wolt_units::Mbps;

use crate::CoreError;

/// A PLC-WiFi network instance: extender PLC capacities and the user ×
/// extender achievable-WiFi-rate matrix.
///
/// Rates that are zero, negative, or non-finite mean "user cannot reach
/// this extender". Construction validates that every extender has a usable
/// capacity and every user can reach at least one extender.
///
/// # Example
///
/// The paper's Fig. 3a case-study network:
///
/// ```
/// use wolt_core::Network;
/// use wolt_units::Mbps;
///
/// # fn main() -> Result<(), wolt_core::CoreError> {
/// let net = Network::from_raw(
///     vec![60.0, 20.0],                       // c_j
///     vec![vec![15.0, 10.0], vec![40.0, 20.0]], // r_ij
/// )?;
/// assert_eq!(net.extenders(), 2);
/// assert_eq!(net.users(), 2);
/// assert_eq!(net.rate(1, 0), Some(Mbps::new(40.0)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    capacities: Vec<Mbps>,
    rates: Matrix,
    user_limits: Vec<Option<usize>>,
}

impl Network {
    /// Builds a network from capacities `c_j` and the rate matrix `r_ij`
    /// (rows = users, columns = extenders).
    ///
    /// # Errors
    ///
    /// * [`CoreError::DimensionMismatch`] if the matrix width differs from
    ///   the capacity count.
    /// * [`CoreError::UnusableCapacity`] if any `c_j` is unusable.
    /// * [`CoreError::UnreachableUser`] if some user has no usable rate.
    pub fn new(capacities: Vec<Mbps>, rates: Matrix) -> Result<Self, CoreError> {
        if rates.cols() != capacities.len() {
            return Err(CoreError::DimensionMismatch {
                context: "rate matrix width != number of extenders",
            });
        }
        for (j, c) in capacities.iter().enumerate() {
            if !c.is_usable() {
                return Err(CoreError::UnusableCapacity { extender: j });
            }
        }
        for i in 0..rates.rows() {
            let reachable = (0..rates.cols()).any(|j| usable(rates[(i, j)]));
            if !reachable {
                return Err(CoreError::UnreachableUser { user: i });
            }
        }
        let user_limits = vec![None; capacities.len()];
        Ok(Self {
            capacities,
            rates,
            user_limits,
        })
    }

    /// Convenience constructor from raw `f64` values in Mbit/s.
    ///
    /// # Errors
    ///
    /// Same as [`Network::new`], plus matrix-construction errors for ragged
    /// or empty rows.
    pub fn from_raw(capacities: Vec<f64>, rates: Vec<Vec<f64>>) -> Result<Self, CoreError> {
        let matrix = Matrix::from_rows(&rates)?;
        Self::new(capacities.into_iter().map(Mbps::new).collect(), matrix)
    }

    /// Sets per-extender user limits `B_j` (constraint (8) of Problem 1).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] if the length differs from
    /// the extender count.
    pub fn with_user_limits(mut self, limits: Vec<Option<usize>>) -> Result<Self, CoreError> {
        if limits.len() != self.capacities.len() {
            return Err(CoreError::DimensionMismatch {
                context: "user limit vector length != number of extenders",
            });
        }
        self.user_limits = limits;
        Ok(self)
    }

    /// Number of extenders `|A|`.
    pub fn extenders(&self) -> usize {
        self.capacities.len()
    }

    /// Number of users `|U|`.
    pub fn users(&self) -> usize {
        self.rates.rows()
    }

    /// PLC isolation capacity `c_j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn capacity(&self, j: usize) -> Mbps {
        self.capacities[j]
    }

    /// All PLC capacities.
    pub fn capacities(&self) -> &[Mbps] {
        &self.capacities
    }

    /// Achievable WiFi rate `r_ij`, or `None` if user `i` cannot reach
    /// extender `j`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    pub fn rate(&self, i: usize, j: usize) -> Option<Mbps> {
        let r = self.rates[(i, j)];
        usable(r).then(|| Mbps::new(r))
    }

    /// The raw rate matrix (unreachable pairs hold non-positive values).
    pub fn rates(&self) -> &Matrix {
        &self.rates
    }

    /// User limit `B_j` (`None` = unlimited).
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn user_limit(&self, j: usize) -> Option<usize> {
        self.user_limits[j]
    }

    /// True if user `i` can associate with extender `j`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    pub fn reachable(&self, i: usize, j: usize) -> bool {
        usable(self.rates[(i, j)])
    }

    /// Extenders reachable by user `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn reachable_extenders(&self, i: usize) -> Vec<usize> {
        self.links(i).map(|(j, _)| j).collect()
    }

    /// User `i`'s links: each extender it can reach, ascending, with the
    /// rate `r_ij`, in one pass over the user's rate row.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn links(&self, i: usize) -> impl Iterator<Item = (usize, Mbps)> + '_ {
        self.rates
            .row(i)
            .iter()
            .enumerate()
            .filter(|&(_, &r)| usable(r))
            .map(|(j, &r)| (j, Mbps::new(r)))
    }

    /// Validates an association against this network: known extenders,
    /// feasible links, and user limits. Completeness is *not* required
    /// here (Phase I legitimately leaves users out); use
    /// [`Association::require_complete`] for constraint (7).
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a [`CoreError`].
    pub fn validate_association(&self, assoc: &Association) -> Result<(), CoreError> {
        if assoc.len() != self.users() {
            return Err(CoreError::DimensionMismatch {
                context: "association length != number of users",
            });
        }
        let mut counts = vec![0usize; self.extenders()];
        for (i, target) in assoc.iter().enumerate() {
            if let Some(j) = target {
                if j >= self.extenders() {
                    return Err(CoreError::UnknownExtender { extender: j });
                }
                if !self.reachable(i, j) {
                    return Err(CoreError::InfeasibleAssociation {
                        user: i,
                        extender: j,
                    });
                }
                counts[j] += 1;
            }
        }
        for (j, &count) in counts.iter().enumerate() {
            if let Some(limit) = self.user_limits[j] {
                if count > limit {
                    return Err(CoreError::CapacityExceeded { extender: j, limit });
                }
            }
        }
        Ok(())
    }
}

fn usable(rate: f64) -> bool {
    rate.is_finite() && rate > 0.0
}

impl ToJson for Network {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("capacities", self.capacities.to_json()),
            ("rates", self.rates.to_json()),
            ("user_limits", self.user_limits.to_json()),
        ])
    }
}

impl FromJson for Network {
    /// Deserializes and re-validates: malformed shapes (mismatched
    /// dimensions, unusable capacities, unreachable users) are rejected
    /// with the same checks as [`Network::new`].
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let capacities = Vec::<Mbps>::from_json(value.field("capacities")?)?;
        let rates = Matrix::from_json(value.field("rates")?)?;
        let user_limits = Vec::<Option<usize>>::from_json(value.field("user_limits")?)?;
        Network::new(capacities, rates)
            .and_then(|net| net.with_user_limits(user_limits))
            .map_err(|e| JsonError::shape(format!("invalid network: {e}")))
    }
}

/// An association of users to extenders: `assoc[i] = Some(j)` connects user
/// `i` to extender `j`; `None` leaves the user unassigned.
///
/// This is the paper's `x_ij` in one-hot form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Association {
    targets: Vec<Option<usize>>,
}

impl Association {
    /// An association with all `users` unassigned.
    pub fn unassigned(users: usize) -> Self {
        Self {
            targets: vec![None; users],
        }
    }

    /// Builds from explicit per-user targets.
    pub fn from_targets(targets: Vec<Option<usize>>) -> Self {
        Self { targets }
    }

    /// Builds a complete association from per-user extender indices.
    pub fn complete(targets: Vec<usize>) -> Self {
        Self {
            targets: targets.into_iter().map(Some).collect(),
        }
    }

    /// Number of users covered (assigned or not).
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// True when the association covers zero users.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// The extender of user `i`, if assigned.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn target(&self, i: usize) -> Option<usize> {
        self.targets[i]
    }

    /// Assigns user `i` to extender `j`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn assign(&mut self, i: usize, j: usize) {
        self.targets[i] = Some(j);
    }

    /// Unassigns user `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn unassign(&mut self, i: usize) {
        self.targets[i] = None;
    }

    /// Iterator over per-user targets.
    pub fn iter(&self) -> impl Iterator<Item = Option<usize>> + '_ {
        self.targets.iter().copied()
    }

    /// Indices of users assigned to extender `j` (the paper's `N_j`).
    pub fn users_of(&self, j: usize) -> Vec<usize> {
        (0..self.targets.len())
            .filter(|&i| self.targets[i] == Some(j))
            .collect()
    }

    /// Number of users assigned anywhere.
    pub fn assigned_count(&self) -> usize {
        self.targets.iter().filter(|t| t.is_some()).count()
    }

    /// Indices of unassigned users.
    pub fn unassigned_users(&self) -> Vec<usize> {
        (0..self.targets.len())
            .filter(|&i| self.targets[i].is_none())
            .collect()
    }

    /// True when every user is assigned (constraint (7) of Problem 1).
    pub fn is_complete(&self) -> bool {
        self.targets.iter().all(|t| t.is_some())
    }

    /// Errors unless every user is assigned.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::IncompleteAssociation`] naming the first
    /// unassigned user.
    pub fn require_complete(&self) -> Result<(), CoreError> {
        match self.targets.iter().position(|t| t.is_none()) {
            Some(user) => Err(CoreError::IncompleteAssociation { user }),
            None => Ok(()),
        }
    }

    /// Number of users whose target differs from `other` (used for the
    /// paper's Fig. 6c re-assignment counting). Users present in only one
    /// of the two associations are ignored; pass associations over the same
    /// user population for meaningful results.
    pub fn reassignments_from(&self, other: &Association) -> usize {
        self.targets
            .iter()
            .zip(&other.targets)
            .filter(|(a, b)| a.is_some() && b.is_some() && a != b)
            .count()
    }
}

impl FromIterator<Option<usize>> for Association {
    fn from_iter<I: IntoIterator<Item = Option<usize>>>(iter: I) -> Self {
        Self {
            targets: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig3_network() -> Network {
        Network::from_raw(vec![60.0, 20.0], vec![vec![15.0, 10.0], vec![40.0, 20.0]]).unwrap()
    }

    #[test]
    fn construction_and_lookups() {
        let net = fig3_network();
        assert_eq!(net.extenders(), 2);
        assert_eq!(net.users(), 2);
        assert_eq!(net.capacity(0), Mbps::new(60.0));
        assert_eq!(net.rate(0, 1), Some(Mbps::new(10.0)));
        assert!(net.reachable(1, 1));
    }

    #[test]
    fn zero_rate_means_unreachable() {
        let net =
            Network::from_raw(vec![60.0, 20.0], vec![vec![15.0, 0.0], vec![40.0, 20.0]]).unwrap();
        assert_eq!(net.rate(0, 1), None);
        assert!(!net.reachable(0, 1));
        assert_eq!(net.reachable_extenders(0), vec![0]);
        assert_eq!(net.reachable_extenders(1), vec![0, 1]);
    }

    #[test]
    fn rejects_dimension_mismatch() {
        let err = Network::from_raw(vec![60.0], vec![vec![15.0, 10.0]]).unwrap_err();
        assert!(matches!(err, CoreError::DimensionMismatch { .. }));
    }

    #[test]
    fn rejects_unusable_capacity() {
        let err = Network::from_raw(vec![60.0, 0.0], vec![vec![15.0, 10.0]]).unwrap_err();
        assert_eq!(err, CoreError::UnusableCapacity { extender: 1 });
    }

    #[test]
    fn rejects_unreachable_user() {
        let err = Network::from_raw(vec![60.0, 20.0], vec![vec![15.0, 10.0], vec![0.0, -3.0]])
            .unwrap_err();
        assert_eq!(err, CoreError::UnreachableUser { user: 1 });
    }

    #[test]
    fn user_limits_roundtrip() {
        let net = fig3_network()
            .with_user_limits(vec![Some(1), None])
            .unwrap();
        assert_eq!(net.user_limit(0), Some(1));
        assert_eq!(net.user_limit(1), None);
        let err = fig3_network().with_user_limits(vec![None]).unwrap_err();
        assert!(matches!(err, CoreError::DimensionMismatch { .. }));
    }

    #[test]
    fn association_basics() {
        let mut a = Association::unassigned(3);
        assert!(!a.is_complete());
        assert_eq!(a.assigned_count(), 0);
        a.assign(0, 1);
        a.assign(2, 1);
        assert_eq!(a.users_of(1), vec![0, 2]);
        assert_eq!(a.unassigned_users(), vec![1]);
        a.unassign(0);
        assert_eq!(a.users_of(1), vec![2]);
    }

    #[test]
    fn require_complete_names_first_gap() {
        let a = Association::from_targets(vec![Some(0), None, Some(1)]);
        assert_eq!(
            a.require_complete().unwrap_err(),
            CoreError::IncompleteAssociation { user: 1 }
        );
        let b = Association::complete(vec![0, 1]);
        assert!(b.require_complete().is_ok());
    }

    #[test]
    fn validate_association_checks_everything() {
        let net = fig3_network();
        // Wrong length.
        let too_short = Association::unassigned(1);
        assert!(matches!(
            net.validate_association(&too_short),
            Err(CoreError::DimensionMismatch { .. })
        ));
        // Unknown extender.
        let unknown = Association::from_targets(vec![Some(5), None]);
        assert!(matches!(
            net.validate_association(&unknown),
            Err(CoreError::UnknownExtender { extender: 5 })
        ));
        // Infeasible link.
        let net2 =
            Network::from_raw(vec![60.0, 20.0], vec![vec![15.0, 0.0], vec![40.0, 20.0]]).unwrap();
        let infeasible = Association::from_targets(vec![Some(1), None]);
        assert!(matches!(
            net2.validate_association(&infeasible),
            Err(CoreError::InfeasibleAssociation {
                user: 0,
                extender: 1
            })
        ));
        // Capacity limit.
        let limited = fig3_network()
            .with_user_limits(vec![Some(1), None])
            .unwrap();
        let crowded = Association::complete(vec![0, 0]);
        assert!(matches!(
            limited.validate_association(&crowded),
            Err(CoreError::CapacityExceeded {
                extender: 0,
                limit: 1
            })
        ));
        // A valid association passes.
        let ok = Association::complete(vec![1, 0]);
        assert!(fig3_network().validate_association(&ok).is_ok());
    }

    #[test]
    fn reassignment_count() {
        let a = Association::complete(vec![0, 1, 1]);
        let b = Association::complete(vec![0, 0, 1]);
        assert_eq!(a.reassignments_from(&b), 1);
        let c = Association::from_targets(vec![Some(0), None, Some(1)]);
        assert_eq!(a.reassignments_from(&c), 0);
    }

    #[test]
    fn from_iterator_collects() {
        let a: Association = vec![Some(1), None].into_iter().collect();
        assert_eq!(a.target(0), Some(1));
        assert_eq!(a.target(1), None);
    }

    #[test]
    fn json_round_trip() {
        let net = fig3_network()
            .with_user_limits(vec![Some(3), None])
            .unwrap();
        let json = net.to_json().to_compact();
        let back = Network::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(net, back);
    }

    #[test]
    fn json_rejects_malformed_networks() {
        // Structurally valid JSON that violates the model invariants must
        // not deserialize into a Network.
        let cases = [
            // Rate-matrix width disagrees with the capacity count.
            r#"{"capacities":[60.0],"rates":{"rows":1,"cols":2,"data":[15.0,10.0]},"user_limits":[null]}"#,
            // Unusable (zero) capacity.
            r#"{"capacities":[60.0,0.0],"rates":{"rows":1,"cols":2,"data":[15.0,10.0]},"user_limits":[null,null]}"#,
            // A user with no usable rate anywhere.
            r#"{"capacities":[60.0,20.0],"rates":{"rows":1,"cols":2,"data":[0.0,-3.0]},"user_limits":[null,null]}"#,
            // User-limit vector of the wrong length.
            r#"{"capacities":[60.0,20.0],"rates":{"rows":1,"cols":2,"data":[15.0,10.0]},"user_limits":[null]}"#,
            // Missing field entirely.
            r#"{"capacities":[60.0,20.0],"rates":{"rows":1,"cols":2,"data":[15.0,10.0]}}"#,
        ];
        for text in cases {
            let parsed = Json::parse(text).unwrap();
            assert!(
                Network::from_json(&parsed).is_err(),
                "accepted malformed network: {text}"
            );
        }
    }
}
