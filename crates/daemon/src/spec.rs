//! Fleet spec files: the JSON document `wolt serve --sites` loads, and
//! the validation + materialization shared with the wire-level
//! [`crate::wire::FleetOp::Add`] path.
//!
//! A spec never carries a scenario — like the single-site
//! `wolt serve`/`wolt agent` pair, both sides regenerate it
//! deterministically from `(preset, users, seed)`:
//!
//! ```json
//! {
//!   "sites": [
//!     {"id": "floor-1", "preset": "lab", "users": 4, "seed": 11, "policy": "wolt"},
//!     {"id": "floor-2", "preset": "lab", "users": 3, "seed": 12, "policy": "greedy"}
//!   ]
//! }
//! ```

use wolt_sim::{Scenario, ScenarioConfig};
use wolt_support::json::{FromJson as _, Json};
use wolt_support::rng::{ChaCha8Rng, SeedableRng};
use wolt_testbed::{ControllerPolicy, SessionEvent};

use crate::server::SiteDef;
use crate::wire::SiteSpec;
use crate::DaemonError;

/// The longest site id accepted (bytes).
pub const MAX_SITE_ID_BYTES: usize = 64;

/// A parsed `--sites` spec file: the fleet's initial site list.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    /// The sites, in file order (the fleet sorts by id internally).
    pub sites: Vec<SiteSpec>,
}

impl FleetSpec {
    /// Parses and validates a spec document: at least one site, unique
    /// filesystem-safe ids, at least one user per site.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Protocol`] for malformed JSON or a wrong shape;
    /// [`DaemonError::InvalidConfig`] for a spec that parses but
    /// violates the fleet's rules.
    pub fn parse(text: &str) -> Result<Self, DaemonError> {
        let json = Json::parse(text)?;
        let sites = Vec::<SiteSpec>::from_json(json.field("sites")?)?;
        let spec = Self { sites };
        spec.validate()?;
        Ok(spec)
    }

    /// The rules a site list must satisfy before the fleet will host it.
    ///
    /// # Errors
    ///
    /// [`DaemonError::InvalidConfig`] naming the offending site.
    pub fn validate(&self) -> Result<(), DaemonError> {
        if self.sites.is_empty() {
            return Err(DaemonError::InvalidConfig {
                context: "a fleet needs at least one site".into(),
            });
        }
        let mut seen: Vec<&str> = Vec::new();
        for site in &self.sites {
            validate_site_id(&site.id)?;
            if site.users == 0 {
                return Err(DaemonError::InvalidConfig {
                    context: format!("site {:?} has zero users", site.id),
                });
            }
            if seen.contains(&site.id.as_str()) {
                return Err(DaemonError::InvalidConfig {
                    context: format!("duplicate site id {:?}", site.id),
                });
            }
            seen.push(&site.id);
        }
        Ok(())
    }

    /// Materializes every site into its runnable definition, in file
    /// order.
    ///
    /// # Errors
    ///
    /// As [`materialize`].
    pub fn materialize(&self) -> Result<Vec<SiteDef>, DaemonError> {
        self.sites.iter().map(materialize).collect()
    }
}

/// Checks a site id is filesystem-safe — it names the site's snapshot
/// subdirectory under the fleet root: `[A-Za-z0-9._-]+`, at most
/// [`MAX_SITE_ID_BYTES`] bytes, and not `.` or `..`.
///
/// # Errors
///
/// [`DaemonError::InvalidConfig`] describing the violation.
pub fn validate_site_id(id: &str) -> Result<(), DaemonError> {
    let bad = |context: String| Err(DaemonError::InvalidConfig { context });
    if id.is_empty() {
        return bad("site id must not be empty".into());
    }
    if id.len() > MAX_SITE_ID_BYTES {
        return bad(format!(
            "site id {:?}… is longer than {MAX_SITE_ID_BYTES} bytes",
            &id[..MAX_SITE_ID_BYTES.min(id.len())]
        ));
    }
    if id == "." || id == ".." {
        return bad(format!("site id {id:?} is a reserved path name"));
    }
    if let Some(c) = id
        .chars()
        .find(|c| !(c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-')))
    {
        return bad(format!(
            "site id {id:?} contains {c:?}; allowed: [A-Za-z0-9._-]"
        ));
    }
    Ok(())
}

/// Turns one wire-level [`SiteSpec`] into a runnable [`SiteDef`]:
/// regenerates the scenario from `(preset, users, seed)` exactly as the
/// single-site `wolt serve` does (the seed doubles as the
/// capacity-noise seed), parses the policy, and schedules one join per
/// user.
///
/// # Errors
///
/// [`DaemonError::InvalidConfig`] for an invalid id, unknown preset or
/// policy, or a scenario the generator rejects.
pub fn materialize(spec: &SiteSpec) -> Result<SiteDef, DaemonError> {
    validate_site_id(&spec.id)?;
    let policy =
        ControllerPolicy::from_key(&spec.policy).ok_or_else(|| DaemonError::InvalidConfig {
            context: format!(
                "site {:?}: unknown policy {:?} (try wolt | greedy | rssi)",
                spec.id,
                spec.policy.to_ascii_lowercase()
            ),
        })?;
    let config = match spec.preset.to_ascii_lowercase().as_str() {
        "lab" => ScenarioConfig::lab(spec.users),
        "enterprise" => ScenarioConfig::enterprise(spec.users),
        other => {
            return Err(DaemonError::InvalidConfig {
                context: format!(
                    "site {:?}: unknown preset {other:?} (try lab | enterprise)",
                    spec.id
                ),
            })
        }
    };
    let mut rng = ChaCha8Rng::seed_from_u64(spec.seed);
    let scenario =
        Scenario::generate(&config, &mut rng).map_err(|e| DaemonError::InvalidConfig {
            context: format!("site {:?}: scenario generation: {e}", spec.id),
        })?;
    let events: Vec<SessionEvent> = (0..spec.users).map(SessionEvent::Join).collect();
    Ok(SiteDef {
        id: spec.id.clone(),
        scenario,
        events,
        policy,
        noise_seed: spec.seed,
        stop_after: spec.stop_after,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_text() -> &'static str {
        r#"{"sites": [
            {"id": "floor-1", "preset": "lab", "users": 4, "seed": 11, "policy": "wolt"},
            {"id": "floor-2", "preset": "enterprise", "users": 3, "seed": 12, "policy": "greedy", "stop_after": 2}
        ]}"#
    }

    #[test]
    fn parses_and_materializes_a_two_site_spec() {
        let spec = FleetSpec::parse(spec_text()).unwrap();
        assert_eq!(spec.sites.len(), 2);
        assert_eq!(spec.sites[1].stop_after, Some(2));
        let defs = spec.materialize().unwrap();
        assert_eq!(defs[0].scenario.user_positions.len(), 4);
        assert_eq!(defs[0].events.len(), 4);
        assert_eq!(defs[1].stop_after, Some(2));
    }

    #[test]
    fn materialized_scenario_matches_the_single_site_recipe() {
        // The agent side regenerates from (preset, users, seed); the
        // fleet must produce the identical scenario.
        let spec = FleetSpec::parse(spec_text()).unwrap();
        let def = materialize(&spec.sites[0]).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let expected = Scenario::generate(&ScenarioConfig::lab(4), &mut rng).unwrap();
        assert_eq!(def.scenario.rate(0, 0), expected.rate(0, 0));
        assert_eq!(def.scenario.capacities, expected.capacities);
    }

    #[test]
    fn rejects_duplicate_empty_and_unsafe_ids() {
        let dup = r#"{"sites": [
            {"id": "a", "preset": "lab", "users": 1, "seed": 1, "policy": "wolt"},
            {"id": "a", "preset": "lab", "users": 1, "seed": 2, "policy": "wolt"}
        ]}"#;
        assert!(FleetSpec::parse(dup).is_err());
        assert!(validate_site_id("").is_err());
        assert!(validate_site_id(".").is_err());
        assert!(validate_site_id("..").is_err());
        assert!(validate_site_id("a/b").is_err());
        assert!(validate_site_id("a b").is_err());
        assert!(validate_site_id(&"x".repeat(65)).is_err());
        assert!(validate_site_id("floor-3.annex_B").is_ok());
    }

    #[test]
    fn rejects_unknown_policy_preset_and_zero_users() {
        let zero =
            r#"{"sites": [{"id": "a", "preset": "lab", "users": 0, "seed": 1, "policy": "wolt"}]}"#;
        assert!(FleetSpec::parse(zero).is_err());
        let bad_policy = SiteSpec {
            id: "a".into(),
            preset: "lab".into(),
            users: 1,
            seed: 1,
            policy: "dijkstra".into(),
            stop_after: None,
        };
        assert!(materialize(&bad_policy).is_err());
        let bad_preset = SiteSpec {
            preset: "metropolitan".into(),
            policy: "wolt".into(),
            ..bad_policy
        };
        assert!(materialize(&bad_preset).is_err());
        assert!(FleetSpec::parse(r#"{"sites": []}"#).is_err());
    }
}
