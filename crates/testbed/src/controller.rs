//! The Central Controller's decision core, independent of transport.
//!
//! [`ControllerCore`] is the decision state behind both faces of the CC:
//! the in-process [`rig`](crate::rig) (virtual time, optionally faulty)
//! and the networked `wolt-daemon` (TCP + length-prefixed JSON frames),
//! which both drive it through the [`SessionDriver`](crate::session::SessionDriver).
//! It owns everything that determines *what the controller decides* —
//! each known client's last scan report (the planning input), the
//! association bookkeeping, monotone directive sequence numbers, and the
//! WOLT / Greedy / RSSI policy dispatch — and nothing about *how
//! messages move*: deadlines, retransmission, and framing stay with the
//! transport.
//!
//! Because both transports drive the identical core, a fault-free TCP
//! session and an in-process session over the same scenario, seed, and
//! policy make byte-identical decisions — the property the loopback
//! equivalence tests pin down.
//!
//! The core is also [snapshot](ControllerCore::snapshot)-able: the full
//! decision state serializes to canonical JSON so a daemon can persist
//! it each epoch and resume after a crash without losing the reports it
//! plans on.

use wolt_core::{evaluate, Association, AssociationPolicy, Network, Wolt};
use wolt_support::json::{FromJson, Json, JsonError, ToJson};
use wolt_support::obs;
use wolt_units::Mbps;

use crate::rig::ControllerPolicy;
use crate::TestbedError;

/// A planned re-association the transport must deliver (and retransmit
/// until acked or the client is declared dead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Directive {
    /// Target client.
    pub client: usize,
    /// Extender the client should associate with.
    pub extender: usize,
    /// Monotone sequence number: the client applies each sequence once
    /// and re-acks retries.
    pub seq: u64,
}

/// Immutable controller configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerConfig {
    /// Association logic.
    pub policy: ControllerPolicy,
    /// Estimated PLC capacities (the offline iperf procedure's output).
    pub estimated_capacities: Vec<Mbps>,
    /// Strict mode: a failed solve is a hard error instead of a
    /// degrade-to-previous-association.
    pub strict: bool,
}

/// The transport-agnostic Central Controller state machine.
///
/// The transport feeds it protocol events ([`handle_report`],
/// [`handle_departed`], [`handle_ack`], [`declare_dead`]) and delivers
/// the [`Directive`]s it returns; everything else — dedup, planning,
/// sequencing — happens here.
///
/// [`handle_report`]: Self::handle_report
/// [`handle_departed`]: Self::handle_departed
/// [`handle_ack`]: Self::handle_ack
/// [`declare_dead`]: Self::declare_dead
#[derive(Debug, Clone)]
pub struct ControllerCore {
    config: ControllerConfig,
    /// Each known client's last scan report, its rate to each extender
    /// (the planning input); `None` once it departed or was declared
    /// dead.
    reports: Vec<Option<Vec<Option<Mbps>>>>,
    /// The CC's view of each client's current extender.
    association: Vec<Option<usize>>,
    /// Newest directive sequence issued to each client; only its ack is
    /// accepted.
    latest_seq: Vec<Option<u64>>,
    next_seq: u64,
    /// Highest event epoch processed; lower epochs are duplicates.
    watermark: Option<u64>,
    degraded_solves: usize,
    declared_dead: Vec<usize>,
}

impl ControllerCore {
    /// A fresh controller for `n_users` clients.
    pub fn new(n_users: usize, config: ControllerConfig) -> Self {
        Self {
            reports: vec![None; n_users],
            association: vec![None; n_users],
            latest_seq: vec![None; n_users],
            next_seq: 0,
            watermark: None,
            degraded_solves: 0,
            declared_dead: Vec::new(),
            config,
        }
    }

    /// Whether `epoch` was already processed (a retransmission or
    /// network duplicate the transport should drop).
    pub fn is_duplicate(&self, epoch: u64) -> bool {
        self.watermark.is_some_and(|w| epoch <= w)
    }

    /// Ingests a scan report and plans the arrival: records the rates,
    /// marks the client attached, and returns the directives the policy
    /// wants delivered (empty for RSSI, or when nothing moves).
    ///
    /// The caller must have rejected duplicates via
    /// [`is_duplicate`](Self::is_duplicate) first.
    ///
    /// # Errors
    ///
    /// In strict mode, propagates a failed solve as
    /// [`TestbedError::AssignmentFailed`]; in resilient mode a failed
    /// solve counts as a degraded solve and moves nobody.
    pub fn handle_report(
        &mut self,
        client: usize,
        epoch: u64,
        rates: &[Option<Mbps>],
        attached: usize,
    ) -> Result<Vec<Directive>, TestbedError> {
        obs::counter_inc("cc.reports");
        self.watermark = Some(epoch);
        self.reports[client] = Some(rates.to_vec());
        self.association[client] = Some(attached);
        self.latest_seq[client] = None;
        self.plan(Some(client))
    }

    /// Ingests a departure notice: forgets the client and — for WOLT,
    /// which re-optimizes survivors — returns the resulting directives.
    /// The baselines leave everyone where they are.
    ///
    /// # Errors
    ///
    /// As [`handle_report`](Self::handle_report).
    pub fn handle_departed(
        &mut self,
        client: usize,
        epoch: u64,
    ) -> Result<Vec<Directive>, TestbedError> {
        obs::counter_inc("cc.departures");
        self.watermark = Some(epoch);
        self.forget(client);
        if self.config.policy == ControllerPolicy::Wolt {
            self.plan(None)
        } else {
            Ok(Vec::new())
        }
    }

    /// Processes a directive acknowledgement. Returns `true` when the
    /// ack matches the newest outstanding sequence for its client (so
    /// the transport clears its pending entry); stale acks, and acks
    /// from a departed or declared-dead client, which has no outstanding
    /// sequence, return `false` and change nothing.
    pub fn handle_ack(&mut self, client: usize, seq: u64, extender: usize) -> bool {
        if self.latest_seq[client] == Some(seq) {
            obs::counter_inc("cc.acks_accepted");
            self.association[client] = Some(extender);
            true
        } else {
            obs::counter_inc("cc.acks_stale");
            false
        }
    }

    /// Declares `client` dead after the transport exhausted its ack
    /// retry budget: forgets its report, unassigns it, and re-plans the
    /// survivors (the dead client's load vanishes). The returned
    /// directives may supersede in-flight ones for other clients.
    ///
    /// # Errors
    ///
    /// As [`handle_report`](Self::handle_report).
    pub fn declare_dead(&mut self, client: usize) -> Result<Vec<Directive>, TestbedError> {
        obs::counter_inc("cc.declared_dead");
        self.forget(client);
        self.declared_dead.push(client);
        self.plan(None)
    }

    /// Drops everything the core knows about `client`.
    fn forget(&mut self, client: usize) {
        self.reports[client] = None;
        self.association[client] = None;
        self.latest_seq[client] = None;
    }

    /// Runs the policy on the known clients' last reports and returns a
    /// directive for every one whose target changed, in ascending client
    /// order, assigning each the next sequence number.
    fn plan(&mut self, arriving: Option<usize>) -> Result<Vec<Directive>, TestbedError> {
        if self.config.policy == ControllerPolicy::Rssi {
            return Ok(Vec::new());
        }
        let known: Vec<usize> = (0..self.reports.len())
            .filter(|&i| self.reports[i].is_some())
            .collect();
        if known.is_empty() {
            return Ok(Vec::new());
        }
        let desired = match self
            .planning_view(&known)
            .and_then(|net| self.plan_targets(&net, &known, arriving))
        {
            Ok(d) => d,
            Err(e) if self.config.strict => return Err(e),
            Err(_) => {
                self.degraded_solves += 1;
                obs::counter_inc("cc.degraded_solves");
                return Ok(Vec::new());
            }
        };
        let mut out = Vec::new();
        for (v, &i) in known.iter().enumerate() {
            if self.association[i] == Some(desired[v]) {
                continue;
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            self.latest_seq[i] = Some(seq);
            out.push(Directive {
                client: i,
                extender: desired[v],
                seq,
            });
        }
        obs::counter_add("cc.directives", out.len() as u64);
        Ok(out)
    }

    /// Computes each known client's desired extender under the
    /// configured policy, in `known` order, on the planning view `net`
    /// of those clients.
    fn plan_targets(
        &self,
        net: &Network,
        known: &[usize],
        arriving: Option<usize>,
    ) -> Result<Vec<usize>, TestbedError> {
        match self.config.policy {
            ControllerPolicy::Rssi => Err(TestbedError::AssignmentFailed {
                context: "RSSI policy plans no directives".to_string(),
            }),
            ControllerPolicy::Greedy => {
                let Some(client) = arriving else {
                    // Greedy never re-optimizes existing clients.
                    return Ok(known
                        .iter()
                        .map(|&i| self.association[i].expect("known clients are attached"))
                        .collect());
                };
                // Only the newcomer moves.
                let view_idx = known
                    .iter()
                    .position(|&i| i == client)
                    .expect("reporting client is known");
                let current =
                    Association::from_targets(known.iter().map(|&i| self.association[i]).collect());
                let mut best: Option<(usize, f64)> = None;
                for j in 0..net.extenders() {
                    if !net.reachable(view_idx, j) {
                        continue;
                    }
                    let mut candidate = current.clone();
                    candidate.assign(view_idx, j);
                    let value = evaluate(net, &candidate)
                        .map(|e| e.aggregate.value())
                        .unwrap_or(f64::NEG_INFINITY);
                    if best.is_none_or(|(_, v)| value > v) {
                        best = Some((j, value));
                    }
                }
                let (target, _) = best.ok_or_else(|| TestbedError::AssignmentFailed {
                    context: format!("client {client} has no reachable extender"),
                })?;
                let mut desired: Vec<usize> = known
                    .iter()
                    .map(|&i| self.association[i].expect("known clients are attached"))
                    .collect();
                desired[view_idx] = target;
                Ok(desired)
            }
            ControllerPolicy::Wolt => {
                let assoc =
                    Wolt::new()
                        .associate(net)
                        .map_err(|e| TestbedError::AssignmentFailed {
                            context: e.to_string(),
                        })?;
                (0..net.users())
                    .map(|v| {
                        assoc
                            .target(v)
                            .ok_or_else(|| TestbedError::AssignmentFailed {
                                context: format!("planner left user {v} unassociated"),
                            })
                    })
                    .collect()
            }
        }
    }

    /// Builds the planning [`Network`]: the estimated PLC capacities
    /// plus the last reported rates of the `known` clients, in order
    /// (`cc.view_builds`).
    fn planning_view(&self, known: &[usize]) -> Result<Network, TestbedError> {
        let rates: Vec<Vec<f64>> = known
            .iter()
            .map(|&i| {
                self.reports[i]
                    .as_ref()
                    .expect("known client has a report")
                    .iter()
                    .map(|r| r.map_or(0.0, |m| m.value()))
                    .collect()
            })
            .collect();
        let net = Network::from_raw(
            self.config
                .estimated_capacities
                .iter()
                .map(|c| c.value())
                .collect(),
            rates,
        )
        .map_err(|e| TestbedError::AssignmentFailed {
            context: e.to_string(),
        })?;
        obs::counter_inc("cc.view_builds");
        Ok(net)
    }

    /// The CC's view of each client's current extender.
    pub fn association(&self) -> &[Option<usize>] {
        &self.association
    }

    /// Distinct directives issued so far (retransmissions not counted —
    /// those are the transport's business): one per sequence number.
    pub fn directives(&self) -> usize {
        self.next_seq as usize
    }

    /// Solves that failed and degraded to the previous association.
    pub fn degraded_solves(&self) -> usize {
        self.degraded_solves
    }

    /// Clients declared dead, in declaration order.
    pub fn declared_dead(&self) -> &[usize] {
        &self.declared_dead
    }

    /// Highest event epoch processed so far.
    pub fn watermark(&self) -> Option<u64> {
        self.watermark
    }

    /// Captures the full decision state for persistence.
    pub fn snapshot(&self) -> ControllerSnapshot {
        ControllerSnapshot {
            epoch: self.watermark,
            reports: self.reports.clone(),
            association: self.association.clone(),
            latest_seq: self.latest_seq.clone(),
            next_seq: self.next_seq,
            degraded_solves: self.degraded_solves,
            declared_dead: self.declared_dead.clone(),
        }
    }

    /// Rebuilds a controller from a snapshot plus the (non-serialized)
    /// configuration. The restored core continues exactly where the
    /// snapshotted one stopped: same epoch watermark, same sequence
    /// counter, same reports.
    ///
    /// # Errors
    ///
    /// Returns [`TestbedError::InvalidConfig`] when the snapshot's
    /// per-client vectors disagree in length.
    pub fn restore(
        config: ControllerConfig,
        snapshot: ControllerSnapshot,
    ) -> Result<Self, TestbedError> {
        let n = snapshot.reports.len();
        if snapshot.association.len() != n || snapshot.latest_seq.len() != n {
            return Err(TestbedError::InvalidConfig {
                context: "snapshot per-client vectors disagree in length",
            });
        }
        Ok(Self {
            reports: snapshot.reports,
            association: snapshot.association,
            latest_seq: snapshot.latest_seq,
            next_seq: snapshot.next_seq,
            watermark: snapshot.epoch,
            degraded_solves: snapshot.degraded_solves,
            declared_dead: snapshot.declared_dead,
            config,
        })
    }
}

/// The serializable decision state of a [`ControllerCore`].
///
/// Serializes to canonical JSON via [`ToJson`] (insertion-ordered keys,
/// shortest-round-trip floats), so two snapshots of equal state are
/// byte-identical on disk. The reports sit under the `"telemetry"` key,
/// one `{"rates": [...]}` object or `null` per client; loading ignores
/// keys it does not read, so a snapshot that also carries the smoothing
/// factor, dead flags, directive count and per-report ages of an older
/// controller still loads.
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerSnapshot {
    /// Highest event epoch processed ([`ControllerCore::watermark`]).
    pub epoch: Option<u64>,
    /// Each client's last scan report (`None` = not known).
    pub reports: Vec<Option<Vec<Option<Mbps>>>>,
    /// Per-client association view.
    pub association: Vec<Option<usize>>,
    /// Per-client newest outstanding directive sequence.
    pub latest_seq: Vec<Option<u64>>,
    /// Next directive sequence number.
    pub next_seq: u64,
    /// Degraded solves so far.
    pub degraded_solves: usize,
    /// Clients declared dead, in declaration order.
    pub declared_dead: Vec<usize>,
}

impl ToJson for ControllerSnapshot {
    fn to_json(&self) -> Json {
        let reports = Json::Arr(
            self.reports
                .iter()
                .map(|slot| match slot {
                    None => Json::Null,
                    Some(rates) => Json::obj([(
                        "rates",
                        Json::Arr(
                            rates
                                .iter()
                                .map(|r| match r {
                                    Some(m) => Json::Num(m.value()),
                                    None => Json::Null,
                                })
                                .collect(),
                        ),
                    )]),
                })
                .collect(),
        );
        Json::obj([
            ("epoch", self.epoch.to_json()),
            ("telemetry", reports),
            ("association", self.association.to_json()),
            ("latest_seq", self.latest_seq.to_json()),
            ("next_seq", self.next_seq.to_json()),
            ("degraded_solves", self.degraded_solves.to_json()),
            ("declared_dead", self.declared_dead.to_json()),
        ])
    }
}

impl FromJson for ControllerSnapshot {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let reports = value
            .field("telemetry")?
            .as_arr()
            .ok_or_else(|| JsonError::shape("telemetry must be an array"))?
            .iter()
            .map(|slot| {
                if slot.is_null() {
                    return Ok(None);
                }
                slot.field("rates")?
                    .as_arr()
                    .ok_or_else(|| JsonError::shape("rates must be an array"))?
                    .iter()
                    .map(|r| {
                        if r.is_null() {
                            Ok(None)
                        } else {
                            r.as_f64()
                                .map(|v| Some(Mbps::new(v)))
                                .ok_or_else(|| JsonError::shape("rate must be a number or null"))
                        }
                    })
                    .collect::<Result<Vec<_>, _>>()
                    .map(Some)
            })
            .collect::<Result<Vec<_>, JsonError>>()?;
        Ok(Self {
            epoch: Option::<u64>::from_json(value.field("epoch")?)?,
            reports,
            association: Vec::<Option<usize>>::from_json(value.field("association")?)?,
            latest_seq: Vec::<Option<u64>>::from_json(value.field("latest_seq")?)?,
            next_seq: u64::from_json(value.field("next_seq")?)?,
            degraded_solves: usize::from_json(value.field("degraded_solves")?)?,
            declared_dead: Vec::<usize>::from_json(value.field("declared_dead")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core(policy: ControllerPolicy, n: usize, caps: &[f64]) -> ControllerCore {
        ControllerCore::new(
            n,
            ControllerConfig {
                policy,
                estimated_capacities: caps.iter().map(|&c| Mbps::new(c)).collect(),
                strict: true,
            },
        )
    }

    fn mb(v: f64) -> Option<Mbps> {
        Some(Mbps::new(v))
    }

    #[test]
    fn rssi_core_never_plans() {
        let mut cc = core(ControllerPolicy::Rssi, 2, &[60.0, 20.0]);
        let d = cc.handle_report(0, 0, &[mb(15.0), mb(10.0)], 0).unwrap();
        assert!(d.is_empty());
        assert_eq!(cc.directives(), 0);
        assert_eq!(cc.association()[0], Some(0));
    }

    #[test]
    fn wolt_core_moves_the_fig3_clients() {
        // The paper's Fig. 3 case study: WOLT splits the users across
        // both extenders; the RSSI attachment piles both on extender 0.
        let mut cc = core(ControllerPolicy::Wolt, 2, &[60.0, 20.0]);
        let d0 = cc.handle_report(0, 0, &[mb(15.0), mb(10.0)], 0).unwrap();
        let d1 = cc.handle_report(1, 1, &[mb(40.0), mb(20.0)], 0).unwrap();
        let moved: Vec<usize> = d0.iter().chain(&d1).map(|d| d.client).collect();
        assert!(!moved.is_empty(), "WOLT should re-balance");
        // Sequence numbers are monotone across the whole session.
        let seqs: Vec<u64> = d0.iter().chain(&d1).map(|d| d.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted);
    }

    #[test]
    fn duplicate_epochs_are_caller_visible() {
        let mut cc = core(ControllerPolicy::Wolt, 1, &[60.0]);
        assert!(!cc.is_duplicate(0));
        cc.handle_report(0, 0, &[mb(15.0)], 0).unwrap();
        assert!(cc.is_duplicate(0));
        assert!(!cc.is_duplicate(1));
    }

    #[test]
    fn ack_only_accepted_for_newest_sequence() {
        let mut cc = core(ControllerPolicy::Wolt, 2, &[60.0, 20.0]);
        cc.handle_report(0, 0, &[mb(15.0), mb(10.0)], 0).unwrap();
        let d = cc.handle_report(1, 1, &[mb(40.0), mb(20.0)], 0).unwrap();
        if let Some(dir) = d.first() {
            assert!(!cc.handle_ack(dir.client, dir.seq + 100, dir.extender));
            assert!(cc.handle_ack(dir.client, dir.seq, dir.extender));
            assert_eq!(cc.association()[dir.client], Some(dir.extender));
        }
    }

    #[test]
    fn declared_dead_client_is_forgotten_and_survivors_replanned() {
        let mut cc = core(ControllerPolicy::Wolt, 2, &[60.0, 20.0]);
        cc.handle_report(0, 0, &[mb(15.0), mb(10.0)], 0).unwrap();
        cc.handle_report(1, 1, &[mb(40.0), mb(20.0)], 0).unwrap();
        cc.declare_dead(1).unwrap();
        assert_eq!(cc.declared_dead(), &[1]);
        assert_eq!(cc.association()[1], None);
        // Regression (unbounded growth): a dead client leaves no
        // report behind.
        assert_eq!(cc.snapshot().reports[1], None);
        // Its acks are ignored forever after.
        assert!(!cc.handle_ack(1, 0, 0));
    }

    #[test]
    fn departed_client_leaves_no_state_behind() {
        let mut cc = core(ControllerPolicy::Greedy, 2, &[60.0, 20.0]);
        cc.handle_report(0, 0, &[mb(15.0), mb(10.0)], 0).unwrap();
        cc.handle_departed(0, 1).unwrap();
        let snap = cc.snapshot();
        assert_eq!(snap.reports[0], None);
        assert_eq!(snap.association[0], None);
        assert_eq!(snap.latest_seq[0], None);
    }

    #[test]
    fn snapshot_json_round_trips_byte_identically() {
        let mut cc = core(ControllerPolicy::Wolt, 3, &[60.0, 20.0]);
        cc.handle_report(0, 0, &[mb(15.0), None], 0).unwrap();
        cc.handle_report(1, 1, &[mb(40.0), mb(20.0)], 0).unwrap();
        cc.declare_dead(0).unwrap();
        let snap = cc.snapshot();
        let text = snap.to_json().to_pretty();
        let back = ControllerSnapshot::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.to_json().to_pretty(), text, "canonical JSON");
    }

    #[test]
    fn restored_core_continues_identically() {
        let mut a = core(ControllerPolicy::Wolt, 3, &[60.0, 20.0]);
        a.handle_report(0, 0, &[mb(15.0), mb(10.0)], 0).unwrap();
        a.handle_report(1, 1, &[mb(40.0), mb(20.0)], 0).unwrap();
        let config = ControllerConfig {
            policy: ControllerPolicy::Wolt,
            estimated_capacities: vec![Mbps::new(60.0), Mbps::new(20.0)],
            strict: true,
        };
        let mut b = ControllerCore::restore(config, a.snapshot()).unwrap();
        assert_eq!(b.watermark(), a.watermark());
        // Same next event, same decisions, same sequence numbers.
        let da = a.handle_report(2, 2, &[mb(5.0), mb(25.0)], 1).unwrap();
        let db = b.handle_report(2, 2, &[mb(5.0), mb(25.0)], 1).unwrap();
        assert_eq!(da, db);
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn a_rejoin_after_a_lost_departure_plans_on_the_new_scan() {
        // Client 0's departure never reached the core, and it joins again
        // with a different scan: the core plans on that scan as reported,
        // as a core that never saw the first one does.
        let first = [mb(15.0), mb(10.0)];
        let second = [mb(30.0), mb(2.0)];
        let mut cc = core(ControllerPolicy::Wolt, 2, &[60.0, 20.0]);
        cc.handle_report(0, 0, &first, 0).unwrap();
        cc.handle_report(1, 1, &[mb(40.0), mb(20.0)], 0).unwrap();
        let rejoin = cc.handle_report(0, 2, &second, 0).unwrap();
        let mut fresh = core(ControllerPolicy::Wolt, 2, &[60.0, 20.0]);
        fresh.handle_report(1, 1, &[mb(40.0), mb(20.0)], 0).unwrap();
        let expected = fresh.handle_report(0, 2, &second, 0).unwrap();
        let targets =
            |d: &[Directive]| d.iter().map(|d| (d.client, d.extender)).collect::<Vec<_>>();
        assert_eq!(targets(&rejoin), targets(&expected));
        assert_eq!(cc.snapshot().reports[0], Some(second.to_vec()));
    }

    /// A snapshot in an older controller's format, which also stored a
    /// smoothing factor, dead flags, a directive count and each report's
    /// age: clients 0, 1 and 2 reported at epochs 0, 1 and 2, then
    /// client 2 was declared dead.
    const OLDER_SNAPSHOT: &str = r#"{
        "epoch": 2,
        "alpha": 0.5,
        "telemetry": [
            {"rates": [15.0, 10.0], "staleness": 2, "last_epoch": 0},
            {"rates": [40.0, null], "staleness": 1, "last_epoch": 1},
            null
        ],
        "association": [0, 0, null],
        "dead": [false, false, true],
        "latest_seq": [3, null, null],
        "next_seq": 4,
        "directives": 4,
        "degraded_solves": 0,
        "declared_dead": [2]
    }"#;

    #[test]
    fn a_snapshot_in_the_older_format_restores_and_plans_as_a_fresh_core() {
        let config = ControllerConfig {
            policy: ControllerPolicy::Wolt,
            estimated_capacities: vec![Mbps::new(60.0), Mbps::new(20.0)],
            strict: true,
        };
        let snap = ControllerSnapshot::from_json(&Json::parse(OLDER_SNAPSHOT).unwrap()).unwrap();
        let mut restored = ControllerCore::restore(config, snap).unwrap();
        let mut fresh = core(ControllerPolicy::Wolt, 3, &[60.0, 20.0]);
        fresh.handle_report(0, 0, &[mb(15.0), mb(10.0)], 0).unwrap();
        fresh.handle_report(1, 1, &[mb(40.0), None], 0).unwrap();
        fresh.handle_report(2, 2, &[mb(30.0), mb(25.0)], 0).unwrap();
        fresh.declare_dead(2).unwrap();
        assert_eq!(restored.snapshot(), fresh.snapshot());
        let next = restored
            .handle_report(2, 3, &[mb(5.0), mb(25.0)], 1)
            .unwrap();
        assert!(!next.is_empty());
        assert_eq!(
            next,
            fresh.handle_report(2, 3, &[mb(5.0), mb(25.0)], 1).unwrap()
        );
    }

    #[test]
    fn tiny_positive_rate_fails_the_solve_instead_of_panicking() {
        // A rate this small is finite and positive, so it passes
        // `Network::new` and the wire decoder, but its Phase-II gradient
        // is not finite: the solve must fail with a typed error.
        for tiny in [1e-307, 1e-309] {
            let mut strict = core(ControllerPolicy::Wolt, 3, &[60.0, 20.0]);
            let mut resilient = ControllerCore::new(
                3,
                ControllerConfig {
                    policy: ControllerPolicy::Wolt,
                    estimated_capacities: vec![Mbps::new(60.0), Mbps::new(20.0)],
                    strict: false,
                },
            );
            for cc in [&mut strict, &mut resilient] {
                cc.handle_report(0, 0, &[mb(15.0), mb(10.0)], 0).unwrap();
                cc.handle_report(1, 1, &[mb(40.0), mb(20.0)], 0).unwrap();
            }
            let err = strict
                .handle_report(2, 2, &[mb(tiny), mb(12.0)], 0)
                .unwrap_err();
            assert!(
                matches!(err, TestbedError::AssignmentFailed { .. }),
                "rate {tiny:e}: {err}"
            );
            let moves = resilient
                .handle_report(2, 2, &[mb(tiny), mb(12.0)], 0)
                .unwrap();
            assert!(
                moves.is_empty(),
                "rate {tiny:e}: a failed solve moves nobody"
            );
            assert_eq!(resilient.degraded_solves(), 1, "rate {tiny:e}");
        }
    }

    #[test]
    fn restore_rejects_inconsistent_snapshot() {
        let cc = core(ControllerPolicy::Wolt, 2, &[60.0, 20.0]);
        let mut snap = cc.snapshot();
        snap.association.pop();
        let config = ControllerConfig {
            policy: ControllerPolicy::Wolt,
            estimated_capacities: vec![Mbps::new(60.0), Mbps::new(20.0)],
            strict: true,
        };
        assert!(matches!(
            ControllerCore::restore(config, snap),
            Err(TestbedError::InvalidConfig { .. })
        ));
    }
}
