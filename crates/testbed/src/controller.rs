//! The Central Controller's decision core, independent of transport.
//!
//! [`ControllerCore`] is the decision state behind both faces of the CC:
//! the in-process [`rig`](crate::rig) (virtual time, optionally faulty)
//! and the networked `wolt-daemon` (TCP + length-prefixed JSON frames),
//! which both drive it through the [`SessionDriver`](crate::session::SessionDriver).
//! It owns everything that determines *what the controller decides* —
//! the [`TelemetryCache`] planning view, the association bookkeeping,
//! monotone directive sequence numbers, dead-client accounting, and the
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
//! it each epoch and resume after a crash without losing the telemetry
//! it had accumulated.

use wolt_core::{
    evaluate, Association, AssociationPolicy, Network, TelemetryCache, TelemetryEntry, Wolt,
};
use wolt_support::json::{FromJson, Json, JsonError, ToJson};
use wolt_support::obs;
use wolt_units::Mbps;

use crate::rig::ControllerPolicy;
use crate::TestbedError;

/// Smoothing factor for the CC's telemetry cache. With one report per
/// join and forget-on-departure this is exact in fault-free sessions;
/// under faults it damps duplicate-epoch noise (which the cache already
/// suppresses) and repeated-report jitter.
pub const TELEMETRY_ALPHA: f64 = 0.5;

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

/// One inbound scan report, as a transport queues it for batch
/// ingestion via [`ControllerCore::handle_report_batch`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReportFrame {
    /// Reporting client.
    pub client: usize,
    /// Epoch of the join event that produced the report.
    pub epoch: u64,
    /// Scanned per-extender achievable rates (`None` = unreachable).
    pub rates: Vec<Option<Mbps>>,
    /// Extender the client attached to on its own.
    pub attached: usize,
}

/// What [`ControllerCore::handle_report_batch`] did with a drained batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutcome {
    /// Directives produced by the single batch plan.
    pub directives: Vec<Directive>,
    /// Frames actually ingested (duplicates by epoch are skipped).
    pub ingested: usize,
    /// Epoch of the last ingested frame, if any was.
    pub last_epoch: Option<u64>,
}

/// Coalesces a drained run of report frames to each client's newest (by
/// arrival order): a frame is dropped when a later frame from the same
/// client is present, exactly as if the stale frame were deleted from
/// the queue in place — survivor order is arrival order. Returns the
/// survivors and the number of frames dropped. Pure queue-shape logic:
/// no clocks, so a given arrival order always coalesces identically.
pub fn coalesce_frames(frames: Vec<ReportFrame>) -> (Vec<ReportFrame>, usize) {
    let total = frames.len();
    let mut seen: Vec<usize> = Vec::new();
    let mut kept: Vec<ReportFrame> = Vec::with_capacity(total);
    for frame in frames.into_iter().rev() {
        if seen.contains(&frame.client) {
            continue;
        }
        seen.push(frame.client);
        kept.push(frame);
    }
    kept.reverse();
    let dropped = total - kept.len();
    (kept, dropped)
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
/// the [`Directive`]s it returns; everything else — dedup, telemetry,
/// planning, sequencing — happens here.
///
/// [`handle_report`]: Self::handle_report
/// [`handle_departed`]: Self::handle_departed
/// [`handle_ack`]: Self::handle_ack
/// [`declare_dead`]: Self::declare_dead
#[derive(Debug, Clone)]
pub struct ControllerCore {
    config: ControllerConfig,
    /// Last-known-good smoothed client telemetry (the planning input).
    telemetry: TelemetryCache,
    /// The CC's view of each client's current extender.
    association: Vec<Option<usize>>,
    /// Clients declared dead after a missed ack budget.
    dead: Vec<bool>,
    /// Newest directive sequence issued to each client; only its ack is
    /// accepted.
    latest_seq: Vec<Option<u64>>,
    next_seq: u64,
    /// Highest event epoch processed; lower epochs are duplicates.
    watermark: Option<u64>,
    directives: usize,
    degraded_solves: usize,
    declared_dead: Vec<usize>,
    /// Cached planning view (see [`ensure_view`](Self::ensure_view)).
    /// Session-local: not snapshotted, rebuilt on demand after restore.
    view: Option<ViewCache>,
}

/// A planning [`Network`] built from the telemetry rates of one known
/// set, stamped with the [`TelemetryCache::version`] it was built from
/// so staleness is a pure integer comparison.
#[derive(Debug, Clone)]
struct ViewCache {
    version: u64,
    known: Vec<usize>,
    net: Network,
}

impl ControllerCore {
    /// A fresh controller for `n_users` clients.
    pub fn new(n_users: usize, config: ControllerConfig) -> Self {
        Self {
            telemetry: TelemetryCache::new(n_users, TELEMETRY_ALPHA),
            association: vec![None; n_users],
            dead: vec![false; n_users],
            latest_seq: vec![None; n_users],
            next_seq: 0,
            watermark: None,
            directives: 0,
            degraded_solves: 0,
            declared_dead: Vec::new(),
            view: None,
            config,
        }
    }

    /// Whether `epoch` was already processed (a retransmission or
    /// network duplicate the transport should drop).
    pub fn is_duplicate(&self, epoch: u64) -> bool {
        self.watermark.is_some_and(|w| epoch <= w)
    }

    fn begin_epoch(&mut self, epoch: u64) {
        self.watermark = Some(epoch);
        self.telemetry.advance_epoch();
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
        self.begin_epoch(epoch);
        self.telemetry.record(client, epoch, rates);
        self.association[client] = Some(attached);
        self.dead[client] = false;
        self.latest_seq[client] = None;
        self.plan(Some(client))
    }

    /// Ingests a drained batch of scan reports and plans **once**: each
    /// non-duplicate frame is applied in arrival order (same per-frame
    /// bookkeeping as [`handle_report`](Self::handle_report)), then a
    /// single solve — with the network view built once — diffs the
    /// directives. A batch with one ingested frame is byte-identical to
    /// `handle_report` on that frame; duplicates are skipped internally
    /// (no [`is_duplicate`](Self::is_duplicate) pre-check needed), so a
    /// frame whose epoch an earlier frame of the same batch already
    /// advanced past is absorbed here too.
    ///
    /// A merged batch (two or more frames ingested) may plan
    /// warm-started: WOLT re-polishes the previous complete association
    /// against the batched telemetry (`core.warm_solves`) instead of
    /// re-solving from scratch, falling back to the cold two-phase solve
    /// when no usable previous plan exists.
    ///
    /// # Errors
    ///
    /// As [`handle_report`](Self::handle_report).
    pub fn handle_report_batch(
        &mut self,
        frames: &[ReportFrame],
    ) -> Result<BatchOutcome, TestbedError> {
        let mut ingested = 0usize;
        let mut last: Option<(usize, u64)> = None;
        for frame in frames {
            if self.is_duplicate(frame.epoch) {
                continue;
            }
            obs::counter_inc("cc.reports");
            self.begin_epoch(frame.epoch);
            self.telemetry
                .record(frame.client, frame.epoch, &frame.rates);
            self.association[frame.client] = Some(frame.attached);
            self.dead[frame.client] = false;
            self.latest_seq[frame.client] = None;
            ingested += 1;
            last = Some((frame.client, frame.epoch));
        }
        let Some((arriving, last_epoch)) = last else {
            return Ok(BatchOutcome {
                directives: Vec::new(),
                ingested: 0,
                last_epoch: None,
            });
        };
        let directives = self.plan_with(Some(arriving), ingested > 1)?;
        Ok(BatchOutcome {
            directives,
            ingested,
            last_epoch: Some(last_epoch),
        })
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
        self.begin_epoch(epoch);
        self.telemetry.forget(client);
        self.association[client] = None;
        self.dead[client] = false;
        self.latest_seq[client] = None;
        if self.config.policy == ControllerPolicy::Wolt {
            self.plan(None)
        } else {
            Ok(Vec::new())
        }
    }

    /// Processes a directive acknowledgement. Returns `true` when the
    /// ack matches the newest outstanding sequence for a live client (so
    /// the transport clears its pending entry); stale acks and acks from
    /// declared-dead clients return `false` and change nothing.
    pub fn handle_ack(&mut self, client: usize, seq: u64, extender: usize) -> bool {
        if !self.dead[client] && self.latest_seq[client] == Some(seq) {
            obs::counter_inc("cc.acks_accepted");
            self.association[client] = Some(extender);
            true
        } else {
            obs::counter_inc("cc.acks_stale");
            false
        }
    }

    /// Declares `client` dead after the transport exhausted its ack
    /// retry budget: forgets its telemetry, unassigns it, and re-plans
    /// the survivors (the dead client's load vanishes). The returned
    /// directives may supersede in-flight ones for other clients.
    ///
    /// # Errors
    ///
    /// As [`handle_report`](Self::handle_report).
    pub fn declare_dead(&mut self, client: usize) -> Result<Vec<Directive>, TestbedError> {
        obs::counter_inc("cc.declared_dead");
        self.dead[client] = true;
        self.telemetry.forget(client);
        self.association[client] = None;
        self.latest_seq[client] = None;
        self.declared_dead.push(client);
        self.plan(None)
    }

    /// Runs the policy on the telemetry view and returns a directive for
    /// every live client whose target changed, in ascending client
    /// order. Assigns sequence numbers and counts issued directives.
    fn plan(&mut self, arriving: Option<usize>) -> Result<Vec<Directive>, TestbedError> {
        self.plan_with(arriving, false)
    }

    /// [`plan`](Self::plan) with an explicit warm-start permission:
    /// `warm` lets WOLT re-polish the previous complete association
    /// instead of re-solving from scratch. Only merged report batches
    /// pass `true`; every single-event path stays cold so its decisions
    /// are bit-for-bit those of the pre-batching controller.
    fn plan_with(
        &mut self,
        arriving: Option<usize>,
        warm: bool,
    ) -> Result<Vec<Directive>, TestbedError> {
        if self.config.policy == ControllerPolicy::Rssi {
            return Ok(Vec::new());
        }
        let known: Vec<usize> = self
            .telemetry
            .known_clients()
            .into_iter()
            .filter(|&i| !self.dead[i])
            .collect();
        if known.is_empty() {
            return Ok(Vec::new());
        }
        let desired = match self
            .ensure_view(&known)
            .and_then(|()| self.plan_targets(&known, arriving, warm))
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
            self.directives += 1;
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
    /// configured policy, in `known` order. Requires
    /// [`ensure_view`](Self::ensure_view) to have prepared the planning
    /// view for this `known` set.
    fn plan_targets(
        &self,
        known: &[usize],
        arriving: Option<usize>,
        warm: bool,
    ) -> Result<Vec<usize>, TestbedError> {
        let (net, current) = self.current_view(known)?;
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
                let wolt = Wolt::new();
                // A merged batch may warm-start: re-polish the previous
                // complete association against the batched telemetry
                // instead of re-running both phases. Any failure — a
                // partial previous plan, a validation error against the
                // shifted view — falls back to the cold solve.
                let assoc = if warm && current.is_complete() {
                    wolt.warm_associate(net, &current)
                } else {
                    Err(wolt_core::CoreError::IncompleteAssociation { user: 0 })
                }
                .or_else(|_| wolt.associate(net))
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

    /// Builds — or, when the telemetry rate content and known set are
    /// unchanged since the last plan, reuses — the planning [`Network`]:
    /// estimated PLC capacities plus the telemetry cache's
    /// last-known-good rates for the given clients. The view is a pure
    /// function of `(telemetry version, known)`, so a steady-state
    /// population re-reporting unchanged rates replans across epochs
    /// without rebuilding it (`cc.view_reuses` / `cc.view_builds`).
    fn ensure_view(&mut self, known: &[usize]) -> Result<(), TestbedError> {
        let version = self.telemetry.version();
        if self
            .view
            .as_ref()
            .is_some_and(|v| v.version == version && v.known == known)
        {
            obs::counter_inc("cc.view_reuses");
            return Ok(());
        }
        let rates: Vec<Vec<f64>> = known
            .iter()
            .map(|&i| {
                self.telemetry
                    .rates(i)
                    .expect("known client has rates")
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
        self.view = Some(ViewCache {
            version,
            known: known.to_vec(),
            net,
        });
        Ok(())
    }

    /// The prepared planning view for `known`, plus the CC's current
    /// association of those clients (always rebuilt — associations
    /// change on every ack, so only the [`Network`] is worth caching).
    fn current_view(&self, known: &[usize]) -> Result<(&Network, Association), TestbedError> {
        let view = self
            .view
            .as_ref()
            .filter(|v| v.version == self.telemetry.version() && v.known == known)
            .ok_or_else(|| TestbedError::AssignmentFailed {
                context: "planning view not prepared".to_string(),
            })?;
        let assoc = Association::from_targets(known.iter().map(|&i| self.association[i]).collect());
        Ok((&view.net, assoc))
    }

    /// The CC's view of each client's current extender.
    pub fn association(&self) -> &[Option<usize>] {
        &self.association
    }

    /// Distinct directives issued so far (retransmissions not counted —
    /// those are the transport's business).
    pub fn directives(&self) -> usize {
        self.directives
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
            alpha: self.telemetry.alpha(),
            telemetry: self.telemetry.entries(),
            association: self.association.clone(),
            dead: self.dead.clone(),
            latest_seq: self.latest_seq.clone(),
            next_seq: self.next_seq,
            directives: self.directives,
            degraded_solves: self.degraded_solves,
            declared_dead: self.declared_dead.clone(),
        }
    }

    /// Rebuilds a controller from a snapshot plus the (non-serialized)
    /// configuration. The restored core continues exactly where the
    /// snapshotted one stopped: same epoch watermark, same sequence
    /// counter, same telemetry.
    ///
    /// # Errors
    ///
    /// Returns [`TestbedError::InvalidConfig`] when the snapshot's
    /// per-client vectors disagree in length.
    pub fn restore(
        config: ControllerConfig,
        snapshot: ControllerSnapshot,
    ) -> Result<Self, TestbedError> {
        let n = snapshot.telemetry.len();
        if snapshot.association.len() != n
            || snapshot.dead.len() != n
            || snapshot.latest_seq.len() != n
        {
            return Err(TestbedError::InvalidConfig {
                context: "snapshot per-client vectors disagree in length",
            });
        }
        Ok(Self {
            telemetry: TelemetryCache::from_entries(snapshot.alpha, snapshot.telemetry),
            association: snapshot.association,
            dead: snapshot.dead,
            latest_seq: snapshot.latest_seq,
            next_seq: snapshot.next_seq,
            watermark: snapshot.epoch,
            directives: snapshot.directives,
            degraded_solves: snapshot.degraded_solves,
            declared_dead: snapshot.declared_dead,
            view: None,
            config,
        })
    }
}

/// The serializable decision state of a [`ControllerCore`].
///
/// Serializes to canonical JSON via [`ToJson`] (insertion-ordered keys,
/// shortest-round-trip floats), so two snapshots of equal state are
/// byte-identical on disk.
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerSnapshot {
    /// Highest event epoch processed ([`ControllerCore::watermark`]).
    pub epoch: Option<u64>,
    /// Telemetry smoothing factor.
    pub alpha: f64,
    /// Per-client telemetry slots.
    pub telemetry: Vec<Option<TelemetryEntry>>,
    /// Per-client association view.
    pub association: Vec<Option<usize>>,
    /// Per-client declared-dead flags.
    pub dead: Vec<bool>,
    /// Per-client newest outstanding directive sequence.
    pub latest_seq: Vec<Option<u64>>,
    /// Next directive sequence number.
    pub next_seq: u64,
    /// Distinct directives issued.
    pub directives: usize,
    /// Degraded solves so far.
    pub degraded_solves: usize,
    /// Clients declared dead, in declaration order.
    pub declared_dead: Vec<usize>,
}

impl ToJson for ControllerSnapshot {
    fn to_json(&self) -> Json {
        let telemetry = Json::Arr(
            self.telemetry
                .iter()
                .map(|slot| match slot {
                    None => Json::Null,
                    Some(e) => Json::obj([
                        (
                            "rates",
                            Json::Arr(
                                e.rates
                                    .iter()
                                    .map(|r| match r {
                                        Some(m) => Json::Num(m.value()),
                                        None => Json::Null,
                                    })
                                    .collect(),
                            ),
                        ),
                        ("staleness", e.staleness.to_json()),
                        ("last_epoch", e.last_epoch.to_json()),
                    ]),
                })
                .collect(),
        );
        Json::obj([
            ("epoch", self.epoch.to_json()),
            ("alpha", self.alpha.to_json()),
            ("telemetry", telemetry),
            ("association", self.association.to_json()),
            ("dead", self.dead.to_json()),
            ("latest_seq", self.latest_seq.to_json()),
            ("next_seq", self.next_seq.to_json()),
            ("directives", self.directives.to_json()),
            ("degraded_solves", self.degraded_solves.to_json()),
            ("declared_dead", self.declared_dead.to_json()),
        ])
    }
}

impl FromJson for ControllerSnapshot {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let telemetry = value
            .field("telemetry")?
            .as_arr()
            .ok_or_else(|| JsonError::shape("telemetry must be an array"))?
            .iter()
            .map(|slot| {
                if slot.is_null() {
                    return Ok(None);
                }
                let rates = slot
                    .field("rates")?
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
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Some(TelemetryEntry {
                    rates,
                    staleness: u64::from_json(slot.field("staleness")?)?,
                    last_epoch: u64::from_json(slot.field("last_epoch")?)?,
                }))
            })
            .collect::<Result<Vec<_>, JsonError>>()?;
        Ok(Self {
            epoch: Option::<u64>::from_json(value.field("epoch")?)?,
            alpha: f64::from_json(value.field("alpha")?)?,
            telemetry,
            association: Vec::<Option<usize>>::from_json(value.field("association")?)?,
            dead: Vec::<bool>::from_json(value.field("dead")?)?,
            latest_seq: Vec::<Option<u64>>::from_json(value.field("latest_seq")?)?,
            next_seq: u64::from_json(value.field("next_seq")?)?,
            directives: usize::from_json(value.field("directives")?)?,
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

    fn frame(client: usize, epoch: u64, rates: &[Option<Mbps>], attached: usize) -> ReportFrame {
        ReportFrame {
            client,
            epoch,
            rates: rates.to_vec(),
            attached,
        }
    }

    #[test]
    fn coalesce_keeps_each_clients_newest_in_arrival_order() {
        let a1 = frame(0, 5, &[mb(10.0)], 0);
        let b1 = frame(1, 6, &[mb(20.0)], 0);
        let a2 = frame(0, 7, &[mb(30.0)], 0);
        let (kept, dropped) = coalesce_frames(vec![a1, b1.clone(), a2.clone()]);
        // a1 is deleted in place; survivor order is arrival order.
        assert_eq!(kept, vec![b1, a2]);
        assert_eq!(dropped, 1);
        let (kept, dropped) = coalesce_frames(Vec::new());
        assert!(kept.is_empty());
        assert_eq!(dropped, 0);
        // A same-client burst collapses to its last copy.
        let burst: Vec<ReportFrame> = (0..5).map(|e| frame(2, e, &[mb(1.0)], 0)).collect();
        let (kept, dropped) = coalesce_frames(burst.clone());
        assert_eq!(kept, vec![burst[4].clone()]);
        assert_eq!(dropped, 4);
    }

    #[test]
    fn batch_of_one_matches_handle_report_exactly() {
        for policy in [
            ControllerPolicy::Wolt,
            ControllerPolicy::Greedy,
            ControllerPolicy::Rssi,
        ] {
            let mut single = core(policy, 2, &[60.0, 20.0]);
            let mut batched = single.clone();
            let mut singles = Vec::new();
            let events = [
                frame(0, 0, &[mb(15.0), mb(10.0)], 0),
                frame(1, 1, &[mb(40.0), mb(20.0)], 0),
            ];
            for f in &events {
                assert!(!single.is_duplicate(f.epoch));
                singles.push(single.handle_report(f.client, f.epoch, &f.rates, f.attached));
            }
            for (f, expect) in events.iter().zip(singles) {
                let outcome = batched
                    .handle_report_batch(std::slice::from_ref(f))
                    .unwrap();
                assert_eq!(outcome.directives, expect.unwrap(), "{policy:?}");
                assert_eq!(outcome.ingested, 1);
                assert_eq!(outcome.last_epoch, Some(f.epoch));
            }
            // The full decision state agrees, byte for byte.
            assert_eq!(
                single.snapshot().to_json().to_pretty(),
                batched.snapshot().to_json().to_pretty(),
                "{policy:?}"
            );
        }
    }

    #[test]
    fn batch_skips_duplicates_and_plans_once() {
        let mut cc = core(ControllerPolicy::Wolt, 2, &[60.0, 20.0]);
        cc.handle_report(0, 0, &[mb(15.0), mb(10.0)], 0).unwrap();
        // A stale epoch, a same-batch burst, and a fresh frame together:
        // only the two fresh ones are ingested.
        let outcome = cc
            .handle_report_batch(&[
                frame(0, 0, &[mb(15.0), mb(10.0)], 0),
                frame(1, 1, &[mb(40.0), mb(20.0)], 0),
                frame(1, 1, &[mb(40.0), mb(20.0)], 0),
                frame(0, 2, &[mb(15.0), mb(10.0)], 0),
            ])
            .unwrap();
        assert_eq!(outcome.ingested, 2);
        assert_eq!(outcome.last_epoch, Some(2));
        assert_eq!(cc.watermark(), Some(2));
        // An all-duplicate batch is a no-op.
        let outcome = cc
            .handle_report_batch(&[frame(0, 1, &[mb(15.0), mb(10.0)], 0)])
            .unwrap();
        assert_eq!(
            outcome,
            BatchOutcome {
                directives: Vec::new(),
                ingested: 0,
                last_epoch: None,
            }
        );
    }

    #[test]
    fn merged_batches_are_deterministic_and_valid() {
        // Two identical cores fed the same merged batch (the warm-start
        // path) must agree exactly — and with a strict config the batch
        // must plan, not degrade.
        let mk = || {
            let mut cc = core(ControllerPolicy::Wolt, 3, &[60.0, 20.0]);
            cc.handle_report(0, 0, &[mb(15.0), mb(10.0)], 0).unwrap();
            cc.handle_report(1, 1, &[mb(40.0), mb(20.0)], 0).unwrap();
            cc
        };
        let batch = [
            frame(2, 2, &[mb(25.0), mb(30.0)], 0),
            frame(0, 3, &[mb(15.0), mb(10.0)], 0),
        ];
        let (mut a, mut b) = (mk(), mk());
        let oa = a.handle_report_batch(&batch).unwrap();
        let ob = b.handle_report_batch(&batch).unwrap();
        assert_eq!(oa, ob);
        assert_eq!(oa.ingested, 2);
        assert_eq!(
            a.snapshot().to_json().to_pretty(),
            b.snapshot().to_json().to_pretty()
        );
        // Every client ends attached somewhere valid.
        for dir in &oa.directives {
            assert!(dir.extender < 2);
        }
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
        // telemetry entry behind.
        assert_eq!(cc.snapshot().telemetry[1], None);
        // Its acks are ignored forever after.
        assert!(!cc.handle_ack(1, 0, 0));
    }

    #[test]
    fn departed_client_leaves_no_state_behind() {
        let mut cc = core(ControllerPolicy::Greedy, 2, &[60.0, 20.0]);
        cc.handle_report(0, 0, &[mb(15.0), mb(10.0)], 0).unwrap();
        cc.handle_departed(0, 1).unwrap();
        let snap = cc.snapshot();
        assert_eq!(snap.telemetry[0], None);
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
