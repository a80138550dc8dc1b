//! The testbed rig: a Central Controller and its client agents speaking
//! the paper's protocol in one thread, on virtual time.
//!
//! The paper implements WOLT "as a user-space utility that runs on users'
//! devices as well as the server" (§V-A). This module reproduces that
//! architecture in process: the caller is the CC and each client laptop
//! is an [`AgentState`]. Clients join (and may leave) sequentially, as
//! laptops were carried around the lab: each scans, attaches to its
//! strongest-RSSI extender, reports its rate estimates to the CC, and
//! re-associates when a directive arrives. The CC runs the configured
//! association policy on the *estimated* PLC capacities (from the offline
//! iperf procedure), while the physical outcome is always evaluated on
//! the true capacities — estimation error is part of the experiment.
//!
//! # Virtual time
//!
//! The protocol itself lives in [`crate::session`]: the CC is a
//! [`SessionDriver`] and every agent an [`AgentState`]. This module adds
//! only the transport, and its clock is virtual: `now` jumps to the next
//! reply that arrives by the driver's deadline, or else to the deadline
//! itself. Nothing sleeps, spawns a thread, or takes a lock. The air
//! behaves as one thread per laptop behind a FIFO inbox would:
//!
//! * each agent serves what it is sent in order, one message at a time;
//! * it spends the plan's CC → client delay before applying a directive
//!   and the client → CC delay before its reply leaves, and is busy
//!   meanwhile; a wedged agent spends no time on the directives it
//!   ignores;
//! * a crashed agent's inbox closes as its first report leaves: a later
//!   command finds it unreachable, and whatever queued behind the report
//!   is lost;
//! * replies in flight arrive in order of (arrival time, send order).
//!
//! `wolt-daemon` is the threaded transport over the same driver, with
//! sockets and the wall clock.
//!
//! # Resilience
//!
//! A real deployment's control plane is lossy: reports and directives
//! cross the same contended medium they configure, and laptops crash or
//! hang without notice. [`run_faulty_session`] runs the same protocol
//! under a seeded [`FaultPlan`], and the control loop is built to survive
//! it:
//!
//! * every wait is bounded by a [`Deadlines`] budget — the rig returns
//!   [`TestbedError::Timeout`] rather than waiting forever;
//! * directives carry monotone sequence numbers and are retransmitted
//!   with bounded exponential backoff; agents apply each sequence once
//!   and re-ack retries, so duplication and reordering are harmless;
//! * a client that misses its whole ack retry budget is declared dead:
//!   the CC forgets its report and re-optimizes the survivors instead
//!   of stranding the transaction;
//! * the CC plans on each known client's last report, and degrades to
//!   the previous association when a solve fails mid-faults instead of
//!   panicking.
//!
//! A faulty session is a pure function of its scenario, seed, deadlines
//! and plan, `retries` included: fault decisions are keyed by message
//! identity (see [`crate::faults`]) and the clock is virtual, so delays
//! of any length, even past the ack retry budget, replay exactly.

use std::collections::BTreeMap;
use std::time::Duration;

use wolt_core::Association;
use wolt_plc::capacity::CapacityEstimator;
use wolt_sim::Scenario;

use crate::controller::{ControllerConfig, ControllerCore};
use crate::faults::{FaultPlan, Link, MessageKey};
use crate::protocol::{ToAgent, ToController};
use crate::session::{
    check_session, estimate_capacities, AgentState, EventOutcome, Input, Outbound, SessionDriver,
};
use crate::TestbedError;

/// Which association logic the Central Controller runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControllerPolicy {
    /// Full WOLT re-optimization on every arrival/departure (directives
    /// may move existing clients).
    Wolt,
    /// Greedy placement of the arriving client only; departures trigger
    /// no re-optimization.
    Greedy,
    /// No directives: clients stay on their strongest-RSSI extender.
    Rssi,
}

impl ControllerPolicy {
    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            ControllerPolicy::Wolt => "WOLT",
            ControllerPolicy::Greedy => "Greedy",
            ControllerPolicy::Rssi => "RSSI",
        }
    }

    /// The lowercase key the CLI, fleet spec files and `wolt chaos`
    /// spell the policy with.
    pub fn key(self) -> &'static str {
        match self {
            ControllerPolicy::Wolt => "wolt",
            ControllerPolicy::Greedy => "greedy",
            ControllerPolicy::Rssi => "rssi",
        }
    }

    /// The policy whose [`key`](Self::key) is `key`, ignoring ASCII case.
    pub fn from_key(key: &str) -> Option<Self> {
        [Self::Wolt, Self::Greedy, Self::Rssi]
            .into_iter()
            .find(|p| p.key().eq_ignore_ascii_case(key))
    }
}

/// Deadline and retry budgets for the session protocol, shared by every
/// transport. Every blocking wait is bounded by one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadlines {
    /// How long the harness waits for one join/leave transaction to
    /// complete before retransmitting the command.
    pub event: Duration,
    /// Harness retransmissions per event before giving up (≥ 1).
    pub event_attempts: u32,
    /// Base ack deadline for a directive; retries back off exponentially
    /// from here.
    pub ack: Duration,
    /// Directive transmissions per sequence number before the CC declares
    /// the client dead (≥ 1).
    pub ack_attempts: u32,
    /// Upper bound on the backed-off ack deadline.
    pub ack_backoff_cap: Duration,
}

impl Default for Deadlines {
    fn default() -> Self {
        Self {
            event: Duration::from_secs(2),
            event_attempts: 8,
            ack: Duration::from_millis(25),
            ack_attempts: 6,
            ack_backoff_cap: Duration::from_millis(200),
        }
    }
}

impl Deadlines {
    /// The ack deadline for the given (1-based) transmission attempt:
    /// exponential backoff from [`ack`](Self::ack), capped at
    /// [`ack_backoff_cap`](Self::ack_backoff_cap).
    pub fn backoff(&self, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.saturating_sub(1).min(16);
        self.ack.saturating_mul(factor).min(self.ack_backoff_cap)
    }
}

/// Rig configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RigConfig {
    /// Association logic at the CC.
    pub policy: ControllerPolicy,
    /// Offline PLC capacity estimation procedure (measurement noise).
    pub estimator: CapacityEstimator,
    /// Deadline and retry budgets for the control loop.
    pub deadlines: Deadlines,
}

impl RigConfig {
    /// Rig with the given policy and the default estimator and deadlines.
    pub fn new(policy: ControllerPolicy) -> Self {
        Self {
            policy,
            estimator: CapacityEstimator::default(),
            deadlines: Deadlines::default(),
        }
    }
}

/// One step of a testbed session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionEvent {
    /// Client `i` powers on, scans, attaches, and reports to the CC.
    Join(usize),
    /// Client `i` leaves the network (sends a departure notice).
    Leave(usize),
}

impl SessionEvent {
    /// The client the event concerns.
    pub fn client(self) -> usize {
        match self {
            SessionEvent::Join(i) | SessionEvent::Leave(i) => i,
        }
    }
}

/// Result of running one topology through the rig.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyOutcome {
    /// Policy name.
    pub policy: String,
    /// Final association (physical state at session end; departed and
    /// non-surviving clients are unassigned).
    pub association: Association,
    /// Aggregate throughput on the *true* capacities (Mbit/s).
    pub aggregate: f64,
    /// Per-user throughput on the true capacities (Mbit/s; 0 for departed
    /// clients).
    pub per_user: Vec<f64>,
    /// Jain's fairness index over the surviving clients.
    pub jain: Option<f64>,
    /// Distinct directives the CC issued (retransmissions not counted).
    pub directives: usize,
    /// Surviving clients whose final extender differs from their
    /// attachment when their first join transaction completed (so a move
    /// directed during that transaction is not a switch).
    pub switches: usize,
}

/// Everything [`run_faulty_session`] observed: the physical outcome plus
/// the fault bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// The evaluated physical outcome over the surviving clients.
    pub outcome: TopologyOutcome,
    /// Clients present, responsive, and fault-free at session end,
    /// ascending. Only these contribute throughput.
    pub survivors: Vec<usize>,
    /// Clients the plan crashed, ascending.
    pub crashed: Vec<usize>,
    /// Clients the plan wedged, ascending.
    pub wedged: Vec<usize>,
    /// Clients the CC declared dead after exhausting an ack retry
    /// budget, ascending.
    pub declared_dead: Vec<usize>,
    /// Clients whose join/leave never completed within the harness retry
    /// budget (expected agent faults only), ascending.
    pub unresponsive: Vec<usize>,
    /// Times the CC kept the previous association because a solve failed.
    pub degraded_solves: usize,
    /// Total retransmissions (harness events + CC directives).
    /// Deterministic on the rig, whose clock is virtual; timing-dependent
    /// on the daemon, so excluded from [`canonical`](Self::canonical).
    pub retries: usize,
}

impl SessionReport {
    /// A canonical, timing-independent rendering of the session outcome.
    ///
    /// Two runs with the same scenario, seed, and fault plan produce
    /// byte-identical canonical reports regardless of thread count,
    /// scheduling or transport. `retries` is deliberately excluded: on
    /// the daemon's wall clock a slow scheduler can trip a retransmission
    /// deadline without changing any decision.
    pub fn canonical(&self) -> String {
        let targets: Vec<Option<usize>> = self.outcome.association.iter().collect();
        format!(
            "policy={} association={targets:?} aggregate={:?} per_user={:?} jain={:?} \
             directives={} switches={} survivors={:?} crashed={:?} wedged={:?} \
             declared_dead={:?} unresponsive={:?} degraded_solves={}",
            self.outcome.policy,
            self.outcome.aggregate,
            self.outcome.per_user,
            self.outcome.jain,
            self.outcome.directives,
            self.outcome.switches,
            self.survivors,
            self.crashed,
            self.wedged,
            self.declared_dead,
            self.unresponsive,
            self.degraded_solves,
        )
    }
}

/// Runs the standard experiment: every user joins once, in index order.
///
/// See [`run_session`] for the general event-driven form; this wrapper
/// additionally guarantees a complete final association.
///
/// # Errors
///
/// As [`run_session`], plus [`TestbedError::AssignmentFailed`] if the
/// session somehow ends incomplete.
pub fn run_rig(
    scenario: &Scenario,
    config: &RigConfig,
    seed: u64,
) -> Result<TopologyOutcome, TestbedError> {
    let events: Vec<SessionEvent> = (0..scenario.user_positions.len())
        .map(SessionEvent::Join)
        .collect();
    let outcome = run_session(scenario, config, &events, seed)?;
    outcome
        .association
        .require_complete()
        .map_err(TestbedError::from)?;
    Ok(outcome)
}

/// Runs an arbitrary join/leave session through the rig on a fault-free
/// network and evaluates the resulting physical association on the true
/// capacities.
///
/// `seed` drives the capacity-estimation noise only; the scenario itself
/// is supplied fully sampled.
///
/// # Errors
///
/// * [`TestbedError::InvalidConfig`] for an empty scenario, a Join of an
///   already-present client, or a Leave of an absent one.
/// * [`TestbedError::AssignmentFailed`] if the CC's policy cannot produce
///   an association.
/// * [`TestbedError::Timeout`] if an endpoint stops responding (a bug on
///   a fault-free network, but bounded rather than a hang).
pub fn run_session(
    scenario: &Scenario,
    config: &RigConfig,
    events: &[SessionEvent],
    seed: u64,
) -> Result<TopologyOutcome, TestbedError> {
    run_faulty_session(scenario, config, events, seed, &FaultPlan::none()).map(|r| r.outcome)
}

/// Runs a join/leave session under a seeded [`FaultPlan`] and reports the
/// surviving physical outcome plus the fault bookkeeping.
///
/// With [`FaultPlan::none`] the rig is *strict*: it behaves exactly like
/// the lossless protocol and an unresponsive endpoint or failed solve is
/// a hard error. With any fault configured the rig is *resilient*: an
/// event that exhausts its retry budget against a planned agent fault
/// marks the client unresponsive, a failed solve keeps the previous
/// association, and the session always terminates within its deadline
/// budget.
///
/// # Errors
///
/// As [`run_session`]. [`TestbedError::Timeout`] is returned when an
/// event exhausts its retries and the plan does not explain the silence
/// with a crashed or wedged agent.
pub fn run_faulty_session(
    scenario: &Scenario,
    config: &RigConfig,
    events: &[SessionEvent],
    seed: u64,
    plan: &FaultPlan,
) -> Result<SessionReport, TestbedError> {
    check_session(scenario, &config.deadlines)?;
    plan.validate()?;
    let n_users = scenario.user_positions.len();
    if plan
        .crashed
        .iter()
        .chain(plan.wedged.iter())
        .any(|&c| c >= n_users)
    {
        return Err(TestbedError::InvalidConfig {
            context: "fault plan names an out-of-range client",
        });
    }
    let strict = plan.is_none();
    let core = ControllerCore::new(
        n_users,
        ControllerConfig {
            policy: config.policy,
            estimated_capacities: estimate_capacities(scenario, &config.estimator, seed)?,
            strict,
        },
    );
    let mut driver = SessionDriver::new(core, events.to_vec(), config.deadlines);
    let mut air = Air {
        plan,
        laptops: (0..n_users)
            .map(|i| Laptop {
                agent: AgentState::new(scenario, i),
                free_at: Duration::ZERO,
                closed_at: None,
                attachments: Vec::new(),
            })
            .collect(),
        in_flight: BTreeMap::new(),
        sent: 0,
    };

    // The session loop: the caller is the Central Controller. Events are
    // serialized, as laptops were brought online and offline one at a
    // time.
    let mut now = Duration::ZERO;
    while let Some(mut step) = driver.begin(now)? {
        let ended = loop {
            let unreachable = air.deliver(now, step.sends);
            if let Some(ended) = step.ended {
                break ended;
            }
            let input = match unreachable {
                Some(client) => Input::Unreachable(client),
                None => {
                    let deadline = step.deadline.unwrap_or(now);
                    match air.next_reply(deadline) {
                        Some((at, msg)) => {
                            now = at;
                            Input::Msg(msg)
                        }
                        None => {
                            now = deadline;
                            Input::Tick
                        }
                    }
                }
            };
            step = driver.handle(now, input)?;
        };
        let i = ended.event.client();
        match ended.outcome {
            EventOutcome::Completed => {
                if matches!(ended.event, SessionEvent::Join(_)) {
                    driver.record_join(i, air.laptops[i].attached_at(now));
                }
            }
            // Planned silence: a crashed agent's inbox is closed (or its
            // only report was dropped), a wedged one may never answer.
            // Only a crashed agent is ever unreachable.
            _ if plan.expects_agent_fault(i) => {}
            _ => {
                return Err(TestbedError::Timeout {
                    waiting_for: format!("completion of event {} (client {i})", ended.epoch),
                })
            }
        }
    }

    // The physical state is ground truth: each agent's attachment once it
    // has served everything it was sent. On a fault-free network the
    // CC's view must agree with it exactly.
    let physical: Vec<Option<usize>> = air.laptops.iter().map(|l| l.agent.attached()).collect();
    if strict {
        debug_assert_eq!(physical, driver.core().association());
    }
    driver.report(
        scenario,
        &physical,
        config.policy.name(),
        &plan.crashed,
        &plan.wedged,
    )
}

/// The virtual air between the Central Controller and its agents.
struct Air<'a> {
    plan: &'a FaultPlan,
    laptops: Vec<Laptop>,
    /// Replies in flight, by (arrival time, send order).
    in_flight: BTreeMap<(Duration, u64), ToController>,
    /// Replies sent so far: the send order of the next one.
    sent: u64,
}

/// One client laptop: its agent and the times that shape what it serves.
struct Laptop {
    agent: AgentState,
    /// When the agent is done with everything it was sent so far.
    free_at: Duration,
    /// When a crashed agent's inbox closed: as its first report left.
    closed_at: Option<Duration>,
    /// Each attachment the agent took, from the time it took it: a
    /// completed join records the one held at that instant, not one a
    /// directive the agent is still spending its delay on will bring.
    attachments: Vec<(Duration, Option<usize>)>,
}

impl Laptop {
    /// The extender the laptop was attached to at time `at`.
    fn attached_at(&self, at: Duration) -> Option<usize> {
        self.attachments
            .iter()
            .rev()
            .find(|&&(since, _)| since <= at)
            .and_then(|&(_, extender)| extender)
    }
}

impl Air<'_> {
    /// Delivers the driver's sends at `now`, replaying the plan's CC →
    /// client drops and duplicates. Returns the client whose command
    /// found its inbox closed. A directive to a closed inbox is lost, as
    /// a dropped one is, and the ack deadlines handle both.
    fn deliver(&mut self, now: Duration, sends: Vec<Outbound>) -> Option<usize> {
        let mut unreachable = None;
        for send in sends {
            match send {
                Outbound::Command { client, cmd } => {
                    let key = match cmd {
                        ToAgent::Join { epoch, attempt } => {
                            MessageKey::report(client, epoch, attempt)
                        }
                        ToAgent::Leave { epoch, attempt } => {
                            MessageKey::departed(client, epoch, attempt)
                        }
                        ToAgent::Shutdown => continue,
                    };
                    if self.laptops[client].closed_at.is_some_and(|t| t <= now) {
                        unreachable = Some(client);
                    } else {
                        self.serve(now, client, Duration::ZERO, key, |a| a.command(&cmd));
                    }
                }
                Outbound::Directive {
                    client,
                    extender,
                    seq,
                    attempt,
                } => {
                    let fate = self
                        .plan
                        .decide(Link::ToClient, MessageKey::directive(client, seq, attempt));
                    // Planned wedge: alive and reporting, but it never
                    // applies or acknowledges a directive.
                    let copies = if fate.drop || self.plan.wedged.contains(&client) {
                        0
                    } else {
                        1 + usize::from(fate.duplicate)
                    };
                    for _ in 0..copies {
                        let key = MessageKey::ack(client, seq, attempt);
                        self.serve(now, client, fate.delay, key, |a| a.directive(extender, seq));
                    }
                }
            }
        }
        unreachable
    }

    /// `client`'s agent serves one message sent at `now`: once it is free,
    /// it spends `work`, handles the message, and sends the reply (keyed
    /// by `key`) through the plan's client → CC faults, staying busy
    /// until the reply leaves. A crashed agent exits as its first report
    /// leaves, with the radio still attached and the CC uninformed.
    fn serve(
        &mut self,
        now: Duration,
        client: usize,
        work: Duration,
        key: MessageKey,
        handle: impl FnOnce(&mut AgentState) -> Option<ToController>,
    ) {
        let laptop = &mut self.laptops[client];
        if laptop.closed_at.is_some() {
            return;
        }
        let handled_at = now.max(laptop.free_at) + work;
        laptop.free_at = handled_at;
        let Some(reply) = handle(&mut laptop.agent) else {
            return;
        };
        laptop
            .attachments
            .push((handled_at, laptop.agent.attached()));
        let fate = self.plan.decide(Link::ToCc, key);
        let leaves_at = handled_at + fate.delay;
        laptop.free_at = leaves_at;
        if self.plan.crashed.contains(&client) && matches!(reply, ToController::Report { .. }) {
            laptop.closed_at = Some(leaves_at);
        }
        if !fate.drop {
            for _ in 0..1 + usize::from(fate.duplicate) {
                self.in_flight.insert((leaves_at, self.sent), reply.clone());
                self.sent += 1;
            }
        }
    }

    /// Takes the first reply in flight if it arrives by `by`.
    fn next_reply(&mut self, by: Duration) -> Option<(Duration, ToController)> {
        let entry = self.in_flight.first_entry().filter(|e| e.key().0 <= by)?;
        let ((at, _), reply) = entry.remove_entry();
        Some((at, reply))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::LinkFaults;
    use wolt_core::baselines::Greedy;
    use wolt_core::{evaluate, AssociationPolicy};
    use wolt_sim::scenario::ScenarioConfig;
    use wolt_support::rng::{ChaCha8Rng, SeedableRng};

    fn lab_scenario(seed: u64) -> Scenario {
        let cfg = ScenarioConfig::lab(7);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Scenario::generate(&cfg, &mut rng).unwrap()
    }

    #[test]
    fn rssi_rig_matches_offline_rssi_policy() {
        let scenario = lab_scenario(1);
        let outcome = run_rig(&scenario, &RigConfig::new(ControllerPolicy::Rssi), 0).unwrap();
        assert_eq!(outcome.directives, 0);
        assert_eq!(outcome.switches, 0);
        let net = scenario.network().unwrap();
        let reference = wolt_core::baselines::Rssi.associate(&net).unwrap();
        assert_eq!(outcome.association, reference);
    }

    #[test]
    fn wolt_rig_produces_complete_valid_association() {
        let scenario = lab_scenario(2);
        let outcome = run_rig(&scenario, &RigConfig::new(ControllerPolicy::Wolt), 0).unwrap();
        assert!(outcome.association.is_complete());
        let net = scenario.network().unwrap();
        assert!(net.validate_association(&outcome.association).is_ok());
        assert!(outcome.aggregate > 0.0);
    }

    #[test]
    fn greedy_rig_matches_offline_greedy_with_zero_estimation_noise() {
        let scenario = lab_scenario(3);
        let config = RigConfig {
            estimator: CapacityEstimator {
                rounds: 1,
                noise_sigma: 0.0,
            },
            ..RigConfig::new(ControllerPolicy::Greedy)
        };
        let outcome = run_rig(&scenario, &config, 0).unwrap();
        let net = scenario.network().unwrap();
        let reference = Greedy::new().associate(&net).unwrap();
        let ref_eval = evaluate(&net, &reference).unwrap();
        assert!(
            (outcome.aggregate - ref_eval.aggregate.value()).abs() < 1e-9,
            "rig {} vs offline {}",
            outcome.aggregate,
            ref_eval.aggregate
        );
    }

    #[test]
    fn wolt_rig_beats_rssi_rig_on_average() {
        let mut wolt_total = 0.0;
        let mut rssi_total = 0.0;
        for seed in 0..8 {
            let scenario = lab_scenario(seed);
            wolt_total += run_rig(&scenario, &RigConfig::new(ControllerPolicy::Wolt), 0)
                .unwrap()
                .aggregate;
            rssi_total += run_rig(&scenario, &RigConfig::new(ControllerPolicy::Rssi), 0)
                .unwrap()
                .aggregate;
        }
        assert!(
            wolt_total > rssi_total,
            "WOLT {wolt_total} vs RSSI {rssi_total}"
        );
    }

    #[test]
    fn directives_track_switches_for_wolt() {
        let scenario = lab_scenario(5);
        let outcome = run_rig(&scenario, &RigConfig::new(ControllerPolicy::Wolt), 0).unwrap();
        assert!(outcome.directives >= outcome.switches);
    }

    #[test]
    fn estimation_noise_changes_little_at_default_sigma() {
        let scenario = lab_scenario(6);
        let a = run_rig(&scenario, &RigConfig::new(ControllerPolicy::Wolt), 1).unwrap();
        let b = run_rig(&scenario, &RigConfig::new(ControllerPolicy::Wolt), 2).unwrap();
        let rel = (a.aggregate - b.aggregate).abs() / a.aggregate.max(b.aggregate);
        assert!(rel < 0.25, "estimation noise too influential: {rel}");
    }

    #[test]
    fn rejects_empty_scenario() {
        let scenario = Scenario {
            extender_positions: vec![],
            capacities: vec![],
            user_positions: vec![],
            radio: wolt_wifi::WifiRadio::office_default(),
        };
        assert!(matches!(
            run_rig(&scenario, &RigConfig::new(ControllerPolicy::Rssi), 0),
            Err(TestbedError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn policy_names_match_paper() {
        assert_eq!(ControllerPolicy::Wolt.name(), "WOLT");
        assert_eq!(ControllerPolicy::Greedy.name(), "Greedy");
        assert_eq!(ControllerPolicy::Rssi.name(), "RSSI");
    }

    #[test]
    fn deterministic_for_fixed_seeds() {
        let scenario = lab_scenario(7);
        let a = run_rig(&scenario, &RigConfig::new(ControllerPolicy::Wolt), 3).unwrap();
        let b = run_rig(&scenario, &RigConfig::new(ControllerPolicy::Wolt), 3).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn session_with_departures_leaves_them_unassigned() {
        let scenario = lab_scenario(8);
        let events = vec![
            SessionEvent::Join(0),
            SessionEvent::Join(1),
            SessionEvent::Join(2),
            SessionEvent::Leave(1),
        ];
        let outcome = run_session(
            &scenario,
            &RigConfig::new(ControllerPolicy::Wolt),
            &events,
            0,
        )
        .unwrap();
        assert_eq!(outcome.association.target(1), None);
        assert!(outcome.association.target(0).is_some());
        assert!(outcome.association.target(2).is_some());
        assert_eq!(outcome.per_user[1], 0.0);
        assert!(outcome.aggregate > 0.0);
    }

    #[test]
    fn departure_triggers_wolt_reoptimization() {
        // With three clients on two good extenders, removing one lets
        // WOLT re-balance; the CC must be allowed to send directives on a
        // departure (the baselines send none).
        let scenario = lab_scenario(9);
        let events = vec![
            SessionEvent::Join(0),
            SessionEvent::Join(1),
            SessionEvent::Join(2),
            SessionEvent::Join(3),
            SessionEvent::Leave(0),
            SessionEvent::Leave(2),
        ];
        let wolt = run_session(
            &scenario,
            &RigConfig::new(ControllerPolicy::Wolt),
            &events,
            0,
        )
        .unwrap();
        let rssi = run_session(
            &scenario,
            &RigConfig::new(ControllerPolicy::Rssi),
            &events,
            0,
        )
        .unwrap();
        assert_eq!(rssi.directives, 0);
        assert!(wolt.aggregate >= rssi.aggregate - 1e-9);
    }

    #[test]
    fn rejoin_after_leave_is_allowed() {
        let scenario = lab_scenario(10);
        let events = vec![
            SessionEvent::Join(0),
            SessionEvent::Join(1),
            SessionEvent::Leave(0),
            SessionEvent::Join(0),
        ];
        let outcome = run_session(
            &scenario,
            &RigConfig::new(ControllerPolicy::Greedy),
            &events,
            0,
        )
        .unwrap();
        assert!(outcome.association.target(0).is_some());
        assert!(outcome.association.target(1).is_some());
    }

    #[test]
    fn invalid_sessions_rejected() {
        let scenario = lab_scenario(11);
        let config = RigConfig::new(ControllerPolicy::Rssi);
        // Leave before join.
        assert!(matches!(
            run_session(&scenario, &config, &[SessionEvent::Leave(0)], 0),
            Err(TestbedError::InvalidConfig { .. })
        ));
        // Double join.
        assert!(matches!(
            run_session(
                &scenario,
                &config,
                &[SessionEvent::Join(0), SessionEvent::Join(0)],
                0
            ),
            Err(TestbedError::InvalidConfig { .. })
        ));
        // Out of range.
        assert!(matches!(
            run_session(&scenario, &config, &[SessionEvent::Join(99)], 0),
            Err(TestbedError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn jain_only_counts_present_clients() {
        let scenario = lab_scenario(12);
        let events = vec![
            SessionEvent::Join(0),
            SessionEvent::Join(1),
            SessionEvent::Leave(1),
        ];
        let outcome = run_session(
            &scenario,
            &RigConfig::new(ControllerPolicy::Rssi),
            &events,
            0,
        )
        .unwrap();
        // A single present client with positive throughput: Jain = 1.
        assert_eq!(outcome.jain, Some(1.0));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let d = Deadlines::default();
        assert_eq!(d.backoff(1), Duration::from_millis(25));
        assert_eq!(d.backoff(2), Duration::from_millis(50));
        assert_eq!(d.backoff(3), Duration::from_millis(100));
        assert_eq!(d.backoff(4), Duration::from_millis(200));
        assert_eq!(d.backoff(9), Duration::from_millis(200), "capped");
    }

    #[test]
    fn fault_free_plan_reproduces_run_session() {
        let scenario = lab_scenario(13);
        let config = RigConfig::new(ControllerPolicy::Wolt);
        let events = vec![
            SessionEvent::Join(0),
            SessionEvent::Join(1),
            SessionEvent::Join(2),
            SessionEvent::Leave(0),
        ];
        let plain = run_session(&scenario, &config, &events, 0).unwrap();
        let report =
            run_faulty_session(&scenario, &config, &events, 0, &FaultPlan::none()).unwrap();
        assert_eq!(report.outcome, plain);
        assert_eq!(report.survivors, vec![1, 2]);
        assert!(report.declared_dead.is_empty());
        assert!(report.unresponsive.is_empty());
        assert_eq!(report.degraded_solves, 0);
    }

    #[test]
    fn crashed_agent_session_completes_and_masks_casualty() {
        let scenario = lab_scenario(14);
        let config = RigConfig::new(ControllerPolicy::Wolt);
        let events: Vec<SessionEvent> = (0..7).map(SessionEvent::Join).collect();
        let plan = FaultPlan {
            crashed: vec![2],
            ..FaultPlan::none()
        };
        let report = run_faulty_session(&scenario, &config, &events, 0, &plan).unwrap();
        assert_eq!(report.crashed, vec![2]);
        assert!(!report.survivors.contains(&2));
        assert_eq!(report.outcome.association.target(2), None);
        for &i in &report.survivors {
            assert!(
                report.outcome.association.target(i).is_some(),
                "survivor {i} stranded"
            );
        }
        assert!(report.outcome.aggregate > 0.0);
    }

    #[test]
    fn total_loss_yields_bounded_timeout() {
        let scenario = lab_scenario(15);
        let config = RigConfig {
            deadlines: Deadlines {
                event: Duration::from_millis(50),
                event_attempts: 2,
                ..Deadlines::default()
            },
            ..RigConfig::new(ControllerPolicy::Wolt)
        };
        let plan = FaultPlan {
            to_cc: LinkFaults {
                drop: 1.0,
                duplicate: 0.0,
                max_delay: Duration::ZERO,
            },
            ..FaultPlan::none()
        };
        let err =
            run_faulty_session(&scenario, &config, &[SessionEvent::Join(0)], 0, &plan).unwrap_err();
        assert!(
            matches!(err, TestbedError::Timeout { ref waiting_for } if waiting_for.contains("client 0")),
            "expected timeout, got {err:?}"
        );
    }

    #[test]
    fn fault_plan_validation_enforced_at_session_start() {
        let scenario = lab_scenario(16);
        let config = RigConfig::new(ControllerPolicy::Rssi);
        let out_of_range = FaultPlan {
            crashed: vec![99],
            ..FaultPlan::none()
        };
        assert!(matches!(
            run_faulty_session(&scenario, &config, &[], 0, &out_of_range),
            Err(TestbedError::InvalidConfig { .. })
        ));
        let bad_prob = FaultPlan {
            to_cc: LinkFaults {
                drop: 2.0,
                duplicate: 0.0,
                max_delay: Duration::ZERO,
            },
            ..FaultPlan::none()
        };
        assert!(run_faulty_session(&scenario, &config, &[], 0, &bad_prob).is_err());
        let no_attempts = RigConfig {
            deadlines: Deadlines {
                event_attempts: 0,
                ..Deadlines::default()
            },
            ..config
        };
        assert!(matches!(
            run_faulty_session(&scenario, &no_attempts, &[], 0, &FaultPlan::none()),
            Err(TestbedError::InvalidConfig { .. })
        ));
    }
}
