//! The one session driver: the Central Controller's side of the paper's
//! §V-A protocol as a clock-free state machine.
//!
//! Agents scan and report; the CC plans and pushes directives; agents
//! apply and ack. [`SessionDriver`] holds everything that protocol has
//! to remember — the [`ControllerCore`], the session ledger
//! ([`SessionProgress`]), the in-flight event and its open directive
//! transaction — and maps `(now, input)` to a [`Step`]: the messages to
//! send and the time it next needs waking. It never reads a clock,
//! sleeps, or touches a channel or socket. `now` is whatever the
//! transport says it is, measured from an origin of the transport's
//! choosing. The in-process [`rig`](crate::rig) drives it on virtual
//! time, `wolt-daemon` from its TCP inbox and the wall clock, and a test
//! from a synthetic clock.
//!
//! For each event the driver:
//!
//! * commands the client's agent (join or leave) and re-commands it
//!   every [`Deadlines::event`] until the report or departure arrives,
//!   ending the event timed out after [`Deadlines::event_attempts`];
//! * hands the report to the core and opens a transaction over the
//!   directives it plans, retransmitting each on the ack backoff until
//!   it is acked or its client misses [`Deadlines::ack_attempts`] and is
//!   declared dead, which replans the survivors;
//! * rejects a report or departure for a newer epoch while a transaction
//!   is open: events are serialized, so one means the session broke.
//!
//! What stays with the transport: the clock and blocking waits, delivery
//! (a fault plan or sockets), whether an event that never completed is
//! an error, and where a joined client's attachment is read from.
//!
//! [`AgentState`] is the agent's end of the same protocol.

use std::time::Duration;

use wolt_core::fairness::jain_index;
use wolt_core::{evaluate, Association};
use wolt_plc::capacity::CapacityEstimator;
use wolt_sim::Scenario;
use wolt_support::obs;
use wolt_support::rng::{ChaCha8Rng, SeedableRng};
use wolt_units::Mbps;

use crate::controller::{ControllerCore, Directive, ReportFrame};
use crate::protocol::{ToAgent, ToController};
use crate::rig::{Deadlines, SessionEvent, SessionReport, TopologyOutcome};
use crate::TestbedError;

/// Checks what every session needs before it starts: a scenario with at
/// least one user and one extender, and at least one attempt per
/// message.
///
/// # Errors
///
/// [`TestbedError::InvalidConfig`] naming the first violation.
pub fn check_session(scenario: &Scenario, deadlines: &Deadlines) -> Result<(), TestbedError> {
    if scenario.user_positions.is_empty() || scenario.extender_positions.is_empty() {
        return Err(TestbedError::InvalidConfig {
            context: "scenario needs at least one user and one extender",
        });
    }
    if deadlines.event_attempts == 0 || deadlines.ack_attempts == 0 {
        return Err(TestbedError::InvalidConfig {
            context: "deadlines need at least one attempt per message",
        });
    }
    Ok(())
}

/// The offline PLC capacity estimation (the paper's iperf procedure):
/// one noisy estimate per extender, drawn from a stream seeded by
/// `seed`.
///
/// # Errors
///
/// [`TestbedError::Layer`] when the estimator rejects a capacity.
pub fn estimate_capacities(
    scenario: &Scenario,
    estimator: &CapacityEstimator,
    seed: u64,
) -> Result<Vec<Mbps>, TestbedError> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    scenario
        .capacities
        .iter()
        .map(|&c| estimator.estimate(c, &mut rng))
        .collect::<Result<_, _>>()
        .map_err(|e| TestbedError::Layer {
            context: format!("capacity estimation: {e}"),
        })
}

/// The session ledger: how far the session got and who is in it. It is
/// what a transport persists to resume a session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionProgress {
    /// Events finished (completed, ended, or skipped): the index of the
    /// next one.
    pub epochs_done: usize,
    /// Whether each client is present (joined, not departed).
    pub present: Vec<bool>,
    /// Whether each client dropped out because one of its events never
    /// completed.
    pub unresponsive: Vec<bool>,
    /// Each client's attachment when its first join completed.
    pub initial_attach: Vec<Option<usize>>,
    /// Retransmissions so far, of commands and of directives.
    pub retries: usize,
}

impl SessionProgress {
    /// A session of `n_users` clients that has not started.
    pub fn new(n_users: usize) -> Self {
        Self {
            epochs_done: 0,
            present: vec![false; n_users],
            unresponsive: vec![false; n_users],
            initial_attach: vec![None; n_users],
            retries: 0,
        }
    }
}

/// A message the driver asks its transport to deliver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outbound {
    /// A harness command for the client's agent.
    Command {
        /// The agent's client.
        client: usize,
        /// The join or leave.
        cmd: ToAgent,
    },
    /// One transmission of a directive.
    Directive {
        /// The directed client.
        client: usize,
        /// The extender it should move to.
        extender: usize,
        /// The directive's sequence number.
        seq: u64,
        /// The transmission attempt, 1-based.
        attempt: u32,
    },
}

/// What a transport feeds the driver.
#[derive(Debug, Clone, PartialEq)]
pub enum Input {
    /// Nothing arrived; time has moved on (a deadline may have passed).
    Tick,
    /// One protocol message from an agent.
    Msg(ToController),
    /// A drained run of scan reports, ingested and planned as one batch
    /// (see [`ControllerCore::handle_report_batch`]).
    Reports(Vec<ReportFrame>),
    /// The transport could not deliver a command to this client: its
    /// agent is gone.
    Unreachable(usize),
}

/// How an event ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventOutcome {
    /// The report or departure arrived and its directive transaction
    /// settled.
    Completed,
    /// Every command attempt passed without an answer.
    TimedOut,
    /// The transport could not reach the client's agent.
    Unreachable,
}

/// An event that ended in a [`Step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ended {
    /// The event's epoch (its index in the session).
    pub epoch: u64,
    /// The event.
    pub event: SessionEvent,
    /// How it ended. Anything but [`EventOutcome::Completed`] has already
    /// taken the client out of the session: a join marks it
    /// unresponsive, a leave marks it absent.
    pub outcome: EventOutcome,
}

/// What one driver call asks of its transport.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Step {
    /// Messages to deliver now, in order.
    pub sends: Vec<Outbound>,
    /// When to call again with [`Input::Tick`] if nothing arrives first;
    /// `None` when no event is in flight.
    pub deadline: Option<Duration>,
    /// Whether this call planned a report or departure: a transport that
    /// times decisions starts the clock at this call.
    pub planned: bool,
    /// The event in flight ended in this call.
    pub ended: Option<Ended>,
}

/// The event in flight and its command schedule.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    epoch: u64,
    event: SessionEvent,
    attempt: u32,
    deadline: Duration,
}

impl InFlight {
    fn command(&self) -> Outbound {
        let (epoch, attempt) = (self.epoch, self.attempt);
        let (client, cmd) = match self.event {
            SessionEvent::Join(i) => (i, ToAgent::Join { epoch, attempt }),
            SessionEvent::Leave(i) => (i, ToAgent::Leave { epoch, attempt }),
        };
        Outbound::Command { client, cmd }
    }
}

/// An open directive transaction: the epoch whose plan it delivers and
/// the directives still awaiting their acks.
#[derive(Debug)]
struct Transaction {
    epoch: u64,
    pending: Vec<Pending>,
}

/// A directive awaiting its ack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pending {
    dir: Directive,
    attempt: u32,
    deadline: Duration,
}

impl Pending {
    fn send(&self) -> Outbound {
        Outbound::Directive {
            client: self.dir.client,
            extender: self.dir.extender,
            seq: self.dir.seq,
            attempt: self.attempt,
        }
    }
}

/// Adds planned directives to the pending set, superseding any in-flight
/// directive for the same client, and sends their first transmission.
fn enqueue(
    pending: &mut Vec<Pending>,
    directives: Vec<Directive>,
    now: Duration,
    deadlines: &Deadlines,
    step: &mut Step,
) {
    for dir in directives {
        pending.retain(|p| p.dir.client != dir.client);
        let p = Pending {
            dir,
            attempt: 1,
            deadline: now + deadlines.backoff(1),
        };
        step.sends.push(p.send());
        pending.push(p);
    }
}

/// One session's Central Controller, driven by a transport. Call
/// [`begin`](Self::begin) to start each event, then
/// [`handle`](Self::handle) with every input until the returned
/// [`Step`] reports it [`Ended`].
#[derive(Debug)]
pub struct SessionDriver {
    core: ControllerCore,
    events: Vec<SessionEvent>,
    deadlines: Deadlines,
    progress: SessionProgress,
    event: Option<InFlight>,
    txn: Option<Transaction>,
}

impl SessionDriver {
    /// A driver for a session that has not started.
    pub fn new(core: ControllerCore, events: Vec<SessionEvent>, deadlines: Deadlines) -> Self {
        let progress = SessionProgress::new(core.association().len());
        Self::resume(core, events, deadlines, progress)
    }

    /// A driver that carries on from `progress`, with `core` restored to
    /// the same point.
    pub fn resume(
        core: ControllerCore,
        events: Vec<SessionEvent>,
        deadlines: Deadlines,
        progress: SessionProgress,
    ) -> Self {
        Self {
            core,
            events,
            deadlines,
            progress,
            event: None,
            txn: None,
        }
    }

    /// The decision core.
    pub fn core(&self) -> &ControllerCore {
        &self.core
    }

    /// The session ledger.
    pub fn progress(&self) -> &SessionProgress {
        &self.progress
    }

    /// Events configured in total.
    pub fn n_events(&self) -> usize {
        self.events.len()
    }

    /// Whether a directive transaction is open.
    pub fn transacting(&self) -> bool {
        self.txn.is_some()
    }

    /// Starts the next event: skips events of clients already out of the
    /// session, checks the event against the ledger, and commands the
    /// client's agent. `Ok(None)` once every event is done. Call it only
    /// when no event is in flight.
    ///
    /// # Errors
    ///
    /// [`TestbedError::InvalidConfig`] for a join of an out-of-range or
    /// present client, or a leave of an out-of-range or absent one.
    pub fn begin(&mut self, now: Duration) -> Result<Option<Step>, TestbedError> {
        debug_assert!(self.event.is_none(), "an event is already in flight");
        while let Some(&event) = self.events.get(self.progress.epochs_done) {
            let client = event.client();
            let join = matches!(event, SessionEvent::Join(_));
            let n_users = self.progress.present.len();
            if client < n_users && self.progress.unresponsive[client] {
                // A client whose earlier event never completed is out of
                // the session: its later events are skipped.
                self.progress.epochs_done += 1;
                continue;
            }
            if client >= n_users || join == self.progress.present[client] {
                return Err(TestbedError::InvalidConfig {
                    context: if join {
                        "join of an out-of-range or already-present client"
                    } else {
                        "leave of an out-of-range or absent client"
                    },
                });
            }
            let inflight = InFlight {
                epoch: self.progress.epochs_done as u64,
                event,
                attempt: 1,
                deadline: now + self.deadlines.event,
            };
            self.event = Some(inflight);
            return Ok(Some(Step {
                sends: vec![inflight.command()],
                deadline: Some(inflight.deadline),
                ..Step::default()
            }));
        }
        Ok(None)
    }

    /// Feeds one input at time `now`, then serves every deadline that
    /// has passed.
    ///
    /// # Errors
    ///
    /// [`TestbedError::AssignmentFailed`] for a report or departure of a
    /// newer epoch while a transaction is open, and whatever the core
    /// returns from planning (a failed solve, in strict mode).
    pub fn handle(&mut self, now: Duration, input: Input) -> Result<Step, TestbedError> {
        let mut step = Step::default();
        match input {
            Input::Tick => {}
            Input::Msg(ToController::Report {
                client,
                epoch,
                rates,
                attached,
            }) => {
                let frame = ReportFrame {
                    client,
                    epoch,
                    rates,
                    attached,
                };
                self.reports(now, std::slice::from_ref(&frame), &mut step)?;
            }
            Input::Reports(frames) => self.reports(now, &frames, &mut step)?,
            Input::Msg(ToController::Departed { client, epoch }) => {
                if !self.mid_transaction(Some(epoch))? && !self.core.is_duplicate(epoch) {
                    let directives = self.core.handle_departed(client, epoch)?;
                    self.open(now, epoch, directives, &mut step);
                }
            }
            Input::Msg(ToController::Ack {
                client,
                seq,
                extender,
            }) => {
                // Outside a transaction an ack still refreshes the CC's
                // view when it matches the newest directive.
                if self.core.handle_ack(client, seq, extender) {
                    if let Some(txn) = self.txn.as_mut() {
                        txn.pending
                            .retain(|p| !(p.dir.client == client && p.dir.seq == seq));
                    }
                }
            }
            Input::Unreachable(client) => {
                if self.txn.is_none() && self.event.is_some_and(|e| e.event.client() == client) {
                    self.end(EventOutcome::Unreachable, &mut step);
                }
            }
        }
        self.sweep(now, &mut step)?;
        step.deadline = match &self.txn {
            Some(txn) => txn.pending.iter().map(|p| p.deadline).min(),
            None => self.event.map(|e| e.deadline),
        };
        Ok(step)
    }

    /// Records `client`'s attachment when a join of it completed, the
    /// first time one does: the baseline that switches are counted from.
    /// The transport reads it from wherever it trusts (the physical air,
    /// or the CC's view).
    pub fn record_join(&mut self, client: usize, attachment: Option<usize>) {
        let slot = &mut self.progress.initial_attach[client];
        if slot.is_none() {
            *slot = attachment;
        }
    }

    /// Evaluates the finished session on the scenario's TRUE capacities:
    /// survivor masking, aggregate and per-user throughput, Jain's index
    /// over the survivors, and switch counting. `physical` is each
    /// client's attachment as the transport knows it (the air, or the
    /// CC's view); `crashed` and `wedged` are its planned agent faults.
    ///
    /// # Errors
    ///
    /// Propagates scenario/evaluation failures as [`TestbedError::Layer`].
    pub fn report(
        &self,
        scenario: &Scenario,
        physical: &[Option<usize>],
        policy_name: &str,
        crashed: &[usize],
        wedged: &[usize],
    ) -> Result<SessionReport, TestbedError> {
        let p = &self.progress;
        let n_users = p.present.len();
        // Only survivors carry traffic: present, responsive, and not
        // faulted by the plan. Everything else is masked out of the
        // evaluation (a crashed laptop's abandoned radio association
        // moves no data).
        let survivor = |i: usize| {
            p.present[i] && !p.unresponsive[i] && !crashed.contains(&i) && !wedged.contains(&i)
        };
        let survivors: Vec<usize> = (0..n_users).filter(|&i| survivor(i)).collect();
        let association = Association::from_targets(
            (0..n_users)
                .map(|i| if survivor(i) { physical[i] } else { None })
                .collect(),
        );
        // Evaluate on the TRUE capacities.
        let eval = evaluate(&scenario.network()?, &association)?;
        // A "switch" is a move away from the attachment a client's join
        // settled on — the re-association overhead the paper discusses.
        let switches = survivors
            .iter()
            .filter(|&&i| {
                p.initial_attach[i].is_some() && association.target(i) != p.initial_attach[i]
            })
            .count();
        let survivor_throughputs: Vec<Mbps> = survivors.iter().map(|&i| eval.per_user[i]).collect();
        let sorted = |clients: &[usize]| {
            let mut clients = clients.to_vec();
            clients.sort_unstable();
            clients.dedup();
            clients
        };
        Ok(SessionReport {
            outcome: TopologyOutcome {
                policy: policy_name.to_string(),
                aggregate: eval.aggregate.value(),
                per_user: eval.per_user.iter().map(|t| t.value()).collect(),
                jain: jain_index(&survivor_throughputs),
                association,
                directives: self.core.directives(),
                switches,
            },
            survivors,
            crashed: sorted(crashed),
            wedged: sorted(wedged),
            declared_dead: sorted(self.core.declared_dead()),
            unresponsive: (0..n_users).filter(|&i| p.unresponsive[i]).collect(),
            degraded_solves: self.core.degraded_solves(),
            retries: p.retries,
        })
    }

    /// Whether a transaction is open, so a report or departure of
    /// `epoch` (or older) is a retransmission to drop.
    ///
    /// # Errors
    ///
    /// A newer epoch mid-transaction: events stopped being serialized.
    fn mid_transaction(&self, newest: Option<u64>) -> Result<bool, TestbedError> {
        let Some(txn) = &self.txn else {
            return Ok(false);
        };
        if newest.is_some_and(|e| e > txn.epoch) {
            return Err(TestbedError::AssignmentFailed {
                context: "unexpected message during directive transaction".to_string(),
            });
        }
        Ok(true)
    }

    /// Ingests scan reports and opens a transaction over the plan.
    fn reports(
        &mut self,
        now: Duration,
        frames: &[ReportFrame],
        step: &mut Step,
    ) -> Result<(), TestbedError> {
        if self.mid_transaction(frames.iter().map(|f| f.epoch).max())? {
            return Ok(());
        }
        let batch = self.core.handle_report_batch(frames)?;
        if let Some(epoch) = batch.last_epoch {
            self.open(now, epoch, batch.directives, step);
        }
        Ok(())
    }

    fn open(&mut self, now: Duration, epoch: u64, directives: Vec<Directive>, step: &mut Step) {
        step.planned = true;
        let mut pending = Vec::with_capacity(directives.len());
        enqueue(&mut pending, directives, now, &self.deadlines, step);
        self.txn = Some(Transaction { epoch, pending });
    }

    /// Serves every deadline that has passed: retransmits unacked
    /// directives or declares their clients dead, settles a transaction
    /// with nothing pending, and re-commands (or gives up on) an event
    /// whose answer is overdue.
    fn sweep(&mut self, now: Duration, step: &mut Step) -> Result<(), TestbedError> {
        if let Some(txn) = self.txn.as_mut() {
            let mut d = 0;
            while d < txn.pending.len() {
                if txn.pending[d].deadline > now {
                    d += 1;
                    continue;
                }
                obs::counter_inc("cc.ack_timeouts");
                if txn.pending[d].attempt >= self.deadlines.ack_attempts {
                    let casualty = txn.pending.remove(d).dir.client;
                    // The dead client's load vanishes: replan the
                    // survivors (which may supersede other in-flight
                    // directives) and sweep again from the start.
                    let replan = self.core.declare_dead(casualty)?;
                    enqueue(&mut txn.pending, replan, now, &self.deadlines, step);
                    d = 0;
                } else {
                    let p = &mut txn.pending[d];
                    p.attempt += 1;
                    p.deadline = now + self.deadlines.backoff(p.attempt);
                    self.progress.retries += 1;
                    obs::counter_inc("cc.retransmissions");
                    step.sends.push(p.send());
                    d += 1;
                }
            }
            if !txn.pending.is_empty() {
                // The command schedule waits while a transaction is open.
                return Ok(());
            }
            let epoch = txn.epoch;
            self.txn = None;
            if self.event.is_some_and(|e| e.epoch == epoch) {
                self.end(EventOutcome::Completed, step);
                return Ok(());
            }
        }
        let Some(inflight) = self.event.as_mut() else {
            return Ok(());
        };
        if now < inflight.deadline {
            return Ok(());
        }
        if inflight.attempt >= self.deadlines.event_attempts {
            self.end(EventOutcome::TimedOut, step);
            return Ok(());
        }
        inflight.attempt += 1;
        inflight.deadline = now + self.deadlines.event;
        self.progress.retries += 1;
        obs::counter_inc("harness.retransmissions");
        step.sends.push(inflight.command());
        Ok(())
    }

    /// Ends the event in flight and books its outcome in the ledger.
    fn end(&mut self, outcome: EventOutcome, step: &mut Step) {
        let inflight = self.event.take().expect("an event is in flight");
        let p = &mut self.progress;
        match (inflight.event, outcome) {
            (SessionEvent::Join(i), EventOutcome::Completed) => p.present[i] = true,
            (SessionEvent::Join(i), _) => p.unresponsive[i] = true,
            (SessionEvent::Leave(i), _) => p.present[i] = false,
        }
        p.epochs_done = inflight.epoch as usize + 1;
        step.ended = Some(Ended {
            epoch: inflight.epoch,
            event: inflight.event,
            outcome,
        });
    }
}

/// A client agent's protocol state: the one rule every agent follows,
/// whatever carries its messages. It scans once per join, taking the
/// strongest signal (the highest achievable rate; ties go to the lowest
/// extender index, as in the offline RSSI baseline). It applies each
/// directive sequence at most once, the newest winning. It acks every
/// copy it receives with its current attachment.
#[derive(Debug, Clone, PartialEq)]
pub struct AgentState {
    client: usize,
    rates: Vec<Option<Mbps>>,
    attached: Option<usize>,
    last_applied: Option<u64>,
    applied: usize,
}

impl AgentState {
    /// The agent of `client` in `scenario`, not yet joined.
    ///
    /// # Panics
    ///
    /// Panics if `client` is out of range for the scenario.
    pub fn new(scenario: &Scenario, client: usize) -> Self {
        Self {
            client,
            rates: (0..scenario.extender_positions.len())
                .map(|j| scenario.rate(client, j))
                .collect(),
            attached: None,
            last_applied: None,
            applied: 0,
        }
    }

    /// The agent's client.
    pub fn client(&self) -> usize {
        self.client
    }

    /// The extender the agent is attached to (`None` while not joined).
    pub fn attached(&self) -> Option<usize> {
        self.attached
    }

    /// Directives applied (newest-sequence transmissions only).
    pub fn applied(&self) -> usize {
        self.applied
    }

    /// Adopts the attachment a controller hands back on reconnect (the
    /// radio stayed associated while the controller was away) and
    /// forgets the sequences applied before.
    pub fn reattach(&mut self, attached: Option<usize>) {
        self.attached = attached;
        self.last_applied = None;
    }

    /// Handles a harness command: the scan report (join) or departure
    /// notice (leave) to send, or `None` for a shutdown.
    pub fn command(&mut self, cmd: &ToAgent) -> Option<ToController> {
        match *cmd {
            ToAgent::Join { epoch, .. } => {
                // A retransmitted join re-sends the report without
                // re-scanning, so an applied directive is never
                // clobbered.
                let attached = match self.attached {
                    Some(extender) => extender,
                    None => {
                        let extender = strongest(&self.rates);
                        self.attached = Some(extender);
                        self.last_applied = None;
                        extender
                    }
                };
                Some(ToController::Report {
                    client: self.client,
                    epoch,
                    rates: self.rates.clone(),
                    attached,
                })
            }
            ToAgent::Leave { epoch, .. } => {
                // Always (re-)notify: the CC dedups by epoch.
                self.attached = None;
                Some(ToController::Departed {
                    client: self.client,
                    epoch,
                })
            }
            ToAgent::Shutdown => None,
        }
    }

    /// Handles one directive transmission: the ack to send, or `None`
    /// while not joined (a directive can race a departure).
    pub fn directive(&mut self, extender: usize, seq: u64) -> Option<ToController> {
        self.attached?;
        if self.last_applied.is_none_or(|s| seq > s) {
            self.attached = Some(extender);
            self.last_applied = Some(seq);
            self.applied += 1;
        }
        Some(ToController::Ack {
            client: self.client,
            seq,
            extender: self.attached?,
        })
    }
}

/// The extender with the strongest signal: the highest achievable rate,
/// ties toward the lowest index.
fn strongest(rates: &[Option<Mbps>]) -> usize {
    let mut best = 0usize;
    let mut best_rate = f64::NEG_INFINITY;
    for (j, rate) in rates.iter().enumerate() {
        if let Some(m) = rate {
            if m.value() > best_rate {
                best_rate = m.value();
                best = j;
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::ControllerConfig;
    use crate::rig::ControllerPolicy;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn mb(v: f64) -> Option<Mbps> {
        Some(Mbps::new(v))
    }

    /// A WOLT session on the paper's Fig. 3 case: PLC capacities 60 and
    /// 20 Mbit/s, client 0 with rates [15, 10], client 1 with [40, 20],
    /// both joining.
    fn fig3() -> SessionDriver {
        let core = ControllerCore::new(
            2,
            ControllerConfig {
                policy: ControllerPolicy::Wolt,
                estimated_capacities: vec![Mbps::new(60.0), Mbps::new(20.0)],
                strict: false,
            },
        );
        let events = vec![SessionEvent::Join(0), SessionEvent::Join(1)];
        SessionDriver::new(core, events, Deadlines::default())
    }

    fn report(client: usize, epoch: u64) -> Input {
        let rates = [vec![mb(15.0), mb(10.0)], vec![mb(40.0), mb(20.0)]];
        Input::Msg(ToController::Report {
            client,
            epoch,
            rates: rates[client].clone(),
            attached: 0,
        })
    }

    fn ack(client: usize, seq: u64, extender: usize) -> Input {
        Input::Msg(ToController::Ack {
            client,
            seq,
            extender,
        })
    }

    fn join(client: usize, epoch: u64, attempt: u32) -> Outbound {
        Outbound::Command {
            client,
            cmd: ToAgent::Join { epoch, attempt },
        }
    }

    /// Completes client 0's join (nothing moves), then delivers client
    /// 1's report at time zero. Returns the step, whose one directive
    /// WOLT sends to split the pair across the extenders.
    fn second_join_planned(d: &mut SessionDriver) -> (Step, Directive) {
        let step = d.begin(ms(0)).unwrap().unwrap();
        assert_eq!(step.sends, vec![join(0, 0, 1)]);
        let step = d.handle(ms(0), report(0, 0)).unwrap();
        assert!(step.planned && step.sends.is_empty());
        assert_eq!(step.ended.map(|e| e.outcome), Some(EventOutcome::Completed));
        let step = d.begin(ms(0)).unwrap().unwrap();
        assert_eq!(step.sends, vec![join(1, 1, 1)]);
        let step = d.handle(ms(0), report(1, 1)).unwrap();
        let [Outbound::Directive {
            client,
            extender,
            seq,
            attempt: 1,
        }] = step.sends[..]
        else {
            panic!("expected one first transmission, got {:?}", step.sends);
        };
        assert!(step.planned && step.ended.is_none());
        (
            step,
            Directive {
                client,
                extender,
                seq,
            },
        )
    }

    #[test]
    fn unacked_directive_backs_off_until_its_client_is_declared_dead() {
        let mut d = fig3();
        let (step, dir) = second_join_planned(&mut d);
        assert_eq!(step.deadline, Some(ms(25)));
        // Retransmissions at 25, 75, 175, 375 and 575 ms: the ack
        // deadline doubles from 25 ms up to the 200 ms cap.
        for (attempt, (at, next)) in [(25, 75), (75, 175), (175, 375), (375, 575), (575, 775)]
            .into_iter()
            .enumerate()
        {
            assert!(d.handle(ms(at - 1), Input::Tick).unwrap().sends.is_empty());
            let step = d.handle(ms(at), Input::Tick).unwrap();
            let retry = Outbound::Directive {
                client: dir.client,
                extender: dir.extender,
                seq: dir.seq,
                attempt: attempt as u32 + 2,
            };
            assert_eq!(step.sends, vec![retry]);
            assert_eq!(step.deadline, Some(ms(next)));
        }
        assert!(d.core().declared_dead().is_empty());
        assert!(d.handle(ms(774), Input::Tick).unwrap().sends.is_empty());
        // At 775 ms the sixth attempt expires: the client is declared
        // dead and the survivor replanned, which moves nobody, so the
        // transaction and the event settle at once.
        let step = d.handle(ms(775), Input::Tick).unwrap();
        assert_eq!(d.core().declared_dead(), &[dir.client]);
        assert_eq!(d.core().association()[dir.client], None);
        assert!(step.sends.is_empty());
        assert_eq!(
            step.ended,
            Some(Ended {
                epoch: 1,
                event: SessionEvent::Join(1),
                outcome: EventOutcome::Completed,
            })
        );
        assert_eq!(d.progress().retries, 5);
        assert_eq!(d.progress().epochs_done, 2);
        assert!(d.begin(ms(775)).unwrap().is_none());
    }

    /// The directives among a step's sends.
    fn directed(step: &Step) -> Vec<Directive> {
        step.sends
            .iter()
            .filter_map(|send| match *send {
                Outbound::Directive {
                    client,
                    extender,
                    seq,
                    ..
                } => Some(Directive {
                    client,
                    extender,
                    seq,
                }),
                Outbound::Command { .. } => None,
            })
            .collect()
    }

    #[test]
    fn a_replan_supersedes_the_in_flight_directive_for_the_same_client() {
        // PLC capacities 10, 20 and 50 Mbit/s: client 2's join directs
        // clients 0 and 2, and once client 0 is declared dead the replan
        // sends client 2 elsewhere while its first directive is still
        // unacked.
        let rates = [
            vec![mb(5.0), mb(5.0), mb(15.0)],
            vec![mb(40.0), mb(35.0), mb(35.0)],
            vec![mb(50.0), mb(20.0), mb(40.0)],
        ];
        let core = ControllerCore::new(
            3,
            ControllerConfig {
                policy: ControllerPolicy::Wolt,
                estimated_capacities: [10.0, 20.0, 50.0].map(Mbps::new).to_vec(),
                strict: false,
            },
        );
        let events = (0..3).map(SessionEvent::Join).collect();
        let mut d = SessionDriver::new(core, events, Deadlines::default());
        let mut step = Step::default();
        for (client, rates) in rates.iter().enumerate() {
            d.begin(ms(0)).unwrap().unwrap();
            let report = ToController::Report {
                client,
                epoch: client as u64,
                rates: rates.clone(),
                attached: strongest(rates),
            };
            step = d.handle(ms(0), Input::Msg(report)).unwrap();
            if client < 2 {
                for dir in directed(&step) {
                    d.handle(ms(0), ack(dir.client, dir.seq, dir.extender))
                        .unwrap();
                }
            }
        }
        let first = directed(&step);
        assert_eq!(first.iter().map(|d| d.client).collect::<Vec<_>>(), [0, 2]);
        let in_flight = first[1];
        for at in [25, 75, 175, 375, 575] {
            assert_eq!(directed(&d.handle(ms(at), Input::Tick).unwrap()).len(), 2);
        }
        // At 775 ms client 0 is declared dead; the replan re-directs
        // client 2 under a new sequence, which replaces the old one.
        let step = d.handle(ms(775), Input::Tick).unwrap();
        assert_eq!(d.core().declared_dead(), &[0]);
        let replan = directed(&step);
        let moved = replan
            .iter()
            .find(|r| r.client == 2)
            .expect("the replan re-directs client 2");
        assert!(moved.seq > in_flight.seq && moved.extender != in_flight.extender);
        assert!(
            step.sends
                .iter()
                .all(|s| matches!(s, Outbound::Directive { attempt: 1, .. })),
            "the superseded sequence must not be retransmitted: {:?}",
            step.sends
        );
        let pending = |d: &SessionDriver| {
            d.txn
                .as_ref()
                .map(|t| t.pending.iter().map(|p| p.dir).collect::<Vec<_>>())
        };
        assert_eq!(pending(&d), Some(replan.clone()));
        // A late ack of the superseded sequence settles nothing.
        let late = ack(in_flight.client, in_flight.seq, in_flight.extender);
        assert!(d.handle(ms(780), late).unwrap().ended.is_none());
        assert_eq!(pending(&d), Some(replan.clone()));
        let mut step = Step::default();
        for r in &replan {
            step = d.handle(ms(790), ack(r.client, r.seq, r.extender)).unwrap();
        }
        assert_eq!(step.ended.map(|e| e.outcome), Some(EventOutcome::Completed));
    }

    #[test]
    fn a_stale_seq_ack_leaves_the_pending_set_unchanged() {
        let mut d = fig3();
        let (_, dir) = second_join_planned(&mut d);
        let pending = |d: &SessionDriver| d.txn.as_ref().map(|t| t.pending.clone());
        let before = pending(&d);
        let step = d
            .handle(ms(10), ack(dir.client, dir.seq + 1, dir.extender))
            .unwrap();
        assert!(step.sends.is_empty() && step.ended.is_none());
        assert_eq!(step.deadline, Some(ms(25)));
        assert_eq!(pending(&d), before);
        // The matching ack settles the transaction and the event.
        let step = d
            .handle(ms(20), ack(dir.client, dir.seq, dir.extender))
            .unwrap();
        assert_eq!(step.ended.map(|e| e.outcome), Some(EventOutcome::Completed));
        assert_eq!(pending(&d), None);
        assert_eq!(d.core().association()[dir.client], Some(dir.extender));
    }

    #[test]
    fn a_newer_epoch_mid_transaction_is_an_error() {
        let mut d = fig3();
        second_join_planned(&mut d);
        // Retransmissions of the transaction's own epoch (or older) are
        // dropped...
        for input in [
            report(1, 1),
            report(0, 0),
            Input::Msg(ToController::Departed {
                client: 0,
                epoch: 1,
            }),
        ] {
            let step = d.handle(ms(5), input).unwrap();
            assert!(step.sends.is_empty() && !step.planned);
        }
        // ...but a newer one means events stopped being serialized.
        for input in [
            report(0, 2),
            Input::Reports(vec![ReportFrame {
                client: 0,
                epoch: 2,
                rates: vec![mb(15.0), mb(10.0)],
                attached: 0,
            }]),
            Input::Msg(ToController::Departed {
                client: 0,
                epoch: 2,
            }),
        ] {
            assert!(matches!(
                d.handle(ms(5), input),
                Err(TestbedError::AssignmentFailed { .. })
            ));
        }
    }

    #[test]
    fn an_unanswered_event_is_recommanded_then_times_out() {
        let mut d = fig3();
        let Deadlines {
            event,
            event_attempts,
            ..
        } = Deadlines::default();
        let step = d.begin(ms(0)).unwrap().unwrap();
        assert_eq!(step.deadline, Some(event));
        for attempt in 2..=event_attempts {
            let at = event * (attempt - 1);
            assert!(d.handle(at - ms(1), Input::Tick).unwrap().sends.is_empty());
            let step = d.handle(at, Input::Tick).unwrap();
            assert_eq!(step.sends, vec![join(0, 0, attempt)]);
            assert_eq!(step.deadline, Some(at + event));
        }
        let step = d.handle(event * event_attempts, Input::Tick).unwrap();
        assert!(step.sends.is_empty());
        assert_eq!(
            step.ended,
            Some(Ended {
                epoch: 0,
                event: SessionEvent::Join(0),
                outcome: EventOutcome::TimedOut,
            })
        );
        assert_eq!(step.deadline, None);
        assert_eq!(d.progress().unresponsive, vec![true, false]);
        assert_eq!(d.progress().retries, event_attempts as usize - 1);
        // The session moves on to the next client.
        let step = d.begin(event * event_attempts).unwrap().unwrap();
        assert_eq!(step.sends, vec![join(1, 1, 1)]);
    }

    #[test]
    fn an_unreachable_agent_ends_its_event_and_later_events_skip_it() {
        let core = fig3().core;
        let events = vec![
            SessionEvent::Join(0),
            SessionEvent::Leave(0),
            SessionEvent::Join(1),
        ];
        let mut d = SessionDriver::new(core, events, Deadlines::default());
        d.begin(ms(0)).unwrap().unwrap();
        // A failed delivery to some other client changes nothing.
        assert_eq!(d.handle(ms(1), Input::Unreachable(1)).unwrap().ended, None);
        let step = d.handle(ms(1), Input::Unreachable(0)).unwrap();
        assert_eq!(
            step.ended.map(|e| e.outcome),
            Some(EventOutcome::Unreachable)
        );
        // Client 0's leave is skipped; client 1's join is epoch 2.
        let step = d.begin(ms(1)).unwrap().unwrap();
        assert_eq!(step.sends, vec![join(1, 2, 1)]);
        assert_eq!(d.progress().epochs_done, 2);
    }

    #[test]
    fn events_are_checked_against_the_ledger() {
        let core = fig3().core;
        for (events, context) in [
            (
                vec![SessionEvent::Leave(0)],
                "leave of an out-of-range or absent client",
            ),
            (
                vec![SessionEvent::Join(5)],
                "join of an out-of-range or already-present client",
            ),
        ] {
            let mut d = SessionDriver::new(core.clone(), events, Deadlines::default());
            assert_eq!(
                d.begin(ms(0)).unwrap_err(),
                TestbedError::InvalidConfig { context }
            );
        }
    }

    fn agent() -> AgentState {
        AgentState {
            client: 3,
            rates: vec![mb(10.0), mb(30.0), None, mb(30.0)],
            attached: None,
            last_applied: None,
            applied: 0,
        }
    }

    #[test]
    fn agent_scans_once_per_join_and_acks_every_copy() {
        let mut a = agent();
        // Not joined: directives are ignored.
        assert_eq!(a.directive(0, 0), None);
        let join = |epoch, attempt| ToAgent::Join { epoch, attempt };
        // The strongest signal wins, ties toward the lowest index.
        let Some(ToController::Report { attached: 1, .. }) = a.command(&join(4, 1)) else {
            panic!("expected a report from extender 1");
        };
        // Newest sequence wins; every copy is acked with the current
        // attachment.
        let acked = |a: &mut AgentState, extender, seq| match a.directive(extender, seq) {
            Some(ToController::Ack {
                client: 3,
                seq: s,
                extender,
            }) if s == seq => extender,
            other => panic!("expected an ack of {seq}, got {other:?}"),
        };
        assert_eq!(acked(&mut a, 2, 5), 2);
        assert_eq!(acked(&mut a, 2, 5), 2);
        assert_eq!(acked(&mut a, 0, 4), 2, "an older sequence is only acked");
        assert_eq!(a.applied(), 1);
        // A retransmitted join re-reports without re-scanning.
        let Some(ToController::Report { attached: 2, .. }) = a.command(&join(4, 2)) else {
            panic!("a retransmitted join must keep the applied directive");
        };
        // Leaving detaches; the next join scans afresh.
        assert_eq!(
            a.command(&ToAgent::Leave {
                epoch: 5,
                attempt: 1
            }),
            Some(ToController::Departed {
                client: 3,
                epoch: 5
            })
        );
        assert_eq!(a.attached(), None);
        let Some(ToController::Report { attached: 1, .. }) = a.command(&join(6, 1)) else {
            panic!("a rejoin scans again");
        };
        assert_eq!(a.command(&ToAgent::Shutdown), None);
    }

    #[test]
    fn a_reattached_agent_adopts_the_handed_back_attachment() {
        let mut a = agent();
        a.command(&ToAgent::Join {
            epoch: 0,
            attempt: 1,
        });
        a.directive(2, 9);
        a.reattach(Some(0));
        assert_eq!(a.attached(), Some(0));
        // Sequences applied on the old connection are forgotten.
        assert!(matches!(
            a.directive(1, 3),
            Some(ToController::Ack { extender: 1, .. })
        ));
        assert_eq!(a.applied(), 2);
    }
}
