//! The decision core driven in-process, as a closed loop on one thread:
//! each join/leave goes through `ControllerCore`, and every directive it
//! returns is acked through `handle_ack` before the next event starts.
//! No sockets, no agents, no store — only the decision path.

use std::time::{Duration, Instant};

use wolt_core::phase1::{run_phase1_full, Phase1Solver, Phase1Utility};
use wolt_core::phase2::{run_phase2, Phase2Config};
use wolt_core::{evaluate, Association, Network};
use wolt_daemon::DaemonConfig;
use wolt_sim::Scenario;
use wolt_support::obs;
use wolt_support::rng::{ChaCha8Rng, SeedableRng};
use wolt_testbed::{ControllerConfig, ControllerCore, ControllerPolicy, Directive, SessionEvent};
use wolt_units::Mbps;

use crate::spans::{SpanId, Tracer};

/// One site's fixed inputs: the scenario, the controller's capacity
/// estimates, and what each user's agent reports when it joins.
pub struct Site {
    /// PLC capacities as the daemon estimates them.
    estimated: Vec<Mbps>,
    /// Each user's scan: achievable rate per extender.
    pub scans: Vec<Vec<Option<Mbps>>>,
    /// The extender each user attaches to by itself (strongest signal,
    /// ties to the lowest index, as the agent does).
    pub strongest: Vec<usize>,
    /// The scenario's true network over every user, for checks.
    truth: Network,
}

impl Site {
    /// Prepares `scenario` with capacities estimated as
    /// `SessionEngine::new` does for the daemon's default estimator and
    /// `noise_seed`.
    pub fn new(scenario: &Scenario, noise_seed: u64) -> Result<Self, String> {
        let estimator = DaemonConfig::new(ControllerPolicy::Wolt).estimator;
        let mut rng = ChaCha8Rng::seed_from_u64(noise_seed);
        let estimated = scenario
            .capacities
            .iter()
            .map(|&c| estimator.estimate(c, &mut rng))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("capacity estimation: {e}"))?;
        let n_ext = scenario.extender_positions.len();
        let scans: Vec<Vec<Option<Mbps>>> = (0..scenario.user_positions.len())
            .map(|i| (0..n_ext).map(|j| scenario.rate(i, j)).collect())
            .collect();
        let strongest = scans
            .iter()
            .map(|scan| {
                let mut best = (0, f64::NEG_INFINITY);
                for (j, r) in scan.iter().enumerate() {
                    if let Some(m) = r {
                        if m.value() > best.1 {
                            best = (j, m.value());
                        }
                    }
                }
                best.0
            })
            .collect();
        let truth = scenario
            .network()
            .map_err(|e| format!("true network: {e}"))?;
        Ok(Self {
            estimated,
            scans,
            strongest,
            truth,
        })
    }

    /// Users in the scenario.
    fn users(&self) -> usize {
        self.scans.len()
    }

    /// A fresh controller with the daemon's (non-strict) WOLT config.
    fn controller(&self) -> ControllerCore {
        ControllerCore::new(
            self.users(),
            ControllerConfig {
                policy: ControllerPolicy::Wolt,
                estimated_capacities: self.estimated.clone(),
                strict: false,
            },
        )
    }

    /// The planning network the controller builds for `known` clients
    /// (ascending): estimated capacities and the clients' scans.
    fn planning_network(&self, known: &[usize]) -> Result<Network, String> {
        let rates = known
            .iter()
            .map(|&i| {
                self.scans[i]
                    .iter()
                    .map(|r| r.map_or(0.0, |m| m.value()))
                    .collect()
            })
            .collect();
        let capacities = self.estimated.iter().map(|c| c.value()).collect();
        Network::from_raw(capacities, rates).map_err(|e| format!("planning network: {e}"))
    }
}

/// What one driven event did.
#[derive(Debug)]
pub struct EventRun {
    /// The event's epoch.
    pub epoch: u64,
    /// From the controller taking the report or departure to the last
    /// directive ack.
    pub latency: Duration,
    /// The directives the controller issued, all acked.
    pub directives: Vec<Directive>,
}

/// A controller and the agents' side of the closed loop.
pub struct Closed {
    site: Site,
    core: ControllerCore,
    present: Vec<bool>,
    next_epoch: u64,
}

impl Closed {
    /// A fresh loop over `site`: nobody present, epochs from 0.
    pub fn new(site: Site) -> Self {
        Self {
            core: site.controller(),
            present: vec![false; site.users()],
            next_epoch: 0,
            site,
        }
    }

    /// The site driven.
    pub fn site(&self) -> &Site {
        &self.site
    }

    /// Present users, ascending (the controller's known-client order).
    pub fn present_users(&self) -> Vec<usize> {
        (0..self.present.len())
            .filter(|&i| self.present[i])
            .collect()
    }

    /// Drives one event to completion: the report (join) or departure
    /// (leave) through the controller, then an ack for every directive.
    /// With tracing on, records `testbed.event` with `testbed.decide` and
    /// `testbed.acks` children. A solve that degraded or an ack the
    /// controller refused is an error.
    pub fn drive(&mut self, event: SessionEvent, tracer: &mut Tracer) -> Result<EventRun, String> {
        let epoch = self.next_epoch;
        self.next_epoch += 1;
        let degraded = self.core.degraded_solves();
        let root = tracer.begin("testbed.event", epoch, None);
        let started = Instant::now();

        let decide = tracer.begin("testbed.decide", epoch, Some(root));
        let planned = match event {
            SessionEvent::Join(i) => {
                self.core
                    .handle_report(i, epoch, &self.site.scans[i], self.site.strongest[i])
            }
            SessionEvent::Leave(i) => self.core.handle_departed(i, epoch),
        };
        tracer.end(decide);
        let directives = planned.map_err(|e| format!("epoch {epoch}: {e}"))?;

        let acks = tracer.begin("testbed.acks", epoch, Some(root));
        let mut refused = 0;
        for d in &directives {
            if !self.core.handle_ack(d.client, d.seq, d.extender) {
                refused += 1;
            }
        }
        tracer.end(acks);
        let latency = started.elapsed();
        tracer.end(root);

        match event {
            SessionEvent::Join(i) => self.present[i] = true,
            SessionEvent::Leave(i) => self.present[i] = false,
        }
        if refused > 0 {
            return Err(format!("epoch {epoch}: {refused} acks refused"));
        }
        if self.core.degraded_solves() > degraded {
            return Err(format!("epoch {epoch}: the solve degraded"));
        }
        Ok(EventRun {
            epoch,
            latency,
            directives,
        })
    }

    /// The controller's association of every user, as an [`Association`]
    /// over the scenario's true network.
    fn association(&self) -> Association {
        Association::from_targets(self.core.association().to_vec())
    }

    /// Checks that exactly the present users are associated and that the
    /// association is valid on the true network.
    pub fn verify(&self) -> Result<(), String> {
        let assoc = self.core.association();
        if let Some(i) = (0..assoc.len()).find(|&i| assoc[i].is_some() != self.present[i]) {
            return Err(format!(
                "user {i} is {} but associated to {:?}",
                if self.present[i] { "present" } else { "absent" },
                assoc[i]
            ));
        }
        self.site
            .truth
            .validate_association(&self.association())
            .map_err(|e| format!("association invalid: {e}"))
    }

    /// Aggregate throughput of the current association on the true
    /// network (Eq. 1/2 with airtime redistribution), in Mbit/s.
    pub fn aggregate_mbps(&self) -> Result<f64, String> {
        evaluate(&self.site.truth, &self.association())
            .map(|e| e.aggregate.value())
            .map_err(|e| format!("evaluate: {e}"))
    }

    /// Re-solves the current planning inputs stage by stage under spans
    /// (`testbed.view_build`, `core.phase1`, `core.phase2`,
    /// `core.evaluate`, children of a `resolve` root) and checks that the
    /// targets equal the controller's association, i.e. the directives
    /// just issued. The program's counters are paused meanwhile so the
    /// benchmark's own solve does not count as the program's work.
    pub fn resolve(&self, epoch: u64, tracer: &mut Tracer) -> Result<(), String> {
        let _paused = ObsPaused::new();
        let known = self.present_users();
        if known.is_empty() {
            return Ok(());
        }
        let root = tracer.begin("resolve", epoch, None);
        let net = timed(tracer, "testbed.view_build", epoch, root, || {
            self.site.planning_network(&known)
        })?;
        let p1 = timed(tracer, "core.phase1", epoch, root, || {
            run_phase1_full(&net, Phase1Solver::Hungarian, Phase1Utility::Paper)
        })
        .map_err(|e| format!("phase 1: {e}"))?;
        let p2 = timed(tracer, "core.phase2", epoch, root, || {
            run_phase2(&net, &p1.association, &Phase2Config::default())
        })
        .map_err(|e| format!("phase 2: {e}"))?;
        let eval = timed(tracer, "core.evaluate", epoch, root, || {
            evaluate(&net, &p2.association)
        })
        .map_err(|e| format!("evaluate: {e}"))?;
        tracer.end(root);
        std::hint::black_box(eval);

        let assoc = self.core.association();
        match known
            .iter()
            .enumerate()
            .find(|&(v, &i)| p2.association.target(v) != assoc[i])
        {
            Some((v, &i)) => Err(format!(
                "epoch {epoch}: re-solve puts user {i} on {:?}, the controller on {:?}",
                p2.association.target(v),
                assoc[i]
            )),
            None => Ok(()),
        }
    }
}

/// Runs `f` under a span named `name`.
fn timed<T>(
    tracer: &mut Tracer,
    name: &'static str,
    epoch: u64,
    parent: SpanId,
    f: impl FnOnce() -> T,
) -> T {
    let span = tracer.begin(name, epoch, Some(parent));
    let out = std::hint::black_box(f());
    tracer.end(span);
    out
}

/// Pauses the program's observability counters until dropped.
struct ObsPaused;

impl ObsPaused {
    fn new() -> Self {
        obs::set_enabled(false);
        Self
    }
}

impl Drop for ObsPaused {
    fn drop(&mut self) {
        obs::set_enabled(true);
    }
}
