//! `enterprise-churn`: the decision core at the paper's enterprise scale,
//! in-process. Fifteen extenders, a pool of 240 users of whom 200 join
//! during set-up; the measured stream then alternates a random present
//! user leaving with a random absent user arriving, so 199–200 users are
//! present at every decision. The stream is timed in blocks of
//! [`BLOCK_EVENTS`] events.

use std::time::{Duration, Instant};

use wolt_sim::scenario::ScenarioConfig;
use wolt_sim::Scenario;
use wolt_support::obs;
use wolt_support::rng::{ChaCha8Rng, Rng, SeedableRng};
use wolt_testbed::SessionEvent;

use crate::inproc::{Closed, Site};
use crate::spans::Tracer;
use crate::stats::Deltas;
use crate::{Layers, Measured, RunArgs, BLOCK_EVENTS, MIN_BLOCKS};

/// Users in the scenario's pool.
pub const POOL: usize = 240;
/// Users who join during set-up.
pub const PRESENT: usize = 200;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// The enterprise site of `scenario_seed`, capacities estimated with the
/// same seed.
fn site(scenario_seed: u64) -> Result<Site, String> {
    let mut rng = ChaCha8Rng::seed_from_u64(scenario_seed);
    let scenario = Scenario::generate(&ScenarioConfig::enterprise(POOL), &mut rng)
        .map_err(|e| format!("enterprise scenario: {e}"))?;
    Site::new(&scenario, scenario_seed)
}

/// The closed loop plus the seeded churn source.
struct Churn {
    closed: Closed,
    rng: ChaCha8Rng,
    present: Vec<usize>,
    absent: Vec<usize>,
    leave_next: bool,
}

impl Churn {
    /// Everything before the first measured event: scenario generation,
    /// capacity estimation, and the join wave of the pool's first
    /// [`PRESENT`] users (the site's population, the same for every
    /// seed). `seed` seeds the churn that follows.
    fn set_up(scenario_seed: u64, seed: u64) -> Result<Self, String> {
        let mut closed = Closed::new(site(scenario_seed)?);
        let mut off = Tracer::off();
        for i in 0..PRESENT {
            closed.drive(SessionEvent::Join(i), &mut off)?;
        }
        closed.verify()?;
        Ok(Self {
            closed,
            rng: ChaCha8Rng::seed_from_u64(seed),
            present: (0..PRESENT).collect(),
            absent: (PRESENT..POOL).collect(),
            leave_next: true,
        })
    }

    /// The next event: a random present user leaves, then a random
    /// absent user arrives, alternately.
    fn next_event(&mut self) -> SessionEvent {
        let (from, to) = if self.leave_next {
            (&mut self.present, &mut self.absent)
        } else {
            (&mut self.absent, &mut self.present)
        };
        let user = from.swap_remove(self.rng.gen_range(0..from.len()));
        to.push(user);
        let event = if self.leave_next {
            SessionEvent::Leave(user)
        } else {
            SessionEvent::Join(user)
        };
        self.leave_next = !self.leave_next;
        event
    }

    /// Drives blocks of [`BLOCK_EVENTS`] events until `budget` of driving
    /// time has passed and at least [`MIN_BLOCKS`] blocks ran. Every event is checked after its clock stops;
    /// with `tracer` on, every decision is also re-solved stage by stage
    /// and compared with the directives issued.
    fn stream(&mut self, budget: Duration, tracer: &mut Tracer) -> Measured {
        let mut m = Measured::default();
        let before = obs::snapshot();
        let mut latencies = Vec::with_capacity(BLOCK_EVENTS);
        while m.blocks.len() < MIN_BLOCKS || m.driving < budget {
            latencies.clear();
            let mut driving = Duration::ZERO;
            let mut moves = 0;
            for _ in 0..BLOCK_EVENTS {
                let event = self.next_event();
                let started = Instant::now();
                let run = self.closed.drive(event, tracer);
                driving += started.elapsed();
                m.attempted += 1;
                let checked = run.and_then(|run| {
                    self.closed.verify()?;
                    if tracer.is_on() {
                        self.closed.resolve(run.epoch, tracer)?;
                    }
                    Ok(run)
                });
                match checked {
                    Ok(run) => {
                        latencies.push(run.latency.as_secs_f64() * 1e6);
                        moves += run.directives.len() as u64;
                    }
                    Err(e) => m.fail(e),
                }
            }
            m.add_block(&latencies, driving, moves);
        }
        m.deltas = Some(Deltas::new(before, obs::snapshot()));
        m
    }
}

/// Runs `enterprise-churn`: the end-to-end stream, or with tracing an
/// untraced half then a traced half of the same length.
pub fn run(args: &RunArgs) -> Result<(Measured, Option<Layers>), String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut churn = None;
    for _ in 0..SETUPS {
        let started = Instant::now();
        let set_up = Churn::set_up(args.scenario_seed, args.seed)?;
        setups.push(started.elapsed().as_secs_f64());
        churn = Some(set_up);
    }
    let mut churn = churn.expect("at least one set-up");

    let (mut measured, layers) = if args.trace {
        let half = args.budget / 2;
        let untraced = churn.stream(half, &mut Tracer::off());
        let mut tracer = Tracer::new();
        let traced = churn.stream(half, &mut tracer);
        args.write_spans(&tracer);
        let layers = layers(&untraced, &traced, &tracer);
        (untraced.merge(traced), Some(layers))
    } else {
        (churn.stream(args.budget, &mut Tracer::off()), None)
    };
    measured.setups_s = setups;
    match churn.closed.aggregate_mbps() {
        Ok(a) => measured.aggregate_mbps = a,
        Err(e) => measured.fail(e),
    }
    Ok((measured, layers))
}

/// Per-layer metrics of the traced half.
fn layers(untraced: &Measured, traced: &Measured, tracer: &Tracer) -> Layers {
    let d = traced.deltas.as_ref().expect("stream records deltas");
    let events = traced.completed();
    let mut l = Layers::default();
    l.set_decision_spans(tracer);
    l.set_core_counters(d, events);
    l.set_overhead(untraced, traced);
    l.add_span_summary(tracer);
    l
}
