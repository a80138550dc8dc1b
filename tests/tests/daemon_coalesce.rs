//! Properties of the daemon's drained-batch telemetry coalescing: the
//! structural batch drain never reorders lifecycle messages, coalescing
//! is a per-client last-writer-wins filter, and a frame is accounted
//! exactly once — shed by the inbox, dropped as a stale burst copy, or
//! delivered — never twice.

use std::net::SocketAddr;
use std::thread;
use std::time::Duration;

use wolt_daemon::{inbox, run_agent_burst, AgentRetry, Daemon, DaemonConfig};
use wolt_sim::scenario::ScenarioConfig;
use wolt_sim::Scenario;
use wolt_support::rng::{ChaCha8Rng, Rng, SeedableRng};
use wolt_testbed::{coalesce_frames, ControllerPolicy, ReportFrame, SessionEvent};
use wolt_units::Mbps;

/// A model of the session inbox traffic: telemetry (batchable and
/// sheddable) interleaved with lifecycle messages (neither).
#[derive(Debug, Clone, PartialEq)]
enum Msg {
    Report(ReportFrame),
    Lifecycle(u64),
}

fn batchable(m: &Msg) -> bool {
    matches!(m, Msg::Report(_))
}

/// A report whose epoch doubles as a process-unique identity, so the
/// accounting below can partition frames by fate.
fn frame(id: u64, client: usize) -> ReportFrame {
    ReportFrame {
        client,
        epoch: id,
        rates: vec![Some(Mbps::new(10.0 + client as f64))],
        attached: 0,
    }
}

/// Seeded random traffic: mostly reports over `clients`, with lifecycle
/// markers sprinkled in at probability `p_lifecycle`.
fn traffic(rng: &mut ChaCha8Rng, len: usize, clients: usize, p_lifecycle: f64) -> Vec<Msg> {
    (0..len as u64)
        .map(|id| {
            if rng.gen_bool(p_lifecycle) {
                Msg::Lifecycle(id)
            } else {
                Msg::Report(frame(id, rng.gen_range(0..clients)))
            }
        })
        .collect()
}

/// Runs one loopback session with every agent re-sending each report
/// `burst` times, and returns the canonical report.
fn burst_session(burst: u32) -> String {
    let cfg = ScenarioConfig::lab(7);
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let scenario = Scenario::generate(&cfg, &mut rng).unwrap();
    let events: Vec<SessionEvent> = (0..7).map(SessionEvent::Join).collect();
    let mut config = DaemonConfig::new(ControllerPolicy::Wolt);
    config.noise_seed = 7;
    let daemon = Daemon::bind("127.0.0.1:0", scenario.clone(), events, config).unwrap();
    let addr: SocketAddr = daemon.local_addr().unwrap();
    let agents: Vec<_> = (0..7)
        .map(|i| {
            let scenario = scenario.clone();
            thread::spawn(move || {
                run_agent_burst(
                    addr,
                    &scenario,
                    None,
                    i,
                    &format!("burst-{i}"),
                    &AgentRetry::default(),
                    burst,
                )
            })
        })
        .collect();
    let outcome = daemon.run().unwrap();
    for handle in agents {
        handle.join().unwrap().unwrap();
    }
    assert!(outcome.completed);
    outcome.report.canonical()
}

#[test]
fn burst_sessions_converge_identically_to_a_clean_session() {
    // Agents re-send every scan report 4x: the coalescer and the
    // watermark dedup must absorb the copies into the same canonical
    // session that a burst-free run produces.
    let clean = burst_session(1);
    let coalesced = burst_session(4);
    assert_eq!(coalesced, clean);
}

#[test]
fn coalesce_is_a_per_client_last_writer_wins_filter() {
    for seed in 0..32u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let len = rng.gen_range(1usize..=40);
        let clients = rng.gen_range(1usize..=5);
        let frames: Vec<ReportFrame> = (0..len as u64)
            .map(|id| frame(id, rng.gen_range(0..clients)))
            .collect();

        let (kept, dropped) = coalesce_frames(frames.clone());
        assert_eq!(kept.len() + dropped, frames.len(), "seed {seed}");

        // Model: keep each client's last arrival, in arrival order of
        // those survivors.
        let mut expected: Vec<ReportFrame> = Vec::new();
        for f in &frames {
            expected.retain(|e| e.client != f.client);
            expected.push(f.clone());
        }
        expected.sort_by_key(|f| f.epoch);
        let mut kept_sorted = kept.clone();
        kept_sorted.sort_by_key(|f| f.epoch);
        assert_eq!(kept_sorted, expected, "seed {seed}: wrong survivors");
        // Survivor arrival order is preserved: epochs (= arrival ids)
        // must already be increasing without the sort.
        assert!(
            kept.windows(2).all(|w| w[0].epoch < w[1].epoch),
            "seed {seed}: survivors reordered"
        );
    }
}

#[test]
fn drained_batches_preserve_lifecycle_order_exactly() {
    for seed in 0..16u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0xBA7C4 ^ seed);
        let msgs = traffic(&mut rng, 60, 3, 0.25);

        // Unbounded inbox: no shedding, pure drain-order semantics.
        let (tx, rx) = inbox::channel::<Msg>(0, batchable);
        for m in &msgs {
            assert!(!tx.send(m.clone()).unwrap());
        }

        let mut drains: Vec<Vec<Msg>> = Vec::new();
        while let Ok(batch) = rx.recv_batch_timeout(Duration::ZERO, batchable) {
            drains.push(batch);
        }

        // The flattened drains are the exact send order: batching never
        // reorders, drops, or duplicates anything.
        let flat: Vec<Msg> = drains.iter().flatten().cloned().collect();
        assert_eq!(flat, msgs, "seed {seed}");
        // Every batch is either one run of reports or a single
        // lifecycle message — lifecycle never rides inside a batch.
        for batch in &drains {
            assert!(
                batch.iter().all(batchable) || batch.len() == 1,
                "seed {seed}: lifecycle inside a batch: {batch:?}"
            );
        }
    }
}

#[test]
fn shed_coalesced_and_delivered_partition_every_frame() {
    for seed in 0..16u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5EDC0 ^ seed);
        let cap = rng.gen_range(2usize..=6);
        let msgs = traffic(&mut rng, 80, 4, 0.15);

        let (tx, rx) = inbox::channel::<Msg>(cap, batchable);
        let mut shed_count = 0usize;
        for m in &msgs {
            if tx.send(m.clone()).unwrap() {
                shed_count += 1;
            }
        }

        // Drain everything, coalescing each report run as the engine
        // does; lifecycle messages arrive as singleton batches.
        let mut delivered_ids: Vec<u64> = Vec::new();
        let mut lifecycle_ids: Vec<u64> = Vec::new();
        let mut coalesced_count = 0usize;
        while let Ok(batch) = rx.recv_batch_timeout(Duration::ZERO, batchable) {
            match &batch[0] {
                Msg::Lifecycle(id) => {
                    assert_eq!(batch.len(), 1, "seed {seed}");
                    lifecycle_ids.push(*id);
                }
                Msg::Report(_) => {
                    let frames: Vec<ReportFrame> = batch
                        .into_iter()
                        .map(|m| match m {
                            Msg::Report(f) => f,
                            Msg::Lifecycle(_) => unreachable!("mixed batch"),
                        })
                        .collect();
                    let batch_ids: Vec<u64> = frames.iter().map(|f| f.epoch).collect();
                    let (kept, dropped) = coalesce_frames(frames);
                    coalesced_count += dropped;
                    // Coalescing drops only frames that were actually in
                    // this drained batch — a shed frame can never also
                    // be counted as coalesced, because it never reached
                    // the drain.
                    assert!(
                        kept.iter().all(|f| batch_ids.contains(&f.epoch)),
                        "seed {seed}"
                    );
                    assert_eq!(kept.len() + dropped, batch_ids.len(), "seed {seed}");
                    delivered_ids.extend(kept.iter().map(|f| f.epoch));
                }
            }
        }

        // Lifecycle is never shed and never coalesced: all of it
        // arrives, in order.
        let sent_lifecycle: Vec<u64> = msgs
            .iter()
            .filter_map(|m| match m {
                Msg::Lifecycle(id) => Some(*id),
                Msg::Report(_) => None,
            })
            .collect();
        assert_eq!(lifecycle_ids, sent_lifecycle, "seed {seed}");

        // Every report frame has exactly one fate: shed at the inbox,
        // dropped by the coalescer, or delivered to the controller.
        let reports_sent = msgs.len() - sent_lifecycle.len();
        assert_eq!(
            shed_count + coalesced_count + delivered_ids.len(),
            reports_sent,
            "seed {seed}: frames double- or un-counted \
             (shed {shed_count}, coalesced {coalesced_count}, delivered {})",
            delivered_ids.len()
        );
    }
}
