//! The server's connection router and site registry.
//!
//! Every accepted connection's hello names a site — or none, for the
//! anonymous site of a single-site server; the router maps it to that
//! site's session inbox (or to the typed [`Envelope::SiteGone`]
//! reject). The router is also the server's lifecycle ledger: it knows
//! each site's state for `fleet status`, carries out drains, and tells
//! the shard whose site was the last one live that the server is done.
//!
//! The router never touches an engine — shard threads own those
//! exclusively. It only holds each site's inbox *sender* (dropped at
//! detach, so the engine's teardown can prove quiescence), the
//! immutable greeting the handshake needs, and the site's
//! [`SiteProgress`], which the owning shard writes without taking the
//! registry lock.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::engine::{HelloDecision, Incoming};
use crate::inbox::InboxSender;
use crate::wire::{Envelope, SiteStatus};

/// A site's live progress: written by its shard after every engine
/// step, read by `fleet status`. Atomics, so stepping a session never
/// waits on the registry lock.
#[derive(Debug, Default)]
pub struct SiteProgress {
    epochs_done: AtomicU64,
    running: AtomicBool,
}

impl SiteProgress {
    /// Records the site's completed events and whether its session is
    /// running: every agent registered and events driving.
    pub fn note(&self, epochs_done: usize, running: bool) {
        self.epochs_done
            .store(epochs_done as u64, Ordering::Relaxed);
        self.running.store(running, Ordering::Relaxed);
    }
}

/// A site's lifecycle state as the router tracks it; a live site reads
/// `waiting` or `running` from its [`SiteProgress`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SiteState {
    /// Registered and not draining.
    Live,
    /// Drain requested: no new agents, finishing in-flight work.
    Draining,
    /// Finished cleanly (report available).
    Done,
    /// Finished with an error.
    Failed,
}

struct SiteEntry {
    /// The session inbox; `None` once the site is detached (its reader
    /// tasks can no longer register agents).
    sender: Option<InboxSender<Incoming>>,
    /// The handshake greeting (each client's saved attachment).
    greeting: Arc<Vec<Option<usize>>>,
    /// Whether new agent hellos are routed (false once draining).
    accepting: bool,
    /// Forget the entry entirely once the site finishes (`site remove`
    /// as opposed to `site drain`).
    remove_on_finish: bool,
    state: SiteState,
    events: u64,
    progress: Arc<SiteProgress>,
}

impl SiteEntry {
    /// The wire rendering used in [`SiteStatus::state`].
    fn state_name(&self) -> &'static str {
        match self.state {
            SiteState::Live if self.progress.running.load(Ordering::Relaxed) => "running",
            SiteState::Live => "waiting",
            SiteState::Draining => "draining",
            SiteState::Done => "done",
            SiteState::Failed => "failed",
        }
    }
}

#[derive(Default)]
struct RouterState {
    sites: BTreeMap<String, SiteEntry>,
    /// Sites registered whose engine has not yet stopped driving.
    live: usize,
    /// The server is past its lifetime for new sites (`site add`
    /// refused).
    closed: bool,
}

/// The server's site registry: routes hellos, applies lifecycle ops,
/// reports status. Shared between the accept path (reader tasks) and
/// the shards.
#[derive(Default)]
pub struct FleetRouter {
    state: Mutex<RouterState>,
}

impl FleetRouter {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, RouterState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Registers a site and starts routing its agents. Returns the
    /// progress cell the site's shard keeps current.
    ///
    /// # Errors
    ///
    /// A human-readable refusal when the id is already registered or the
    /// server is shutting down (the `fleet_ack` detail).
    pub fn register(
        &self,
        id: &str,
        greeting: Arc<Vec<Option<usize>>>,
        sender: InboxSender<Incoming>,
        events: u64,
        epochs_done: u64,
    ) -> Result<Arc<SiteProgress>, String> {
        let mut state = self.lock();
        if state.closed {
            return Err("the server is shutting down".into());
        }
        if state.sites.contains_key(id) {
            return Err(format!("site {id:?} is already registered"));
        }
        let progress = Arc::new(SiteProgress::default());
        progress.epochs_done.store(epochs_done, Ordering::Relaxed);
        state.sites.insert(
            id.to_string(),
            SiteEntry {
                sender: Some(sender),
                greeting,
                accepting: true,
                remove_on_finish: false,
                state: SiteState::Live,
                events,
                progress: Arc::clone(&progress),
            },
        );
        state.live += 1;
        Ok(progress)
    }

    /// Routes one agent hello: the declared site's inbox when the site
    /// is accepting, the typed [`Envelope::SiteGone`] reject when it is
    /// unknown, draining or removed. A hello naming no site is for the
    /// anonymous site `""`, which only a single-site server hosts.
    pub fn route_hello(&self, client: usize, site: Option<&str>) -> HelloDecision {
        let name = site.unwrap_or("");
        let state = self.lock();
        match state.sites.get(name) {
            Some(entry) if entry.accepting => {
                if client >= entry.greeting.len() {
                    return HelloDecision::Close;
                }
                let sender = entry
                    .sender
                    .clone()
                    .expect("an accepting site always has a sender");
                HelloDecision::Accept {
                    sender,
                    attached: entry.greeting[client],
                }
            }
            _ => HelloDecision::Reject(Envelope::SiteGone {
                site: name.to_string(),
            }),
        }
    }

    /// Drains a site: stop accepting its agents, ask its session to
    /// stop (it finishes the in-flight event and persists first), keep
    /// its status entry. Draining an already-draining or finished site
    /// is a no-op success.
    ///
    /// # Errors
    ///
    /// A refusal naming the unknown site.
    pub fn drain(&self, id: &str) -> Result<(), String> {
        self.drain_inner(id, false)
    }

    /// [`FleetRouter::drain`], and additionally forget the site's
    /// status entry once it finishes.
    ///
    /// # Errors
    ///
    /// A refusal naming the unknown site.
    pub fn remove(&self, id: &str) -> Result<(), String> {
        self.drain_inner(id, true)
    }

    fn drain_inner(&self, id: &str, remove: bool) -> Result<(), String> {
        let mut state = self.lock();
        let Some(entry) = state.sites.get_mut(id) else {
            return Err(format!("unknown site {id:?}"));
        };
        entry.accepting = false;
        entry.remove_on_finish |= remove;
        if matches!(entry.state, SiteState::Done | SiteState::Failed) {
            if remove {
                state.sites.remove(id);
            }
            return Ok(());
        }
        entry.state = SiteState::Draining;
        if let Some(sender) = &entry.sender {
            let _ = sender.send(Incoming::Stop {
                reason: if remove {
                    format!("site {id} removed")
                } else {
                    format!("site {id} drained")
                },
            });
        }
        Ok(())
    }

    /// Asks every live site's session to stop (the operator
    /// [`Envelope::Shutdown`] applied server-wide). Sites stay routable
    /// until their shard detaches them.
    pub fn stop_all(&self, reason: &str) {
        let state = self.lock();
        for entry in state.sites.values() {
            if let Some(sender) = &entry.sender {
                let _ = sender.send(Incoming::Stop {
                    reason: reason.to_string(),
                });
            }
        }
    }

    /// Notes that one site's engine stopped driving. Returns `true` when
    /// no live site remains; the registry is then closed, atomically, so
    /// an add cannot slip in between "last site done" and shutdown.
    pub fn finish_driving(&self) -> bool {
        let mut state = self.lock();
        state.live = state.live.saturating_sub(1);
        state.closed |= state.live == 0;
        state.live == 0
    }

    /// Whether the registry is closed: every site has stopped driving.
    pub fn closed(&self) -> bool {
        self.lock().closed
    }

    /// Stops routing a site's agents and drops its inbox sender, so the
    /// engine's stray-reaping can observe disconnect once the site's
    /// last reader exits. Called by the owning shard right after the
    /// engine finishes driving.
    pub fn detach(&self, id: &str) {
        let mut state = self.lock();
        if let Some(entry) = state.sites.get_mut(id) {
            entry.accepting = false;
            entry.sender = None;
        }
    }

    /// Records a site's terminal state, forgetting the entry when the
    /// site was removed.
    pub fn finish_site(&self, id: &str, epochs_done: u64, ok: bool) {
        let mut state = self.lock();
        if let Some(entry) = state.sites.get_mut(id) {
            entry.accepting = false;
            entry.sender = None;
            entry
                .progress
                .epochs_done
                .store(epochs_done, Ordering::Relaxed);
            entry.state = if ok {
                SiteState::Done
            } else {
                SiteState::Failed
            };
            if entry.remove_on_finish {
                state.sites.remove(id);
            }
        }
    }

    /// Per-site status, in site-id order (the `fleet status` reply).
    pub fn status(&self) -> Vec<SiteStatus> {
        let state = self.lock();
        state
            .sites
            .iter()
            .map(|(id, entry)| SiteStatus {
                site: id.clone(),
                state: entry.state_name().to_string(),
                users: entry.greeting.len() as u64,
                epochs_done: entry.progress.epochs_done.load(Ordering::Relaxed),
                events: entry.events,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::incoming_sheddable;
    use crate::inbox;

    fn sender() -> (InboxSender<Incoming>, inbox::Inbox<Incoming>) {
        inbox::channel(0, incoming_sheddable)
    }

    fn greeting(n: usize) -> Arc<Vec<Option<usize>>> {
        Arc::new(vec![None; n])
    }

    #[test]
    fn routes_known_sites_and_rejects_everything_else() {
        let router = FleetRouter::new();
        let (tx, _rx) = sender();
        router.register("alpha", greeting(2), tx, 2, 0).unwrap();

        assert!(matches!(
            router.route_hello(1, Some("alpha")),
            HelloDecision::Accept { .. }
        ));
        // Out-of-range client for a known site: silent close.
        assert!(matches!(
            router.route_hello(2, Some("alpha")),
            HelloDecision::Close
        ));
        // Unknown site and site-less hello: typed reject.
        assert!(matches!(
            router.route_hello(0, Some("beta")),
            HelloDecision::Reject(Envelope::SiteGone { site }) if site == "beta"
        ));
        assert!(matches!(
            router.route_hello(0, None),
            HelloDecision::Reject(Envelope::SiteGone { site }) if site.is_empty()
        ));
    }

    #[test]
    fn drain_stops_routing_and_delivers_a_stop() {
        let router = FleetRouter::new();
        let (tx, rx) = sender();
        router.register("alpha", greeting(1), tx, 1, 0).unwrap();
        router.drain("alpha").unwrap();
        assert!(matches!(
            router.route_hello(0, Some("alpha")),
            HelloDecision::Reject(Envelope::SiteGone { .. })
        ));
        match rx.recv_timeout(std::time::Duration::from_millis(100)) {
            Ok(Incoming::Stop { reason }) => assert!(reason.contains("drained")),
            other => panic!("expected a stop, got {:?}", other.is_ok()),
        }
        assert_eq!(router.status()[0].state, "draining");
        assert!(router.drain("ghost").is_err());
    }

    #[test]
    fn remove_forgets_the_entry_once_finished() {
        let router = FleetRouter::new();
        let (tx, _rx) = sender();
        router.register("alpha", greeting(1), tx, 1, 0).unwrap();
        router.remove("alpha").unwrap();
        assert_eq!(router.status().len(), 1);
        router.finish_site("alpha", 0, true);
        assert!(router.status().is_empty());
    }

    #[test]
    fn register_refuses_duplicates_and_closed_registry() {
        let router = FleetRouter::new();
        let (tx, _rx) = sender();
        router.register("alpha", greeting(1), tx, 1, 0).unwrap();
        let (tx2, _rx2) = sender();
        assert!(router.register("alpha", greeting(1), tx2, 1, 0).is_err());
        assert!(router.finish_driving(), "alpha was the last live site");
        let (tx3, _rx3) = sender();
        assert!(router.register("beta", greeting(1), tx3, 1, 0).is_err());
    }

    #[test]
    fn status_is_sorted_by_site_id() {
        let router = FleetRouter::new();
        for id in ["zeta", "alpha", "mid"] {
            let (tx, rx) = sender();
            std::mem::forget(rx);
            router.register(id, greeting(1), tx, 1, 0).unwrap();
        }
        let ids: Vec<String> = router.status().into_iter().map(|s| s.site).collect();
        assert_eq!(ids, vec!["alpha", "mid", "zeta"]);
    }
}
