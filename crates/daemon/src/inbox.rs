//! The session loop's bounded inbox: a multi-producer, single-consumer
//! queue with a deterministic overload-shedding policy.
//!
//! The reader tasks used to feed the session loop through an unbounded
//! `std::sync::mpsc` channel, so one flooding connection could grow the
//! queue (and the daemon's memory) without limit while the single-owner
//! session loop fell further and further behind. This inbox bounds the
//! queue and sheds under pressure — but only *telemetry*: a dropped
//! scan report is recovered by the harness's retransmission schedule,
//! whereas a dropped ack would stall a directive transaction into a
//! false declared-dead, and a dropped register/stop would wedge the
//! session. The policy is pure queue-state logic (no clocks, no
//! randomness): when a telemetry newcomer finds the queue full, the
//! oldest queued telemetry makes room, or, if none is queued, the
//! newcomer itself is shed. A lifecycle newcomer is always admitted,
//! even past the cap, and sheds nothing (the count of lifecycle
//! messages is bounded by the protocol, not by a flooder), so a
//! disconnect racing a flood cannot change how many frames are shed.
//!
//! Every shed increments `daemon.frames_shed`, so a scripted load test
//! can assert exact counts — the policy has no timing dependence.

use std::collections::VecDeque;
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use wolt_support::obs;

/// The receiver hung up: the session loop is gone and the message was
/// not enqueued (mirroring `mpsc::SendError`, minus the payload).
#[derive(Debug, PartialEq, Eq)]
pub struct SendError;

struct State<T> {
    queue: VecDeque<(bool, T)>,
    senders: usize,
    receiver_alive: bool,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    available: Condvar,
    /// Queue bound; `0` disables bounding (and therefore shedding).
    cap: usize,
    /// Whether an entry may be shed under pressure.
    sheddable: fn(&T) -> bool,
}

/// Creates a bounded inbox. `cap == 0` means unbounded; `sheddable`
/// classifies entries the shed policy may drop.
pub fn channel<T>(cap: usize, sheddable: fn(&T) -> bool) -> (InboxSender<T>, Inbox<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            receiver_alive: true,
        }),
        available: Condvar::new(),
        cap,
        sheddable,
    });
    (
        InboxSender {
            shared: Arc::clone(&shared),
        },
        Inbox { shared },
    )
}

/// The producer half; clonable, one per reader task.
pub struct InboxSender<T> {
    shared: Arc<Shared<T>>,
}

impl<T> InboxSender<T> {
    /// Enqueues `msg`, applying the shed policy when the queue is at
    /// capacity. `Err(SendError)` means the receiver is gone (mirroring
    /// `mpsc::Sender::send`); `Ok(shed)` reports whether an entry was
    /// shed to admit (or in place of) this message.
    pub fn send(&self, msg: T) -> Result<bool, SendError> {
        let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        if !state.receiver_alive {
            return Err(SendError);
        }
        let msg_sheddable = (self.shared.sheddable)(&msg);
        let mut shed = false;
        // Only telemetry is ever shed, and only to admit telemetry: a
        // lifecycle message rides in past the cap and sheds nothing —
        // their volume is bounded by the protocol itself.
        if msg_sheddable && self.shared.cap > 0 && state.queue.len() >= self.shared.cap {
            if let Some(oldest) = state.queue.iter().position(|(s, _)| *s) {
                // Shed the oldest queued telemetry to make room.
                state.queue.remove(oldest);
                shed = true;
            } else {
                // Nothing queued may be shed, so the newcomer yields.
                obs::counter_inc("daemon.frames_shed");
                return Ok(true);
            }
        }
        state.queue.push_back((msg_sheddable, msg));
        drop(state);
        if shed {
            obs::counter_inc("daemon.frames_shed");
        }
        self.shared.available.notify_one();
        Ok(shed)
    }
}

impl<T> Clone for InboxSender<T> {
    fn clone(&self) -> Self {
        let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        state.senders += 1;
        drop(state);
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for InboxSender<T> {
    fn drop(&mut self) {
        let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        state.senders -= 1;
        let last = state.senders == 0;
        drop(state);
        if last {
            // Wake a receiver blocked on an empty queue so it observes
            // the disconnect.
            self.shared.available.notify_all();
        }
    }
}

/// The consumer half (the session loop).
pub struct Inbox<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Inbox<T> {
    /// Blocks for the next message, up to `timeout`. The error cases
    /// mirror `mpsc::Receiver::recv_timeout`: `Timeout` when the window
    /// expires, `Disconnected` when every sender is gone and the queue
    /// is drained.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some((_, msg)) = state.queue.pop_front() {
                return Ok(msg);
            }
            if state.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let wait = deadline.saturating_duration_since(Instant::now());
            if wait.is_zero() {
                return Err(RecvTimeoutError::Timeout);
            }
            let (next, result) = self
                .shared
                .available
                .wait_timeout(state, wait)
                .unwrap_or_else(|e| e.into_inner());
            state = next;
            if result.timed_out() && state.queue.is_empty() {
                if state.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                return Err(RecvTimeoutError::Timeout);
            }
        }
    }

    /// Messages currently queued (for teardown diagnostics and tests).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.shared
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .queue
            .len()
    }
}

impl<T> Drop for Inbox<T> {
    fn drop(&mut self) {
        let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        state.receiver_alive = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn odd_is_sheddable(n: &u32) -> bool {
        *n % 2 == 1
    }

    #[test]
    fn unbounded_inbox_never_sheds() {
        let (tx, rx) = channel::<u32>(0, odd_is_sheddable);
        for i in 0..1000 {
            assert!(!tx.send(i).unwrap());
        }
        assert_eq!(rx.len(), 1000);
    }

    #[test]
    fn sheds_oldest_sheddable_first_exactly() {
        let (tx, rx) = channel::<u32>(4, odd_is_sheddable);
        // Fill: [1, 2, 3, 4] — 1 and 3 sheddable.
        for i in 1..=4 {
            assert!(!tx.send(i).unwrap());
        }
        // Over cap: 5 admits by shedding 1; lifecycle 6 rides in past the
        // cap and sheds nothing.
        assert!(tx.send(5).unwrap());
        assert!(!tx.send(6).unwrap());
        // Queue is [2, 3, 4, 5, 6]; 7 sheds the oldest sheddable, 3.
        assert!(tx.send(7).unwrap());
        let drained: Vec<u32> =
            std::iter::from_fn(|| rx.recv_timeout(Duration::ZERO).ok()).collect();
        assert_eq!(drained, vec![2, 4, 5, 6, 7]);
    }

    #[test]
    fn newcomer_is_shed_when_nothing_queued_may_be() {
        let (tx, rx) = channel::<u32>(2, odd_is_sheddable);
        assert!(!tx.send(2).unwrap());
        assert!(!tx.send(4).unwrap());
        // Full of unsheddable entries: a telemetry newcomer is dropped…
        assert!(tx.send(9).unwrap());
        // …but a lifecycle newcomer is admitted past the cap.
        assert!(!tx.send(6).unwrap());
        let drained: Vec<u32> =
            std::iter::from_fn(|| rx.recv_timeout(Duration::ZERO).ok()).collect();
        assert_eq!(drained, vec![2, 4, 6]);
    }

    #[test]
    fn disconnect_and_timeout_mirror_mpsc() {
        let (tx, rx) = channel::<u32>(0, odd_is_sheddable);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        );
        tx.send(7).unwrap();
        drop(tx);
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Ok(7));
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn send_after_receiver_drop_errors() {
        let (tx, rx) = channel::<u32>(0, odd_is_sheddable);
        drop(rx);
        assert_eq!(tx.send(1), Err(SendError));
    }

    #[test]
    fn cross_thread_delivery_preserves_order_per_sender() {
        let (tx, rx) = channel::<u32>(0, odd_is_sheddable);
        let producer = thread::spawn(move || {
            for i in 0..500 {
                tx.send(i).unwrap();
            }
        });
        let mut got = Vec::new();
        while got.len() < 500 {
            got.push(rx.recv_timeout(Duration::from_secs(5)).unwrap());
        }
        producer.join().unwrap();
        assert_eq!(got, (0..500).collect::<Vec<_>>());
    }
}
