//! Edge-triggered thread wakeups for the threaded runtime.
//!
//! [`Notify`] is how a thread of a wall-clock run waits without polling:
//! a daemon thread, a pool worker or the environment loop with no work
//! parks on its `Notify` and is woken exactly when a producer hands it
//! something (a packet from a site or the fabric, a ready site, an idle
//! edge). The flag makes the primitive race-free: a notification that
//! arrives between the "no work" check and the park is consumed
//! immediately instead of lost.

use parking_lot::{Condvar, Mutex};
use std::time::Duration;

/// Anything a producer can kick awake. Two parking stories exist in the
/// runtime — threads blocked on a [`Notify`] condvar (daemons, workers,
/// the environment loop) and the transport's event loop blocked in
/// `Poller::wait` (woken through its self-pipe
/// [`crate::poller::PollWaker`]) — and this trait is what lets a
/// producer hand work to either without knowing which it is waking.
pub trait Wake: Send + Sync {
    fn wake(&self);
}

impl Wake for Notify {
    fn wake(&self) {
        self.notify();
    }
}

/// A one-shot, self-resetting wakeup flag (a minimal eventcount).
#[derive(Default)]
pub struct Notify {
    flagged: Mutex<bool>,
    cond: Condvar,
}

impl Notify {
    pub fn new() -> Notify {
        Notify::default()
    }

    /// Signal the parked (or about-to-park) waiter. Idempotent and cheap
    /// when the flag is already raised — a hot producer pays one
    /// uncontended lock, no syscall.
    pub fn notify(&self) {
        let mut f = self.flagged.lock();
        if !*f {
            *f = true;
            self.cond.notify_one();
        }
    }

    /// Park until notified or `timeout` elapses, then clear the flag.
    /// Returns immediately when a notification is already pending.
    pub fn wait_timeout(&self, timeout: Duration) {
        let mut f = self.flagged.lock();
        if !*f {
            self.cond.wait_for(&mut f, timeout);
        }
        *f = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn pending_notification_skips_the_park() {
        let n = Notify::new();
        n.notify();
        let t0 = Instant::now();
        n.wait_timeout(Duration::from_secs(5));
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "flag was pending; no wait"
        );
        // The flag is consumed: the next wait times out.
        let t0 = Instant::now();
        n.wait_timeout(Duration::from_millis(10));
        assert!(t0.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn cross_thread_wakeup() {
        let n = Arc::new(Notify::new());
        let n2 = n.clone();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            n2.notify();
        });
        let t0 = Instant::now();
        n.wait_timeout(Duration::from_secs(10));
        assert!(t0.elapsed() < Duration::from_secs(5));
        h.join().unwrap();
    }
}
