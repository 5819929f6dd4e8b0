//! Termination detection (§7, future work: *"we need to introduce
//! fault-tolerance and termination detection into the system … to try to
//! terminate computations cleanly"*).
//!
//! Mattern's four-counter scheme over the runtime's cross-actor queues.
//! A packet counts as **sent** when it enters one of the three queues —
//! site → daemon, a node's fabric queue (the Virtual/RealTime event heap
//! included), daemon → site — and as **received** when the receiving
//! actor takes it. The detector snapshots `(sent, received, any_active)`
//! and declares termination when two *consecutive* snapshots are equal,
//! balanced and inactive: the first plays Mattern's first wave, the
//! second confirms no packet moved in between.
//!
//! Nothing outside the queues is counted, so no route, delivery or fault
//! path compensates anything: a packet that never enters a queue (chaos
//! drop, send to a dead node, coalesced fetch, unknown site) is never
//! counted, a duplicate is enqueued and counted twice, and broadcasts,
//! fan-outs and lease-hit replies count each copy as it is enqueued. The
//! counter fields are private to this module; every write happens in
//!
//! 1. [`Outbox::send_iter`] — `sent` for `RtPort::flush`,
//!    `Daemon::flush_local` and Ideal-mode fabric sends (`received` too,
//!    for a batch refused because its receiver is gone);
//! 2. `FabricHandle::enqueue` — `sent` as packets enter the event heap;
//! 3. `fabric::deliver` — `received` for heap packets whose destination
//!    died, the one drop point for traffic the fabric accepted;
//! 4. [`Receipts::commit`], called from one receipt function per actor:
//!    `RtPort::take_inbox` (errored-site drain included) and
//!    `Daemon::commit_receipts` (end of pump, refill clock, restart drain).
//!
//! **Soundness.** Sends are counted before the receiver can see them and
//! receipts after the take, so `sent ≥ received` holds per queue at every
//! instant; a snapshot reads activity, then `received`, then `sent`, so a
//! balanced one saw every queue empty. A site takes and reacts only
//! inside a slice the scheduler reports active (`sched.rs`). A daemon
//! commits its receipts once per pump, after its flushes counted every
//! packet the pump produced — replies are sent before their requests are
//! received by construction. Work a daemon acts on by itself (parked code
//! refills, the modeled name-service backlog) marks it busy, published
//! before the receipts that created it; coalesced fetch waiters stay
//! passive, like a site waiting on a reply.
//!
//! Counts are per process: a packet handed to the TCP transport counts
//! again when the peer's transport injects it into its fabric, and
//! multi-process runs end on the wire policy until a probe wave sums them.

use crossbeam::channel::Sender;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The run's packet-conservation counters (see the module docs); read
/// them through a [`Snapshot`].
#[derive(Debug, Default)]
pub struct TermCounters {
    sent: AtomicU64,
    received: AtomicU64,
    /// Daemons holding work they will act on without further input.
    busy: AtomicU64,
}

impl TermCounters {
    /// Count `sent` packets entering, and `received` packets leaving, a
    /// queue no actor owns (the fabric's event heap).
    pub(crate) fn add(&self, sent: u64, received: u64) {
        if sent > 0 {
            self.sent.fetch_add(sent, Ordering::SeqCst);
        }
        if received > 0 {
            self.received.fetch_add(received, Ordering::SeqCst);
        }
    }
}

/// The sending end of a cross-actor queue: counts each batch as sent
/// before the receiver can see it.
pub struct Outbox<T> {
    tx: Sender<T>,
    term: Arc<TermCounters>,
}

impl<T> Clone for Outbox<T> {
    fn clone(&self) -> Outbox<T> {
        Outbox::new(self.tx.clone(), self.term.clone())
    }
}

impl<T> Outbox<T> {
    pub fn new(tx: Sender<T>, term: Arc<TermCounters>) -> Outbox<T> {
        Outbox { tx, term }
    }

    /// Enqueue a batch under one queue lock. Returns `false` when the
    /// receiver is gone: the batch is dropped and counted received at
    /// once, since no actor will ever take it.
    pub fn send_iter<I: ExactSizeIterator<Item = T>>(&self, batch: I) -> bool {
        let n = batch.len() as u64;
        self.term.add(n, 0);
        let ok = self.tx.send_iter(batch).is_ok();
        if !ok {
            self.term.add(0, n);
        }
        ok
    }

    /// Move an item counted when it entered an earlier stage of the same
    /// queue (the event heap). Returns `false` if the receiver is gone.
    pub(crate) fn forward(&self, item: T) -> bool {
        self.tx.send(item).is_ok()
    }
}

/// One actor's receipt point.
#[derive(Debug)]
pub struct Receipts {
    term: Arc<TermCounters>,
    holds_work: bool,
}

impl Receipts {
    pub fn new(term: Arc<TermCounters>) -> Receipts {
        Receipts {
            term,
            holds_work: false,
        }
    }

    pub(crate) fn counters(&self) -> &Arc<TermCounters> {
        &self.term
    }

    /// Publish whether the actor now holds work of its own, then count
    /// `taken` packets received — busy first, so a snapshot that sees the
    /// receipts also sees the work they created.
    pub fn commit(&mut self, taken: u64, holds_work: bool) {
        if holds_work != self.holds_work {
            self.holds_work = holds_work;
            if holds_work {
                self.term.busy.fetch_add(1, Ordering::SeqCst);
            } else {
                self.term.busy.fetch_sub(1, Ordering::SeqCst);
            }
        }
        self.term.add(0, taken);
    }
}

/// One snapshot of global activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    pub sent: u64,
    pub received: u64,
    pub any_active: bool,
}

impl Snapshot {
    /// Take a snapshot from the counters plus a site-activity scan made
    /// just before. Reads busy daemons, then `received`, then `sent`:
    /// every skew between the reads errs towards "not quiet".
    pub fn take(counters: &TermCounters, sites_active: bool) -> Snapshot {
        let busy = counters.busy.load(Ordering::SeqCst) > 0;
        let received = counters.received.load(Ordering::SeqCst);
        Snapshot {
            sent: counters.sent.load(Ordering::SeqCst),
            received,
            any_active: sites_active || busy,
        }
    }

    /// Is the system balanced and idle in this snapshot?
    pub fn quiet(&self) -> bool {
        !self.any_active && self.sent == self.received
    }
}

/// The two-wave (four-counter) termination detector.
#[derive(Debug, Default)]
pub struct TerminationDetector {
    prev: Option<Snapshot>,
    /// Number of probes performed (reported in experiment C8).
    pub probes: u64,
}

impl TerminationDetector {
    pub fn new() -> TerminationDetector {
        TerminationDetector::default()
    }

    /// Feed a snapshot; returns `true` when termination is detected.
    ///
    /// Safety: only answers `true` when two consecutive snapshots are
    /// quiet and identical, which implies no packet was produced, consumed
    /// or in flight between them.
    pub fn probe(&mut self, snap: Snapshot) -> bool {
        self.probes += 1;
        let done = snap.quiet() && self.prev == Some(snap);
        self.prev = Some(snap);
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;

    fn snap(s: u64, r: u64, a: bool) -> Snapshot {
        Snapshot {
            sent: s,
            received: r,
            any_active: a,
        }
    }

    #[test]
    fn needs_two_identical_quiet_snapshots() {
        let mut d = TerminationDetector::new();
        assert!(
            !d.probe(snap(5, 5, false)),
            "first quiet snapshot is not enough"
        );
        assert!(
            d.probe(snap(5, 5, false)),
            "second identical quiet snapshot confirms"
        );
    }

    #[test]
    fn activity_between_waves_resets() {
        let mut d = TerminationDetector::new();
        assert!(!d.probe(snap(5, 5, false)));
        // A packet was sent and received between probes: counters moved.
        assert!(!d.probe(snap(6, 6, false)));
        assert!(d.probe(snap(6, 6, false)));
    }

    #[test]
    fn never_fires_while_unbalanced_or_active() {
        let mut d = TerminationDetector::new();
        assert!(!d.probe(snap(5, 4, false)));
        assert!(
            !d.probe(snap(5, 4, false)),
            "in-flight packet blocks detection"
        );
        assert!(!d.probe(snap(5, 5, true)));
        assert!(!d.probe(snap(5, 5, true)), "active site blocks detection");
    }

    #[test]
    fn snapshot_take_reads_counters() {
        let c = Arc::new(TermCounters::default());
        let (tx, rx) = unbounded();
        let outbox = Outbox::new(tx, c.clone());
        let mut receipts = Receipts::new(c.clone());
        assert!(outbox.send_iter([1, 2, 3].into_iter()));
        assert!(!Snapshot::take(&c, false).quiet(), "three in the queue");
        let taken = rx.try_iter().count() as u64;
        receipts.commit(taken, false);
        assert!(Snapshot::take(&c, false).quiet());
        assert!(!Snapshot::take(&c, true).quiet(), "an active site");
    }

    #[test]
    fn busy_marks_are_published_once_and_cleared() {
        let c = Arc::new(TermCounters::default());
        let mut a = Receipts::new(c.clone());
        let mut b = Receipts::new(c.clone());
        a.commit(0, true);
        a.commit(0, true);
        b.commit(0, true);
        a.commit(0, false);
        assert!(!Snapshot::take(&c, false).quiet(), "b is still busy");
        b.commit(0, false);
        assert!(Snapshot::take(&c, false).quiet());
    }

    #[test]
    fn refused_batches_balance_on_the_spot() {
        let c = Arc::new(TermCounters::default());
        let (tx, rx) = unbounded::<u8>();
        drop(rx);
        let outbox = Outbox::new(tx, c.clone());
        assert!(!outbox.send_iter([1, 2].into_iter()));
        let snap = Snapshot::take(&c, false);
        assert_eq!((snap.sent, snap.received), (2, 2));
    }
}
