//! Unit tests of the site-side network port (RtPort): packet shapes,
//! import caching and re-issue, and the packet balance at its receipt
//! point.

use crossbeam::channel::unbounded;
use ditico_rt::daemon::DaemonIn;
use ditico_rt::site::{RtIncoming, RtPort};
use ditico_rt::termination::{Outbox, Receipts, Snapshot, TermCounters};
use ditico_rt::wake::Notify;
use std::sync::Arc;
use tyco_vm::codec::Packet;
use tyco_vm::port::{ImportReply, Incoming, NetPort};
use tyco_vm::wire::WireWord;
use tyco_vm::word::{Identity, NetRef, NodeId, SiteId};
use tyco_vm::ImportKind;

struct Rig {
    port: RtPort,
    out_rx: crossbeam::channel::Receiver<DaemonIn>,
    in_tx: crossbeam::channel::Sender<RtIncoming>,
    term: Arc<TermCounters>,
}

impl Rig {
    /// Deliver into the port's inbox the way the daemon does: counted.
    fn deliver(&self, item: RtIncoming) {
        let inbox = Outbox::new(self.in_tx.clone(), self.term.clone());
        assert!(inbox.send_iter(std::iter::once(item)));
    }

    /// The next packet the port flushed (uncounted).
    fn next_out(&self) -> Packet {
        packet(self.out_rx.try_recv().unwrap())
    }

    /// Take everything the port flushed, as the daemon would.
    fn take_out(&self, daemon: &mut Receipts) -> Vec<Packet> {
        let got: Vec<Packet> = self.out_rx.try_iter().map(packet).collect();
        daemon.commit(got.len() as u64, false);
        got
    }
}

/// A site's queue item is always a packet; liveness notices come from the
/// environment.
fn packet(item: DaemonIn) -> Packet {
    match item {
        DaemonIn::Packet(p) => p,
        other => panic!("a site sent {other:?}"),
    }
}

fn rig() -> Rig {
    let (out_tx, out_rx) = unbounded();
    let (in_tx, in_rx) = unbounded();
    let term = Arc::new(TermCounters::default());
    let port = RtPort::new(
        Identity {
            site: SiteId(3),
            node: NodeId(1),
        },
        "me".to_string(),
        Outbox::new(out_tx, term.clone()),
        in_rx,
        Arc::new(Notify::new()),
        term.clone(),
    );
    Rig {
        port,
        out_rx,
        in_tx,
        term,
    }
}

/// `(sent, received)` of the rig's termination counters.
fn counts(r: &Rig) -> (u64, u64) {
    let snap = Snapshot::take(&r.term, false);
    (snap.sent, snap.received)
}

fn some_ref() -> NetRef {
    NetRef {
        heap_id: 4,
        site: SiteId(0),
        node: NodeId(0),
    }
}

#[test]
fn register_emits_ns_packet_with_lexeme() {
    let mut r = rig();
    r.port.register("p", WireWord::Chan(some_ref()));
    r.port.flush();
    match r.next_out() {
        Packet::NsRegister {
            from_site,
            site_lexeme,
            name,
            ..
        } => {
            assert_eq!(from_site, SiteId(3));
            assert_eq!(site_lexeme, "me");
            assert_eq!(name, "p");
        }
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(counts(&r).0, 1, "counted as it entered the queue");
}

#[test]
fn import_pends_then_caches_then_ready() {
    let mut r = rig();
    // First import: pending, emits a lookup.
    let reply = r.port.import("srv", "p", ImportKind::Name);
    let req = match reply {
        ImportReply::Pending(req) => req,
        other => panic!("unexpected {other:?}"),
    };
    r.port.flush();
    assert!(matches!(r.next_out(), Packet::NsImport { .. }));
    assert_eq!(r.port.pending_imports(), 1);

    // The resolution arrives; poll surfaces ImportReady and fills the cache.
    let value = WireWord::Chan(some_ref());
    r.in_tx
        .send(RtIncoming::ImportResolved {
            req,
            result: Ok(value.clone()),
        })
        .unwrap();
    assert_eq!(r.port.inbox_len(), 1);
    match r.port.poll() {
        Some(Incoming::ImportReady { req: got }) => assert_eq!(got, req),
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(r.port.pending_imports(), 0);

    // Re-executed import answers Ready from the cache; no new packet.
    match r.port.import("srv", "p", ImportKind::Name) {
        ImportReply::Ready(w) => assert_eq!(w, value),
        other => panic!("unexpected {other:?}"),
    }
    r.port.flush();
    assert!(r.out_rx.try_recv().is_err());
    // The cache is kind-sensitive: a CLASS import of the same name asks
    // the name service again.
    assert!(matches!(
        r.port.import("srv", "p", ImportKind::Class),
        ImportReply::Pending(_)
    ));
}

#[test]
fn failed_import_surfaces_reason() {
    let mut r = rig();
    let ImportReply::Pending(req) = r.port.import("srv", "ghost", ImportKind::Name) else {
        panic!("expected pending");
    };
    r.in_tx
        .send(RtIncoming::ImportResolved {
            req,
            result: Err("no such identifier".into()),
        })
        .unwrap();
    match r.port.poll() {
        Some(Incoming::ImportFailed { req: got, reason }) => {
            assert_eq!(got, req);
            assert!(reason.contains("no such"));
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn liveness_notice_resends_exports_and_reissues_pending_lookups() {
    let mut r = rig();
    let chan = |h| {
        WireWord::Chan(NetRef {
            heap_id: h,
            site: SiteId(3),
            node: NodeId(1),
        })
    };
    r.port.register("p", chan(1));
    r.port.register("p", chan(2)); // a re-export replaces the binding
    r.port.register("q", chan(3));
    let _ = r.port.import("srv", "a", ImportKind::Name);
    let _ = r.port.import("srv", "b", ImportKind::Class);
    r.port.flush();
    // Drain the originals: three registrations, two lookups.
    assert_eq!(r.out_rx.try_iter().count(), 5);
    // The notice is handled inside the port: nothing for the VM, and the
    // latest registration of each name and the re-issued lookups leave
    // with the slice's flush.
    r.deliver(RtIncoming::ReissueNsRequests);
    assert!(r.port.poll().is_none());
    r.port.flush();
    let reissued: Vec<Packet> = r.out_rx.try_iter().map(packet).collect();
    assert_eq!(reissued.len(), 4);
    let exports: Vec<(String, WireWord)> = reissued
        .iter()
        .filter_map(|p| match p {
            Packet::NsRegister { name, value, .. } => Some((name.clone(), value.clone())),
            _ => None,
        })
        .collect();
    assert_eq!(
        exports,
        [("p".to_string(), chan(2)), ("q".to_string(), chan(3))]
    );
    assert_eq!(
        reissued
            .iter()
            .filter(|p| matches!(p, Packet::NsImport { .. }))
            .count(),
        2
    );
    assert_eq!(
        r.port.pending_imports(),
        2,
        "pending set unchanged by resend"
    );
}

#[test]
fn ship_operations_produce_correctly_addressed_packets() {
    let mut r = rig();
    let dest = NetRef {
        heap_id: 8,
        site: SiteId(5),
        node: NodeId(2),
    };
    r.port.send_msg(dest, "go", vec![WireWord::Int(1)]);
    r.port.flush();
    match r.next_out() {
        Packet::Msg {
            dest: d,
            label,
            args,
        } => {
            assert_eq!(d, dest);
            assert_eq!(label, "go");
            assert_eq!(args, vec![WireWord::Int(1)]);
        }
        other => panic!("unexpected {other:?}"),
    }
    match r.port.fetch(dest) {
        tyco_vm::FetchReplyNow::Pending(_) => {}
        other => panic!("unexpected {other:?}"),
    }
    r.port.flush();
    match r.next_out() {
        Packet::FetchReq {
            class, reply_to, ..
        } => {
            assert_eq!(class, dest);
            assert_eq!(reply_to, r.port.identity());
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn conservation_counts_poll_and_send() {
    let mut r = rig();
    let mut daemon = Receipts::new(r.term.clone());
    // Sends count at the flush, one batch at a time.
    r.port.send_msg(some_ref(), "x", vec![]);
    r.port.send_msg(some_ref(), "y", vec![]);
    assert_eq!(counts(&r).0, 0, "buffered, not yet enqueued");
    r.port.flush();
    assert_eq!(counts(&r).0, 2);
    assert_eq!(r.take_out(&mut daemon).len(), 2);
    // Receipts count when the port takes its inbox; an invalidation is
    // handled inside the port but is taken (and counted) all the same.
    r.deliver(RtIncoming::NsInvalidated {
        site: "srv".into(),
        name: "p".into(),
    });
    r.deliver(RtIncoming::Vm(Incoming::Msg {
        dest: 0,
        label: "x".into(),
        args: vec![],
    }));
    assert!(r.port.poll().is_some());
    assert!(
        r.port.poll().is_none(),
        "empty inbox polls None without counting"
    );
    let snap = Snapshot::take(&r.term, false);
    assert!(snap.quiet(), "{snap:?}");
    assert_eq!(snap.sent, 4);
}

#[test]
fn errored_site_drain_and_refused_flush_balance() {
    let mut r = rig();
    for i in 0..3 {
        r.deliver(RtIncoming::Vm(Incoming::Msg {
            dest: i,
            label: "x".into(),
            args: vec![],
        }));
    }
    // One item reaches the port's batch buffer, the rest stay queued: the
    // errored-site drain takes both kinds through the one receipt point.
    assert!(r.port.poll().is_some());
    assert_eq!(r.port.drop_inbox(), 2);
    assert_eq!(r.port.inbox_len(), 0);
    // A flush the gone daemon refuses is dropped like a dead node's send.
    let Rig {
        mut port,
        out_rx,
        term,
        ..
    } = r;
    drop(out_rx);
    port.send_msg(some_ref(), "lost", vec![]);
    port.flush();
    let snap = Snapshot::take(&term, false);
    assert!(snap.quiet(), "{snap:?}");
}
