//! Unit-level tests of the TyCOd daemon's routing logic: shared-memory
//! local delivery, remote forwarding through the fabric, name-service
//! hosting, and the packet balance the termination detector relies on.

use crossbeam::channel::unbounded;
use ditico_rt::daemon::{Daemon, DaemonIn};
use ditico_rt::fabric::{Fabric, FabricHandle, FabricMode, LinkProfile};
use ditico_rt::nameservice::NsShardMap;
use ditico_rt::site::RtIncoming;
use ditico_rt::termination::{Outbox, Receipts, Snapshot, TermCounters};
use std::sync::Arc;
use tyco_vm::codec::{decode, encode, Packet};
use tyco_vm::port::Incoming;
use tyco_vm::wire::{WireCode, WireObj, WireWord};
use tyco_vm::word::{Identity, NetRef, NodeId, SiteId};
use tyco_vm::Digest;

struct Rig {
    daemon: Daemon,
    site_rx: crossbeam::channel::Receiver<RtIncoming>,
    fabric_rx_other: crossbeam::channel::Receiver<(NodeId, bytes::Bytes)>,
    /// Site 0's counted outgoing queue.
    to_daemon: Outbox<DaemonIn>,
    /// Sends as node 1 into node 0's fabric queue.
    fabric: FabricHandle,
    term: Arc<TermCounters>,
    /// The receipt point of the actors the test plays: site 0 and node 1's
    /// daemon.
    peers: Receipts,
}

impl Rig {
    /// Take site 0's inbox, as the site would.
    fn take_site(&mut self) -> Vec<RtIncoming> {
        let got: Vec<RtIncoming> = self.site_rx.try_iter().collect();
        self.peers.commit(got.len() as u64, false);
        got
    }

    /// Take node 1's fabric inbox, as its daemon would.
    fn take_peer(&mut self) -> Vec<(NodeId, bytes::Bytes)> {
        let got: Vec<_> = self.fabric_rx_other.try_iter().collect();
        self.peers.commit(got.len() as u64, false);
        got
    }

    /// `(sent, received)` of the rig's termination counters.
    fn counts(&self) -> (u64, u64) {
        let snap = Snapshot::take(&self.term, false);
        (snap.sent, snap.received)
    }

    /// Every packet that entered a queue was taken, and no daemon holds
    /// work of its own.
    fn assert_balanced(&self) {
        let snap = Snapshot::take(&self.term, false);
        assert!(snap.quiet(), "unbalanced: {snap:?}");
    }
}

/// A daemon on node 0 hosting the NS, with one local site (SiteId 0) and a
/// second node (NodeId 1) observable through the fabric.
fn rig() -> Rig {
    rig_with_replicas(1)
}

/// [`rig`] with the central name service replicated on the first
/// `replicas` nodes.
fn rig_with_replicas(replicas: usize) -> Rig {
    let fabric = Fabric::new(FabricMode::Ideal, LinkProfile::ideal());
    let fabric_rx_self = fabric.register_node(NodeId(0));
    let fabric_rx_other = fabric.register_node(NodeId(1));
    let (out_tx, out_rx) = unbounded();
    let term = fabric.term().clone();
    let mut daemon = Daemon::new(
        NodeId(0),
        out_rx,
        fabric_rx_self,
        fabric.handle(),
        Arc::new(NsShardMap::new(1, replicas, 0)),
    );
    if let Some(ns) = &mut daemon.ns {
        ns.register_site(
            "local",
            Identity {
                site: SiteId(0),
                node: NodeId(0),
            },
        );
        ns.register_site(
            "far",
            Identity {
                site: SiteId(7),
                node: NodeId(1),
            },
        );
    }
    let (in_tx, site_rx) = unbounded();
    daemon.attach_site(
        SiteId(0),
        in_tx,
        ditico_rt::sched::SiteWake::Notify(Arc::new(ditico_rt::wake::Notify::new())),
    );
    let handle = fabric.handle();
    // Keep the fabric alive for the rig's lifetime by leaking it (tests
    // are short-lived); shutting it down would close the channels.
    std::mem::forget(fabric);
    Rig {
        daemon,
        site_rx,
        fabric_rx_other,
        to_daemon: Outbox::new(out_tx, term.clone()),
        fabric: handle,
        peers: Receipts::new(term.clone()),
        term,
    }
}

/// Site 0 hands the daemon one packet.
fn site_sends(r: &Rig, p: Packet) {
    assert!(r.to_daemon.send_iter(std::iter::once(DaemonIn::Packet(p))));
}

fn msg_to(site: u32, node: u32) -> Packet {
    Packet::Msg {
        dest: NetRef {
            heap_id: 5,
            site: SiteId(site),
            node: NodeId(node),
        },
        label: "go".into(),
        args: vec![WireWord::Int(1)],
    }
}

#[test]
fn local_destination_is_delivered_by_reference() {
    let mut r = rig();
    site_sends(&r, msg_to(0, 0));
    assert!(r.daemon.pump());
    match r.site_rx.try_recv().expect("delivered") {
        RtIncoming::Vm(Incoming::Msg { dest, label, .. }) => {
            assert_eq!(dest, 5);
            assert_eq!(label, "go");
        }
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(r.daemon.stats.local_deliveries, 1);
    assert_eq!(r.daemon.stats.remote_sends, 0);
}

#[test]
fn remote_destination_is_encoded_and_forwarded() {
    let mut r = rig();
    site_sends(&r, msg_to(7, 1));
    assert!(r.daemon.pump());
    let (from, bytes) = r.fabric_rx_other.try_recv().expect("forwarded");
    assert_eq!(from, NodeId(0));
    // The payload decodes back to the same packet.
    match decode(bytes).expect("decodes") {
        Packet::Msg { dest, .. } => assert_eq!(dest.site, SiteId(7)),
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(r.daemon.stats.remote_sends, 1);
    assert!(r.daemon.stats.bytes_out > 0);
}

#[test]
fn ns_register_then_import_answers_locally() {
    let mut r = rig();
    let value = WireWord::Chan(NetRef {
        heap_id: 1,
        site: SiteId(0),
        node: NodeId(0),
    });
    site_sends(
        &r,
        Packet::NsRegister {
            from_site: SiteId(0),
            site_lexeme: "local".into(),
            name: "p".into(),
            value: value.clone(),
            stamp: None,
        },
    );
    site_sends(
        &r,
        Packet::NsImport {
            req: 9,
            site: "local".into(),
            name: "p".into(),
            kind: tyco_vm::ImportKind::Name,
            reply_to: Identity {
                site: SiteId(0),
                node: NodeId(0),
            },
            expect: None,
        },
    );
    assert!(r.daemon.pump());
    match r.site_rx.try_recv().expect("reply") {
        RtIncoming::ImportResolved {
            req: 9,
            result: Ok(w),
        } => assert_eq!(w, value),
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(r.daemon.stats.ns_ops, 2);
}

#[test]
fn conservation_accounting_balances() {
    let mut r = rig();
    // Two NS ops and one local delivery: everything sent is received once
    // the site takes the reply.
    site_sends(
        &r,
        Packet::NsRegister {
            from_site: SiteId(0),
            site_lexeme: "local".into(),
            name: "q".into(),
            value: WireWord::Chan(NetRef {
                heap_id: 2,
                site: SiteId(0),
                node: NodeId(0),
            }),
            stamp: None,
        },
    );
    site_sends(
        &r,
        Packet::NsImport {
            req: 1,
            site: "local".into(),
            name: "q".into(),
            kind: tyco_vm::ImportKind::Name,
            reply_to: Identity {
                site: SiteId(0),
                node: NodeId(0),
            },
            expect: None,
        },
    );
    r.daemon.pump();
    // Both NS ops received; the generated reply sits in the site inbox.
    assert_eq!(r.counts(), (3, 2));
    assert_eq!(r.site_rx.len(), 1, "the reply is in flight");
    assert_eq!(r.take_site().len(), 1);
    r.assert_balanced();
}

#[test]
fn heartbeats_update_liveness_map() {
    let mut r = rig();
    r.daemon.send_heartbeat();
    r.daemon.pump();
    assert_eq!(r.daemon.heartbeats.get(&NodeId(0)), Some(&1));
    r.daemon.send_heartbeat();
    r.daemon.pump();
    assert_eq!(r.daemon.heartbeats.get(&NodeId(0)), Some(&2));
}

#[test]
fn unknown_local_site_drops_and_balances() {
    let mut r = rig();
    site_sends(&r, msg_to(42, 0)); // site 42: nobody
    r.daemon.pump();
    assert!(r.take_site().is_empty());
    // The daemon received the packet; the drop enqueued nothing.
    assert_eq!(r.counts(), (1, 1));
    r.assert_balanced();
}

/// Fabric packets refused at the trust boundary — undecodable bytes, and
/// mobile code the verifier rejects — are received and dropped.
#[test]
fn screen_rejects_balance() {
    let mut r = rig();
    let bogus = Packet::Obj {
        dest: NetRef {
            heap_id: 1,
            site: SiteId(0),
            node: NodeId(0),
        },
        digest: Digest(0),
        obj: WireObj {
            code: WireCode {
                blocks: vec![],
                tables: vec![],
                labels: vec![],
                strings: vec![],
            },
            table: 3, // no such entry table
            captured: vec![],
        },
    };
    r.fabric.send(NodeId(1), NodeId(0), encode(&bogus));
    r.fabric.send(
        NodeId(1),
        NodeId(0),
        bytes::Bytes::from_static(b"\xff junk"),
    );
    assert!(r.daemon.pump());
    assert_eq!(r.daemon.stats.rejected, 2);
    assert!(r.take_site().is_empty(), "nothing was delivered");
    assert_eq!(r.counts(), (2, 2));
    r.assert_balanced();
}

/// The central service with two replicas: one registration is applied
/// by the owner, which ships one replication record to the other
/// replica, each counted where it is taken.
#[test]
fn register_replicates_to_the_second_replica_balances() {
    let mut r = rig_with_replicas(2);
    site_sends(
        &r,
        Packet::NsRegister {
            from_site: SiteId(0),
            site_lexeme: "local".into(),
            name: "p".into(),
            value: WireWord::Int(3),
            stamp: None,
        },
    );
    r.daemon.pump();
    assert_eq!(r.daemon.stats.ns_ops, 1, "the local replica applied it");
    let copies = r.take_peer();
    assert_eq!(copies.len(), 1, "one copy went to the other replica");
    assert!(matches!(
        decode(copies[0].1.clone()),
        Ok(Packet::NsRepl { to: NodeId(1), .. })
    ));
    assert_eq!(r.counts(), (2, 2));
    r.assert_balanced();
}

/// A daemon bounce loses the packets queued at it; the restart drain
/// takes them, so they count as received.
#[test]
fn restart_drain_balances() {
    let mut r = rig();
    site_sends(&r, msg_to(0, 0));
    site_sends(&r, msg_to(7, 1));
    r.fabric.send(NodeId(1), NodeId(0), encode(&msg_to(0, 0)));
    assert_eq!(r.counts(), (3, 0));
    r.daemon.simulate_restart();
    assert!(!r.daemon.pump(), "nothing survived the bounce");
    assert!(r.take_site().is_empty());
    assert!(r.take_peer().is_empty());
    r.assert_balanced();
}
