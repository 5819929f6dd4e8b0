//! The Network Name Service (§5, "NETWORKS").
//!
//! Conceptually two tables, exactly as in the paper:
//!
//! ```text
//! SiteTable: SiteName → SiteId × IpAddress
//! IdTable:   SiteName × IdName → HeapId
//! ```
//!
//! (Our `IdTable` stores the full network reference — heap id, site id,
//! node — because that is what the paper composes out of the two tables
//! when answering a lookup.)
//!
//! The service is a pure state machine driven by [`Packet`]s, so it can be
//! hosted by any node's daemon, replicated (see [`crate::failure`]) and
//! unit-tested in isolation. Lookups for identifiers not yet exported are
//! parked and answered when the export arrives — this is what makes
//! `import` block until the corresponding `export` executes.
//!
//! The paper concedes the service is centralized — its one scalability
//! bottleneck. Both the paper's server and a sharded service are one
//! [`NsShardMap`]: the `IdTable` is partitioned by consistent hashing over
//! the interned `(site, name)` key across `owners` nodes, and each key is
//! held by a replica set — its owner followed by the next hosts. The
//! central server is the one-owner map with `ns_replicas` replicas; the
//! sharded service has one follower per owner. Registrations and lookups
//! route to the first member of the key's set not marked down; the member
//! that applies a registration ships an epoch-numbered log record to the
//! other members, which serve reads (and take writes) while the members
//! before them are down. Sites re-send their exports whenever the down
//! set changes, so a registration lost with a dying member, or missed by
//! one that was down, lands again; re-registering a binding a member
//! already holds changes nothing. When the map grants leases, every
//! answered lookup grants the importing node a TTL *lease* on the
//! binding (see `crate::namecache`), and a re-export bumps the binding's
//! epoch and invalidates outstanding lessees. The `SiteTable` stays
//! fully replicated — site names are registered at build time, exactly
//! as the paper assumes ("all sites know its location in advance").

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;
use tyco_vm::codec::{Packet, TypeStamp};
use tyco_vm::digest::Digest;
use tyco_vm::program::ImportKind;
use tyco_vm::wire::WireWord;
use tyco_vm::word::{Identity, NodeId, SiteId};

/// Structured name-service counters, kept per daemon and summed into the
/// run report. Import failures are counted by *reason* (unknown site vs
/// kind vs type-stamp refusal vs lease expiry) instead of one flat
/// `ImportFailed` bucket.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NsStats {
    /// Registrations applied (exports).
    pub registers: u64,
    /// Lookups received (imports).
    pub imports: u64,
    /// Lookups answered with a binding.
    pub resolved: u64,
    /// Lookups parked waiting for an export.
    pub parked: u64,
    /// Lookups refused: unknown site lexeme (permanent error).
    pub unknown_site: u64,
    /// Lookups refused: export exists but has the wrong kind.
    pub kind_mismatch: u64,
    /// Lookups refused: bind-time type-stamp mismatch.
    pub stamp_mismatch: u64,
    /// Node-cache lease hits (import answered with zero wire traffic).
    pub lease_hits: u64,
    /// Node-cache misses (no lease held; routed to the owning shard).
    pub lease_misses: u64,
    /// Node-cache entries that had expired when consulted.
    pub lease_expired: u64,
    /// Invalidations emitted by owners on re-export epoch bumps.
    pub invalidations: u64,
    /// Imports that left the importing node for a remote replica.
    pub shard_hops: u64,
    /// Replication records shipped to the other members of a replica set.
    pub repl_shipped: u64,
    /// Replication records applied from another replica.
    pub repl_applied: u64,
}

impl NsStats {
    /// Field-wise accumulate (used when summing per-daemon stats).
    pub fn add(&mut self, o: &NsStats) {
        self.registers += o.registers;
        self.imports += o.imports;
        self.resolved += o.resolved;
        self.parked += o.parked;
        self.unknown_site += o.unknown_site;
        self.kind_mismatch += o.kind_mismatch;
        self.stamp_mismatch += o.stamp_mismatch;
        self.lease_hits += o.lease_hits;
        self.lease_misses += o.lease_misses;
        self.lease_expired += o.lease_expired;
        self.invalidations += o.invalidations;
        self.shard_hops += o.shard_hops;
        self.repl_shipped += o.repl_shipped;
        self.repl_applied += o.repl_applied;
    }

    /// Anything worth printing?
    pub fn any(&self) -> bool {
        *self != NsStats::default()
    }
}

/// The shard map — the one name-service routing. `owners` nodes
/// (`0..owners`) each own a consistent-hash slice of the `(site, name)`
/// key space; a key's *replica set* is its owner followed by the next
/// `replicas - 1` hosts on the ring of `hosts()` nodes. The paper's
/// central server is the one-owner map (`owners = 1`, one replica per
/// `Topology::ns_replicas`); the sharded service has one follower per
/// owner. Shared (`Arc`) between every daemon and the cluster;
/// membership is fixed for the run, only the down-set mutates, so routing
/// is a hash plus read-locked set probes.
#[derive(Debug)]
pub struct NsShardMap {
    owners: usize,
    replicas: usize,
    lease_ns: u64,
    down: RwLock<HashSet<NodeId>>,
    /// Requests routed past a down owner to another replica.
    failovers: AtomicU64,
}

impl NsShardMap {
    /// `owners` shard owners, each key held by `replicas` nodes, and
    /// `lease_ns`-TTL bindings granted to importers (0: no leases).
    pub fn new(owners: usize, replicas: usize, lease_ns: u64) -> NsShardMap {
        NsShardMap {
            owners: owners.max(1),
            replicas: replicas.max(1),
            lease_ns,
            down: RwLock::new(HashSet::new()),
            failovers: AtomicU64::new(0),
        }
    }

    /// Nodes that host a name-service replica: `0..hosts()`.
    pub fn hosts(&self) -> usize {
        self.owners.max(self.replicas)
    }

    /// Lease TTL in nanoseconds (virtual ns under the deterministic
    /// fabric, wall-clock ns under threads); 0 disables leases.
    pub fn lease_ns(&self) -> u64 {
        self.lease_ns
    }

    /// Position of a key on the ring: 128-bit Murmur3 over the interned
    /// `(site, name)` pair. Membership is fixed per run, so reducing the
    /// digest onto `owners` equal arcs *is* the consistent-hash placement.
    pub fn key_owner(site: &str, name: &str, owners: usize) -> NodeId {
        if owners <= 1 {
            return NodeId(0);
        }
        let mut bytes = Vec::with_capacity(site.len() + name.len() + 1);
        bytes.extend_from_slice(site.as_bytes());
        bytes.push(0); // unambiguous (site, name) framing
        bytes.extend_from_slice(name.as_bytes());
        let d = Digest::of(&bytes);
        NodeId((d.0 % owners.max(1) as u128) as u32)
    }

    /// The node that owns a key's shard.
    pub fn owner(&self, site: &str, name: &str) -> NodeId {
        Self::key_owner(site, name, self.owners)
    }

    /// A key's replica set, owner first.
    pub(crate) fn replica_set(&self, site: &str, name: &str) -> impl Iterator<Item = NodeId> {
        let owner = self.owner(site, name).0;
        let hosts = self.hosts() as u32;
        (0..self.replicas as u32).map(move |i| NodeId((owner + i) % hosts))
    }

    /// Where to send a register or import for this key *right now*: the
    /// first member of its replica set not marked down (the last member
    /// when all are — best effort).
    pub fn route(&self, site: &str, name: &str) -> NodeId {
        let down = self.down.read().expect("down set poisoned");
        let mut set = self.replica_set(site, name);
        let owner = set.next().expect("a replica set starts with its owner");
        let mut target = owner;
        while down.contains(&target) {
            match set.next() {
                Some(n) => target = n,
                None => break,
            }
        }
        if target != owner {
            self.failovers.fetch_add(1, Ordering::Relaxed);
        }
        target
    }

    /// Mark a name-service host down or up. Returns whether the down set
    /// changed; verdicts about nodes that host no replica change nothing.
    pub(crate) fn set_down(&self, n: NodeId, down: bool) -> bool {
        if n.0 as usize >= self.hosts() || self.is_down(n) == down {
            return false;
        }
        let mut set = self.down.write().expect("down set poisoned");
        if down {
            set.insert(n)
        } else {
            set.remove(&n)
        }
    }

    pub fn is_down(&self, n: NodeId) -> bool {
        self.down.read().expect("down set poisoned").contains(&n)
    }

    /// Failovers taken by `route` so far.
    pub fn failovers(&self) -> u64 {
        self.failovers.load(Ordering::Relaxed)
    }
}

/// A parked lookup waiting for its export to arrive. The (site, name)
/// pair it waits on is the key of the `pending` index, not a field.
#[derive(Debug, Clone)]
struct PendingImport {
    req: u64,
    kind: ImportKind,
    reply_to: Identity,
    expect: Option<TypeStamp>,
}

/// The name-service state.
#[derive(Debug, Default, Clone)]
pub struct NameService {
    /// `SiteTable`: site lexeme → (site id, node).
    site_table: HashMap<String, Identity>,
    /// `IdTable`: (site lexeme, identifier) → exported value, its type
    /// stamp (when the exporting site was statically checked), and the
    /// re-export epoch (1 on first export, bumped on every re-export).
    id_table: HashMap<(String, String), (WireWord, Option<TypeStamp>, u64)>,
    /// Lookups waiting for an export, indexed by the (site lexeme,
    /// identifier) they wait on: a register touches exactly its own
    /// waiters instead of scanning every parked lookup in the network.
    pending: HashMap<(String, String), Vec<PendingImport>>,
    /// Answer lookups with lease grants ([`Packet::NsLease`]) instead of
    /// plain replies, and track lessees for invalidation (on when the
    /// shard map grants leases).
    lease_mode: bool,
    /// Nodes holding a lease on each key; a re-export drains the set into
    /// [`Packet::NsInvalidate`] packets.
    lessees: HashMap<(String, String), HashSet<NodeId>>,
    /// Replication: the other members of the key's replica set, which
    /// the next applied registration is shipped to (empty: no shipping).
    repl_to: Vec<NodeId>,
    /// Log position of the last record shipped.
    repl_seq: u64,
    /// Highest log position applied per shipper — links are FIFO, so a
    /// simple per-sender watermark drops duplicates and stale records.
    repl_seen: HashMap<NodeId, u64>,
    /// Structured counters (see [`NsStats`]); the daemon mirrors these
    /// into its own stats after every operation.
    pub stats: NsStats,
}

/// Kind-check an exported value against the requested import kind.
pub fn kind_ok(kind: ImportKind, w: &WireWord) -> bool {
    matches!(
        (kind, w),
        (ImportKind::Name, WireWord::Chan(_)) | (ImportKind::Class, WireWord::Class(_))
    )
}

/// Bind-time type compatibility: refuse the import when both sides carry a
/// stamp and the stamps provably disagree. Fingerprint equality is the
/// fast path; a miss falls back to the structural `compatible` check
/// (canonical forms with *open* rows can differ textually yet unify).
/// Either side unstamped → no static evidence → defer to dynamic checks.
pub fn stamp_ok(expect: &Option<TypeStamp>, actual: &Option<TypeStamp>) -> Result<(), String> {
    let (Some(e), Some(a)) = (expect.as_ref(), actual.as_ref()) else {
        return Ok(());
    };
    if e.fingerprint == a.fingerprint {
        return Ok(());
    }
    if let (Some(et), Some(at)) = (
        tyco_types::parse_canonical(&e.canonical),
        tyco_types::parse_canonical(&a.canonical),
    ) {
        if tyco_types::compatible(&et, &at) {
            return Ok(());
        }
    }
    Err(format!(
        "type mismatch at bind time: importer expects `{}`, exporter provides `{}`",
        e.canonical, a.canonical
    ))
}

impl NameService {
    pub fn new() -> NameService {
        NameService::default()
    }

    /// Register a site (done by the environment when the site is created;
    /// the paper: "site names are registered in a Network Name Service").
    pub fn register_site(&mut self, lexeme: &str, identity: Identity) {
        self.site_table.insert(lexeme.to_string(), identity);
    }

    /// Where a site lives.
    pub fn lookup_site(&self, lexeme: &str) -> Option<Identity> {
        self.site_table.get(lexeme).copied()
    }

    /// Number of exported identifiers (diagnostics).
    pub fn exported_count(&self) -> usize {
        self.id_table.len()
    }

    /// Pending (blocked) lookups.
    pub fn pending_count(&self) -> usize {
        self.pending.values().map(Vec::len).sum()
    }

    /// Answer lookups with lease grants and track lessees.
    pub fn set_lease_mode(&mut self, on: bool) {
        self.lease_mode = on;
    }

    /// Set the nodes the next registration's log record ships to.
    pub fn set_repl_to(&mut self, to: Vec<NodeId>) {
        self.repl_to = to;
    }

    /// Current re-export epoch of a binding (0 = never exported).
    pub fn epoch_of(&self, site: &str, name: &str) -> u64 {
        self.id_table
            .get(&(site.to_string(), name.to_string()))
            .map(|(_, _, e)| *e)
            .unwrap_or(0)
    }

    /// Answer a lookup for a key known to be in the `IdTable`, counting
    /// the outcome by reason. In lease mode a successful answer is a
    /// [`Packet::NsLease`] and the requester's node is recorded as a
    /// lessee; failures never grant leases.
    fn answer(
        &mut self,
        req: u64,
        key: &(String, String),
        kind: ImportKind,
        reply_to: Identity,
        expect: &Option<TypeStamp>,
    ) -> Packet {
        let (w, stamp, epoch) = self.id_table.get(key).cloned().expect("answer: known key");
        let (site, name) = (&key.0, &key.1);
        let err = if !kind_ok(kind, &w) {
            self.stats.kind_mismatch += 1;
            Some(format!("`{site}.{name}` has the wrong kind"))
        } else if let Err(e) = stamp_ok(expect, &stamp) {
            self.stats.stamp_mismatch += 1;
            Some(format!("`{site}.{name}`: {e}"))
        } else {
            None
        };
        if let Some(e) = err {
            return Packet::NsImportReply {
                to: reply_to,
                req,
                result: Err(e),
            };
        }
        self.stats.resolved += 1;
        if self.lease_mode {
            self.lessees
                .entry(key.clone())
                .or_default()
                .insert(reply_to.node);
            Packet::NsLease {
                to: reply_to,
                req,
                site: site.clone(),
                name: name.clone(),
                value: w,
                stamp,
                epoch,
            }
        } else {
            Packet::NsImportReply {
                to: reply_to,
                req,
                result: Ok(w),
            }
        }
    }

    /// Answer every lookup parked on `key` (now in the `IdTable`).
    fn answer_parked(&mut self, key: &(String, String), out: &mut Vec<Packet>) {
        for p in self.pending.remove(key).unwrap_or_default() {
            out.push(self.answer(p.req, key, p.kind, p.reply_to, &p.expect));
        }
    }

    /// Handle an `export` registration. Returns reply packets for every
    /// parked lookup this export satisfies, invalidations for every lessee
    /// of a re-exported binding (lease mode), and the asynchronous
    /// replication record for each other member of the replica set. A
    /// registration of the binding already held (a site re-sending its
    /// exports after a liveness change) changes nothing: no lookup can be
    /// parked on a key the table holds.
    pub fn handle_register(
        &mut self,
        from_site: SiteId,
        site_lexeme: &str,
        name: &str,
        value: WireWord,
        stamp: Option<TypeStamp>,
    ) -> Vec<Packet> {
        self.stats.registers += 1;
        let key = (site_lexeme.to_string(), name.to_string());
        if let Some((v, s, _)) = self.id_table.get(&key) {
            if *v == value && *s == stamp {
                return Vec::new();
            }
        }
        let epoch = self.epoch_of(site_lexeme, name) + 1;
        self.id_table
            .insert(key.clone(), (value.clone(), stamp.clone(), epoch));
        let mut out = Vec::new();
        // A *re*-export revokes outstanding leases: every lessee node is
        // told the epoch moved so its next import misses the cache.
        if epoch > 1 {
            if let Some(nodes) = self.lessees.remove(&key) {
                for n in nodes {
                    self.stats.invalidations += 1;
                    out.push(Packet::NsInvalidate {
                        to: n,
                        site: site_lexeme.to_string(),
                        name: name.to_string(),
                        epoch,
                    });
                }
            }
        }
        // Ship the applied registration to the other replicas (async,
        // epoch-numbered — each applies in order and can serve reads if
        // this one dies).
        if !self.repl_to.is_empty() {
            self.repl_seq += 1;
        }
        for &to in &self.repl_to {
            self.stats.repl_shipped += 1;
            out.push(Packet::NsRepl {
                to,
                seq: self.repl_seq,
                from_site,
                site_lexeme: site_lexeme.to_string(),
                name: name.to_string(),
                value: value.clone(),
                stamp: stamp.clone(),
                epoch,
            });
        }
        self.answer_parked(&key, &mut out);
        out
    }

    /// Handle an `import` lookup. Returns the reply packet when the
    /// identifier is known (or known-bad); parks the request otherwise.
    pub fn handle_import(
        &mut self,
        req: u64,
        site: &str,
        name: &str,
        kind: ImportKind,
        reply_to: Identity,
        expect: Option<TypeStamp>,
    ) -> Option<Packet> {
        self.stats.imports += 1;
        // Unknown site lexeme is a permanent error (sites are registered
        // at creation, before any program runs).
        if !self.site_table.contains_key(site) {
            self.stats.unknown_site += 1;
            return Some(Packet::NsImportReply {
                to: reply_to,
                req,
                result: Err(format!("unknown site `{site}`")),
            });
        }
        let key = (site.to_string(), name.to_string());
        if self.id_table.contains_key(&key) {
            Some(self.answer(req, &key, kind, reply_to, &expect))
        } else {
            self.stats.parked += 1;
            self.pending.entry(key).or_default().push(PendingImport {
                req,
                kind,
                reply_to,
                expect,
            });
            None
        }
    }

    /// Apply a replication record shipped by another replica. Stale or
    /// duplicate records (per-sender watermark) are dropped; an applied
    /// record also answers any lookups parked *here* for the key — an
    /// import that failed over to this replica unblocks as soon as the
    /// write it is waiting for replicates. Replication never re-ships and
    /// never invalidates: lessees are tracked where the register landed.
    #[allow(clippy::too_many_arguments)]
    pub fn apply_repl(
        &mut self,
        from: NodeId,
        seq: u64,
        _from_site: SiteId,
        site_lexeme: &str,
        name: &str,
        value: WireWord,
        stamp: Option<TypeStamp>,
        epoch: u64,
    ) -> Vec<Packet> {
        let seen = self.repl_seen.entry(from).or_insert(0);
        if seq <= *seen {
            return Vec::new();
        }
        *seen = seq;
        self.stats.repl_applied += 1;
        let key = (site_lexeme.to_string(), name.to_string());
        // Last-writer-wins by epoch: never regress a newer local entry
        // (the owner may have re-exported after the record was shipped).
        if epoch >= self.epoch_of(site_lexeme, name) {
            self.id_table.insert(key.clone(), (value, stamp, epoch));
        }
        let mut out = Vec::new();
        self.answer_parked(&key, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tyco_vm::word::{NetRef, NodeId};

    fn ident(s: u32, n: u32) -> Identity {
        Identity {
            site: SiteId(s),
            node: NodeId(n),
        }
    }

    fn chan(h: u64) -> WireWord {
        WireWord::Chan(NetRef {
            heap_id: h,
            site: SiteId(0),
            node: NodeId(0),
        })
    }

    #[test]
    fn lookup_after_register() {
        let mut ns = NameService::new();
        ns.register_site("server", ident(0, 0));
        assert!(ns
            .handle_register(SiteId(0), "server", "p", chan(7), None)
            .is_empty());
        let reply = ns
            .handle_import(1, "server", "p", ImportKind::Name, ident(1, 1), None)
            .unwrap();
        match reply {
            Packet::NsImportReply {
                req: 1,
                result: Ok(WireWord::Chan(r)),
                ..
            } => {
                assert_eq!(r.heap_id, 7);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn lookup_blocks_until_register() {
        let mut ns = NameService::new();
        ns.register_site("server", ident(0, 0));
        assert!(ns
            .handle_import(1, "server", "p", ImportKind::Name, ident(1, 1), None)
            .is_none());
        assert_eq!(ns.pending_count(), 1);
        let replies = ns.handle_register(SiteId(0), "server", "p", chan(3), None);
        assert_eq!(replies.len(), 1);
        assert_eq!(ns.pending_count(), 0);
        match &replies[0] {
            Packet::NsImportReply {
                req: 1,
                result: Ok(_),
                to,
            } => {
                assert_eq!(*to, ident(1, 1));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_site_is_permanent_error() {
        let mut ns = NameService::new();
        let reply = ns
            .handle_import(1, "mars", "p", ImportKind::Name, ident(1, 1), None)
            .unwrap();
        assert!(matches!(
            reply,
            Packet::NsImportReply { result: Err(_), .. }
        ));
    }

    #[test]
    fn kind_mismatch_is_error() {
        let mut ns = NameService::new();
        ns.register_site("server", ident(0, 0));
        ns.handle_register(SiteId(0), "server", "p", chan(0), None);
        let reply = ns
            .handle_import(1, "server", "p", ImportKind::Class, ident(1, 1), None)
            .unwrap();
        assert!(matches!(
            reply,
            Packet::NsImportReply { result: Err(_), .. }
        ));
        // And the parked-then-registered path checks kinds too.
        assert!(ns
            .handle_import(2, "server", "k", ImportKind::Class, ident(1, 1), None)
            .is_none());
        let replies = ns.handle_register(SiteId(0), "server", "k", chan(1), None);
        assert!(matches!(
            &replies[0],
            Packet::NsImportReply { result: Err(_), .. }
        ));
    }

    #[test]
    fn multiple_waiters_all_answered() {
        let mut ns = NameService::new();
        ns.register_site("s", ident(0, 0));
        for req in 0..5 {
            assert!(ns
                .handle_import(req, "s", "x", ImportKind::Name, ident(req as u32, 0), None)
                .is_none());
        }
        let replies = ns.handle_register(SiteId(0), "s", "x", chan(9), None);
        assert_eq!(replies.len(), 5);
    }

    fn stamp_of(src: &str) -> TypeStamp {
        // Build a stamp the way the environment does: canonicalize + hash.
        let t = tyco_types::parse_canonical(src).expect("canonical parses");
        TypeStamp {
            fingerprint: tyco_types::fingerprint(&t),
            canonical: tyco_types::canonical(&t),
        }
    }

    #[test]
    fn stamp_mismatch_is_refused_at_bind_time() {
        let mut ns = NameService::new();
        ns.register_site("server", ident(0, 0));
        ns.handle_register(
            SiteId(0),
            "server",
            "p",
            chan(0),
            Some(stamp_of("^{val(int)}")),
        );
        // An importer expecting a bool-channel is refused with a typed
        // error naming both protocols.
        let reply = ns
            .handle_import(
                1,
                "server",
                "p",
                ImportKind::Name,
                ident(1, 1),
                Some(stamp_of("^{val(bool)}")),
            )
            .unwrap();
        match reply {
            Packet::NsImportReply {
                result: Err(e),
                req: 1,
                ..
            } => {
                assert!(e.contains("type mismatch at bind time"), "{e}");
                assert!(
                    e.contains("^{val(bool)}") && e.contains("^{val(int)}"),
                    "{e}"
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        // A matching expectation succeeds.
        let reply = ns
            .handle_import(
                2,
                "server",
                "p",
                ImportKind::Name,
                ident(1, 1),
                Some(stamp_of("^{val(int)}")),
            )
            .unwrap();
        assert!(matches!(reply, Packet::NsImportReply { result: Ok(_), .. }));
        // An unstamped importer is let through (no static evidence).
        let reply = ns
            .handle_import(3, "server", "p", ImportKind::Name, ident(1, 1), None)
            .unwrap();
        assert!(matches!(reply, Packet::NsImportReply { result: Ok(_), .. }));
    }

    #[test]
    fn stamp_open_row_falls_back_to_structural_check() {
        // Fingerprints differ (one row is open) but the types unify:
        // the structural fallback must accept.
        let e = stamp_of("^{val(int)|r0}");
        let a = stamp_of("^{val(int)}");
        assert_ne!(e.fingerprint, a.fingerprint);
        assert!(stamp_ok(&Some(e), &Some(a)).is_ok());
    }

    #[test]
    fn stamp_mismatch_on_parked_lookup() {
        let mut ns = NameService::new();
        ns.register_site("server", ident(0, 0));
        assert!(ns
            .handle_import(
                7,
                "server",
                "late",
                ImportKind::Name,
                ident(1, 1),
                Some(stamp_of("^{val(string)}")),
            )
            .is_none());
        let replies = ns.handle_register(
            SiteId(0),
            "server",
            "late",
            chan(4),
            Some(stamp_of("^{val(float)}")),
        );
        assert_eq!(replies.len(), 1);
        assert!(matches!(
            &replies[0],
            Packet::NsImportReply { result: Err(_), .. }
        ));
        assert_eq!(ns.stats.stamp_mismatch, 1);
    }

    #[test]
    fn failure_reasons_are_counted_distinctly() {
        let mut ns = NameService::new();
        ns.register_site("server", ident(0, 0));
        ns.handle_register(SiteId(0), "server", "p", chan(0), None);
        ns.handle_import(1, "mars", "p", ImportKind::Name, ident(1, 1), None);
        ns.handle_import(2, "server", "p", ImportKind::Class, ident(1, 1), None);
        ns.handle_import(3, "server", "p", ImportKind::Name, ident(1, 1), None);
        ns.handle_import(4, "server", "ghost", ImportKind::Name, ident(1, 1), None);
        assert_eq!(ns.stats.imports, 4);
        assert_eq!(ns.stats.unknown_site, 1);
        assert_eq!(ns.stats.kind_mismatch, 1);
        assert_eq!(ns.stats.resolved, 1);
        assert_eq!(ns.stats.parked, 1);
    }

    #[test]
    fn lease_mode_grants_and_reexport_invalidates_lessees() {
        let mut ns = NameService::new();
        ns.set_lease_mode(true);
        ns.register_site("server", ident(0, 0));
        ns.handle_register(SiteId(0), "server", "p", chan(7), None);
        assert_eq!(ns.epoch_of("server", "p"), 1);
        // Two importing nodes take leases; a third request from an
        // already-leased node does not duplicate the lessee entry.
        for (req, node) in [(1, 1), (2, 2), (3, 1)] {
            let reply = ns
                .handle_import(req, "server", "p", ImportKind::Name, ident(9, node), None)
                .unwrap();
            match reply {
                Packet::NsLease { epoch: 1, to, .. } => assert_eq!(to.node, NodeId(node)),
                other => panic!("unexpected {other:?}"),
            }
        }
        // Re-export: epoch bumps and both lessee nodes are invalidated.
        let out = ns.handle_register(SiteId(0), "server", "p", chan(8), None);
        assert_eq!(ns.epoch_of("server", "p"), 2);
        let mut invalidated: Vec<u32> = out
            .iter()
            .map(|p| match p {
                Packet::NsInvalidate {
                    to, epoch: 2, name, ..
                } => {
                    assert_eq!(name, "p");
                    to.0
                }
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        invalidated.sort_unstable();
        assert_eq!(invalidated, vec![1, 2]);
        assert_eq!(ns.stats.invalidations, 2);
        // Lessee set drained: a third export invalidates nobody.
        assert!(ns
            .handle_register(SiteId(0), "server", "p", chan(9), None)
            .is_empty());
    }

    /// A site re-sending an export after a liveness change: the held
    /// binding keeps its epoch, invalidates no lessee and ships no record.
    #[test]
    fn re_registering_a_held_binding_changes_nothing() {
        let mut ns = NameService::new();
        ns.set_lease_mode(true);
        ns.set_repl_to(vec![NodeId(1)]);
        ns.register_site("server", ident(0, 0));
        assert_eq!(
            ns.handle_register(SiteId(0), "server", "p", chan(7), None)
                .len(),
            1,
            "the first registration ships its record"
        );
        ns.handle_import(1, "server", "p", ImportKind::Name, ident(9, 2), None)
            .unwrap();
        assert!(ns
            .handle_register(SiteId(0), "server", "p", chan(7), None)
            .is_empty());
        assert_eq!(ns.epoch_of("server", "p"), 1);
        assert_eq!(ns.stats.invalidations, 0);
        assert_eq!(ns.stats.repl_shipped, 1);
    }

    #[test]
    fn errors_never_grant_leases() {
        let mut ns = NameService::new();
        ns.set_lease_mode(true);
        ns.register_site("server", ident(0, 0));
        ns.handle_register(SiteId(0), "server", "p", chan(0), None);
        let reply = ns
            .handle_import(1, "server", "p", ImportKind::Class, ident(1, 3), None)
            .unwrap();
        assert!(matches!(
            reply,
            Packet::NsImportReply { result: Err(_), .. }
        ));
        // The refused node is not a lessee: re-export invalidates nobody.
        assert!(ns
            .handle_register(SiteId(0), "server", "p", chan(1), None)
            .is_empty());
    }

    #[test]
    fn registrations_ship_to_partner_and_apply_in_order() {
        let mut owner = NameService::new();
        let mut follower = NameService::new();
        owner.register_site("server", ident(0, 0));
        follower.register_site("server", ident(0, 0));
        owner.set_repl_to(vec![NodeId(1)]);
        let out = owner.handle_register(SiteId(0), "server", "p", chan(7), None);
        assert_eq!(out.len(), 1);
        let Packet::NsRepl {
            to: NodeId(1),
            seq,
            from_site,
            site_lexeme,
            name,
            value,
            stamp,
            epoch,
        } = out[0].clone()
        else {
            panic!("unexpected {:?}", out[0]);
        };
        assert_eq!((seq, epoch), (1, 1));
        // A lookup parked at the follower is answered by the record.
        assert!(follower
            .handle_import(5, "server", "p", ImportKind::Name, ident(1, 2), None)
            .is_none());
        let replies = follower.apply_repl(
            NodeId(0),
            seq,
            from_site,
            &site_lexeme,
            &name,
            value.clone(),
            stamp.clone(),
            epoch,
        );
        assert_eq!(replies.len(), 1);
        assert!(matches!(
            &replies[0],
            Packet::NsImportReply { result: Ok(_), .. }
        ));
        assert_eq!(follower.epoch_of("server", "p"), 1);
        // A duplicate delivery of the same record is dropped.
        assert!(follower
            .apply_repl(
                NodeId(0),
                seq,
                from_site,
                &site_lexeme,
                &name,
                value,
                stamp,
                epoch
            )
            .is_empty());
        assert_eq!(follower.stats.repl_applied, 1);
    }

    #[test]
    fn stale_repl_never_regresses_a_newer_epoch() {
        let mut ns = NameService::new();
        ns.register_site("server", ident(0, 0));
        // Local state is already at epoch 3...
        for h in [1, 2, 3] {
            ns.handle_register(SiteId(0), "server", "p", chan(h), None);
        }
        // ...and a late record carrying epoch 1 must not clobber it (it
        // advances the watermark but leaves the table alone).
        ns.apply_repl(NodeId(9), 1, SiteId(0), "server", "p", chan(99), None, 1);
        assert_eq!(ns.epoch_of("server", "p"), 3);
        let reply = ns
            .handle_import(1, "server", "p", ImportKind::Name, ident(1, 1), None)
            .unwrap();
        match reply {
            Packet::NsImportReply {
                result: Ok(WireWord::Chan(r)),
                ..
            } => assert_eq!(r.heap_id, 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn shard_map_routes_to_owner_and_fails_over() {
        let map = NsShardMap::new(4, 2, 1_000_000);
        let owner = map.owner("server", "p");
        assert!(owner.0 < 4);
        assert_eq!(map.route("server", "p"), owner);
        // Placement is deterministic and spreads keys: with 64 keys and
        // 4 shards every shard should own at least one.
        let mut seen = HashSet::new();
        for i in 0..64 {
            seen.insert(NsShardMap::key_owner("site", &format!("n{i}"), 4));
        }
        assert_eq!(seen.len(), 4);
        // The replica set is the owner and its ring successor.
        let follower = NodeId((owner.0 + 1) % 4);
        let set: Vec<NodeId> = map.replica_set("server", "p").collect();
        assert_eq!(set, vec![owner, follower]);
        // Down owner → requests route to the follower.
        assert!(map.set_down(owner, true));
        assert!(!map.set_down(owner, true), "already down");
        assert_eq!(map.route("server", "p"), follower);
        assert_eq!(map.failovers(), 1);
        // A doubly-dead set still routes to its last member.
        map.set_down(follower, true);
        assert_eq!(map.route("server", "p"), follower);
        // Heal restores owner routing.
        assert!(map.set_down(owner, false));
        assert_eq!(map.route("server", "p"), owner);
        // Nodes that host no replica are never marked.
        assert!(!map.set_down(NodeId(4), true));
        assert!(!map.is_down(NodeId(4)));
    }

    #[test]
    fn central_map_is_one_owner_with_replicas() {
        let map = NsShardMap::new(1, 3, 0);
        assert_eq!(map.hosts(), 3);
        let set: Vec<NodeId> = map.replica_set("s", "n").collect();
        assert_eq!(set, vec![NodeId(0), NodeId(1), NodeId(2)]);
        map.set_down(NodeId(0), true);
        map.set_down(NodeId(1), true);
        assert_eq!(map.route("s", "n"), NodeId(2));
        // One replica: the only member, down or not.
        let solo = NsShardMap::new(1, 1, 0);
        solo.set_down(NodeId(0), true);
        assert_eq!(solo.route("s", "n"), NodeId(0));
        assert_eq!(solo.failovers(), 0);
    }
}
