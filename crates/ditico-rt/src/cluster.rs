//! The cluster environment: nodes, sites, fabric and the two execution
//! modes (deterministic virtual-time, and wall-clock threads over the
//! in-process fabric or the TCP transport).
//!
//! This is the programmatic face of Fig. 2 of the paper: a static IP
//! topology of nodes, each running a pool of sites plus a TyCOd, with a
//! name service hosted on the first node(s) and sites communicating
//! point-to-point through the fabric. The TyCOi/TyCOsh user-level flow
//! ("users submit new programs for execution in a node") corresponds to
//! [`Cluster::add_site`].

use crate::chaos::{ChaosEvent, ChaosPlan, ChaosReport, ChaosState};
use crate::daemon::{CodeCacheStats, Daemon, DaemonStats, TermCounters, DEFAULT_CODE_CACHE};
use crate::fabric::{Fabric, FabricMode, LinkProfile, PacketFabric};
use crate::failure::FailureMonitor;
use crate::nameservice::{NsShardMap, NsStats};
use crate::sched::{SchedConfig, SchedStats, Shared, SiteWake, Worker};
use crate::site::{RtIncoming, RtPort, Site, SiteInterface};
use crate::termination::{Snapshot, TerminationDetector};
use crate::transport::{Transport, TransportConfig, TransportReport};
use crate::wake::Notify;
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::collections::{HashMap, HashSet};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tyco_vm::codec::Packet;
use tyco_vm::stats::ExecStats;
use tyco_vm::word::{Identity, NodeId, SiteId};
use tyco_vm::{Program, VmError};

/// One node: its daemon, its sites, and the shared outgoing queue end
/// that new sites clone.
struct NodeCell {
    id: NodeId,
    daemon: Daemon,
    sites: Vec<Site>,
    out_tx: Sender<(SiteId, Packet)>,
    dead: bool,
}

/// Everything a finished run reports.
#[derive(Debug, Default)]
pub struct RunReport {
    /// I/O-port lines per site lexeme.
    pub outputs: HashMap<String, Vec<String>>,
    /// VM statistics per site lexeme.
    pub stats: HashMap<String, ExecStats>,
    /// Runtime errors per site lexeme.
    pub errors: Vec<(String, VmError)>,
    /// Final virtual time (deterministic mode; 0 otherwise).
    pub virtual_ns: u64,
    /// Fabric traffic.
    pub fabric_packets: u64,
    pub fabric_bytes: u64,
    /// Per-node daemon statistics.
    pub daemon_stats: Vec<DaemonStats>,
    /// True when the run ended with nothing runnable anywhere.
    pub quiescent: bool,
    /// Import requests still unresolved at the end.
    pub blocked_imports: usize,
    /// Probes the termination detector performed (threaded mode).
    pub detector_probes: u64,
    /// Total byte-code instructions executed across all sites.
    pub total_instrs: u64,
    /// Work-stealing scheduler counters (threaded mode; zero elsewhere).
    pub sched: SchedStats,
    /// Remote nodes considered dead at the end of a distributed run
    /// (heartbeat silence or exhausted reconnects).
    pub suspects: Vec<NodeId>,
    /// Wire-level counters (distributed runs only).
    pub transport: Option<TransportReport>,
    /// Runtime-thread failures survived during the run: a worker, site or
    /// daemon thread that panicked. The run completes and reports instead
    /// of aborting; each entry names what was lost.
    pub aborts: Vec<String>,
    /// Fault-injection tallies (`None` unless the run had a chaos plan
    /// installed). Every injected event — drop, duplicate, delay,
    /// partition block, kill, restart — is counted here.
    pub chaos: Option<ChaosReport>,
    /// Shard-map read failovers: lookups routed to a follower because the
    /// owning shard was suspected down (sharded name service only).
    pub ns_failovers: u64,
}

impl RunReport {
    /// Output lines of one site (empty slice if unknown).
    pub fn output(&self, lexeme: &str) -> &[String] {
        self.outputs.get(lexeme).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Summed VM statistics across sites.
    pub fn total_comm(&self) -> u64 {
        self.stats.values().map(|s| s.comm).sum()
    }

    /// Tree-shake counters summed across sites: `(shaken_packs,
    /// shake_bytes_saved)`. Zero unless the run used
    /// [`Cluster::set_shake`].
    pub fn shake_totals(&self) -> (u64, u64) {
        self.stats.values().fold((0, 0), |(p, b), s| {
            (p + s.shaken_packs, b + s.shake_bytes_saved)
        })
    }

    /// Code-cache counters summed across every node's daemon.
    pub fn cache_totals(&self) -> CodeCacheStats {
        let mut t = CodeCacheStats::default();
        for d in &self.daemon_stats {
            t.hits += d.cache.hits;
            t.misses += d.cache.misses;
            t.coalesced += d.cache.coalesced;
            t.dedup_sends += d.cache.dedup_sends;
            t.bytes_saved += d.cache.bytes_saved;
            t.insertions += d.cache.insertions;
            t.evictions += d.cache.evictions;
            t.digest_mismatches += d.cache.digest_mismatches;
        }
        t
    }

    /// Name-service counters summed across every node's daemon: shard
    /// routing, lease-cache traffic, invalidations and replication.
    pub fn ns_totals(&self) -> NsStats {
        let mut t = NsStats::default();
        for d in &self.daemon_stats {
            t.add(&d.ns);
        }
        t
    }

    /// Duplicate/late fetch replies dropped by sites (idempotency guard).
    pub fn total_dup_fetch_replies(&self) -> u64 {
        self.stats.values().map(|s| s.dup_fetch_replies).sum()
    }

    pub fn total_shipped(&self) -> u64 {
        self.stats
            .values()
            .map(|s| s.msgs_sent + s.objs_sent + s.fetches)
            .sum()
    }
}

/// Limits for a deterministic run.
#[derive(Debug, Clone, Copy)]
pub struct RunLimits {
    /// Stop after this many byte-code instructions (across all sites).
    pub max_instrs: u64,
    /// Instructions per site slice (context-switch granularity between
    /// sites in the deterministic scheduler).
    pub fuel_per_slice: u64,
    /// When the deterministic loop goes idle and advances virtual time
    /// to the next due event, overshoot the target by this much so a
    /// whole *wave* of nearby deliveries lands in one advance. 0 (the
    /// default) advances exactly event-by-event; large fan-out scenarios
    /// (100k+ sites) set ~1ms to avoid O(events × sites) idle rounds.
    /// Purely a batching knob: deliveries stay FIFO per link and the
    /// schedule stays deterministic for a given value.
    pub idle_advance_ns: u64,
}

impl Default for RunLimits {
    fn default() -> Self {
        RunLimits {
            max_instrs: 100_000_000,
            fuel_per_slice: 4096,
            idle_advance_ns: 0,
        }
    }
}

/// A DiTyCO cluster.
pub struct Cluster {
    fabric: Fabric,
    mode: FabricMode,
    nodes: Vec<NodeCell>,
    term: Arc<TermCounters>,
    ns_replicas: usize,
    ns_primary: Arc<AtomicUsize>,
    site_lexemes: Vec<String>,
    /// Heartbeat cadence in scheduler rounds (deterministic mode);
    /// `None` disables heartbeats.
    pub heartbeat_every: Option<u64>,
    /// Staleness threshold for the failure monitor, in heartbeat periods.
    pub stale_periods: u64,
    /// Worker-pool configuration for threaded runs (M:N scheduler).
    pub sched: SchedConfig,
    /// Per-node code-cache capacity in images (0 disables caching,
    /// wire-level dedup and fetch coalescing).
    code_cache: usize,
    /// Whether sites package shipped code tree-shaken
    /// (`tyco_vm::wire::pack_shaken`).
    shake: bool,
    /// Installed fault-injection plan (see [`Cluster::set_chaos`]).
    chaos: Option<Arc<ChaosState>>,
    /// Ring size of the sharded name service (0 = centralized).
    ns_shards: usize,
    /// The shared shard map when sharding is on: consistent-hash
    /// ownership plus the live down-set routing reads to followers.
    shard_map: Option<Arc<NsShardMap>>,
    /// Modeled per-request resolver cost at name-service hosts (clock
    /// ns; 0 = instantaneous). See [`Cluster::set_ns_service`].
    ns_service_ns: u64,
}

impl Cluster {
    /// A cluster with the given fabric mode and default link profile.
    /// `ns_replicas` ≥ 1 name-service replicas are hosted on the first
    /// nodes added.
    pub fn new(mode: FabricMode, link: LinkProfile, ns_replicas: usize) -> Cluster {
        Cluster {
            fabric: Fabric::new(mode, link),
            mode,
            nodes: Vec::new(),
            term: Arc::new(TermCounters::default()),
            ns_replicas: ns_replicas.max(1),
            ns_primary: Arc::new(AtomicUsize::new(0)),
            site_lexemes: Vec::new(),
            heartbeat_every: None,
            stale_periods: 3,
            sched: SchedConfig::default(),
            code_cache: DEFAULT_CODE_CACHE,
            shake: false,
            chaos: None,
            ns_shards: 0,
            shard_map: None,
            ns_service_ns: 0,
        }
    }

    /// Switch the cluster to the **sharded** name service: the first
    /// `shards` nodes each own a consistent-hash partition of the export
    /// table, replicate it to their ring successor, and grant importing
    /// nodes `lease_ns`-TTL cached bindings (0 disables caching). Call
    /// before adding sites so registrations land in every shard's site
    /// table; existing nodes are retrofitted.
    pub fn set_ns_sharding(&mut self, shards: usize, lease_ns: u64) {
        let shards = shards.max(1);
        let map = Arc::new(NsShardMap::new(shards, lease_ns));
        self.ns_shards = shards;
        for cell in &mut self.nodes {
            cell.daemon.enable_ns_sharding(map.clone());
        }
        self.shard_map = Some(map);
    }

    /// The shard map when the sharded name service is on.
    pub fn shard_map(&self) -> Option<Arc<NsShardMap>> {
        self.shard_map.clone()
    }

    /// Model a per-request resolver cost at every name-service host:
    /// each `NsRegister`/`NsImport` occupies the serving daemon for
    /// `service_ns` of virtual time (0, the default, serves instantly).
    /// Meaningful in deterministic virtual-time runs, where it makes the
    /// centralized server's serial bind cost — the paper's bottleneck —
    /// visible in the makespan. Applies to existing and future nodes.
    pub fn set_ns_service(&mut self, service_ns: u64) {
        self.ns_service_ns = service_ns;
        for cell in &mut self.nodes {
            cell.daemon.set_ns_service_ns(service_ns);
        }
    }

    /// Set every node's code-cache capacity (existing and future nodes).
    pub fn set_code_cache(&mut self, capacity: usize) {
        self.code_cache = capacity;
        for cell in &mut self.nodes {
            cell.daemon.set_code_cache(capacity);
        }
    }

    /// The configured per-node code-cache capacity.
    pub fn code_cache(&self) -> usize {
        self.code_cache
    }

    /// Tree-shake shipped code on every site (existing and future ones).
    /// Off by default: shaken packets carry their own digests, so mixed
    /// fleets would split the receiving code caches.
    pub fn set_shake(&mut self, enabled: bool) {
        self.shake = enabled;
        for cell in &mut self.nodes {
            for site in &mut cell.sites {
                site.machine.set_shake(enabled);
            }
        }
    }

    /// Whether shipped code is tree-shaken.
    pub fn shake(&self) -> bool {
        self.shake
    }

    /// A single-node, ideal-fabric cluster (functional testing).
    pub fn local() -> Cluster {
        let mut c = Cluster::new(FabricMode::Ideal, LinkProfile::ideal(), 1);
        c.add_node();
        c
    }

    /// Override one link's profile.
    pub fn set_link(&self, a: NodeId, b: NodeId, profile: LinkProfile) {
        self.fabric.set_link(a, b, profile);
    }

    /// Add a node (an "IP node" of Fig. 2) and its TyCOd.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let (out_tx, out_rx) = unbounded();
        let fabric_rx = self.fabric.register_node(id);
        let ns_nodes: Vec<NodeId> = (0..self.ns_replicas as u32).map(NodeId).collect();
        let hosts_ns = (id.0 as usize) < self.ns_replicas;
        let mut daemon = Daemon::new(
            id,
            out_rx,
            fabric_rx,
            self.fabric.handle(),
            ns_nodes,
            self.ns_primary.clone(),
            hosts_ns,
            self.term.clone(),
        );
        daemon.set_code_cache(self.code_cache);
        if let Some(map) = &self.shard_map {
            daemon.enable_ns_sharding(map.clone());
        }
        daemon.set_ns_service_ns(self.ns_service_ns);
        // Deliveries into this node's fabric inbox wake its daemon thread.
        self.fabric.set_waker(id, daemon.waker().clone());
        self.nodes.push(NodeCell {
            id,
            daemon,
            sites: Vec::new(),
            out_tx,
            dead: false,
        });
        id
    }

    /// Create a site running `program` on `node`, under `lexeme`
    /// (the TyCOsh "submit a program" operation).
    pub fn add_site(&mut self, node: NodeId, lexeme: &str, program: Program) -> SiteId {
        self.add_site_with_interface(node, lexeme, program, SiteInterface::default())
    }

    /// Like [`add_site`](Cluster::add_site), with the site's statically
    /// inferred interface attached: its exports register with type stamps
    /// and its imports ship expectation stamps, so protocol mismatches
    /// between sites are refused at bind time by the name service.
    pub fn add_site_with_interface(
        &mut self,
        node: NodeId,
        lexeme: &str,
        program: Program,
        interface: SiteInterface,
    ) -> SiteId {
        let site_id = SiteId(self.site_lexemes.len() as u32);
        self.site_lexemes.push(lexeme.to_string());
        let identity = Identity {
            site: site_id,
            node,
        };
        // Register the site in every name-service host up front — the
        // paper: "site names are registered in a Network Name Service"
        // and "all sites know its location in advance". Centralized mode
        // hosts on the first `ns_replicas` nodes; sharded mode on every
        // ring node.
        for cell in self.nodes.iter_mut() {
            if let Some(ns) = &mut cell.daemon.ns {
                ns.register_site(lexeme, identity);
            }
        }
        let (in_tx, in_rx): (Sender<RtIncoming>, Receiver<RtIncoming>) = unbounded();
        let cell = &mut self.nodes[node.0 as usize];
        let mut port = RtPort::new(
            identity,
            lexeme.to_string(),
            cell.out_tx.clone(),
            in_rx,
            cell.daemon.waker().clone(),
            self.term.clone(),
        );
        port.set_interface(interface);
        let mut site = Site::new(lexeme, identity, program, port);
        site.machine.set_shake(self.shake);
        // Nothing parks on this wakeup: deterministic runs pump every
        // site each round, and wall-clock runs rebind it to the scheduler.
        cell.daemon
            .attach_site(site_id, in_tx, SiteWake::Notify(Arc::new(Notify::new())));
        cell.sites.push(site);
        site_id
    }

    /// Compile source and add the site (convenience).
    pub fn add_site_src(
        &mut self,
        node: NodeId,
        lexeme: &str,
        src: &str,
    ) -> Result<SiteId, String> {
        let ast = tyco_syntax::parse_core(src).map_err(|e| e.to_string())?;
        let prog = tyco_vm::compile(&ast).map_err(|e| e.to_string())?;
        Ok(self.add_site(node, lexeme, prog))
    }

    /// Declare a site that lives on `node` in *another process* of a
    /// multi-process run. No VM is created here; the site's identity is
    /// registered in the local name-service replicas so imports of its
    /// exports resolve, and a [`SiteId`] is consumed so every process that
    /// builds the same topology in the same order assigns identical ids —
    /// the invariant the wire protocol relies on.
    pub fn add_remote_site(&mut self, lexeme: &str, node: NodeId) -> SiteId {
        let site_id = SiteId(self.site_lexemes.len() as u32);
        self.site_lexemes.push(lexeme.to_string());
        let identity = Identity {
            site: site_id,
            node,
        };
        for cell in self.nodes.iter_mut() {
            if let Some(ns) = &mut cell.daemon.ns {
                ns.register_site(lexeme, identity);
            }
        }
        site_id
    }

    /// Set the run-queue policy of every site (ablation A3).
    pub fn set_queue_policy(&mut self, policy: tyco_vm::QueuePolicy) {
        for cell in &mut self.nodes {
            for site in &mut cell.sites {
                site.machine.queue_policy = policy;
            }
        }
    }

    /// Kill a node: its traffic is dropped and its daemon and sites stop
    /// (failure injection for the §7 experiments).
    pub fn kill_node(&mut self, node: NodeId) {
        self.fabric.kill_node(node);
        if let Some(cell) = self.nodes.get_mut(node.0 as usize) {
            cell.dead = true;
        }
        // Sharded name service: route the dead owner's keys to its
        // follower at once, and re-issue imports parked at the corpse.
        if let Some(map) = self.shard_map.clone() {
            if map.mark_down(node) {
                self.resend_all_pending_imports();
            }
        }
    }

    /// Restart a killed node, modelling a daemon process bounce: fabric
    /// delivery resumes, sites pump again, but the node's TyCOd comes
    /// back *empty* — code cache cleared, parked and queued traffic lost
    /// (Mattern-compensated so termination still balances), heartbeat
    /// history reset. In-flight shipments to the node converge again via
    /// the daemon's bounded NeedCode refill retries.
    pub fn restart_node(&mut self, node: NodeId) {
        self.fabric.revive_node(node);
        if let Some(cell) = self.nodes.get_mut(node.0 as usize) {
            cell.dead = false;
            cell.daemon.simulate_restart();
        }
        // A healed owner serves its shard again. Writes it missed arrive
        // via the follower's symmetric replication stream.
        if let Some(map) = &self.shard_map {
            map.mark_up(node);
        }
    }

    /// Re-issue every live site's unresolved imports: they may be parked
    /// at a node that just died or changed shard role.
    fn resend_all_pending_imports(&mut self) {
        for cell in &mut self.nodes {
            if cell.dead {
                continue;
            }
            for site in &mut cell.sites {
                site.machine.port.resend_pending_imports();
            }
        }
    }

    /// Install a seeded fault-injection plan on the cluster's fabric.
    /// Every packet crossing a node boundary then rolls for a fate
    /// (drop / duplicate / delay within the link's profile) from a
    /// deterministic per-edge stream, and the plan's timed events
    /// (partition, heal, kill, restart) fire as virtual or wall time
    /// passes them. Same seed + same plan ⇒ same injected schedule.
    pub fn set_chaos(&mut self, plan: ChaosPlan) -> Result<(), String> {
        plan.validate()?;
        let st = ChaosState::new(plan, self.term.clone());
        self.fabric.set_chaos(Some(st.clone()));
        self.chaos = Some(st);
        Ok(())
    }

    /// Fire every chaos event due at `now_ns`, acting on the ones that
    /// need the cluster (kill/restart); partitions and heals were already
    /// applied inside the chaos state.
    fn apply_chaos_due(&mut self, now_ns: u64) {
        let Some(ch) = self.chaos.clone() else {
            return;
        };
        for ev in ch.apply_due(now_ns) {
            match ev {
                ChaosEvent::KillNode(n) => self.kill_node(n),
                ChaosEvent::RestartNode(n) => self.restart_node(n),
                ChaosEvent::Partition { .. } | ChaosEvent::Heal => {}
            }
        }
    }

    /// The current name-service primary node.
    pub fn ns_primary_node(&self) -> NodeId {
        NodeId(self.ns_primary.load(Ordering::Relaxed) as u32 % self.ns_replicas.max(1) as u32)
    }

    /// One heartbeat round: beacons from live nodes, observation from a
    /// live replica's view, and failover when the primary is suspected.
    fn heartbeat_cycle(&mut self, monitor: &mut FailureMonitor, hb_round: u64) {
        for cell in &mut self.nodes {
            if !cell.dead {
                cell.daemon.send_heartbeat();
            }
        }
        let ns_hosts = self.ns_replicas.max(self.ns_shards);
        if let Some(obs) = self.nodes.iter().take(ns_hosts).find(|c| !c.dead) {
            let beats: Vec<(NodeId, u64)> = obs
                .daemon
                .heartbeats
                .iter()
                .map(|(n, s)| (*n, *s))
                .collect();
            for (n, s) in beats {
                monitor.observe(n, s, hb_round);
            }
        }
        if self.shard_map.is_some() {
            // Sharded mode: the shard map reacts to the monitor's
            // verdicts — a suspected owner's keys fail over to its ring
            // successor, a healed owner takes them back.
            for i in 0..self.ns_shards {
                let n = NodeId(i as u32);
                let dead = self.nodes.get(i).is_none_or(|c| c.dead);
                let down = dead || monitor.suspected(n, hb_round);
                let map = self.shard_map.clone().expect("sharded");
                if down {
                    if map.mark_down(n) {
                        // Imports parked at the suspect re-issue and
                        // route to the follower.
                        self.resend_all_pending_imports();
                    }
                } else {
                    map.mark_up(n);
                }
            }
            return;
        }
        let primary = self.ns_primary_node();
        if monitor.suspected(primary, hb_round) || self.nodes[primary.0 as usize].dead {
            self.failover_to_next_live_replica();
        }
    }

    fn failover_to_next_live_replica(&mut self) -> bool {
        let cur = self.ns_primary.load(Ordering::Relaxed);
        for step in 1..=self.ns_replicas {
            let cand = (cur + step) % self.ns_replicas;
            if !self.nodes[cand].dead {
                self.ns_primary.store(cand, Ordering::Relaxed);
                // Lost requests were parked at the dead primary; sites
                // re-issue them against the new primary.
                self.resend_all_pending_imports();
                return true;
            }
        }
        false
    }

    /// Run deterministically: round-robin pumping of daemons and sites,
    /// advancing the virtual clock when nothing is runnable.
    pub fn run_deterministic(&mut self, limits: RunLimits) -> RunReport {
        assert!(
            self.mode != FabricMode::RealTime,
            "deterministic runs require Ideal or Virtual fabric"
        );
        let mut round: u64 = 0;
        let mut hb_round: u64 = 0;
        let mut forced_hb: u64 = 0;
        let mut monitor = FailureMonitor::new(self.stale_periods);
        loop {
            round += 1;
            let mut progress = false;
            // Chaos events scheduled at or before the current virtual
            // time fire first, so a partition cuts this round's traffic
            // and a restart's daemon is pumpable this round.
            self.apply_chaos_due(self.fabric.now_ns());
            // Heartbeats + failure detection (when enabled).
            if let Some(every) = self.heartbeat_every {
                if round.is_multiple_of(every) {
                    hb_round += 1;
                    self.heartbeat_cycle(&mut monitor, hb_round);
                }
            }
            // Lease TTLs and the modeled resolver run on the fabric's
            // virtual clock here.
            if self.shard_map.is_some() || self.ns_service_ns > 0 {
                let now = self.fabric.now_ns();
                for cell in &mut self.nodes {
                    cell.daemon.set_now_ns(now);
                }
            }
            for cell in &mut self.nodes {
                if !cell.dead {
                    progress |= cell.daemon.pump();
                }
            }
            let mut site_progress = false;
            for cell in &mut self.nodes {
                if cell.dead {
                    continue;
                }
                for site in &mut cell.sites {
                    site_progress |= site.pump(limits.fuel_per_slice);
                }
            }
            progress |= site_progress;
            if site_progress {
                forced_hb = 0;
            }
            if !progress {
                // Nothing runnable: advance virtual time to the next due
                // event — a fabric delivery or a scheduled chaos event,
                // whichever is earlier — optionally overshooting by
                // `idle_advance_ns` to land a whole wave at once.
                let mut next = self.fabric.next_event_ns();
                if let Some(c) = self.chaos.as_ref().and_then(|ch| ch.next_event_ns()) {
                    next = Some(next.map_or(c, |f| f.min(c)));
                }
                // A modeled resolver with a backlog finishes its current
                // request at a known clock time; jump there so queued
                // binds are always served.
                for cell in &self.nodes {
                    if cell.dead {
                        continue;
                    }
                    if let Some(d) = cell.daemon.ns_backlog_next_due() {
                        next = Some(next.map_or(d, |f| f.min(d)));
                    }
                }
                if let Some(t) = next {
                    self.fabric
                        .advance_to(t.saturating_add(limits.idle_advance_ns));
                    continue;
                }
                // A daemon waiting on a code refill gets its retry clock
                // ticked only on idle rounds like this one: each tick is
                // a unit of "nothing else happened", so the bounded
                // re-ask/give-up ladder runs the same way on every
                // fabric and never races real deliveries.
                let mut ticked = false;
                for cell in &mut self.nodes {
                    if !cell.dead && cell.daemon.has_pending_refills() {
                        cell.daemon.tick_refills();
                        ticked = true;
                    }
                }
                if ticked {
                    continue;
                }
                // Otherwise, when failure detection is on, keep the
                // heartbeat protocol alive for a bounded number of idle
                // cycles so a dead name-service primary is noticed and
                // failover (which re-injects imports) can happen.
                if self.heartbeat_every.is_some()
                    && forced_hb
                        < self.stale_periods + self.ns_replicas.max(self.ns_shards) as u64 + 2
                {
                    forced_hb += 1;
                    hb_round += 1;
                    self.heartbeat_cycle(&mut monitor, hb_round);
                    continue;
                }
                break;
            }
            let total: u64 = self
                .nodes
                .iter()
                .flat_map(|c| &c.sites)
                .map(|s| s.machine.stats.instrs)
                .sum();
            if total > limits.max_instrs {
                break;
            }
        }
        let mut report = self.report(0);
        // Surface the failure monitor's verdict like distributed runs do:
        // a node that stopped beaconing (killed and never restarted) is
        // reported suspected. Only meaningful when the deterministic
        // heartbeat protocol ran at all.
        if self.heartbeat_every.is_some() && hb_round > 0 {
            let known: Vec<NodeId> = (0..self.nodes.len() as u32).map(NodeId).collect();
            report.suspects = monitor.suspects(&known, hb_round);
            report.suspects.sort_by_key(|n| n.0);
        }
        report
    }

    /// Run with real threads: sites are multiplexed over a fixed worker
    /// pool by the M:N work-stealing scheduler (`self.sched`; default
    /// worker count is the available parallelism), daemons keep dedicated
    /// threads, the fabric runs its delivery thread, and termination
    /// detection runs on the caller's thread, woken by the scheduler's
    /// idle transitions. Consumes the cluster and returns the report.
    pub fn run_threaded(self, wall_limit: Duration) -> RunReport {
        assert!(
            self.mode != FabricMode::Virtual,
            "threaded runs require Ideal or RealTime fabric"
        );
        let exit = ExitRule::Detector(TerminationDetector::new());
        self.run_wall_clock(Carrier::Fabric, exit, wall_limit)
    }

    /// Run as **one process of a multi-process cluster**: local nodes'
    /// sites execute on the M:N scheduler exactly as in
    /// [`run_threaded`](Cluster::run_threaded), but every daemon's fabric
    /// handle is replaced by the TCP transport's [`crate::NetHandle`] —
    /// node-local traffic stays on the in-process fabric, traffic for
    /// nodes hosted by peer processes is framed onto sockets, and inbound
    /// frames are verifier-screened and injected back into the local
    /// fabric. Every process must build the *same topology in the same
    /// order* (remote sites via [`add_remote_site`](Cluster::add_remote_site))
    /// so site/node ids agree across the wire.
    ///
    /// Termination is activity-based (Mattern counters are per-process and
    /// do not balance across the wire): a non-serve process exits once its
    /// scheduler is idle and the wire has been silent for
    /// `cfg.idle_grace`, or when every known remote node is suspected,
    /// departed or permanently unreachable; a serve process lingers until
    /// every peer that ever connected is gone. `wall_limit` backstops
    /// both.
    pub fn run_distributed(
        mut self,
        cfg: TransportConfig,
        wall_limit: Duration,
    ) -> Result<RunReport, String> {
        if self.mode != FabricMode::Ideal {
            return Err(
                "distributed runs require the Ideal fabric mode: link latency is supplied \
                 by the real network, not the simulator"
                    .to_string(),
            );
        }
        if cfg.local_nodes.is_empty() {
            return Err("distributed run with no local nodes".to_string());
        }
        let local: HashSet<NodeId> = cfg.local_nodes.iter().copied().collect();
        for n in &local {
            if n.0 as usize >= self.nodes.len() {
                return Err(format!(
                    "local node {} is outside the topology ({} nodes)",
                    n.0,
                    self.nodes.len()
                ));
            }
        }
        // Cells for nodes that live in peer processes never had sites
        // created here (see `add_remote_site`); only local nodes run.
        self.nodes.retain(|c| local.contains(&c.id));
        let exit = ExitRule::Wire {
            serve: cfg.serve,
            dials_out: !cfg.peers.is_empty(),
            idle_grace: cfg.idle_grace,
            // Fallback probe period. The environment loop is event-driven
            // — scheduler idle edges and transport topology edges both
            // ping `shared.idle` — so this only bounds how stale the
            // wire-counter stability check can get.
            tick: (cfg.idle_grace / 3)
                .min(cfg.hb_period)
                .clamp(Duration::from_millis(5), Duration::from_millis(100)),
            last_counters: (0, 0),
            stable_since: Instant::now(),
        };
        let transport = Transport::start(cfg, self.fabric.handle())?;
        if let Some(ch) = &self.chaos {
            // Chaos moves from the node-local fabric to the wire: an
            // inbound frame that already survived the sender's dice must
            // not be rolled again when the transport injects it locally.
            transport.set_chaos(Some(ch.clone()));
            self.fabric.set_chaos(None);
        }
        Ok(self.run_wall_clock(Carrier::Wire(transport), exit, wall_limit))
    }

    /// The one wall-clock runner behind [`run_threaded`](Cluster::run_threaded)
    /// and [`run_distributed`](Cluster::run_distributed): live nodes'
    /// sites go to the M:N scheduler, each live daemon gets a thread,
    /// chaos fires against the wall clock, and the environment loop asks
    /// `exit` whether the run is over. A dead node's sites never run, but
    /// they are still reported.
    fn run_wall_clock(
        mut self,
        carrier: Carrier,
        mut exit: ExitRule,
        wall_limit: Duration,
    ) -> RunReport {
        self.fabric.start();
        let stop = Arc::new(AtomicBool::new(false));
        let workers_n = self.sched.effective_workers();
        let slice_fuel = self.sched.slice_fuel;
        let net: Option<Arc<dyn PacketFabric>> = match &carrier {
            Carrier::Fabric => None,
            Carrier::Wire(t) => Some(Arc::new(t.handle())),
        };

        // Flatten live nodes into daemons + a site pool, remembering which
        // daemon owns each site so its delivery wakeup can be rebound to
        // the scheduler's readiness protocol.
        let mut daemons: Vec<Daemon> = Vec::new();
        let mut sites: Vec<Site> = Vec::new();
        let mut owner_of_slot: Vec<usize> = Vec::new();
        let mut dead_sites: Vec<Site> = Vec::new();
        for cell in self.nodes.drain(..) {
            if cell.dead {
                dead_sites.extend(cell.sites);
                continue;
            }
            let mut daemon = cell.daemon;
            if let Some(net) = &net {
                daemon.set_fabric(net.clone());
            }
            for site in cell.sites {
                owner_of_slot.push(daemons.len());
                sites.push(site);
            }
            daemons.push(daemon);
        }
        let slot_ids: Vec<SiteId> = sites.iter().map(|s| s.identity.site).collect();
        let shared = Shared::new(sites, workers_n);
        for (slot, (&di, id)) in owner_of_slot.iter().zip(&slot_ids).enumerate() {
            daemons[di].set_site_waker(*id, SiteWake::Sched(shared.handle(slot as u32)));
        }
        if let Carrier::Wire(t) = &carrier {
            // One parking story: the transport pings the same Notify the
            // scheduler's idle edge does, so a route install, connection
            // death or dialer exhaustion wakes the environment loop at
            // once instead of being discovered a poll later.
            t.set_activity_notify(shared.idle.clone());
        }

        let daemon_threads: Vec<_> = daemons
            .into_iter()
            .map(|d| spawn_daemon(d, stop.clone()))
            .collect();
        let worker_threads: Vec<_> = (0..workers_n)
            .map(|i| {
                let worker = Worker::new(shared.clone(), i, slice_fuel);
                std::thread::Builder::new()
                    .name(format!("ditico-worker-{i}"))
                    .spawn(move || worker.run())
                    .expect("spawn worker")
            })
            .collect();

        // The environment loop, parked on the scheduler's idle edges.
        let t0 = Instant::now();
        let chaos = self.chaos.clone();
        let quiescent = loop {
            // Chaos events fire against the wall clock here; kills and
            // restarts act at the fabric (traffic blackholed/revived) —
            // the daemons themselves are owned by their threads. Over the
            // wire they act on locally hosted nodes; peers under chaos
            // run their own plan against their own clock.
            if let Some(ch) = &chaos {
                for ev in ch.apply_due(t0.elapsed().as_nanos() as u64) {
                    match ev {
                        ChaosEvent::KillNode(n) => {
                            self.fabric.kill_node(n);
                            if let Some(m) = &self.shard_map {
                                m.mark_down(n);
                            }
                        }
                        ChaosEvent::RestartNode(n) => {
                            self.fabric.revive_node(n);
                            if let Some(m) = &self.shard_map {
                                m.mark_up(n);
                            }
                        }
                        ChaosEvent::Partition { .. } | ChaosEvent::Heal => {}
                    }
                }
            }
            // The wire's failure verdicts steer shard-read failover the
            // same way the in-process monitor does.
            if let (Carrier::Wire(t), Some(m)) = (&carrier, &self.shard_map) {
                for n in t.suspects() {
                    m.mark_down(n);
                }
            }
            let wait = match exit.poll(&shared, &self.term, &carrier) {
                ControlFlow::Break(quiescent) => break quiescent,
                ControlFlow::Continue(wait) => wait,
            };
            if t0.elapsed() > wall_limit {
                break false;
            }
            shared.idle.wait_timeout(wait);
        };
        // Capture liveness verdicts *before* tearing the wire down.
        let suspects = match &carrier {
            Carrier::Fabric => Vec::new(),
            Carrier::Wire(t) => t.suspects(),
        };
        stop.store(true, Ordering::Relaxed);
        shared.stop();

        let aborts = join_workers(&shared, worker_threads);
        let mut report = RunReport {
            detector_probes: exit.probes(),
            sched: shared.stats(),
            aborts,
            suspects,
            quiescent,
            ..Default::default()
        };
        shared.for_each_site(|site| collect_site(&mut report, site));
        for site in &dead_sites {
            collect_site(&mut report, site);
        }
        join_daemons(&mut report, daemon_threads);
        report.fabric_packets = self.fabric.stats.packets.load(Ordering::Relaxed);
        report.fabric_bytes = self.fabric.stats.bytes.load(Ordering::Relaxed);
        report.chaos = chaos.as_ref().map(|c| c.report());
        report.ns_failovers = self.shard_map.as_ref().map_or(0, |m| m.failovers());
        if let Carrier::Wire(mut t) = carrier {
            t.shutdown();
            report.transport = Some(t.report());
        }
        self.fabric.shutdown();
        report
    }

    /// Direct access to a site's I/O output after a deterministic run.
    pub fn output(&self, lexeme: &str) -> Vec<String> {
        for cell in &self.nodes {
            for site in &cell.sites {
                if site.lexeme == lexeme {
                    return site.machine.io.clone();
                }
            }
        }
        Vec::new()
    }

    /// A site's VM statistics after a deterministic run.
    pub fn site_stats(&self, lexeme: &str) -> Option<ExecStats> {
        for cell in &self.nodes {
            for site in &cell.sites {
                if site.lexeme == lexeme {
                    return Some(site.machine.stats.clone());
                }
            }
        }
        None
    }

    /// Current virtual time (deterministic Virtual mode).
    pub fn virtual_ns(&self) -> u64 {
        self.fabric.now_ns()
    }

    fn report(&self, detector_probes: u64) -> RunReport {
        let mut report = RunReport {
            detector_probes,
            virtual_ns: self.fabric.now_ns(),
            fabric_packets: self.fabric.stats.packets.load(Ordering::Relaxed),
            fabric_bytes: self.fabric.stats.bytes.load(Ordering::Relaxed),
            chaos: self.chaos.as_ref().map(|c| c.report()),
            ns_failovers: self.shard_map.as_ref().map_or(0, |m| m.failovers()),
            ..Default::default()
        };
        let mut quiescent = true;
        for cell in &self.nodes {
            debug_assert_eq!(cell.id.0 as usize, report.daemon_stats.len());
            report.daemon_stats.push(cell.daemon.stats);
            for site in &cell.sites {
                collect_site(&mut report, site);
                // A dead node's sites never run, so their leftover work
                // does not keep the run from being quiescent.
                if !cell.dead && site.machine.runnable() {
                    quiescent = false;
                }
            }
        }
        report.quiescent = quiescent;
        report
    }
}

/// What carries traffic between nodes in a wall-clock run.
enum Carrier {
    /// Every node lives in this process; the in-process fabric carries
    /// all of it.
    Fabric,
    /// Daemons send through the TCP transport's handle: node-local
    /// traffic stays on the fabric, the rest goes to peer processes.
    Wire(Transport),
}

/// How a wall-clock run decides it is over.
enum ExitRule {
    /// Mattern's four-counter detector over this process's counters,
    /// probed on the scheduler's idle edges.
    Detector(TerminationDetector),
    /// The wire policy documented on [`Cluster::run_distributed`]:
    /// Mattern counters do not balance across processes, so the run ends
    /// on local idleness plus wire silence, on peers leaving, or on every
    /// remote node going down.
    Wire {
        serve: bool,
        dials_out: bool,
        idle_grace: Duration,
        tick: Duration,
        last_counters: (u64, u64),
        stable_since: Instant,
    },
}

impl ExitRule {
    /// `Break(quiescent)` ends the run; `Continue(wait)` parks the
    /// environment loop for at most `wait` before asking again.
    fn poll(
        &mut self,
        shared: &Shared,
        term: &TermCounters,
        carrier: &Carrier,
    ) -> ControlFlow<bool, Duration> {
        let local_idle = shared.active_sites() == 0;
        match self {
            ExitRule::Detector(detector) => {
                let snap = Snapshot::take(term, !local_idle);
                if detector.probe(snap) {
                    return ControlFlow::Break(true);
                }
                // After a first quiet wave no further idle edge fires once
                // the system has truly terminated, so the confirming probe
                // follows a token wait. While busy, sleep until the next
                // idle edge; the timeout only bounds the wall-limit check.
                ControlFlow::Continue(if snap.quiet() {
                    Duration::from_micros(200)
                } else {
                    Duration::from_millis(20)
                })
            }
            ExitRule::Wire {
                serve,
                dials_out,
                idle_grace,
                tick,
                last_counters,
                stable_since,
            } => {
                let Carrier::Wire(transport) = carrier else {
                    unreachable!("the wire exit rule runs over the wire carrier");
                };
                let counters = transport.data_counters();
                if counters != *last_counters {
                    *last_counters = counters;
                    *stable_since = Instant::now();
                }
                if !*serve && transport.all_remotes_down() {
                    // Every peer is dead, departed or unreachable: whatever
                    // this process is computing or waiting for, the
                    // distributed run is over. If that happened as a clean
                    // cascade — local sites idle, nobody suspected, no
                    // dialer exhausted — the peers simply finished and
                    // left, which *is* the computation quiescing, arriving
                    // over the wire instead of through the grace timer.
                    // Anything else is a cut, reported with its suspects.
                    return ControlFlow::Break(
                        local_idle
                            && transport.suspects().is_empty()
                            && transport.report().peers_failed == 0,
                    );
                }
                if !local_idle {
                    *stable_since = Instant::now();
                    return ControlFlow::Continue(*tick);
                }
                let done = if *serve {
                    // A server's work arrives over the wire: it stays up
                    // until at least one peer connected and all of them
                    // are gone again (then the usual idle+grace applies).
                    transport.ever_connected() && transport.peers_all_gone()
                } else {
                    // Don't conclude "nothing left to do" while still
                    // dialing: the handshake itself may deliver the work.
                    !*dials_out || transport.ever_connected()
                };
                if done && stable_since.elapsed() >= *idle_grace {
                    ControlFlow::Break(true)
                } else {
                    ControlFlow::Continue(*tick)
                }
            }
        }
    }

    /// Probes the termination detector performed (0 under the wire rule).
    fn probes(&self) -> u64 {
        match self {
            ExitRule::Detector(detector) => detector.probes,
            ExitRule::Wire { .. } => 0,
        }
    }
}

/// Run one daemon on its own thread until `stop`, then hand it back.
///
/// Spin-then-park: while traffic flows, an empty pump yields (cheap
/// handoff on few cores); a sustained lull parks on the daemon's waker —
/// sites and the fabric notify it when they hand it work, so an idle
/// daemon costs no scheduler quanta. The timeout only bounds stop-flag
/// latency.
fn spawn_daemon(mut daemon: Daemon, stop: Arc<AtomicBool>) -> std::thread::JoinHandle<Daemon> {
    std::thread::spawn(move || {
        let t0 = Instant::now();
        let clocked = daemon.needs_clock();
        let mut lull = 0u32;
        while !stop.load(Ordering::Relaxed) {
            // Lease TTLs run on the wall clock under threads.
            if clocked {
                daemon.set_now_ns(t0.elapsed().as_nanos() as u64);
            }
            if daemon.pump() {
                lull = 0;
            } else {
                lull += 1;
                if lull > 2 {
                    daemon.waker().wait_timeout(Duration::from_millis(1));
                    // One refill tick per parked millisecond: the bounded
                    // NeedCode re-ask/give-up ladder for shipments parked
                    // on a restarted (and thus cache-empty) peer.
                    if daemon.has_pending_refills() {
                        daemon.tick_refills();
                    }
                } else {
                    std::thread::yield_now();
                }
            }
        }
        daemon
    })
}

/// Join the worker pool, surviving panicked workers. A worker that died
/// mid-slice abandoned its slot in state `RUNNING`; the site it was
/// pumping is marked errored and its inbox drained (the errored-site
/// discipline) so the run reports instead of aborting. Sound because this
/// runs after `Shared::stop`, when no live worker can re-enter the slot.
fn join_workers(shared: &Arc<Shared>, workers: Vec<std::thread::JoinHandle<()>>) -> Vec<String> {
    let mut aborts = Vec::new();
    for (i, h) in workers.into_iter().enumerate() {
        if h.join().is_err() {
            match shared.take_running(i) {
                Some(slot) => {
                    shared.mark_errored(
                        slot,
                        VmError::Internal(format!("worker thread {i} panicked mid-slice")),
                    );
                    aborts.push(format!(
                        "worker thread {i} panicked while pumping site slot {slot}; \
                         the site is reported errored"
                    ));
                }
                None => aborts.push(format!("worker thread {i} panicked between slices")),
            }
        }
    }
    aborts
}

/// Join daemon threads, surviving panics: a lost daemon costs its node's
/// statistics, not the run.
fn join_daemons(report: &mut RunReport, daemons: Vec<std::thread::JoinHandle<Daemon>>) {
    for h in daemons {
        match h.join() {
            Ok(daemon) => report.daemon_stats.push(daemon.stats),
            Err(_) => report
                .aborts
                .push("a daemon thread panicked; its node's statistics are lost".to_string()),
        }
    }
}

fn collect_site(report: &mut RunReport, site: &Site) {
    report
        .outputs
        .insert(site.lexeme.clone(), site.machine.io.clone());
    report
        .stats
        .insert(site.lexeme.clone(), site.machine.stats.clone());
    report.total_instrs += site.machine.stats.instrs;
    report.blocked_imports += site.machine.port.pending_imports();
    if let Some(e) = &site.error {
        report.errors.push((site.lexeme.clone(), e.clone()));
    }
}
