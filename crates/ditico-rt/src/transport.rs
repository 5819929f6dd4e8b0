//! Real TCP transport between TyCOd processes.
//!
//! §5 of the paper describes a *network* of per-node daemons exchanging
//! byte-coded messages, objects and class code. The in-process
//! [`fabric`](crate::fabric) models that network's latency; this module
//! is the part that actually crosses a machine boundary: it carries the
//! same encoded [`Packet`](tyco_vm::codec::Packet) stream over TCP with
//! length-prefixed frames (see [`tyco_vm::codec::decode_frame`] for the
//! layout).
//!
//! ## One event loop, not two threads per peer
//!
//! On Linux the transport (its event loop is in `netloop.rs`) runs
//! **every** listener, peer socket, in-flight dial
//! and timer on a single `tyco-net` thread parked in
//! [`crate::poller::Poller::wait`]: sockets are nonblocking, frame
//! decode is incremental and zero-copy (reads accumulate in a
//! `BytesMut`; payloads reach the daemon as `Bytes` views of the read
//! buffer), writes are vectored and gated on `writable` readiness with
//! explicit backpressure, and heartbeats / reconnect backoff / connect
//! timeouts are deadlines on a timer wheel instead of sleeping threads.
//! Inbound traffic is injected into the in-process fabric, whose
//! delivery path wakes the owning daemon's [`crate::wake::Notify`] and,
//! through it, the M:N scheduler's ready-marking — socket readiness and
//! site readiness share one worker pool and one parking story.
//!
//! The backend is a platform fact, not an option: the poller
//! hand-declares Linux's syscall constants, so on every other target the
//! older architecture — a blocking reader thread plus a writer actor per
//! peer — carries the wire. It is fine for the paper's 4-node cluster and
//! falls over at thousands of peers (`BENCH_transport.json`).
//!
//! ## Handshake, liveness, reconnect
//!
//! The first frame on every connection is a [`Packet::Hello`] carrying
//! [`WIRE_VERSION`] and the node ids the sending process hosts; a
//! version mismatch closes the connection. After the handshake the
//! transport beacons every `hb_period` on each live connection, and a
//! [`FailureMonitor`] keyed to *wall-clock* rounds
//! (`elapsed / hb_period`) turns silence into suspicion. Outbound
//! connections reconnect with exponential backoff up to a retry cap;
//! exhausting the cap marks the peer's nodes permanently down. Inbound
//! code images are screened by the byte-code verifier *before* they can
//! be linked — the process boundary is the least trustworthy boundary
//! the runtime has.

use crate::chaos::{ChaosState, Fault};
use crate::daemon::Daemon;
use crate::fabric::{FabricHandle, PacketFabric};
use crate::failure::FailureMonitor;
use crate::wake::{Notify, Wake};
use bytes::{Bytes, BytesMut};
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::{HashMap, HashSet, VecDeque};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tyco_vm::codec::{self, Packet, CONTROL_NODE, WIRE_VERSION};
use tyco_vm::word::NodeId;

#[cfg(target_os = "linux")]
#[path = "netloop.rs"]
mod netloop;

/// Everything `Transport::start` needs to know about this process's place
/// in the topology and how patient to be with its peers.
#[derive(Debug, Clone)]
pub struct TransportConfig {
    /// Nodes hosted by this process (announced in the handshake).
    pub local_nodes: Vec<NodeId>,
    /// Address to accept peer connections on, if any.
    pub listen: Option<SocketAddr>,
    /// Addresses this process dials out to.
    pub peers: Vec<SocketAddr>,
    /// Serve role: linger until every peer that ever connected is gone
    /// instead of exiting when locally idle.
    pub serve: bool,
    /// Heartbeat emission period; also the failure monitor's round width.
    pub hb_period: Duration,
    /// Heartbeat rounds without progress before a peer node is suspected.
    pub stale_periods: u64,
    /// Consecutive failed connect attempts before an outbound peer is
    /// declared permanently down (a successful connection resets it).
    pub max_retries: u32,
    /// First reconnect delay; doubles per attempt up to `backoff_cap`.
    pub backoff_base: Duration,
    /// Ceiling on the reconnect delay.
    pub backoff_cap: Duration,
    /// How long one connect attempt may stay in flight. Attempts to
    /// different peers are concurrent — a dead peer consuming its full
    /// timeout must never delay a live peer's handshake.
    pub connect_timeout: Duration,
    /// How long a non-serve process must be idle (no runnable sites, no
    /// wire traffic) before it concludes the distributed computation is
    /// over. Must comfortably exceed `hb_period` plus one network RTT.
    pub idle_grace: Duration,
    /// Bounded outbound queue depth per connection (frames beyond it are
    /// dropped and counted, like an overflowing NIC ring).
    pub outbound_cap: usize,
}

impl Default for TransportConfig {
    fn default() -> TransportConfig {
        TransportConfig {
            local_nodes: Vec::new(),
            listen: None,
            peers: Vec::new(),
            serve: false,
            hb_period: Duration::from_millis(100),
            stale_periods: 5,
            max_retries: 5,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            connect_timeout: Duration::from_millis(500),
            idle_grace: Duration::from_millis(600),
            outbound_cap: 4096,
        }
    }
}

/// Parse a `--peers` list: comma-separated socket addresses, each
/// resolved via DNS if needed. Every entry must resolve; the error names
/// the offending entry so a typo fails with a diagnostic, not a panic.
pub fn parse_peer_list(s: &str) -> Result<Vec<SocketAddr>, String> {
    let mut out = Vec::new();
    for part in s.split(',') {
        let part = part.trim();
        if part.is_empty() {
            return Err(format!("empty peer address in list `{s}`"));
        }
        let mut addrs = part
            .to_socket_addrs()
            .map_err(|e| format!("bad peer address `{part}`: {e}"))?;
        match addrs.next() {
            Some(a) => out.push(a),
            None => return Err(format!("peer address `{part}` resolved to nothing")),
        }
    }
    Ok(out)
}

/// Reconnect delay before attempt `attempt` (0-based): exponential from
/// `base`, capped at `cap`.
pub fn backoff_delay(base: Duration, cap: Duration, attempt: u32) -> Duration {
    let mult = 1u32.checked_shl(attempt.min(20)).unwrap_or(u32::MAX);
    base.checked_mul(mult).unwrap_or(cap).min(cap)
}

/// Wire-level counters, snapshotted into the final `RunReport`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TransportReport {
    /// Frames queued for the wire (data + control).
    pub frames_out: u64,
    /// Frames parsed off the wire (data + control).
    pub frames_in: u64,
    pub bytes_out: u64,
    pub bytes_in: u64,
    /// Data packets routed onto sockets / injected from sockets.
    pub data_out: u64,
    pub data_in: u64,
    pub heartbeats_in: u64,
    /// Inbound packets dropped at the trust boundary (undecodable bytes
    /// or code images that failed static verification).
    pub rejected: u64,
    /// Outbound frames dropped on a full or dead queue, plus inbound
    /// frames addressed to nodes this process does not host.
    pub dropped: u64,
    /// Successful re-establishments of an outbound connection.
    pub reconnects: u64,
    /// Outbound peers declared permanently down (retry cap exhausted).
    pub peers_failed: u64,
    /// Connections dropped during handshake over a wire-version mismatch.
    pub version_mismatches: u64,
    /// High-water mark of any per-connection outbound queue — how deep
    /// backpressure ever got.
    pub outq_hwm: u64,
    /// Flushes parked on `writable` readiness (the socket buffer was
    /// full and the event loop had to wait to finish writing).
    pub flush_stalls: u64,
    /// Outbound packets dropped because every route to the destination
    /// was declared permanently down or departed (subset of `dropped`).
    pub dropped_perma: u64,
}

#[derive(Debug, Default)]
pub(crate) struct Stats {
    pub(crate) frames_out: AtomicU64,
    pub(crate) frames_in: AtomicU64,
    pub(crate) bytes_out: AtomicU64,
    pub(crate) bytes_in: AtomicU64,
    pub(crate) data_out: AtomicU64,
    pub(crate) data_in: AtomicU64,
    pub(crate) heartbeats_in: AtomicU64,
    pub(crate) rejected: AtomicU64,
    pub(crate) dropped: AtomicU64,
    pub(crate) reconnects: AtomicU64,
    pub(crate) peers_failed: AtomicU64,
    pub(crate) version_mismatches: AtomicU64,
    pub(crate) outq_hwm: AtomicU64,
    pub(crate) flush_stalls: AtomicU64,
    pub(crate) dropped_perma: AtomicU64,
}

/// Bounded MPSC of ready-to-write frame buffers. The thread-per-peer
/// writer blocks on the condvar; the event loop never waits — it drains
/// opportunistically ([`OutQueue::try_drain`]) when woken.
struct OutQueue {
    state: Mutex<OutState>,
    cond: Condvar,
    cap: usize,
}

struct OutState {
    items: VecDeque<Bytes>,
    closed: bool,
}

impl OutQueue {
    fn new(cap: usize) -> OutQueue {
        OutQueue {
            state: Mutex::new(OutState {
                items: VecDeque::new(),
                closed: false,
            }),
            cond: Condvar::new(),
            cap,
        }
    }

    /// Enqueue a buffer; `Some(depth)` is the queue length after the
    /// push (the caller records the high-water mark), `None` (caller
    /// counts a drop) means the queue is full or the connection died.
    fn push(&self, b: Bytes) -> Option<usize> {
        let mut s = self.state.lock();
        if s.closed || s.items.len() >= self.cap {
            return None;
        }
        s.items.push_back(b);
        let depth = s.items.len();
        drop(s);
        self.cond.notify_one();
        Some(depth)
    }

    /// Move the whole backlog into `out`, waiting up to `timeout` for the
    /// first item. Returns `false` once the queue is closed and drained.
    #[cfg(any(test, not(target_os = "linux")))]
    fn drain_wait(&self, out: &mut Vec<Bytes>, timeout: Duration) -> bool {
        let mut s = self.state.lock();
        if s.items.is_empty() && !s.closed {
            self.cond.wait_for(&mut s, timeout);
        }
        out.extend(s.items.drain(..));
        !(s.closed && out.is_empty())
    }

    /// Nonblocking drain for the event loop.
    #[cfg(target_os = "linux")]
    fn try_drain(&self, out: &mut Vec<Bytes>) {
        let mut s = self.state.lock();
        out.extend(s.items.drain(..));
    }

    fn close(&self) {
        self.state.lock().closed = true;
        self.cond.notify_one();
    }
}

/// One live connection to a peer process.
struct PeerConn {
    out: OutQueue,
    alive: AtomicBool,
    /// Accepted (inbound) connections; their death means the peer left.
    accepted: bool,
    /// Node ids the peer announced in its handshake.
    nodes: Mutex<Vec<NodeId>>,
    /// Event-loop slot token (+2 offset; 0 = not owned by the loop).
    #[cfg(target_os = "linux")]
    token: AtomicUsize,
    /// Dedup flag for the event loop's dirty list: raised by the first
    /// producer to queue onto an idle connection, cleared by the loop
    /// before it drains.
    dirty: AtomicBool,
}

impl PeerConn {
    fn new(cap: usize, accepted: bool) -> Arc<PeerConn> {
        Arc::new(PeerConn {
            out: OutQueue::new(cap),
            alive: AtomicBool::new(true),
            accepted,
            nodes: Mutex::new(Vec::new()),
            #[cfg(target_os = "linux")]
            token: AtomicUsize::new(0),
            dirty: AtomicBool::new(false),
        })
    }
}

struct Inner {
    cfg: TransportConfig,
    local: HashSet<NodeId>,
    /// Injection path for admitted inbound traffic: the node-local
    /// in-process fabric (Ideal mode), so daemons receive remote packets
    /// exactly like local ones.
    local_fabric: FabricHandle,
    /// Remote node → the connection that currently reaches it.
    routes: RwLock<HashMap<NodeId, Arc<PeerConn>>>,
    /// Every connection ever established (accepted and outbound).
    conns: Mutex<Vec<Arc<PeerConn>>>,
    /// Frames addressed to remote nodes we have no route to yet, flushed
    /// when a handshake maps them. Bounded; overflow counts as dropped.
    unrouted: Mutex<Vec<(NodeId, Bytes)>>,
    monitor: Mutex<FailureMonitor>,
    /// Remote nodes learned from handshakes.
    known_remote: Mutex<HashSet<NodeId>>,
    /// Remote nodes declared permanently unreachable (retry cap).
    perma_down: Mutex<HashSet<NodeId>>,
    /// Remote nodes whose accepted connection closed (peer departed).
    departed: Mutex<HashSet<NodeId>>,
    /// Outbound dialers that have given up for good.
    connectors_done: AtomicUsize,
    ever_connected: AtomicBool,
    hb_seq: AtomicU64,
    epoch: Instant,
    stop: AtomicBool,
    stats: Stats,
    /// Wakes the event loop when a producer queues outbound work
    /// (`None` under thread-per-peer, whose writers park on the queue
    /// condvar instead — two parking stories, one [`Wake`] trait).
    net_wake: Option<Arc<dyn Wake>>,
    /// Connections with freshly queued outbound frames, drained by the
    /// event loop on its next wakeup.
    dirty: Mutex<Vec<Arc<PeerConn>>>,
    /// Topology-edge observer: notified when routes appear, connections
    /// die or dialers give up, so the environment loop re-evaluates its
    /// exit conditions event-driven instead of on a fixed poll. Shared
    /// with the scheduler's pool-idle `Notify` in distributed runs.
    activity: Mutex<Option<Arc<Notify>>>,
    /// Fault-injection hook for outbound traffic (the chaos harness).
    /// Distributed runs install chaos here, at the wire, and leave the
    /// node-local fabric clean — one jeopardy per packet.
    chaos: RwLock<Option<Arc<ChaosState>>>,
    /// Chaos-delayed frames waiting out their extra latency; flushed by
    /// the heartbeat paths, so delay resolution is one `hb_period`.
    delayed: Mutex<Vec<(Instant, NodeId, Bytes, u64)>>,
}

impl Inner {
    fn round(&self) -> u64 {
        let period = self.cfg.hb_period.as_nanos().max(1);
        (self.epoch.elapsed().as_nanos() / period) as u64
    }

    fn hello_frame(&self) -> Bytes {
        let from = self
            .cfg
            .local_nodes
            .first()
            .copied()
            .unwrap_or(CONTROL_NODE);
        let p = Packet::Hello {
            version: WIRE_VERSION,
            nodes: self.cfg.local_nodes.clone(),
        };
        self.stats.frames_out.fetch_add(1, Ordering::Relaxed);
        codec::encode_frame(from, CONTROL_NODE, &codec::encode(&p))
    }

    /// Tell whoever watches topology edges (the distributed env loop)
    /// that an exit condition may have changed.
    fn notify_activity(&self) {
        if let Some(n) = self.activity.lock().as_ref() {
            n.notify();
        }
    }

    /// Record a successful push onto `conn`'s queue: track the deepest
    /// backlog ever and hand the connection to the event loop.
    fn note_queued(&self, conn: &Arc<PeerConn>, depth: usize) {
        self.stats
            .outq_hwm
            .fetch_max(depth as u64, Ordering::Relaxed);
        if let Some(wake) = &self.net_wake {
            if !conn.dirty.swap(true, Ordering::AcqRel) {
                self.dirty.lock().push(conn.clone());
            }
            wake.wake();
        }
    }

    /// Queue one already-framed buffer for `to`, running it through the
    /// chaos hook first (when installed). `nframes` is the packet count
    /// the buffer coalesces — fault bookkeeping and termination-counter
    /// compensation must scale by it, or a dropped batch of k packets
    /// would unbalance Mattern's counters by k−1.
    fn queue_frame(&self, from: NodeId, to: NodeId, frame: Bytes, nframes: u64) {
        let chaos = self.chaos.read().clone();
        match chaos {
            None => self.queue_frame_raw(to, frame, nframes),
            Some(ch) => match ch.packet_fate(from, to, nframes, true) {
                Fault::Drop => {}
                Fault::Deliver => self.queue_frame_raw(to, frame, nframes),
                Fault::Duplicate => {
                    self.queue_frame_raw(to, frame.clone(), nframes);
                    self.queue_frame_raw(to, frame, nframes);
                }
                Fault::Delay(extra_ns) => {
                    let due = Instant::now() + Duration::from_nanos(extra_ns);
                    self.delayed.lock().push((due, to, frame, nframes));
                }
            },
        }
    }

    /// Flush chaos-delayed frames whose extra latency has elapsed.
    /// Driven from both backends' heartbeat paths.
    fn flush_due_delayed(&self) {
        let now = Instant::now();
        let due: Vec<(Instant, NodeId, Bytes, u64)> = {
            let mut d = self.delayed.lock();
            if d.is_empty() {
                return;
            }
            let (due, keep) = d.drain(..).partition(|(at, ..)| *at <= now);
            *d = keep;
            due
        };
        for (_, to, frame, nframes) in due {
            self.queue_frame_raw(to, frame, nframes);
        }
    }

    /// Queue one already-framed buffer for `to`, stashing it when no
    /// route exists yet.
    fn queue_frame_raw(&self, to: NodeId, frame: Bytes, nframes: u64) {
        let conn = self.routes.read().get(&to).cloned();
        match conn {
            Some(c) if c.alive.load(Ordering::Acquire) => match c.out.push(frame) {
                Some(depth) => {
                    self.stats.frames_out.fetch_add(nframes, Ordering::Relaxed);
                    self.note_queued(&c, depth);
                }
                None => {
                    self.stats.dropped.fetch_add(nframes, Ordering::Relaxed);
                }
            },
            _ => {
                // No live route (yet): park until a handshake provides
                // one, unless the node is known to be gone for good.
                if self.perma_down.lock().contains(&to) || self.departed.lock().contains(&to) {
                    self.stats.dropped.fetch_add(nframes, Ordering::Relaxed);
                    self.stats
                        .dropped_perma
                        .fetch_add(nframes, Ordering::Relaxed);
                    return;
                }
                let mut stash = self.unrouted.lock();
                if stash.len() >= 10_000 {
                    self.stats.dropped.fetch_add(nframes, Ordering::Relaxed);
                } else {
                    stash.push((to, frame));
                }
            }
        }
    }

    /// Install the routes a handshake announced and flush any frames that
    /// were parked waiting for them.
    fn install_routes(&self, conn: &Arc<PeerConn>, nodes: &[NodeId]) {
        let round = self.round();
        {
            let mut routes = self.routes.write();
            let mut known = self.known_remote.lock();
            let mut monitor = self.monitor.lock();
            let mut perma = self.perma_down.lock();
            let mut departed = self.departed.lock();
            for &n in nodes {
                if self.local.contains(&n) {
                    continue;
                }
                routes.insert(n, conn.clone());
                known.insert(n);
                // A handshake is proof of life: restart the grace window
                // *now* and forget any recorded heartbeat history. This
                // covers both the late joiner (first-known tracking) and
                // the suspected peer that reconnects — whose restarted
                // beacon sequence would otherwise never shed suspicion,
                // leaving the all-remotes-down termination cut
                // satisfiable under a live peer.
                monitor.reconnected(n, round);
                perma.remove(&n);
                departed.remove(&n);
            }
        }
        let mut stash = self.unrouted.lock();
        let mut keep = Vec::new();
        let mut queued = false;
        for (to, frame) in stash.drain(..) {
            if nodes.contains(&to) {
                match conn.out.push(frame) {
                    Some(depth) => {
                        self.stats.frames_out.fetch_add(1, Ordering::Relaxed);
                        self.stats
                            .outq_hwm
                            .fetch_max(depth as u64, Ordering::Relaxed);
                        queued = true;
                    }
                    None => {
                        self.stats.dropped.fetch_add(1, Ordering::Relaxed);
                    }
                }
            } else {
                keep.push((to, frame));
            }
        }
        *stash = keep;
        drop(stash);
        if queued {
            self.note_queued(conn, 0);
        }
        self.notify_activity();
    }

    /// Tear down a dead connection's routes; `terminal` marks its nodes
    /// as gone for good (accepted peer departed / retries exhausted).
    fn drop_routes(&self, conn: &Arc<PeerConn>, terminal: bool) {
        let nodes = conn.nodes.lock().clone();
        let mut routes = self.routes.write();
        for n in &nodes {
            if let Some(cur) = routes.get(n) {
                if Arc::ptr_eq(cur, conn) {
                    routes.remove(n);
                }
            }
        }
        drop(routes);
        if terminal {
            let mut set = if conn.accepted {
                self.departed.lock()
            } else {
                self.perma_down.lock()
            };
            set.extend(nodes);
        }
        self.notify_activity();
    }

    /// An outbound dialer exhausted its retry budget: its peer's nodes
    /// are permanently down. Shared by both backends.
    fn peer_exhausted(&self, last_nodes: &[NodeId]) {
        self.stats.peers_failed.fetch_add(1, Ordering::Relaxed);
        self.perma_down.lock().extend(last_nodes.iter().copied());
        self.connectors_done.fetch_add(1, Ordering::Release);
        self.notify_activity();
    }

    // Lock-ordering discipline for the node-status mutexes (deadlock
    // freedom): known_remote → monitor → perma_down → departed, with the
    // routes RwLock taken before any of them.
    fn suspects(&self) -> Vec<NodeId> {
        let round = self.round();
        let known = self.known_remote.lock();
        let monitor = self.monitor.lock();
        let perma = self.perma_down.lock();
        let mut out: Vec<NodeId> = known
            .iter()
            .copied()
            .filter(|n| perma.contains(n) || monitor.suspected(*n, round))
            .collect();
        out.sort_by_key(|n| n.0);
        out
    }

    /// Every remote node we ever learned about is suspected, permanently
    /// unreachable or departed — or we never learned about any and every
    /// connector has given up.
    fn all_remotes_down(&self) -> bool {
        let known = self.known_remote.lock();
        if known.is_empty() {
            return !self.cfg.peers.is_empty()
                && self.connectors_done.load(Ordering::Acquire) >= self.cfg.peers.len();
        }
        let round = self.round();
        let monitor = self.monitor.lock();
        let perma = self.perma_down.lock();
        let departed = self.departed.lock();
        known
            .iter()
            .all(|n| perma.contains(n) || departed.contains(n) || monitor.suspected(*n, round))
    }

    /// Serve-role exit test: at least one peer connected at some point
    /// and none of the ever-established connections is still alive.
    fn peers_all_gone(&self) -> bool {
        if !self.ever_connected.load(Ordering::Acquire) {
            return false;
        }
        self.conns
            .lock()
            .iter()
            .all(|c| !c.alive.load(Ordering::Acquire))
    }

    fn report(&self) -> TransportReport {
        let s = &self.stats;
        TransportReport {
            frames_out: s.frames_out.load(Ordering::Relaxed),
            frames_in: s.frames_in.load(Ordering::Relaxed),
            bytes_out: s.bytes_out.load(Ordering::Relaxed),
            bytes_in: s.bytes_in.load(Ordering::Relaxed),
            data_out: s.data_out.load(Ordering::Relaxed),
            data_in: s.data_in.load(Ordering::Relaxed),
            heartbeats_in: s.heartbeats_in.load(Ordering::Relaxed),
            rejected: s.rejected.load(Ordering::Relaxed),
            dropped: s.dropped.load(Ordering::Relaxed),
            reconnects: s.reconnects.load(Ordering::Relaxed),
            peers_failed: s.peers_failed.load(Ordering::Relaxed),
            version_mismatches: s.version_mismatches.load(Ordering::Relaxed),
            outq_hwm: s.outq_hwm.load(Ordering::Relaxed),
            flush_stalls: s.flush_stalls.load(Ordering::Relaxed),
            dropped_perma: s.dropped_perma.load(Ordering::Relaxed),
        }
    }
}

/// The daemon-facing side of the transport: implements [`PacketFabric`]
/// by keeping node-local traffic on the in-process fabric and framing
/// everything else onto the right peer's socket queue.
#[derive(Clone)]
pub struct NetHandle {
    inner: Arc<Inner>,
}

impl PacketFabric for NetHandle {
    fn send(&self, from: NodeId, to: NodeId, payload: Bytes) {
        if self.inner.local.contains(&to) {
            self.inner.local_fabric.send(from, to, payload);
            return;
        }
        self.inner.stats.data_out.fetch_add(1, Ordering::Relaxed);
        let frame = codec::encode_frame(from, to, &payload);
        self.inner.queue_frame(from, to, frame, 1);
    }

    fn send_batch(&self, from: NodeId, to: NodeId, batch: &mut Vec<Bytes>) {
        if batch.is_empty() {
            return;
        }
        if self.inner.local.contains(&to) {
            self.inner.local_fabric.send_batch(from, to, batch);
            return;
        }
        // Keep the fabric's batching discipline on the wire: the whole
        // per-link backlog becomes one coalesced buffer, one queue slot,
        // one write — FIFO order preserved.
        let n = batch.len() as u64;
        self.inner.stats.data_out.fetch_add(n, Ordering::Relaxed);
        let total: usize = batch.iter().map(|b| b.len() + 12).sum();
        let mut buf = BytesMut::with_capacity(total);
        for p in batch.drain(..) {
            codec::encode_frame_into(from, to, &p, &mut buf);
        }
        self.inner.queue_frame(from, to, buf.freeze(), n);
    }
}

/// The I/O a backend resolved to, built before any thread is spawned.
/// Holding the prepared state in one value means the spawn step can only
/// consume what preparation produced — an event-loop spawn reaching for
/// I/O that was never prepared is unrepresentable rather than a runtime
/// abort.
enum Prepared {
    #[cfg(target_os = "linux")]
    Event {
        io: netloop::NetIo,
        wake: Arc<dyn Wake>,
    },
    #[cfg(any(test, not(target_os = "linux")))]
    Threads(Option<TcpListener>),
}

impl Prepared {
    /// The event loop: a wake pipe plus the loop's registered I/O.
    #[cfg(target_os = "linux")]
    fn event(listener: Option<TcpListener>) -> Result<Prepared, String> {
        let (wake_rx, wake_tx) =
            crate::poller::wake_pipe().map_err(|e| format!("wake pipe: {e}"))?;
        let io = netloop::prepare(listener, wake_rx).map_err(|e| format!("net event loop: {e}"))?;
        Ok(Prepared::Event {
            io,
            wake: Arc::new(wake_tx) as Arc<dyn Wake>,
        })
    }

    /// Thread-per-peer needs nothing beyond the listener.
    #[cfg(any(test, not(target_os = "linux")))]
    fn threads(listener: Option<TcpListener>) -> Result<Prepared, String> {
        Ok(Prepared::Threads(listener))
    }
}

/// A running TCP transport: one `tyco-net` event-loop thread on Linux,
/// or listener/connector/heartbeat threads plus a reader/writer pair per
/// connection elsewhere.
pub struct Transport {
    inner: Arc<Inner>,
    threads: Vec<std::thread::JoinHandle<()>>,
    local_addr: Option<SocketAddr>,
}

impl Transport {
    /// Bind, dial and start beaconing. `local_fabric` is the in-process
    /// fabric admitted inbound traffic is injected into. The event loop
    /// carries the wire on Linux, thread-per-peer everywhere else.
    pub fn start(cfg: TransportConfig, local_fabric: FabricHandle) -> Result<Transport, String> {
        #[cfg(target_os = "linux")]
        let prepare = Prepared::event;
        #[cfg(not(target_os = "linux"))]
        let prepare = Prepared::threads;
        Transport::launch(cfg, local_fabric, prepare)
    }

    /// Bind, then resolve the backend into prepared I/O *before* spawning
    /// anything, so a poller or wake-pipe failure surfaces as a start
    /// error — never a net thread that exits at birth while the transport
    /// reports success.
    fn launch(
        cfg: TransportConfig,
        local_fabric: FabricHandle,
        prepare: fn(Option<TcpListener>) -> Result<Prepared, String>,
    ) -> Result<Transport, String> {
        let listener = match cfg.listen {
            Some(addr) => {
                let l = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
                l.set_nonblocking(true)
                    .map_err(|e| format!("set_nonblocking: {e}"))?;
                Some(l)
            }
            None => None,
        };
        let local_addr = listener.as_ref().and_then(|l| l.local_addr().ok());
        let prepared = prepare(listener)?;
        let net_wake: Option<Arc<dyn Wake>> = match &prepared {
            #[cfg(target_os = "linux")]
            Prepared::Event { wake, .. } => Some(wake.clone()),
            #[cfg(any(test, not(target_os = "linux")))]
            Prepared::Threads(_) => None,
        };

        let stale = cfg.stale_periods;
        let inner = Arc::new(Inner {
            local: cfg.local_nodes.iter().copied().collect(),
            local_fabric,
            routes: RwLock::new(HashMap::new()),
            conns: Mutex::new(Vec::new()),
            unrouted: Mutex::new(Vec::new()),
            monitor: Mutex::new(FailureMonitor::new(stale)),
            known_remote: Mutex::new(HashSet::new()),
            perma_down: Mutex::new(HashSet::new()),
            departed: Mutex::new(HashSet::new()),
            connectors_done: AtomicUsize::new(0),
            ever_connected: AtomicBool::new(false),
            hb_seq: AtomicU64::new(0),
            epoch: Instant::now(),
            stop: AtomicBool::new(false),
            stats: Stats::default(),
            net_wake,
            dirty: Mutex::new(Vec::new()),
            activity: Mutex::new(None),
            chaos: RwLock::new(None),
            delayed: Mutex::new(Vec::new()),
            cfg,
        });
        let mut threads = Vec::new();
        match prepared {
            #[cfg(target_os = "linux")]
            Prepared::Event { io, .. } => {
                let inner2 = inner.clone();
                threads.push(
                    std::thread::Builder::new()
                        .name("tyco-net".into())
                        .spawn(move || netloop::run(inner2, io))
                        .map_err(|e| format!("spawn net thread: {e}"))?,
                );
            }
            #[cfg(any(test, not(target_os = "linux")))]
            Prepared::Threads(listener) => threads::spawn(&inner, listener, &mut threads)?,
        }
        Ok(Transport {
            inner,
            threads,
            local_addr,
        })
    }

    /// The bound listen address (useful when configured with port 0).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// A [`PacketFabric`] handle for daemons.
    pub fn handle(&self) -> NetHandle {
        NetHandle {
            inner: self.inner.clone(),
        }
    }

    pub fn is_local(&self, node: NodeId) -> bool {
        self.inner.local.contains(&node)
    }

    /// (data frames out, data frames in) — the env loop watches these for
    /// wire stability before declaring the computation idle.
    pub fn data_counters(&self) -> (u64, u64) {
        (
            self.inner.stats.data_out.load(Ordering::Relaxed),
            self.inner.stats.data_in.load(Ordering::Relaxed),
        )
    }

    pub fn ever_connected(&self) -> bool {
        self.inner.ever_connected.load(Ordering::Acquire)
    }

    pub fn peers_all_gone(&self) -> bool {
        self.inner.peers_all_gone()
    }

    pub fn all_remotes_down(&self) -> bool {
        self.inner.all_remotes_down()
    }

    /// Register the `Notify` to ping when a topology edge lands (route
    /// installed, connection died, dialer gave up). `run_distributed`
    /// passes the scheduler pool's idle `Notify` here, so the
    /// environment loop has exactly one thing to park on for both "the
    /// sites went idle" and "the wire changed shape".
    pub fn set_activity_notify(&self, n: Arc<Notify>) {
        *self.inner.activity.lock() = Some(n);
    }

    /// Remote nodes currently considered dead (heartbeat silence or
    /// exhausted reconnects).
    pub fn suspects(&self) -> Vec<NodeId> {
        self.inner.suspects()
    }

    /// Install (or clear) the chaos fault-injection hook on outbound
    /// traffic. In distributed runs chaos lives here, at the wire, and
    /// the node-local fabric stays clean — a packet faces one roll of
    /// the dice, not one per hop.
    pub fn set_chaos(&self, chaos: Option<Arc<ChaosState>>) {
        *self.inner.chaos.write() = chaos;
    }

    pub fn report(&self) -> TransportReport {
        self.inner.report()
    }

    /// Stop all transport threads and close every connection.
    pub fn shutdown(&mut self) {
        self.inner.stop.store(true, Ordering::Release);
        for c in self.inner.conns.lock().iter() {
            c.out.close();
        }
        if let Some(w) = &self.inner.net_wake {
            w.wake();
        }
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Transport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn io_err(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// Consume one inbound frame: control frames (Hello, Heartbeat) update
/// routing and liveness here; data frames are verifier-screened and
/// injected into the local fabric. Shared by both backends — under the
/// event loop the `payload` is a zero-copy view of the read buffer.
fn handle_frame(
    inner: &Arc<Inner>,
    conn: &Arc<PeerConn>,
    frame: codec::Frame,
    got_hello: &mut bool,
) -> std::io::Result<()> {
    inner.stats.frames_in.fetch_add(1, Ordering::Relaxed);
    inner
        .stats
        .bytes_in
        .fetch_add(frame.payload.len() as u64 + 12, Ordering::Relaxed);

    if frame.to == CONTROL_NODE {
        // Control frames are consumed here, never routed.
        let p = codec::decode(frame.payload)
            .map_err(|e| io_err(format!("corrupt control frame: {e}")))?;
        match p {
            Packet::Hello { version, nodes } => {
                if version != WIRE_VERSION {
                    inner
                        .stats
                        .version_mismatches
                        .fetch_add(1, Ordering::Relaxed);
                    return Err(io_err(format!(
                        "wire version mismatch: peer speaks v{version}, we speak v{WIRE_VERSION}"
                    )));
                }
                *got_hello = true;
                *conn.nodes.lock() = nodes.clone();
                inner.install_routes(conn, &nodes);
            }
            Packet::Heartbeat { node, seq } => {
                if !*got_hello {
                    return Err(io_err("control frame before handshake".into()));
                }
                inner.stats.heartbeats_in.fetch_add(1, Ordering::Relaxed);
                let round = inner.round();
                inner.monitor.lock().observe(node, seq, round);
            }
            other => {
                return Err(io_err(format!("unexpected control packet: {other:?}")));
            }
        }
        return Ok(());
    }

    if !*got_hello {
        return Err(io_err("data frame before handshake".into()));
    }
    if !inner.local.contains(&frame.to) {
        // Misrouted: this process does not host the destination node.
        inner.stats.dropped.fetch_add(1, Ordering::Relaxed);
        return Ok(());
    }
    // Trust boundary: decode and screen BEFORE anything reaches a daemon.
    // The admitted original bytes are injected (the daemon re-decodes);
    // rejected ones vanish here, counted.
    match codec::decode(frame.payload.clone()) {
        Ok(p) => {
            if Daemon::screen(&p).is_some() {
                inner.stats.rejected.fetch_add(1, Ordering::Relaxed);
            } else {
                inner.stats.data_in.fetch_add(1, Ordering::Relaxed);
                inner.local_fabric.send(frame.from, frame.to, frame.payload);
            }
        }
        Err(_) => {
            inner.stats.rejected.fetch_add(1, Ordering::Relaxed);
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Thread-per-peer: the transport on targets without the Linux poller,
// and under test everywhere so it stays type-checked and exercised. A
// 20ms-sleep accept loop, one blocking connector thread per peer
// address, a heartbeat thread, and a blocking reader + condvar-parked
// writer per live connection.
// ---------------------------------------------------------------------

#[cfg(any(test, not(target_os = "linux")))]
mod threads {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    /// Spawn thread-per-peer's service threads: the accept loop, one
    /// connector per peer address, and the heartbeat beacon.
    pub(super) fn spawn(
        inner: &Arc<Inner>,
        listener: Option<TcpListener>,
        threads: &mut Vec<std::thread::JoinHandle<()>>,
    ) -> Result<(), String> {
        if let Some(l) = listener {
            let inner2 = inner.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("tyco-accept".into())
                    .spawn(move || accept_loop(inner2, l))
                    .map_err(|e| format!("spawn accept thread: {e}"))?,
            );
        }
        for (i, addr) in inner.cfg.peers.clone().into_iter().enumerate() {
            let inner2 = inner.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("tyco-dial-{i}"))
                    .spawn(move || connector_loop(inner2, addr))
                    .map_err(|e| format!("spawn connector thread: {e}"))?,
            );
        }
        let inner2 = inner.clone();
        threads.push(
            std::thread::Builder::new()
                .name("tyco-heartbeat".into())
                .spawn(move || heartbeat_loop(inner2))
                .map_err(|e| format!("spawn heartbeat thread: {e}"))?,
        );
        Ok(())
    }

    /// Sleep in short slices so shutdown is never blocked on a long backoff.
    fn sleep_stoppable(inner: &Inner, dur: Duration) {
        let deadline = Instant::now() + dur;
        while !inner.stop.load(Ordering::Acquire) {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return;
            }
            std::thread::sleep(left.min(Duration::from_millis(25)));
        }
    }

    fn accept_loop(inner: Arc<Inner>, listener: TcpListener) {
        while !inner.stop.load(Ordering::Acquire) {
            match listener.accept() {
                Ok((sock, _addr)) => {
                    let _ = sock.set_nonblocking(false);
                    let inner2 = inner.clone();
                    // Detached: the handler exits within one read timeout of
                    // `stop` being raised.
                    let _ = std::thread::Builder::new()
                        .name("tyco-conn".into())
                        .spawn(move || {
                            let _ = run_connection(&inner2, sock, true);
                        });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }

    fn connector_loop(inner: Arc<Inner>, addr: SocketAddr) {
        let mut attempts: u32 = 0;
        // Nodes the most recent successful connection to this address
        // announced; they are declared permanently down when the retry
        // budget runs out.
        let mut last_nodes: Vec<NodeId> = Vec::new();
        while !inner.stop.load(Ordering::Acquire) {
            match TcpStream::connect_timeout(&addr, inner.cfg.connect_timeout) {
                Ok(sock) => {
                    if attempts > 0 {
                        inner.stats.reconnects.fetch_add(1, Ordering::Relaxed);
                    }
                    attempts = 0;
                    let (conn, _res) = run_connection(&inner, sock, false);
                    last_nodes = conn.nodes.lock().clone();
                    if inner.stop.load(Ordering::Acquire) {
                        return;
                    }
                }
                Err(_) => {
                    if attempts >= inner.cfg.max_retries {
                        inner.peer_exhausted(&last_nodes);
                        return;
                    }
                    let delay =
                        backoff_delay(inner.cfg.backoff_base, inner.cfg.backoff_cap, attempts);
                    attempts += 1;
                    sleep_stoppable(&inner, delay);
                }
            }
        }
        inner.connectors_done.fetch_add(1, Ordering::Release);
    }

    /// Drive one established socket until it dies or the transport stops:
    /// spawn the writer, run the reader inline, tear down routes at the end.
    /// Returns the connection record (for the peer's announced nodes) plus
    /// the reader's verdict.
    fn run_connection(
        inner: &Arc<Inner>,
        sock: TcpStream,
        accepted: bool,
    ) -> (Arc<PeerConn>, std::io::Result<()>) {
        let conn = PeerConn::new(inner.cfg.outbound_cap, accepted);
        let _ = sock.set_nodelay(true);
        if let Err(e) = sock.set_read_timeout(Some(Duration::from_millis(50))) {
            return (conn, Err(e));
        }
        conn.out.push(inner.hello_frame());
        inner.conns.lock().push(conn.clone());
        inner.ever_connected.store(true, Ordering::Release);

        let write_sock = match sock.try_clone() {
            Ok(s) => s,
            Err(e) => {
                conn.alive.store(false, Ordering::Release);
                conn.out.close();
                return (conn, Err(e));
            }
        };
        let writer = {
            let inner2 = inner.clone();
            let conn2 = conn.clone();
            std::thread::Builder::new()
                .name("tyco-write".into())
                .spawn(move || writer_loop(inner2, conn2, write_sock))
        };

        let res = read_loop(inner, &conn, sock);

        conn.alive.store(false, Ordering::Release);
        conn.out.close();
        // A dead accepted connection means the peer departed (it may dial
        // back in, which re-installs routes); a dead outbound one is retried
        // by our connector, so its nodes are only *suspect*, not gone.
        inner.drop_routes(&conn, accepted);
        if let Ok(w) = writer {
            let _ = w.join();
        }
        (conn, res)
    }

    fn writer_loop(inner: Arc<Inner>, conn: Arc<PeerConn>, mut sock: TcpStream) {
        let mut batch: Vec<Bytes> = Vec::new();
        loop {
            let open = conn.out.drain_wait(&mut batch, Duration::from_millis(50));
            if inner.stop.load(Ordering::Acquire) && batch.is_empty() {
                return;
            }
            for buf in batch.drain(..) {
                if sock.write_all(&buf).is_err() {
                    conn.alive.store(false, Ordering::Release);
                    conn.out.close();
                    return;
                }
                inner
                    .stats
                    .bytes_out
                    .fetch_add(buf.len() as u64, Ordering::Relaxed);
            }
            if !open {
                return;
            }
        }
    }

    fn read_loop(
        inner: &Arc<Inner>,
        conn: &Arc<PeerConn>,
        mut sock: TcpStream,
    ) -> std::io::Result<()> {
        let mut pending: Vec<u8> = Vec::with_capacity(16 * 1024);
        let mut scratch = vec![0u8; 64 * 1024];
        let mut got_hello = false;
        loop {
            if inner.stop.load(Ordering::Acquire) || !conn.alive.load(Ordering::Acquire) {
                return Ok(());
            }
            match sock.read(&mut scratch) {
                Ok(0) => return Ok(()), // peer closed
                Ok(n) => {
                    pending.extend_from_slice(&scratch[..n]);
                    let mut consumed = 0;
                    loop {
                        match codec::decode_frame(&pending[consumed..]) {
                            Ok(None) => break,
                            Ok(Some((frame, used))) => {
                                consumed += used;
                                handle_frame(inner, conn, frame, &mut got_hello)?;
                            }
                            Err(e) => return Err(io_err(format!("corrupt stream: {e}"))),
                        }
                    }
                    pending.drain(..consumed);
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn heartbeat_loop(inner: Arc<Inner>) {
        while !inner.stop.load(Ordering::Acquire) {
            sleep_stoppable(&inner, inner.cfg.hb_period);
            if inner.stop.load(Ordering::Acquire) {
                return;
            }
            inner.flush_due_delayed();
            let chaos = inner.chaos.read().clone();
            let seq = inner.hb_seq.fetch_add(1, Ordering::Relaxed) + 1;
            let mut frames = Vec::with_capacity(inner.cfg.local_nodes.len());
            for &n in &inner.cfg.local_nodes {
                let p = Packet::Heartbeat { node: n, seq };
                frames.push((n, codec::encode_frame(n, CONTROL_NODE, &codec::encode(&p))));
            }
            for conn in inner.conns.lock().iter() {
                if !conn.alive.load(Ordering::Acquire) {
                    continue;
                }
                let peer_nodes = match &chaos {
                    Some(_) => conn.nodes.lock().clone(),
                    None => Vec::new(),
                };
                for (n, f) in &frames {
                    if let Some(ch) = &chaos {
                        // A partition that cuts every announced peer node
                        // silences the beacon too — that is what drives the
                        // failure monitor during a partition soak.
                        if ch.hb_blocked(*n, &peer_nodes) {
                            continue;
                        }
                    }
                    if conn.out.push(f.clone()).is_some() {
                        inner.stats.frames_out.fetch_add(1, Ordering::Relaxed);
                    } else {
                        inner.stats.dropped.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peer_list_parses_good_addresses() {
        let got = parse_peer_list("127.0.0.1:9000, 127.0.0.1:9001").unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].port(), 9000);
        assert_eq!(got[1].port(), 9001);
    }

    #[test]
    fn peer_list_rejects_bad_addresses_with_diagnostics() {
        let e = parse_peer_list("127.0.0.1:9000,,127.0.0.1:9001").unwrap_err();
        assert!(e.contains("empty peer address"), "{e}");
        let e = parse_peer_list("not an address").unwrap_err();
        assert!(e.contains("not an address"), "{e}");
        let e = parse_peer_list("127.0.0.1:notaport").unwrap_err();
        assert!(e.contains("notaport"), "{e}");
        assert!(parse_peer_list("").is_err());
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let base = Duration::from_millis(50);
        let cap = Duration::from_secs(2);
        let delays: Vec<u64> = (0..8)
            .map(|a| backoff_delay(base, cap, a).as_millis() as u64)
            .collect();
        assert_eq!(delays, vec![50, 100, 200, 400, 800, 1600, 2000, 2000]);
        // No overflow at absurd attempt counts.
        assert_eq!(backoff_delay(base, cap, u32::MAX), cap);
    }

    #[test]
    fn out_queue_bounds_reports_depth_and_closes() {
        let q = OutQueue::new(2);
        assert_eq!(q.push(Bytes::from_static(b"a")), Some(1));
        assert_eq!(
            q.push(Bytes::from_static(b"b")),
            Some(2),
            "depth is hwm food"
        );
        assert_eq!(
            q.push(Bytes::from_static(b"c")),
            None,
            "over cap is dropped"
        );
        let mut out = Vec::new();
        assert!(q.drain_wait(&mut out, Duration::from_millis(1)));
        assert_eq!(out.len(), 2);
        q.close();
        assert!(q.push(Bytes::from_static(b"d")).is_none(), "closed refuses");
        let mut out2 = Vec::new();
        assert!(
            !q.drain_wait(&mut out2, Duration::from_millis(1)),
            "closed and drained"
        );
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn out_queue_try_drain_never_blocks() {
        let q = OutQueue::new(4);
        let mut out = Vec::new();
        q.try_drain(&mut out);
        assert!(out.is_empty());
        q.push(Bytes::from_static(b"x"));
        q.try_drain(&mut out);
        assert_eq!(out.len(), 1);
    }

    /// Thread-per-peer carries the wire only off Linux, so this is what
    /// keeps it exercised: two transports on it handshake over loopback
    /// and echo one data packet there and back.
    #[test]
    fn thread_per_peer_handshakes_and_echoes() {
        use crate::fabric::{Fabric, FabricMode, LinkProfile};
        let (a, b) = (NodeId(0), NodeId(1));
        let fabric_a = Fabric::new(FabricMode::Ideal, LinkProfile::ideal());
        let inbox_a = fabric_a.register_node(a);
        let mut hub = Transport::launch(
            TransportConfig {
                local_nodes: vec![a],
                listen: Some("127.0.0.1:0".parse().unwrap()),
                ..TransportConfig::default()
            },
            fabric_a.handle(),
            Prepared::threads,
        )
        .expect("hub starts");
        let fabric_b = Fabric::new(FabricMode::Ideal, LinkProfile::ideal());
        let inbox_b = fabric_b.register_node(b);
        let mut client = Transport::launch(
            TransportConfig {
                local_nodes: vec![b],
                peers: vec![hub.local_addr().expect("bound")],
                ..TransportConfig::default()
            },
            fabric_b.handle(),
            Prepared::threads,
        )
        .expect("client starts");

        // Sent before the handshake lands: parked, then flushed once the
        // hub's Hello installs the route.
        let ping = codec::encode(&Packet::Heartbeat { node: b, seq: 7 });
        client.handle().send(b, a, ping.clone());
        let wait = Duration::from_secs(10);
        let (from, got) = inbox_a.recv_timeout(wait).expect("hub receives");
        assert_eq!((from, &got), (b, &ping));
        hub.handle().send(a, from, got);
        let (from, echo) = inbox_b.recv_timeout(wait).expect("client receives echo");
        assert_eq!((from, &echo), (a, &ping));

        assert!(hub.ever_connected() && client.ever_connected());
        client.shutdown();
        hub.shutdown();
        let (h, c) = (hub.report(), client.report());
        assert_eq!((h.data_in, h.data_out), (1, 1));
        assert_eq!((c.data_in, c.data_out), (1, 1));
        assert_eq!(h.rejected + c.rejected + h.dropped + c.dropped, 0);
    }
}
