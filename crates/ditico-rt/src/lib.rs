//! # ditico-rt
//!
//! The DiTyCO distributed runtime (§5 of the paper): sites, nodes and
//! networks.
//!
//! * [`site`] — sites as extended TyCO virtual machines with
//!   incoming/outgoing queues ([`site::RtPort`] implements the VM's
//!   network port);
//! * [`daemon`] — TyCOd, the per-node communication daemon: shared-memory
//!   local delivery, byte-encoded remote forwarding, name-service hosting;
//! * [`codecache`] — the node-level content-addressed store for mobile
//!   code backing single-flight fetch coalescing, wire-level dedup and
//!   verify-once linking;
//! * [`nameservice`] — the Network Name Service (SiteTable + IdTable),
//!   with blocking lookups, routed by one shard map: one owner as in the
//!   paper, or sharded by consistent hashing; either way each key is
//!   replicated and a down owner fails over to the next replica;
//! * [`namecache`] — the node-level lease cache of resolved bindings
//!   granted by a leasing name service (warm repeat imports are
//!   zero-wire);
//! * [`fabric`] — the simulated interconnect (Myrinet / Fast Ethernet /
//!   WAN link profiles; ideal, virtual-time and real-time delivery);
//! * [`cluster`] — the environment tying it together, with deterministic
//!   execution and one wall-clock runner (in-process or over TCP);
//! * [`sched`] — the M:N work-stealing scheduler threaded execution runs
//!   on: thousands of sites multiplexed over a fixed worker pool with
//!   edge-triggered readiness;
//! * [`termination`] — Mattern-style four-counter termination detection,
//!   counted where queues hand packets over (§7 future work);
//! * [`failure`] — heartbeat failure detection, whose verdicts drive
//!   name-service failover over replicas (§5/§7 future work);
//! * [`transport`] — the real TCP transport: length-prefixed frames over
//!   sockets on one event loop (thread-per-peer off Linux), reconnect
//!   with backoff, wire heartbeats feeding the failure monitor, verifier
//!   screening at the process boundary.

pub mod chaos;
pub mod cluster;
pub mod codecache;
pub mod daemon;
pub mod fabric;
pub mod failure;
pub mod namecache;
pub mod nameservice;
// Linux-only: the module's hand-declared syscall constants and sockaddr
// layouts are Linux's (see its module docs); other targets use the
// thread-per-peer transport backend.
#[cfg(target_os = "linux")]
pub mod poller;
pub mod sched;
pub mod site;
pub mod termination;
pub mod transport;
pub mod wake;

pub use chaos::{ChaosEvent, ChaosPlan, ChaosReport, ChaosSpec, ChaosState};
pub use cluster::{Cluster, RunLimits, RunReport};
pub use codecache::CodeCache;
pub use daemon::{CodeCacheStats, Daemon, DaemonStats};
pub use fabric::{Fabric, FabricHandle, FabricMode, FabricStats, LinkProfile, PacketFabric};
pub use failure::FailureMonitor;
pub use namecache::{NameCache, NameCacheStats};
pub use nameservice::{NameService, NsShardMap, NsStats};
pub use sched::{SchedConfig, SchedStats};
pub use site::{RtIncoming, RtPort, Site, SiteInterface, SliceOutcome};
pub use termination::{Outbox, Snapshot, TermCounters, TerminationDetector};
pub use transport::{parse_peer_list, NetHandle, Transport, TransportConfig, TransportReport};
pub use wake::Notify;
