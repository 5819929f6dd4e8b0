//! A raw-wire DiTyCO peer: one TCP connection speaking the real frame
//! protocol (`Hello`, data frames, wire heartbeats) without a daemon or
//! a VM behind it. The benchmark's callers, probers and watchers are
//! raw peers, so they carry their own clock and can time single calls.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};
use tyco_vm::codec::{self, Packet, CONTROL_NODE, WIRE_VERSION};
use tyco_vm::program::ImportKind;
use tyco_vm::wire::WireWord;
use tyco_vm::word::{Identity, NetRef, NodeId, SiteId};

/// The site id raw peers put in the reply references they hand out. No
/// site of the topology uses it; daemons route replies by node.
pub const RAW_SITE: SiteId = SiteId(0xFFFF);

pub struct RawPeer {
    pub node: NodeId,
    sock: TcpStream,
    rbuf: Vec<u8>,
    rpos: usize,
    hb_seq: u64,
    hb_period: Duration,
    next_hb: Instant,
}

impl RawPeer {
    /// Dial `addr` until it accepts or `deadline` passes, then send the
    /// `Hello` that announces `node` and wait for the server's own.
    pub fn connect(
        addr: SocketAddr,
        node: NodeId,
        hb_period: Duration,
        deadline: Instant,
    ) -> io::Result<RawPeer> {
        let sock = loop {
            match TcpStream::connect_timeout(&addr, Duration::from_millis(200)) {
                Ok(s) => break s,
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        };
        sock.set_nodelay(true)?;
        let mut peer = RawPeer {
            node,
            sock,
            rbuf: Vec::with_capacity(64 * 1024),
            rpos: 0,
            hb_seq: 0,
            hb_period,
            next_hb: Instant::now() + hb_period,
        };
        let hello = Packet::Hello {
            version: WIRE_VERSION,
            nodes: vec![node],
        };
        peer.send(CONTROL_NODE, &hello)?;
        // The server answers with its own Hello before any data frame.
        peer.recv_until(deadline, |p| matches!(p, Packet::Hello { .. }))?;
        Ok(peer)
    }

    pub fn fd(&self) -> RawFd {
        self.sock.as_raw_fd()
    }

    /// Encode `p` as one frame from this peer's node to `to` and write it.
    pub fn send(&mut self, to: NodeId, p: &Packet) -> io::Result<()> {
        let frame = codec::encode_frame(self.node, to, &codec::encode(p));
        self.sock.write_all(&frame)
    }

    /// Send a wire heartbeat if one is due, so the server's failure
    /// monitor never suspects this peer. Returns the next due instant.
    pub fn heartbeat(&mut self, now: Instant) -> io::Result<Instant> {
        if now >= self.next_hb {
            self.hb_seq += 1;
            let beat = Packet::Heartbeat {
                node: self.node,
                seq: self.hb_seq,
            };
            self.send(CONTROL_NODE, &beat)?;
            self.next_hb = now + self.hb_period;
        }
        Ok(self.next_hb)
    }

    /// One `read` of whatever the socket holds (the caller knows it is
    /// readable, or accepts blocking up to the socket's read timeout).
    pub fn fill(&mut self) -> io::Result<()> {
        if self.rpos >= self.rbuf.len() / 2 {
            self.rbuf.drain(..self.rpos);
            self.rpos = 0;
        }
        let mut chunk = [0u8; 16 * 1024];
        match self.sock.read(&mut chunk) {
            Ok(0) => Err(io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed")),
            Ok(n) => {
                self.rbuf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Ok(())
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// The next complete frame already buffered, decoded; `None` when
    /// only a partial frame (or nothing) is buffered.
    pub fn next_packet(&mut self) -> io::Result<Option<Packet>> {
        let rest = &self.rbuf[self.rpos..];
        match codec::decode_frame(rest) {
            Ok(Some((frame, used))) => {
                self.rpos += used;
                let p = codec::decode(frame.payload)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.0))?;
                Ok(Some(p))
            }
            Ok(None) => Ok(None),
            Err(e) => Err(io::Error::new(io::ErrorKind::InvalidData, e.0)),
        }
    }

    /// Block until a packet satisfying `want` arrives (other packets are
    /// dropped) or `deadline` passes; heartbeats keep flowing meanwhile.
    pub fn recv_until(
        &mut self,
        deadline: Instant,
        mut want: impl FnMut(&Packet) -> bool,
    ) -> io::Result<Packet> {
        loop {
            while let Some(p) = self.next_packet()? {
                if want(&p) {
                    return Ok(p);
                }
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "no reply by deadline",
                ));
            }
            let next_hb = self.heartbeat(now)?;
            let wait = deadline.min(next_hb).saturating_duration_since(now);
            self.sock
                .set_read_timeout(Some(wait.max(Duration::from_millis(1))))?;
            self.fill()?;
        }
    }

    /// Resolve `site.name` through the name service on `ns_node` and
    /// return the channel it is bound to.
    pub fn import_name(
        &mut self,
        ns_node: NodeId,
        site: &str,
        name: &str,
        deadline: Instant,
    ) -> io::Result<NetRef> {
        let req = u64::from(self.node.0) << 32;
        let ask = Packet::NsImport {
            req,
            site: site.to_string(),
            name: name.to_string(),
            kind: ImportKind::Name,
            reply_to: Identity {
                site: RAW_SITE,
                node: self.node,
            },
            expect: None,
        };
        self.send(ns_node, &ask)?;
        let reply = self.recv_until(
            deadline,
            |p| matches!(p, Packet::NsImportReply { req: r, .. } if *r == req),
        )?;
        match reply {
            Packet::NsImportReply {
                result: Ok(WireWord::Chan(r)),
                ..
            } => Ok(r),
            other => Err(io::Error::other(format!(
                "import of {site}.{name} failed: {other:?}"
            ))),
        }
    }

    /// A reply reference for call `id`: the server answers on it and the
    /// daemon routes the answer back to this peer's node.
    pub fn reply_ref(&self, id: u64) -> NetRef {
        NetRef {
            heap_id: id,
            site: RAW_SITE,
            node: self.node,
        }
    }
}

/// A loopback address that was free a moment ago, for a partition that
/// binds its own listener. The port lies below the kernel's ephemeral
/// range, so no connection this process dials before the partition has
/// bound it can be handed the same port (and connect to itself).
pub fn free_addr() -> io::Result<SocketAddr> {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let floor: u32 = std::fs::read_to_string("/proc/sys/net/ipv4/ip_local_port_range")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(32768);
    let base = 10_000;
    let span = floor.saturating_sub(base).max(1);
    let start = std::process::id().wrapping_mul(7919);
    for _ in 0..span {
        let port = base + start.wrapping_add(NEXT.fetch_add(1, Ordering::Relaxed)) % span;
        if let Ok(l) = std::net::TcpListener::bind(("127.0.0.1", port as u16)) {
            return l.local_addr();
        }
    }
    Err(io::Error::new(
        io::ErrorKind::AddrInUse,
        "no free loopback port",
    ))
}
