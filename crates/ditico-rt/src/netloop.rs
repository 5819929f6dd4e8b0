//! The transport's readiness-driven event loop: the backend on Linux.
//!
//! One `tyco-net` thread owns the listener, every peer socket, every
//! in-flight dial and every deadline. It parks in [`Poller::wait`] with
//! the timer wheel's next deadline as its timeout and is interrupted by
//! exactly three things: socket readiness, a timer firing, or a producer
//! thread ringing the wake pipe after queuing outbound frames. Where the
//! thread-per-peer transport spends `2·peers + 3` threads and a tangle of
//! sleep loops, this file spends one thread and zero sleeps.
//!
//! Design points, argued in DESIGN.md §15:
//!
//! * **Zero-copy inbound.** Reads land directly in a per-connection
//!   `BytesMut` tail; once at least one complete frame is buffered the
//!   accumulator is frozen and frames are carved off as [`Bytes`] views
//!   (`codec::decode_frame_view`), so a payload crosses from kernel to
//!   daemon with a single copy at the `read` call. The partial tail, if
//!   any, is copied into the next accumulator — bounded by one frame,
//!   amortized O(1) per byte. Payloads tiny relative to the accumulator
//!   are copied out rather than handed over as views, so a retained
//!   small payload never pins the whole read buffer ([`PIN_DENOM`]).
//! * **Writable-gated vectored output.** Each connection keeps a deque
//!   of ready frame buffers; flushes gather up to [`MAX_IOV`] of them
//!   into one `write_vectored`. `EWOULDBLOCK` registers writable
//!   interest and parks the backlog (counted in `flush_stalls`) instead
//!   of parking a writer thread.
//! * **Concurrent dials.** Every peer address holds a nonblocking
//!   connect in flight simultaneously ([`poller::connect_start`]); the
//!   connect timeout and reconnect backoff are wheel deadlines. One dead
//!   peer costs one quiet socket, never a blocked thread.

use super::{backoff_delay, handle_frame, io_err, Inner, PeerConn};
use crate::poller::{
    connect_start, ConnectStart, Event, Interest, PendingConnect, Poller, TimerId, TimerWheel,
    WakeReader,
};
use bytes::{Buf, Bytes, BytesMut};
use std::collections::VecDeque;
use std::io::{IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tyco_vm::codec::{self, Packet, CONTROL_NODE, MAX_FRAME_LEN};
use tyco_vm::word::NodeId;

const TOKEN_WAKE: usize = 0;
const TOKEN_LISTENER: usize = 1;
/// Connection/dial slots start here; `token - SLOT_BASE` indexes `slots`.
const SLOT_BASE: usize = 2;

/// Bytes appended to the read accumulator per `read` call.
const READ_CHUNK: usize = 64 * 1024;
/// Reads per readiness event before yielding to other connections —
/// level-triggered polling re-reports leftover data, so fairness costs
/// nothing.
const READ_BUDGET: usize = 4;
/// Buffers gathered into one `write_vectored` (well under IOV_MAX).
const MAX_IOV: usize = 64;
/// Pin-amplification bound for zero-copy payload views: a decoded
/// payload smaller than `1/PIN_DENOM` of its backing read accumulator is
/// copied out instead of handed over as a view. A retained `Bytes` then
/// pins at most `PIN_DENOM`× its own size — never the whole multi-frame
/// accumulator (up to `READ_BUDGET × READ_CHUNK`) on behalf of one small
/// long-lived payload. Large payloads, where the copy would actually
/// cost something, stay zero-copy: they already *are* most of the buffer
/// they pin.
const PIN_DENOM: usize = 8;
/// Park ceiling: bounds stop-flag latency even if the wheel is empty.
const MAX_PARK: Duration = Duration::from_millis(500);

/// A connection being served: socket, owner record, decode accumulator
/// and outbound backlog.
struct ConnSlot {
    sock: TcpStream,
    peer: Arc<PeerConn>,
    /// Inbound accumulator; frozen into `Bytes` when a frame completes.
    rbuf: BytesMut,
    got_hello: bool,
    /// Outbound frames not yet on the wire; front buffer is `woff` in.
    wbufs: VecDeque<Bytes>,
    woff: usize,
    /// Whether writable interest is currently registered.
    want_write: bool,
    /// Index of the dialer that owns this connection (outbound only).
    dialer: Option<usize>,
}

/// A nonblocking connect in flight, waiting for writability or timeout.
struct DialSlot {
    pending: PendingConnect,
    dialer: usize,
    timer: Option<TimerId>,
}

enum Slot {
    Conn(ConnSlot),
    Dial(DialSlot),
}

/// Per-peer-address dial state: the event-loop re-encoding of what the
/// thread-per-peer `connector_loop` keeps on its thread's stack.
struct Dialer {
    addr: SocketAddr,
    attempts: u32,
    /// Nodes the last successful connection announced — declared
    /// permanently down if the retry budget runs out.
    last_nodes: Vec<NodeId>,
    done: bool,
}

#[derive(Clone, Copy)]
enum Timer {
    /// Periodic beacon on every live connection.
    Heartbeat,
    /// Reconnect backoff elapsed for dialer `.0`.
    Redial(usize),
    /// In-flight connect in slot `.0` ran out of patience.
    ConnectTimeout(usize),
}

struct NetLoop {
    inner: Arc<Inner>,
    poller: Poller,
    listener: Option<TcpListener>,
    wake_rx: WakeReader,
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    dialers: Vec<Dialer>,
    wheel: TimerWheel<Timer>,
}

/// The poller with the wake pipe and listener already registered. Built
/// by [`prepare`] on `Transport::start`'s own thread so that a poller or
/// registration failure becomes a start error the caller sees — never a
/// silently dead `tyco-net` thread behind a transport that reported
/// success and then neither accepts, dials, nor beacons.
pub(super) struct NetIo {
    poller: Poller,
    listener: Option<TcpListener>,
    wake_rx: WakeReader,
}

pub(super) fn prepare(
    listener: Option<TcpListener>,
    wake_rx: WakeReader,
) -> std::io::Result<NetIo> {
    let mut poller = Poller::new()?;
    poller.register(wake_rx.raw_fd(), TOKEN_WAKE, Interest::READ)?;
    if let Some(l) = &listener {
        poller.register(l.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
    }
    Ok(NetIo {
        poller,
        listener,
        wake_rx,
    })
}

/// Entry point for the `tyco-net` thread.
pub(super) fn run(inner: Arc<Inner>, io: NetIo) {
    let NetIo {
        poller,
        listener,
        wake_rx,
    } = io;
    let dialers = inner
        .cfg
        .peers
        .iter()
        .map(|&addr| Dialer {
            addr,
            attempts: 0,
            last_nodes: Vec::new(),
            done: false,
        })
        .collect::<Vec<_>>();
    let hb_period = inner.cfg.hb_period;
    let mut nl = NetLoop {
        inner,
        poller,
        listener,
        wake_rx,
        slots: Vec::new(),
        free: Vec::new(),
        dialers,
        wheel: TimerWheel::new(Duration::from_millis(5), 256),
    };
    // Every dial starts NOW, concurrently — nothing serializes one
    // peer's connect behind another's.
    for i in 0..nl.dialers.len() {
        nl.start_dial(i);
    }
    nl.wheel.schedule_after(hb_period, Timer::Heartbeat);
    nl.run_loop();
    nl.shutdown_flush();
}

impl NetLoop {
    fn run_loop(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut due: Vec<Timer> = Vec::new();
        while !self.inner.stop.load(Ordering::Acquire) {
            let timeout = self
                .wheel
                .next_deadline()
                .map(|d| d.saturating_duration_since(Instant::now()))
                .unwrap_or(MAX_PARK)
                .min(MAX_PARK);
            events.clear();
            if self.poller.wait(&mut events, Some(timeout)).is_err() {
                return;
            }
            if self.inner.stop.load(Ordering::Acquire) {
                return;
            }
            for ev in &events {
                match ev.token {
                    TOKEN_WAKE => self.wake_rx.drain(),
                    TOKEN_LISTENER => self.accept_ready(),
                    t => self.slot_ready(t - SLOT_BASE, *ev),
                }
            }
            // Producers queued frames since the last pass: flush exactly
            // the connections they touched, O(marked) not O(conns).
            self.drain_dirty();
            due.clear();
            self.wheel.expire(Instant::now(), &mut due);
            for t in &due {
                match *t {
                    Timer::Heartbeat => {
                        self.emit_heartbeats();
                        self.wheel
                            .schedule_after(self.inner.cfg.hb_period, Timer::Heartbeat);
                    }
                    Timer::Redial(didx) => self.start_dial(didx),
                    Timer::ConnectTimeout(idx) => self.connect_timed_out(idx),
                }
            }
        }
    }

    fn alloc_slot(&mut self, slot: Slot) -> usize {
        match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(slot);
                i
            }
            None => {
                self.slots.push(Some(slot));
                self.slots.len() - 1
            }
        }
    }

    fn take_slot(&mut self, idx: usize) -> Option<Slot> {
        let s = self.slots.get_mut(idx)?.take();
        if s.is_some() {
            self.free.push(idx);
        }
        s
    }

    fn slot_ready(&mut self, idx: usize, ev: Event) {
        match self.slots.get(idx) {
            Some(Some(Slot::Dial(_))) if ev.writable || ev.closed => self.resolve_dial(idx),
            Some(Some(Slot::Dial(_))) => {}
            Some(Some(Slot::Conn(_))) => {
                if ev.readable || ev.closed {
                    self.conn_read(idx);
                }
                // Flush regardless: a handshake handled during the read
                // may have queued stashed frames, and a writable event
                // means the parked backlog can move.
                if matches!(self.slots.get(idx), Some(Some(Slot::Conn(_)))) {
                    self.conn_flush(idx);
                }
            }
            _ => {} // stale event for a slot already torn down
        }
    }

    // --- accepting ----------------------------------------------------

    fn accept_ready(&mut self) {
        let mut incoming = Vec::new();
        if let Some(l) = &self.listener {
            while let Ok((sock, _addr)) = l.accept() {
                incoming.push(sock);
            }
        }
        for sock in incoming {
            let _ = self.install_conn(sock, true, None);
        }
    }

    /// Wrap an established socket into a connection slot: nonblocking,
    /// registered for reads, hello queued and flushed.
    fn install_conn(
        &mut self,
        sock: TcpStream,
        accepted: bool,
        dialer: Option<usize>,
    ) -> std::io::Result<()> {
        sock.set_nonblocking(true)?;
        let _ = sock.set_nodelay(true);
        let fd = sock.as_raw_fd();
        let peer = PeerConn::new(self.inner.cfg.outbound_cap, accepted);
        let mut wbufs = VecDeque::new();
        wbufs.push_back(self.inner.hello_frame());
        let idx = self.alloc_slot(Slot::Conn(ConnSlot {
            sock,
            peer: peer.clone(),
            rbuf: BytesMut::new(),
            got_hello: false,
            wbufs,
            woff: 0,
            want_write: false,
            dialer,
        }));
        if let Err(e) = self.poller.register(fd, idx + SLOT_BASE, Interest::READ) {
            self.take_slot(idx);
            return Err(e);
        }
        // Only a registered connection is published: `peers_all_gone`
        // and the dirty path must never see a socket the loop cannot
        // service.
        peer.token.store(idx + SLOT_BASE, Ordering::Release);
        self.inner.conns.lock().push(peer);
        self.inner.ever_connected.store(true, Ordering::Release);
        self.conn_flush(idx);
        Ok(())
    }

    // --- dialing ------------------------------------------------------

    fn start_dial(&mut self, didx: usize) {
        if self.inner.stop.load(Ordering::Acquire) || self.dialers[didx].done {
            return;
        }
        let addr = self.dialers[didx].addr;
        match connect_start(&addr) {
            Ok(ConnectStart::Connected(sock)) => self.dial_connected(didx, sock),
            Ok(ConnectStart::Pending(p)) => {
                let fd = p.raw_fd();
                let idx = self.alloc_slot(Slot::Dial(DialSlot {
                    pending: p,
                    dialer: didx,
                    timer: None,
                }));
                if self
                    .poller
                    .register(fd, idx + SLOT_BASE, Interest::WRITE)
                    .is_err()
                {
                    self.take_slot(idx);
                    self.dial_failed(didx);
                    return;
                }
                let tid = self
                    .wheel
                    .schedule_after(self.inner.cfg.connect_timeout, Timer::ConnectTimeout(idx));
                if let Some(Some(Slot::Dial(d))) = self.slots.get_mut(idx) {
                    d.timer = Some(tid);
                }
            }
            Err(_) => self.dial_failed(didx),
        }
    }

    /// The socket reported writable (or errored): the connect resolved.
    fn resolve_dial(&mut self, idx: usize) {
        let Some(Slot::Dial(d)) = self.take_slot(idx) else {
            return;
        };
        if let Some(t) = d.timer {
            self.wheel.cancel(t);
        }
        let _ = self.poller.deregister(d.pending.raw_fd());
        match d.pending.finish() {
            Ok(sock) => self.dial_connected(d.dialer, sock),
            Err(_) => self.dial_failed(d.dialer),
        }
    }

    fn connect_timed_out(&mut self, idx: usize) {
        // Only meaningful if the slot still holds the dial this timer was
        // armed for (resolution cancels its timer, so a reused slot index
        // can never be hit by a stale timeout).
        if matches!(self.slots.get(idx), Some(Some(Slot::Dial(_)))) {
            let Some(Slot::Dial(d)) = self.take_slot(idx) else {
                return;
            };
            let _ = self.poller.deregister(d.pending.raw_fd());
            self.dial_failed(d.dialer);
        }
    }

    fn dial_connected(&mut self, didx: usize, sock: TcpStream) {
        if self.dialers[didx].attempts > 0 {
            self.inner.stats.reconnects.fetch_add(1, Ordering::Relaxed);
        }
        self.dialers[didx].attempts = 0;
        if self.install_conn(sock, false, Some(didx)).is_err() {
            self.dial_failed(didx);
        }
    }

    fn dial_failed(&mut self, didx: usize) {
        let d = &mut self.dialers[didx];
        if d.attempts >= self.inner.cfg.max_retries {
            d.done = true;
            let nodes = std::mem::take(&mut d.last_nodes);
            self.inner.peer_exhausted(&nodes);
            return;
        }
        let delay = backoff_delay(
            self.inner.cfg.backoff_base,
            self.inner.cfg.backoff_cap,
            d.attempts,
        );
        d.attempts += 1;
        self.wheel.schedule_after(delay, Timer::Redial(didx));
    }

    // --- reading ------------------------------------------------------

    fn conn_read(&mut self, idx: usize) {
        let mut dead = false;
        {
            let Some(Some(Slot::Conn(c))) = self.slots.get_mut(idx) else {
                return;
            };
            for _ in 0..READ_BUDGET {
                // Read straight into the accumulator's tail — no scratch
                // buffer, no second copy.
                let len = c.rbuf.len();
                c.rbuf.resize(len + READ_CHUNK, 0);
                match c.sock.read(&mut c.rbuf[len..]) {
                    Ok(0) => {
                        c.rbuf.truncate(len);
                        dead = true; // peer closed
                        break;
                    }
                    Ok(n) => {
                        c.rbuf.truncate(len + n);
                        if n < READ_CHUNK {
                            break; // drained for now
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        c.rbuf.truncate(len);
                        break;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
                        c.rbuf.truncate(len);
                    }
                    Err(_) => {
                        c.rbuf.truncate(len);
                        dead = true;
                        break;
                    }
                }
            }
        }
        // Parse even when the peer closed: its final frames still count.
        if self.parse_frames(idx).is_err() {
            dead = true;
        }
        if dead {
            self.kill_conn(idx);
        }
    }

    /// True when the accumulator holds either one complete frame or a
    /// length prefix the decoder will reject — both worth freezing for.
    fn has_actionable_frame(buf: &[u8]) -> bool {
        if buf.len() < 4 {
            return false;
        }
        let body = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
        if !(8..=MAX_FRAME_LEN).contains(&body) {
            return true; // decode_frame_view turns this into the error
        }
        buf.len() >= 4 + body
    }

    fn parse_frames(&mut self, idx: usize) -> std::io::Result<()> {
        let (buf, peer, mut got_hello) = {
            let Some(Some(Slot::Conn(c))) = self.slots.get_mut(idx) else {
                return Ok(());
            };
            if !Self::has_actionable_frame(&c.rbuf) {
                return Ok(()); // keep accumulating in place
            }
            (
                std::mem::take(&mut c.rbuf).freeze(),
                c.peer.clone(),
                c.got_hello,
            )
        };
        let acc_len = buf.len();
        let mut cur = buf;
        let mut res = Ok(());
        loop {
            match codec::decode_frame_view(&cur) {
                Ok(None) => break,
                Ok(Some((mut frame, used))) => {
                    cur.advance(used);
                    // `frame.payload` is a view into `cur`'s allocation —
                    // the zero-copy handoff to the daemon — unless it is
                    // small relative to that allocation, in which case a
                    // daemon retaining it would pin the whole accumulator:
                    // bound the amplification by copying it out (see
                    // `PIN_DENOM`).
                    if frame.payload.len() * PIN_DENOM < acc_len {
                        frame.payload = Bytes::copy_from_slice(&frame.payload);
                    }
                    if let Err(e) = handle_frame(&self.inner, &peer, frame, &mut got_hello) {
                        res = Err(e);
                        break;
                    }
                }
                Err(e) => {
                    res = Err(io_err(format!("corrupt stream: {e}")));
                    break;
                }
            }
        }
        if let Some(Some(Slot::Conn(c))) = self.slots.get_mut(idx) {
            c.got_hello = got_hello;
            if res.is_ok() && !cur.is_empty() {
                // Partial tail: at most one frame's worth re-buffered.
                c.rbuf.extend_from_slice(&cur);
            }
        }
        res
    }

    // --- writing ------------------------------------------------------

    fn conn_flush(&mut self, idx: usize) {
        let mut dead = false;
        {
            let Some(Some(Slot::Conn(c))) = self.slots.get_mut(idx) else {
                return;
            };
            let mut fresh = Vec::new();
            c.peer.out.try_drain(&mut fresh);
            c.wbufs.extend(fresh);

            let mut stalled = false;
            while !c.wbufs.is_empty() {
                let wrote = {
                    let mut iovs: Vec<IoSlice<'_>> = Vec::with_capacity(c.wbufs.len().min(MAX_IOV));
                    for (i, b) in c.wbufs.iter().take(MAX_IOV).enumerate() {
                        let s = if i == 0 { &b[c.woff..] } else { &b[..] };
                        iovs.push(IoSlice::new(s));
                    }
                    c.sock.write_vectored(&iovs)
                };
                match wrote {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(mut n) => {
                        self.inner
                            .stats
                            .bytes_out
                            .fetch_add(n as u64, Ordering::Relaxed);
                        while n > 0 {
                            let front_left = c.wbufs[0].len() - c.woff;
                            if n >= front_left {
                                n -= front_left;
                                c.wbufs.pop_front();
                                c.woff = 0;
                            } else {
                                c.woff += n;
                                n = 0;
                            }
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        stalled = true;
                        break;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            // Writable interest tracks "backlog parked on a full socket
            // buffer" — registered on the stall edge, dropped once the
            // backlog drains, so an idle connection costs zero spurious
            // writable events.
            if !dead && stalled != c.want_write {
                let interest = if stalled {
                    Interest::BOTH
                } else {
                    Interest::READ
                };
                let fd = c.sock.as_raw_fd();
                if self.poller.modify(fd, idx + SLOT_BASE, interest).is_ok() {
                    c.want_write = stalled;
                    if stalled {
                        self.inner
                            .stats
                            .flush_stalls
                            .fetch_add(1, Ordering::Relaxed);
                    }
                } else {
                    dead = true;
                }
            }
        }
        if dead {
            self.kill_conn(idx);
        }
    }

    /// Flush the connections producer threads marked since the last pass.
    fn drain_dirty(&mut self) {
        let marked: Vec<Arc<PeerConn>> = std::mem::take(&mut *self.inner.dirty.lock());
        for peer in marked {
            // Clear before draining: a racing producer re-marks and the
            // frame it queued is picked up next pass at the latest.
            peer.dirty.store(false, Ordering::Release);
            let token = peer.token.load(Ordering::Acquire);
            if token < SLOT_BASE {
                continue; // never owned, or already torn down (queue closed)
            }
            let idx = token - SLOT_BASE;
            let same = matches!(
                self.slots.get(idx),
                Some(Some(Slot::Conn(c))) if Arc::ptr_eq(&c.peer, &peer)
            );
            if same {
                self.conn_flush(idx);
            }
        }
    }

    // --- heartbeats ---------------------------------------------------

    fn emit_heartbeats(&mut self) {
        // The beacon tick doubles as the clock for chaos-delayed frames.
        self.inner.flush_due_delayed();
        let chaos = self.inner.chaos.read().clone();
        let seq = self.inner.hb_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let frames: Vec<(NodeId, Bytes)> = self
            .inner
            .cfg
            .local_nodes
            .iter()
            .map(|&n| {
                let p = Packet::Heartbeat { node: n, seq };
                (n, codec::encode_frame(n, CONTROL_NODE, &codec::encode(&p)))
            })
            .collect();
        for idx in 0..self.slots.len() {
            if !matches!(self.slots.get(idx), Some(Some(Slot::Conn(_)))) {
                continue;
            }
            {
                let Some(Some(Slot::Conn(c))) = self.slots.get_mut(idx) else {
                    continue;
                };
                let peer_nodes = match &chaos {
                    Some(_) => c.peer.nodes.lock().clone(),
                    None => Vec::new(),
                };
                for (n, f) in &frames {
                    // A partition that cuts every announced peer node
                    // silences the beacon too — that is what drives the
                    // failure monitor during a partition soak.
                    if let Some(ch) = &chaos {
                        if ch.hb_blocked(*n, &peer_nodes) {
                            continue;
                        }
                    }
                    // Same cap as the queue: a wedged connection drops
                    // beacons rather than growing without bound.
                    if c.wbufs.len() >= self.inner.cfg.outbound_cap {
                        self.inner.stats.dropped.fetch_add(1, Ordering::Relaxed);
                    } else {
                        c.wbufs.push_back(f.clone());
                        self.inner.stats.frames_out.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            self.conn_flush(idx);
        }
    }

    // --- teardown -----------------------------------------------------

    fn kill_conn(&mut self, idx: usize) {
        if !matches!(self.slots.get(idx), Some(Some(Slot::Conn(_)))) {
            return;
        }
        let Some(Slot::Conn(c)) = self.take_slot(idx) else {
            return;
        };
        let _ = self.poller.deregister(c.sock.as_raw_fd());
        c.peer.token.store(0, Ordering::Release);
        c.peer.alive.store(false, Ordering::Release);
        c.peer.out.close();
        // Same verdict as thread-per-peer's reader exit: a dead accepted
        // connection means the peer departed; a dead outbound one gets
        // redialed, so its nodes are merely suspect.
        self.inner.drop_routes(&c.peer, c.peer.accepted);
        if let Some(didx) = c.dialer {
            if !self.inner.stop.load(Ordering::Acquire) {
                self.dialers[didx].last_nodes = c.peer.nodes.lock().clone();
                // Immediate retry, exactly like thread-per-peer's connector;
                // failures fall into exponential backoff from there.
                self.start_dial(didx);
            }
        }
    }

    /// Best-effort final drain on shutdown so frames queued just before
    /// `stop` (goodbye traffic, last data) still reach the wire. Sockets
    /// go blocking with a short write timeout: a stuck peer cannot hang
    /// process exit.
    fn shutdown_flush(&mut self) {
        for slot in std::mem::take(&mut self.slots) {
            match slot {
                None => {}
                Some(Slot::Dial(d)) => {
                    let _ = self.poller.deregister(d.pending.raw_fd());
                }
                Some(Slot::Conn(mut c)) => {
                    let _ = self.poller.deregister(c.sock.as_raw_fd());
                    c.peer.token.store(0, Ordering::Release);
                    c.peer.alive.store(false, Ordering::Release);
                    c.peer.out.close();
                    let mut rest = Vec::new();
                    c.peer.out.try_drain(&mut rest);
                    c.wbufs.extend(rest);
                    let _ = c.sock.set_nonblocking(false);
                    let _ = c.sock.set_write_timeout(Some(Duration::from_millis(100)));
                    for (i, b) in c.wbufs.iter().enumerate() {
                        let s = if i == 0 { &b[c.woff..] } else { &b[..] };
                        if c.sock.write_all(s).is_err() {
                            break;
                        }
                        self.inner
                            .stats
                            .bytes_out
                            .fetch_add(s.len() as u64, Ordering::Relaxed);
                    }
                    self.inner.drop_routes(&c.peer, c.peer.accepted);
                }
            }
        }
    }
}
