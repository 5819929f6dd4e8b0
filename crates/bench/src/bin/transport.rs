//! Connection-scaling benchmark for the TCP transport (ISSUE 8).
//!
//! Topology: one *hub* process-half runs a real [`Transport`] hosting
//! `NodeId(0)`; an echo thread drains node 0's fabric inbox and sends
//! every payload straight back to its sender. The other half is a swarm
//! of N raw-protocol loopback clients — each speaks the real wire format
//! (Hello handshake, then pipelined data frames carrying Heartbeat
//! packets, which pass the daemon's verifier screen as data) — all
//! driven from a single bench thread on its own [`Poller`], so the
//! client side never becomes the thread-count confound being measured.
//!
//! Each client keeps a window of 8 round-trips in flight until it has
//! completed its quota; RTT is measured per echo (same-connection FIFO
//! ordering makes a timestamp queue exact). The sweep doubles peers
//! 4 → 1024 against the event loop.
//!
//! Modes, following the other bench binaries:
//!   --smoke          4 and 64 peers, asserts completion and that the
//!                    emitted JSON is well-formed (CI gate); writes
//!                    `BENCH_transport_smoke.json`
//!   --peers N        one point, `[--msgs M]` round-trips per client
//!   (none)           full sweep, JSON on stdout
//!
//! `BENCH_transport.json` is the frozen record of the sweep that also ran
//! the retired thread-per-peer A/B; a full sweep never overwrites it.

#[cfg(target_os = "linux")]
mod unix_bench {
    use ditico_rt::poller::{connect_start, ConnectStart, Interest, PendingConnect, Poller};
    use ditico_rt::{Fabric, FabricMode, LinkProfile, PacketFabric, Transport, TransportConfig};
    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::{Duration, Instant};
    use tyco_vm::codec::{self, Packet, CONTROL_NODE, WIRE_VERSION};
    use tyco_vm::word::NodeId;

    /// Round-trips each client keeps in flight.
    const WINDOW: u64 = 8;
    /// Dials in flight *as the hub sees them*: started but not yet
    /// acknowledged by the hub's Hello. Gating on our own connect
    /// completion is not enough — the kernel finishes handshakes into
    /// the hub's accept queue long before the hub accept()s them, so an
    /// unpaced swarm overflows the listener backlog (128) and every
    /// subsequent SYN is silently dropped and retried after a ~1s RTO,
    /// which reads as a mysterious throughput collapse.
    const MAX_DIAL: usize = 64;
    const READ_CHUNK: usize = 64 * 1024;

    /// First remote node id; clients are `CLIENT_BASE + i`.
    const CLIENT_BASE: u32 = 1000;

    pub struct PointResult {
        pub completed: bool,
        pub echoes: u64,
        pub elapsed_s: f64,
        pub msgs_per_sec: f64,
        pub p99_us: f64,
        pub threads: usize,
    }

    enum ClientState {
        Idle,
        Dialing(PendingConnect),
        Up(TcpStream),
    }

    struct Client {
        state: ClientState,
        node: NodeId,
        rbuf: Vec<u8>,
        rpos: usize,
        wbuf: Vec<u8>,
        woff: usize,
        want_write: bool,
        sent: u64,
        recvd: u64,
        inflight: std::collections::VecDeque<Instant>,
        dial_retries: u32,
        saw_hello: bool,
        done: bool,
    }

    impl Client {
        fn new(i: usize) -> Client {
            Client {
                state: ClientState::Idle,
                node: NodeId(CLIENT_BASE + i as u32),
                rbuf: Vec::new(),
                rpos: 0,
                wbuf: Vec::new(),
                woff: 0,
                want_write: false,
                sent: 0,
                recvd: 0,
                inflight: std::collections::VecDeque::new(),
                dial_retries: 0,
                saw_hello: false,
                done: false,
            }
        }

        fn queue_msg(&mut self, now: Instant) {
            let p = Packet::Heartbeat {
                node: self.node,
                seq: self.sent,
            };
            let frame = codec::encode_frame(self.node, NodeId(0), &codec::encode(&p));
            self.wbuf.extend_from_slice(&frame);
            self.inflight.push_back(now);
            self.sent += 1;
        }
    }

    /// Count of OS threads in this process, from /proc (0 if unreadable).
    fn process_threads() -> usize {
        let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
            return 0;
        };
        status
            .lines()
            .find_map(|l| l.strip_prefix("Threads:"))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0)
    }

    struct Swarm {
        poller: Poller,
        clients: Vec<Client>,
        addr: SocketAddr,
        next_dial: usize,
        hellos_seen: usize,
        connected: usize,
        done_count: usize,
        msgs_per_client: u64,
        rtts_us: Vec<u64>,
        first_send: Option<Instant>,
        last_echo: Option<Instant>,
        threads_at_peak: usize,
        failed: Option<String>,
    }

    impl Swarm {
        /// Start dials until `MAX_DIAL` are outstanding (started, no hub
        /// Hello yet) — the pacing that keeps the hub's accept queue
        /// bounded below its backlog.
        fn fill_dials(&mut self) {
            while self.failed.is_none()
                && self.next_dial < self.clients.len()
                && self.next_dial - self.hellos_seen < MAX_DIAL
            {
                let i = self.next_dial;
                self.next_dial += 1;
                self.start_dial(i);
            }
        }

        fn start_dial(&mut self, i: usize) {
            match connect_start(&self.addr) {
                Ok(ConnectStart::Connected(s)) => self.install(i, s, false),
                Ok(ConnectStart::Pending(p)) => {
                    if let Err(e) = self.poller.register(p.raw_fd(), i, Interest::WRITE) {
                        self.failed = Some(format!("register dial {i}: {e}"));
                        return;
                    }
                    self.clients[i].state = ClientState::Dialing(p);
                }
                Err(e) => self.dial_failed(i, e.to_string()),
            }
        }

        fn dial_failed(&mut self, i: usize, why: String) {
            self.clients[i].dial_retries += 1;
            if self.clients[i].dial_retries > 3 {
                self.failed = Some(format!("client {i} cannot connect: {why}"));
            } else {
                self.start_dial(i);
            }
        }

        /// A connected socket: prime hello + first window, register.
        fn install(&mut self, i: usize, sock: TcpStream, registered: bool) {
            let _ = sock.set_nodelay(true);
            let _ = sock.set_nonblocking(true);
            let now = Instant::now();
            if self.first_send.is_none() {
                self.first_send = Some(now);
            }
            {
                let c = &mut self.clients[i];
                let hello = Packet::Hello {
                    version: WIRE_VERSION,
                    nodes: vec![c.node],
                };
                let frame = codec::encode_frame(c.node, CONTROL_NODE, &codec::encode(&hello));
                c.wbuf.extend_from_slice(&frame);
                for _ in 0..WINDOW.min(self.msgs_per_client) {
                    c.queue_msg(now);
                }
                c.want_write = true;
            }
            let fd = sock.as_raw_fd();
            let r = if registered {
                self.poller.modify(fd, i, Interest::BOTH)
            } else {
                self.poller.register(fd, i, Interest::BOTH)
            };
            if let Err(e) = r {
                self.failed = Some(format!("register client {i}: {e}"));
                return;
            }
            self.clients[i].state = ClientState::Up(sock);
            self.connected += 1;
            if self.connected == self.clients.len() {
                self.threads_at_peak = process_threads();
            }
            self.flush(i);
        }

        fn event(&mut self, i: usize, readable: bool, writable: bool, closed: bool) {
            if i >= self.clients.len() || self.failed.is_some() {
                return;
            }
            match std::mem::replace(&mut self.clients[i].state, ClientState::Idle) {
                ClientState::Idle => {}
                ClientState::Dialing(p) => {
                    let fd = p.raw_fd();
                    match p.finish() {
                        Ok(s) => self.install(i, s, true),
                        Err(e) => {
                            let _ = self.poller.deregister(fd);
                            self.dial_failed(i, e.to_string());
                        }
                    }
                }
                ClientState::Up(sock) => {
                    self.clients[i].state = ClientState::Up(sock);
                    if closed && !self.clients[i].done {
                        self.failed = Some(format!("client {i}: connection closed by hub"));
                        return;
                    }
                    if readable {
                        self.read(i);
                    }
                    if writable && self.failed.is_none() {
                        self.flush(i);
                    }
                }
            }
        }

        fn read(&mut self, i: usize) {
            let mut chunk = vec![0u8; READ_CHUNK];
            // Bounded per event; level-triggered polling re-fires for the rest.
            for _ in 0..4 {
                let ClientState::Up(sock) = &mut self.clients[i].state else {
                    return;
                };
                match sock.read(&mut chunk) {
                    Ok(0) => {
                        if !self.clients[i].done {
                            self.failed = Some(format!("client {i}: EOF from hub"));
                        }
                        return;
                    }
                    Ok(n) => self.clients[i].rbuf.extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => {
                        self.failed = Some(format!("client {i}: read: {e}"));
                        return;
                    }
                }
            }
            self.parse(i);
        }

        fn parse(&mut self, i: usize) {
            let now = Instant::now();
            let mut new_msgs = 0u64;
            {
                let c = &mut self.clients[i];
                loop {
                    let rest = &c.rbuf[c.rpos..];
                    match codec::decode_frame(rest) {
                        Ok(Some((frame, used))) => {
                            c.rpos += used;
                            if frame.to == CONTROL_NODE {
                                // First control frame on a connection is
                                // the hub's Hello: its acceptance ack,
                                // and our cue to start more dials.
                                if !c.saw_hello {
                                    c.saw_hello = true;
                                    self.hellos_seen += 1;
                                }
                                continue;
                            }
                            // An echo of one of our pipelined messages.
                            c.recvd += 1;
                            if let Some(t) = c.inflight.pop_front() {
                                self.rtts_us.push(now.duration_since(t).as_micros() as u64);
                            }
                            self.last_echo = Some(now);
                            if c.sent < self.msgs_per_client {
                                c.queue_msg(now);
                                new_msgs += 1;
                            } else if c.recvd == self.msgs_per_client && !c.done {
                                c.done = true;
                                self.done_count += 1;
                            }
                        }
                        Ok(None) => break,
                        Err(e) => {
                            self.failed = Some(format!("client {i}: corrupt frame: {e}"));
                            return;
                        }
                    }
                }
                if c.rpos > READ_CHUNK {
                    c.rbuf.drain(..c.rpos);
                    c.rpos = 0;
                }
            }
            if new_msgs > 0 {
                self.flush(i);
            }
            self.fill_dials();
        }

        fn flush(&mut self, i: usize) {
            let mut stalled = false;
            let mut dead: Option<String> = None;
            {
                let c = &mut self.clients[i];
                let ClientState::Up(sock) = &mut c.state else {
                    return;
                };
                while c.woff < c.wbuf.len() {
                    match sock.write(&c.wbuf[c.woff..]) {
                        Ok(n) => c.woff += n,
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            stalled = true;
                            break;
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(e) => {
                            dead = Some(format!("client {i}: write: {e}"));
                            break;
                        }
                    }
                }
                if c.woff == c.wbuf.len() {
                    c.wbuf.clear();
                    c.woff = 0;
                }
            }
            if let Some(why) = dead {
                self.failed = Some(why);
                return;
            }
            // Toggle write interest only on stall edges.
            let want = stalled;
            if want != self.clients[i].want_write {
                self.clients[i].want_write = want;
                let interest = if want { Interest::BOTH } else { Interest::READ };
                if let ClientState::Up(sock) = &self.clients[i].state {
                    let fd = sock.as_raw_fd();
                    if let Err(e) = self.poller.modify(fd, i, interest) {
                        self.failed = Some(format!("client {i}: modify: {e}"));
                    }
                }
            }
        }
    }

    /// One measured point: a hub, `peers` echo clients, `msgs`
    /// round-trips each, abandoned at `deadline`.
    pub fn run_point(peers: usize, msgs: u64, deadline: Duration) -> PointResult {
        let fabric = Fabric::new(FabricMode::Ideal, LinkProfile::ideal());
        let inbox = fabric.register_node(NodeId(0));
        let mut hub = Transport::start(
            TransportConfig {
                local_nodes: vec![NodeId(0)],
                listen: Some("127.0.0.1:0".parse().unwrap()),
                hb_period: Duration::from_secs(1),
                // Clients send Heartbeat packets as *data*, so the
                // failure monitor never observes them; park suspicion
                // far beyond any point deadline.
                stale_periods: 10_000,
                ..TransportConfig::default()
            },
            fabric.handle(),
        )
        .expect("hub transport");
        let addr = hub.local_addr().expect("hub addr");

        let net = hub.handle();
        let echo = std::thread::Builder::new()
            .name("bench-echo".into())
            .spawn(move || {
                while let Ok((from, payload)) = inbox.recv() {
                    if from == NodeId(0) {
                        return; // shutdown sentinel (hub echoes never originate locally)
                    }
                    net.send(NodeId(0), from, payload);
                }
            })
            .expect("spawn echo");

        let mut swarm = Swarm {
            poller: Poller::new().expect("poller"),
            clients: (0..peers).map(Client::new).collect(),
            addr,
            next_dial: 0,
            hellos_seen: 0,
            connected: 0,
            done_count: 0,
            msgs_per_client: msgs,
            rtts_us: Vec::with_capacity(peers * msgs as usize),
            first_send: None,
            last_echo: None,
            threads_at_peak: 0,
            failed: None,
        };
        swarm.fill_dials();

        let t_end = Instant::now() + deadline;
        let mut events = Vec::new();
        let mut completed = true;
        while swarm.done_count < peers && swarm.failed.is_none() {
            if Instant::now() >= t_end {
                completed = false;
                break;
            }
            swarm
                .poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .expect("poller wait");
            for ev in &events {
                swarm.event(ev.token, ev.readable, ev.writable, ev.closed);
            }
        }
        if let Some(why) = &swarm.failed {
            eprintln!("    point failed: {why}");
            completed = false;
        }

        let echoes: u64 = swarm.clients.iter().map(|c| c.recvd).sum();
        let elapsed = match (swarm.first_send, swarm.last_echo) {
            (Some(a), Some(b)) if b > a => b.duration_since(a).as_secs_f64(),
            _ => f64::NAN,
        };
        let msgs_per_sec = if elapsed.is_finite() && elapsed > 0.0 {
            echoes as f64 / elapsed
        } else {
            0.0
        };
        // Sample thread count again at point end: a hub may spawn
        // threads after the kernel completes our handshakes, which the
        // connected-peak sample alone would miss.
        swarm.threads_at_peak = swarm.threads_at_peak.max(process_threads());
        let p99_us = if swarm.rtts_us.is_empty() {
            f64::NAN
        } else {
            let mut r = std::mem::take(&mut swarm.rtts_us);
            r.sort_unstable();
            r[(r.len() - 1).min(r.len() * 99 / 100)] as f64
        };
        let threads = swarm.threads_at_peak;

        // Teardown: sockets first, then the hub, then unblock the echo
        // thread with a local sentinel (its fabric sender outlives the
        // transport, so a plain drop would leave it parked forever).
        drop(swarm);
        hub.shutdown();
        fabric
            .handle()
            .send(NodeId(0), NodeId(0), bytes::Bytes::from_static(b"bye"));
        echo.join().expect("echo thread");

        PointResult {
            completed: completed && echoes == msgs * peers as u64,
            echoes,
            elapsed_s: if elapsed.is_finite() { elapsed } else { 0.0 },
            msgs_per_sec,
            p99_us: if p99_us.is_finite() { p99_us } else { 0.0 },
            threads,
        }
    }
}

#[cfg(target_os = "linux")]
fn point_json(p: &unix_bench::PointResult) -> String {
    format!(
        "{{ \"completed\": {}, \"echoes\": {}, \"elapsed_s\": {:.3}, \
         \"msgs_per_sec\": {:.1}, \"p99_us\": {:.1}, \"threads\": {} }}",
        p.completed, p.echoes, p.elapsed_s, p.msgs_per_sec, p.p99_us, p.threads
    )
}

/// Minimal well-formedness check for the emitted JSON (no parser dep):
/// balanced braces/brackets outside strings, terminated strings.
fn assert_json_wellformed(s: &str) {
    let mut stack = Vec::new();
    let mut in_str = false;
    let mut esc = false;
    for ch in s.chars() {
        if in_str {
            if esc {
                esc = false;
            } else if ch == '\\' {
                esc = true;
            } else if ch == '"' {
                in_str = false;
            }
            continue;
        }
        match ch {
            '"' => in_str = true,
            '{' | '[' => stack.push(ch),
            '}' => assert_eq!(stack.pop(), Some('{'), "unbalanced brace"),
            ']' => assert_eq!(stack.pop(), Some('['), "unbalanced bracket"),
            _ => {}
        }
    }
    assert!(!in_str, "unterminated string");
    assert!(stack.is_empty(), "unclosed {stack:?}");
}

#[cfg(target_os = "linux")]
fn main() {
    use std::time::Duration;
    use unix_bench::run_point;

    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let arg_after = |flag: &str| -> Option<u64> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
    };

    // Single-point probe: `--peers N [--msgs M]`, no JSON.
    if let Some(peers) = arg_after("--peers") {
        let msgs = arg_after("--msgs").unwrap_or(100);
        let p = run_point(peers as usize, msgs, Duration::from_secs(60));
        println!(
            "peers={} completed={} {:.0} msg/s p99 {:.0}us elapsed {:.3}s threads {}",
            peers, p.completed, p.msgs_per_sec, p.p99_us, p.elapsed_s, p.threads
        );
        return;
    }

    if smoke {
        // CI gate: 4- and 64-peer echo rounds must complete, and the
        // JSON we emit must be well-formed.
        let mut rows = Vec::new();
        for peers in [4usize, 64] {
            let p = run_point(peers, 50, Duration::from_secs(30));
            eprintln!(
                "  smoke {} peers: completed={} {:.0} msg/s p99 {:.0}us",
                peers, p.completed, p.msgs_per_sec, p.p99_us
            );
            assert!(
                p.completed,
                "smoke: {peers}-peer point did not complete ({} of {} echoes)",
                p.echoes,
                peers as u64 * 50
            );
            rows.push(format!(
                "    {{ \"peers\": {}, \"event\": {} }}",
                peers,
                point_json(&p)
            ));
        }
        let json = format!(
            "{{\n  \"bench\": \"transport_scaling_smoke\",\n  \"points\": [\n{}\n  ]\n}}\n",
            rows.join(",\n")
        );
        assert_json_wellformed(&json);
        std::fs::write("BENCH_transport_smoke.json", &json).expect("write smoke json");
        println!("smoke ok: 4- and 64-peer event-loop echo rounds completed, JSON well-formed");
        return;
    }

    const PEERS: [usize; 5] = [4, 16, 64, 256, 1024];
    const MSGS: u64 = 100;
    let deadline = Duration::from_secs(60);

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut rows = Vec::new();
    let mut max_event = 0usize;
    for peers in PEERS {
        eprintln!("peers={peers}...");
        let ev = run_point(peers, MSGS, deadline);
        eprintln!(
            "  event: completed={} {:>9.0} msg/s  p99 {:>7.0}us  {} threads",
            ev.completed, ev.msgs_per_sec, ev.p99_us, ev.threads
        );
        if ev.completed {
            max_event = peers;
        }
        rows.push(format!(
            "    {{ \"peers\": {}, \"event\": {} }}",
            peers,
            point_json(&ev)
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"transport_scaling\",\n  \
         \"workload\": \"hub echo over loopback: N raw-wire clients, {MSGS} pipelined round-trips each (window 8), Heartbeat-packet payloads\",\n  \
         \"machine\": {{ \"cores\": {cores} }},\n  \
         \"deadline_s\": {},\n  \
         \"points\": [\n{}\n  ],\n  \
         \"max_peers_event\": {max_event}\n}}",
        deadline.as_secs(),
        rows.join(",\n"),
    );
    assert_json_wellformed(&json);
    println!("{json}");
}

#[cfg(not(target_os = "linux"))]
fn main() {
    println!("transport bench requires the Linux poller; skipping");
}
