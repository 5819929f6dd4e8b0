//! `rpc_tcp`: remote-call latency over TCP loopback.
//!
//! An echo server `val(x, r) = r![x + 1]` runs in a serve-role
//! `run_distributed` partition with the default `TransportConfig` and
//! worker pool. Two raw-wire callers, driven from one generator thread,
//! each keep one call outstanding (closed loop): `Hello`, `NsImport` of
//! `p`, then `Msg`s whose reply reference carries the call id, with wire
//! heartbeats in between. One job is a session: the server starts, the
//! callers resolve `p` and make their calls, hang up, and the server
//! winds down by itself.

use crate::layers;
use crate::rawwire::{free_addr, RawPeer};
use crate::trace::Tracer;
use crate::util::{median, quantile, tail, us, Outcome, Rng};
use crate::{report_counters, report_failures, Values};
use ditico::{Env, FabricMode, LinkProfile, RunReport, Topology, TransportConfig};
use ditico_rt::poller::{Interest, Poller};
use std::time::{Duration, Instant};
use tyco_vm::codec::Packet;
use tyco_vm::wire::WireWord;
use tyco_vm::word::{NetRef, NodeId};

/// The echo server's classes: `val` answers at once, `work` spins `n`
/// times first.
const SERVER_DEFS: &str = "def Srv(p) = p?{ val(x, r) = r![x + 1] | Srv[p], \
                                          work(x, n, r) = Spin[x, n, r] | Srv[p] } \
                           and Spin(x, n, r) = if n > 0 then Spin[x, n - 1, r] else r![x + 1]";

/// Every `HEAVY_EVERY`-th call of a caller is a `work` call spinning
/// `HEAVY_SPIN` times at the server. With 2% of the calls heavy, the
/// 99th percentile of call latency falls on a typical heavy call: the
/// tail of a request mix, not the host's rarest stalls. When the shared
/// host stalls, the 99th percentile of uniform calls doubled from one
/// half-minute run to the next.
const HEAVY_EVERY: u64 = 50;
const HEAVY_SPIN: u64 = 4000;

fn echo() -> String {
    format!("{SERVER_DEFS} in export new p in Srv[p]")
}

/// Callers, each on its own node (1 and 2) of the topology.
const CALLERS: usize = 2;
/// Values are drawn below this prime so sums stay small.
const M: u64 = 1_000_003;
/// A call without its reply after this long has failed.
const CALL_DEADLINE: Duration = Duration::from_secs(2);
const WALL: Duration = Duration::from_secs(60);

#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Calls each caller makes in one session.
    pub calls: u64,
}

pub const FULL: Size = Size { calls: 3000 };

/// The seeded inputs: how a session's calls split between the callers
/// (the total never changes), and caller `c`'s `k`-th call sends
/// `(k * a[c] + b[c]) % M`, the same values the simulated callers send.
#[derive(Debug, Clone)]
struct Inputs {
    calls: [u64; CALLERS],
    a: [u64; CALLERS],
    b: [u64; CALLERS],
}

impl Inputs {
    pub fn new(seed: u64, size: Size) -> Inputs {
        let mut rng = Rng::new(seed);
        let d = rng.below(size.calls / 50 + 1);
        let mut draw = || 1 + rng.below(M - 1);
        Inputs {
            calls: [size.calls + d, size.calls - d],
            a: [draw(), draw()],
            b: [draw(), draw()],
        }
    }

    fn total(&self) -> u64 {
        self.calls.iter().sum()
    }

    fn x(&self, c: usize, k: u64) -> i64 {
        ((k * self.a[c] + self.b[c]) % M) as i64
    }

    /// Caller `c`'s `k`-th call to `dest`, answered on `reply`.
    fn call(&self, c: usize, k: u64, dest: NetRef, reply: NetRef) -> Packet {
        let x = WireWord::Int(self.x(c, k));
        let r = WireWord::Chan(reply);
        let (label, args) = if k.is_multiple_of(HEAVY_EVERY) {
            ("work", vec![x, WireWord::Int(HEAVY_SPIN as i64), r])
        } else {
            ("val", vec![x, r])
        };
        Packet::Msg {
            dest,
            label: label.into(),
            args,
        }
    }

    /// What a simulated caller making calls `n..=1` prints.
    fn sim_sum(&self, c: usize, n: u64) -> i64 {
        (1..=n).fold(0, |acc, k| (acc + self.x(c, k) + 1) % M as i64)
    }
}

fn topology() -> Topology {
    Topology {
        nodes: 1 + CALLERS,
        mode: FabricMode::Ideal,
        link: LinkProfile::ideal(),
        ns_replicas: 1,
    }
}

/// A DiTyCO site making `n` sequential calls with caller `c`'s values.
fn sim_caller(inp: &Inputs, c: usize, n: u64) -> String {
    format!(
        "import p from server in \
         def Loop(k, acc) = \
             if k > 0 then new a ( \
                 (if k % {HEAVY_EVERY} == 0 then p!work[(k * {a} + {b}) % {M}, {HEAVY_SPIN}, a] \
                  else p!val[(k * {a} + {b}) % {M}, a]) \
                 | a?(v) = Loop[k - 1, (acc + v) % {M}]) \
             else println(acc) \
         in Loop[{n}, 0]",
        a = inp.a[c],
        b = inp.b[c],
    )
}

/// One session's measurements.
struct Session {
    setup_s: f64,
    job_s: f64,
    call_phase_s: f64,
    term_tail_s: f64,
    build_us: f64,
    rtts_us: Vec<f64>,
    self_us: Vec<f64>,
    resolve_us: Vec<f64>,
    calls_ok: u64,
    calls_failed: u64,
    report: RunReport,
    violations: Vec<String>,
}

struct Pending {
    id: u64,
    x: i64,
    sent: Instant,
    send_us: f64,
}

fn session(inp: &Inputs, tracer: &mut Tracer) -> Session {
    let t0 = Instant::now();
    let top = tracer.open("rpc_tcp.session", None);
    let env = Env::new(topology())
        .site_on(0, "server", &echo())
        .expect("echo server compiles");
    let b0 = Instant::now();
    let built = env.build_partition(&[0]).expect("partition builds");
    let b1 = Instant::now();
    tracer.record("env.build", b0, b1, top, 0);
    let addr = free_addr().expect("loopback address");
    let cfg = TransportConfig {
        local_nodes: vec![NodeId(0)],
        listen: Some(addr),
        serve: true,
        ..TransportConfig::default()
    };
    let hb = cfg.hb_period;
    let server = std::thread::spawn(move || built.run_distributed(cfg, WALL));

    let mut violations = Vec::new();
    let mut peers = Vec::new();
    let mut refs: Vec<NetRef> = Vec::new();
    let mut resolve_us = Vec::new();
    for c in 0..CALLERS {
        let node = NodeId(1 + c as u32);
        let deadline = Instant::now() + Duration::from_secs(10);
        let h0 = Instant::now();
        let mut peer = RawPeer::connect(addr, node, hb, deadline).expect("caller handshake");
        let h1 = Instant::now();
        let p = peer
            .import_name(NodeId(0), "server", "p", deadline)
            .expect("caller resolves p");
        let h2 = Instant::now();
        tracer.record("transport.handshake", h0, h1, top, 0);
        tracer.record("ns.resolve", h1, h2, top, 0);
        resolve_us.push(us(h2 - h1));
        peers.push(peer);
        refs.push(p);
    }
    let setup_s = t0.elapsed().as_secs_f64();

    // The call phase: one generator thread, one call outstanding per
    // caller, replies matched by call id.
    let mut poller = Poller::new().expect("poller");
    for (i, p) in peers.iter().enumerate() {
        poller
            .register(p.fd(), i, Interest::READ)
            .expect("register caller");
    }
    let mut next_k = inp.calls;
    let mut pending: Vec<Option<Pending>> = (0..CALLERS).map(|_| None).collect();
    let mut next_id = 1u64;
    let mut rtts_us = Vec::with_capacity(inp.total() as usize);
    let mut self_us = Vec::new();
    let (mut calls_ok, mut calls_failed) = (0u64, 0u64);
    let issue = |c: usize,
                 peers: &mut Vec<RawPeer>,
                 next_k: &mut [u64; CALLERS],
                 next_id: &mut u64|
     -> Option<Pending> {
        let k = next_k[c];
        if k == 0 {
            return None;
        }
        next_k[c] -= 1;
        let id = *next_id;
        *next_id += 1;
        let x = inp.x(c, k);
        let sent = Instant::now();
        let msg = inp.call(c, k, refs[c], peers[c].reply_ref(id));
        peers[c].send(refs[c].node, &msg).expect("send call");
        Some(Pending {
            id,
            x,
            sent,
            send_us: us(sent.elapsed()),
        })
    };
    let phase0 = Instant::now();
    for (c, slot) in pending.iter_mut().enumerate() {
        *slot = issue(c, &mut peers, &mut next_k, &mut next_id);
    }
    let mut events = Vec::new();
    'calls: while pending.iter().any(Option::is_some) {
        let now = Instant::now();
        let mut wake = now + Duration::from_millis(50);
        for p in peers.iter_mut() {
            wake = wake.min(p.heartbeat(now).expect("heartbeat"));
        }
        for (c, p) in pending.iter().enumerate() {
            if let Some(p) = p {
                if now.duration_since(p.sent) > CALL_DEADLINE {
                    violations.push(format!("caller {c}: call {} had no reply in time", p.id));
                    break 'calls;
                }
                wake = wake.min(p.sent + CALL_DEADLINE);
            }
        }
        events.clear();
        poller
            .wait(&mut events, Some(wake.saturating_duration_since(now)))
            .expect("poll");
        for ev in &events {
            let c = ev.token;
            let r0 = Instant::now();
            if let Err(e) = peers[c].fill() {
                violations.push(format!("caller {c}: connection lost: {e}"));
                break 'calls;
            }
            loop {
                let got = match peers[c].next_packet() {
                    Ok(Some(got)) => got,
                    Ok(None) => break,
                    Err(e) => {
                        violations.push(format!("caller {c}: bad frame: {e}"));
                        break 'calls;
                    }
                };
                let Packet::Msg { dest, args, .. } = got else {
                    continue; // heartbeats and other control traffic
                };
                let done = Instant::now();
                let Some(p) = pending[c].take() else {
                    violations.push(format!("caller {c}: reply with no call outstanding"));
                    continue;
                };
                if dest.heap_id == p.id && args == [WireWord::Int(p.x + 1)] {
                    calls_ok += 1;
                } else {
                    calls_failed += 1;
                    violations.push(format!(
                        "caller {c}: call {} (x = {}) answered {args:?} on {}",
                        p.id, p.x, dest.heap_id
                    ));
                }
                let rtt = us(done - p.sent);
                rtts_us.push(rtt);
                let own = p.send_us + us(done - r0);
                self_us.push(own);
                let span = tracer.record("rpc.call", p.sent, done, top, p.id);
                tracer.record(
                    "rpc.caller_send",
                    p.sent,
                    p.sent + Duration::from_nanos((p.send_us * 1e3) as u64),
                    span,
                    p.id,
                );
                tracer.record("rpc.caller_recv", r0, done, span, p.id);
                pending[c] = issue(c, &mut peers, &mut next_k, &mut next_id);
            }
        }
    }
    let call_phase_s = phase0.elapsed().as_secs_f64();
    calls_failed += pending.iter().flatten().count() as u64 + next_k.iter().sum::<u64>();
    drop(peers);
    let hangup = Instant::now();
    let report = match server.join() {
        Ok(Ok(r)) => r,
        Ok(Err(e)) => panic!("server partition failed to start: {e}"),
        Err(_) => panic!("server partition panicked"),
    };
    let end = Instant::now();
    tracer.record("cluster.run", t0, end, top, 0);
    tracer.close(top);
    violations.extend(report_failures("server", &report));
    Session {
        setup_s,
        job_s: (end - t0).as_secs_f64(),
        call_phase_s,
        term_tail_s: (end - hangup).as_secs_f64(),
        build_us: us(b1 - b0),
        rtts_us,
        self_us,
        resolve_us,
        calls_ok,
        calls_failed,
        report,
        violations,
    }
}

/// The session's calls made by DiTyCO caller sites on the paper's
/// cluster model (every site on node 0 when `colocated`); returns the
/// report, the engine's wall time and the output violations.
fn simulate(inp: &Inputs, mode: FabricMode, colocated: bool) -> (RunReport, f64, Vec<String>) {
    let mut topo = Topology::paper_cluster();
    topo.mode = mode;
    let mut env = Env::new(topo)
        .site_on(0, "server", &echo())
        .expect("compiles");
    for c in 0..CALLERS {
        let node = if colocated { 0 } else { 1 + c };
        env = env
            .site_on(node, &format!("c{c}"), &sim_caller(inp, c, inp.calls[c]))
            .expect("caller compiles");
    }
    let mut built = env.build().expect("links");
    let t0 = Instant::now();
    let report = built.run_deterministic(crate::unlimited());
    let wall = t0.elapsed().as_secs_f64();
    let mut bad = report_failures("simulation", &report);
    for c in 0..CALLERS {
        let want = inp.sim_sum(c, inp.calls[c]).to_string();
        if report.output(&format!("c{c}")) != [want.clone()] {
            bad.push(format!(
                "simulated caller {c} printed {:?}, expected [{want}]",
                report.output(&format!("c{c}"))
            ));
        }
    }
    (report, wall, bad)
}

/// Run the workload for `seconds`; traced runs also replay layers.
pub fn run(seed: u64, seconds: f64, size: Size, traced: bool, out: &mut Outcome, v: &mut Values) {
    let inp = Inputs::new(seed, size);
    let mut tracer = Tracer::new(traced);
    let t_end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut sessions = Vec::new();
    loop {
        let s = session(&inp, &mut tracer);
        out.attempted += s.calls_ok + s.calls_failed;
        out.failed += s.calls_failed;
        out.violations.extend(s.violations.iter().cloned());
        let stop = !s.violations.is_empty() || Instant::now() >= t_end;
        sessions.push(s);
        if stop {
            break;
        }
    }
    let (sim, sim_wall, bad) = simulate(&inp, FabricMode::Virtual, false);
    out.violations.extend(bad);
    let rtts: Vec<f64> = sessions
        .iter()
        .flat_map(|s| s.rtts_us.iter().copied())
        .collect();
    let (p99, batches) = tail(&rtts);
    let med = |f: &dyn Fn(&Session) -> f64| median(&sessions.iter().map(f).collect::<Vec<_>>());
    v.set("setup_s", med(&|s| s.setup_s));
    v.set("job_s", med(&|s| s.job_s));
    v.set("rpc_p50_us", quantile(&rtts, 0.5).unwrap_or(0.0));
    v.set("rpc_p99_us", p99);
    v.set("calls_per_s", med(&|s| s.calls_ok as f64 / s.call_phase_s));
    v.set(
        "msgs_per_s",
        med(&|s| 2.0 * s.calls_ok as f64 / s.call_phase_s),
    );
    v.set("sim_ms", sim.virtual_ns as f64 / 1e6);
    out.note("sessions", sessions.len());
    out.note("calls_per_session", inp.total());
    out.note("rpc_samples", rtts.len());
    out.note("rpc_p99_batches", batches);
    out.note("sim_instrs", sim.total_instrs);

    if traced {
        trace_layers(&inp, &sessions, sim_wall, &mut tracer, v);
        // The count that repeats exactly: the simulated session's.
        v.set("vm.instrs", sim.total_instrs as f64);
        let json = tracer.to_json(&format!("\"workload\": \"rpc_tcp\", \"seed\": {seed}"));
        crate::write_trace("rpc_tcp", seed, &json);
    }
}

fn trace_layers(
    inp: &Inputs,
    sessions: &[Session],
    sim_wall: f64,
    tracer: &mut Tracer,
    v: &mut Values,
) {
    let last = sessions.last().expect("at least one session");
    report_counters(v, &[&last.report]);
    let calls = (last.calls_ok + last.calls_failed).max(1) as f64;
    v.set(
        "sched.slices_per_call",
        last.report.sched.slices as f64 / calls,
    );
    if let Some(t) = &last.report.transport {
        v.set(
            "transport.frames_per_call",
            (t.frames_in + t.frames_out) as f64 / calls,
        );
    }
    // A call span's self time is what its caller-side children (encode
    // and write, read and decode) leave: the server and the wire.
    let self_us: Vec<f64> = sessions
        .iter()
        .flat_map(|s| s.self_us.iter().copied())
        .collect();
    v.set("rpc.caller_self_us", median(&self_us));
    v.set("rpc.server_us", median(&tracer.self_us_of("rpc.call")));
    v.set(
        "ns.resolve_us",
        median(
            &sessions
                .iter()
                .flat_map(|s| s.resolve_us.iter().copied())
                .collect::<Vec<_>>(),
        ),
    );
    v.set(
        "env.build_us",
        median(&sessions.iter().map(|s| s.build_us).collect::<Vec<_>>()),
    );
    v.set(
        "cluster.run_s",
        median(&sessions.iter().map(|s| s.job_s).collect::<Vec<_>>()),
    );
    v.set(
        "cluster.term_tail_s",
        median(&sessions.iter().map(|s| s.term_tail_s).collect::<Vec<_>>()),
    );

    let c = layers::compile_layers(&[echo()], 20, tracer);
    v.set("syntax.parse_us", c.parse_us);
    v.set("types.check_us", c.check_us);
    v.set("vm.compile_us", c.compile_us);
    v.set("vm.verify_us", c.verify_us);

    // The call and reply packets exactly as the callers and server send them.
    let dest = NetRef {
        heap_id: 1,
        site: tyco_vm::word::SiteId(1),
        node: NodeId(0),
    };
    let reply = crate::rawwire::RAW_SITE;
    let pkts: Vec<Packet> = (1..=2 * HEAVY_EVERY)
        .flat_map(|k| {
            let c = (k % 2) as usize;
            let r = NetRef {
                heap_id: k,
                site: reply,
                node: NodeId(1 + c as u32),
            };
            [
                inp.call(c, k, dest, r),
                Packet::Msg {
                    dest: r,
                    label: "val".into(),
                    args: vec![WireWord::Int(inp.x(c, k) + 1)],
                },
            ]
        })
        .collect();
    let ct = layers::codec_replay(&pkts, 2000, tracer);
    v.set("codec.encode_ns", ct.encode_ns);
    v.set("codec.decode_ns", ct.decode_ns);
    v.set("codec.bytes_per_pkt", ct.bytes_per_pkt);

    // The server's class group, packaged and linked as if it moved.
    let server = layers::compile(&echo());
    let client = layers::compile("0");
    let (pack, link) = layers::wire_replay(&server, "val", &client, 50, tracer);
    v.set("wire.pack_us", pack);
    v.set("wire.link_us", link);

    // The same calls answered inside one machine: the VM's share.
    let kernel = format!(
        "{SERVER_DEFS} in new p (Srv[p] | {})",
        sim_caller(inp, 0, inp.total() * 20).replace("import p from server in ", "")
    );
    let (instrs, secs, _) = layers::vm_kernel(&kernel, tracer);
    v.set("vm.instrs_per_s", instrs as f64 / secs);

    // The simulated session with every site on one node (no remote
    // path) and on an ideal fabric (no virtual link model).
    let (_, colocated, _) = simulate(inp, FabricMode::Virtual, true);
    let (_, ideal, _) = simulate(inp, FabricMode::Ideal, false);
    v.set("daemon.remote_path_share", 1.0 - colocated / sim_wall);
    v.set("fabric.virtual_share", 1.0 - ideal / sim_wall);
}
