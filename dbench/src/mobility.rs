//! `mobility`: the paper's §4 SETI pattern as one job over TCP loopback.
//!
//! Two partitions run in this process with default worker pools. The
//! server (node 0) exports a class group `Worker` and a collector hook,
//! and keeps a chunk database `db` that `Worker` captures. Four client
//! sites (node 1) each FETCH `Worker` and run it locally: every round
//! pulls a chunk from `db` by RPC, churns a cell on it, and ships the
//! result as an object (SHIPO) to the collector's sink. The job ends
//! through the runtime's own termination.
//!
//! One raw-wire observer (node 2) taps the collector, which forwards it
//! every result. The gap between two results of one client is that
//! client's round as seen from outside: chunk RPC, compute and shipping.
//! The observer hangs up when the last result arrives.

use crate::layers;
use crate::rawwire::{free_addr, RawPeer};
use crate::trace::Tracer;
use crate::util::{median, quantile, tail, us, Outcome, Rng};
use crate::{report_counters, report_failures, Values};
use ditico::{Env, FabricMode, LinkProfile, RunReport, Topology, TransportConfig};
use std::time::{Duration, Instant};
use tyco_vm::codec::Packet;
use tyco_vm::wire::WireWord;
use tyco_vm::word::{Identity, NetRef, NodeId, SiteId};

pub const CLIENTS: usize = 4;
const M: u64 = 1_000_003;
const WALL: Duration = Duration::from_secs(60);
/// Call id of the observer's tap on the collector.
const TAP_ID: u64 = 1;
/// Set-ups measured on their own, beside the one each job pays, so the
/// reported set-up time is a median over many.
const SETUP_REPS: usize = 40;

#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Mean rounds per client (the seed moves single clients by up to a
    /// thirtieth of it, in pairs that cancel, so the total never changes).
    pub rounds: u64,
    /// Cell-churn iterations per chunk.
    pub churn: u64,
}

pub const FULL: Size = Size {
    rounds: 120,
    churn: 3000,
};

/// The workload's size for the check against the reference interpreter.
pub const REDUCED: Size = Size {
    rounds: 3,
    churn: 5,
};

/// Every `HEAVY_EVERY`-th round of a client churns `HEAVY_SCALE` times
/// as long. With about 2% of the rounds heavy, the 99th percentile of
/// round time falls on the heavy rounds: the tail of a request mix, not
/// the rarest stalls of a shared host, which swing the 99th percentile
/// of any CPU-bound loop by a quarter from one half-minute to the next.
const HEAVY_EVERY: u64 = 50;
const HEAVY_SCALE: u64 = 4;

/// The seeded inputs: rounds per client, the chunk formula
/// `(id * p + k * q + r) % M` and the churn step `w -> (w * a + b) % M`.
#[derive(Debug, Clone)]
struct Inputs {
    pub size: Size,
    rounds: [u64; CLIENTS],
    p: u64,
    q: u64,
    r: u64,
    a: u64,
    b: u64,
}

impl Inputs {
    pub fn new(seed: u64, size: Size) -> Inputs {
        let mut rng = Rng::new(seed);
        let mut rounds = [size.rounds; CLIENTS];
        for i in 0..CLIENTS / 2 {
            let d = rng.below(size.rounds / 30 + 1);
            rounds[i] += d;
            rounds[i + CLIENTS / 2] -= d;
        }
        let mut draw = || 1 + rng.below(M - 1);
        Inputs {
            size,
            rounds,
            p: draw(),
            q: draw(),
            r: draw(),
            a: draw(),
            b: draw(),
        }
    }

    fn total(&self) -> u64 {
        self.rounds.iter().sum()
    }

    fn chunk(&self, id: u64, k: u64) -> u64 {
        (id * self.p + k * self.q + self.r) % M
    }

    /// The value client `id` computes and ships in round `k`.
    fn result(&self, id: u64, k: u64) -> u64 {
        let mut w = self.chunk(id, k);
        let scale = if k.is_multiple_of(HEAVY_EVERY) {
            HEAVY_SCALE
        } else {
            1
        };
        for _ in 0..self.size.churn * scale {
            w = (w * self.a + self.b) % M;
        }
        w
    }

    /// Client `id`'s printed checksum.
    fn checksum(&self, id: usize) -> u64 {
        (1..=self.rounds[id]).fold(0, |acc, k| (acc + self.result(id as u64, k)) % M)
    }

    /// The collector's (and the observer stand-in's) printed total.
    fn total_sum(&self) -> u64 {
        (0..CLIENTS).fold(0, |acc, c| (acc + self.checksum(c)) % M)
    }

    /// The class group every client fetches, over free names `db` and
    /// `sink`.
    fn worker_group(&self) -> String {
        format!(
            "def Worker(id, k, acc) = \
                 if k > 0 then \
                     new r (db!get[id, k, r] | r?(chunk) = \
                         new cell new done (Cell[cell, chunk] | \
                                            Churn[cell, {c} * (1 + {extra} * (1 - (k % {every} + {every} - 1) / {every})), done] | \
                                            done?(v) = \
                             (sink ? {{ take(t) = t![id, v] }} | Worker[id, k - 1, (acc + v) % {M}]))) \
                 else println(acc) \
             and Cell(self, v) = self ? {{ read(r) = (r![v] | Cell[self, v]), \
                                          write(u, a) = (a![0] | Cell[self, u]) }} \
             and Churn(cell, n, done) = \
                 if n > 0 then new z (cell!read[z] | z?(w) = \
                     new a (cell!write[(w * {a} + {b}) % {M}, a] | a?(x) = Churn[cell, n - 1, done])) \
                 else cell!read[done]",
            c = self.size.churn,
            extra = HEAVY_SCALE - 1,
            every = HEAVY_EVERY,
            a = self.a,
            b = self.b,
        )
    }

    fn db(&self) -> String {
        format!(
            "def Db(self) = self ? {{ get(id, k, r) = (r![(id * {p} + k * {q} + {r}) % {M}] | Db[self]) }}",
            p = self.p,
            q = self.q,
            r = self.r,
        )
    }

    pub fn server(&self) -> String {
        format!(
            "new db new sink ( \
             export new hook in export {worker} in \
             {db} \
             and Coll(n, acc, w) = \
                 if n > 0 then new t (sink!take[t] | t?(id, v) = (w![id, v] | Coll[n - 1, (acc + v) % {M}, w])) \
                 else println(acc) \
             in (Db[db] | hook ? {{ tap(w) = Coll[{total}, 0, w] }}))",
            worker = self.worker_group(),
            db = self.db(),
            total = self.total(),
        )
    }

    pub fn client(&self, id: usize) -> String {
        format!(
            "import Worker from server in Worker[{id}, {}, 0]",
            self.rounds[id]
        )
    }

    /// A DiTyCO site standing in for the raw-wire observer where no raw
    /// peer can run (the simulated cluster and the reference check).
    pub fn observer_site(&self) -> String {
        format!(
            "import hook from server in \
             def Obs(w, n, acc) = if n > 0 then w?(id, v) = Obs[w, n - 1, (acc + v) % {M}] \
                                  else println(acc) \
             in new w (hook!tap[w] | Obs[w, {}, 0])",
            self.total()
        )
    }

    pub fn sources(&self) -> Vec<String> {
        let mut v = vec![self.server()];
        v.extend((0..CLIENTS).map(|c| self.client(c)));
        v
    }

    /// Server on node 0, clients on node 1 (every site on node 0 when
    /// `colocated`); with `observer`, the stand-in observer site on node 2.
    pub fn env(&self, topo: Topology, observer: bool, colocated: bool) -> Env {
        let node = |n: usize| if colocated { 0 } else { n };
        let mut env = Env::new(topo)
            .site_on(0, "server", &self.server())
            .expect("server compiles");
        for c in 0..CLIENTS {
            env = env
                .site_on(node(1), &format!("c{c}"), &self.client(c))
                .expect("client compiles");
        }
        if observer {
            env = env
                .site_on(node(2), "obs", &self.observer_site())
                .expect("observer compiles");
        }
        env
    }

    /// What every site must print; the observer stand-in only when
    /// `observer`.
    fn expected(&self, observer: bool) -> Vec<(String, Vec<String>)> {
        let total = vec![self.total_sum().to_string()];
        let mut want: Vec<(String, Vec<String>)> = (0..CLIENTS)
            .map(|c| (format!("c{c}"), vec![self.checksum(c).to_string()]))
            .collect();
        want.push(("server".into(), total.clone()));
        if observer {
            want.push(("obs".into(), total));
        }
        want
    }

    /// Output violations: each client's checksum and the collector's
    /// total, read through `outputs`.
    fn check_outputs(&self, observer: bool, outputs: &dyn Fn(&str) -> Vec<String>) -> Vec<String> {
        self.expected(observer)
            .into_iter()
            .filter_map(|(lexeme, want)| {
                let got = outputs(&lexeme);
                (got != want).then(|| format!("site {lexeme} printed {got:?}, expected {want:?}"))
            })
            .collect()
    }

    /// One client's rounds with the chunk database in the same machine:
    /// the job's compute on the VM alone.
    fn kernel(&self) -> String {
        format!(
            "new db new sink ({} in {} in (Db[db] | Worker[0, {}, 0]))",
            self.worker_group(),
            self.db(),
            self.rounds[0]
        )
    }
}

fn topology() -> Topology {
    Topology {
        nodes: 3,
        mode: FabricMode::Ideal,
        link: LinkProfile::ideal(),
        ns_replicas: 1,
    }
}

/// What the observer saw.
#[derive(Default)]
struct Observed {
    /// (client, value, arrival) of every forwarded result.
    results: Vec<(u64, u64, Instant)>,
    resolve_us: f64,
    violations: Vec<String>,
}

impl Observed {
    fn last_result(&self) -> Option<Instant> {
        self.results.last().map(|r| r.2)
    }

    /// Round times (µs): the gap between consecutive results of one
    /// client. A client's first result also carries its FETCH and is not
    /// a round time.
    fn rounds_us(&self) -> Vec<f64> {
        let mut last: [Option<Instant>; CLIENTS] = [None; CLIENTS];
        let mut out = Vec::new();
        for &(c, _, t) in &self.results {
            let Some(slot) = last.get_mut(c as usize) else {
                continue;
            };
            if let Some(prev) = *slot {
                out.push(us(t - prev));
            }
            *slot = Some(t);
        }
        out
    }
}

fn observe(
    inp: &Inputs,
    peer: &mut RawPeer,
    tracer: &mut Tracer,
    parent: Option<usize>,
) -> Observed {
    let mut o = Observed::default();
    let deadline = Instant::now() + Duration::from_secs(30);
    let r0 = Instant::now();
    let hook = match peer.import_name(NodeId(0), "server", "hook", deadline) {
        Ok(h) => h,
        Err(e) => {
            o.violations
                .push(format!("observer cannot import hook: {e}"));
            return o;
        }
    };
    let r1 = Instant::now();
    tracer.record("ns.resolve", r0, r1, parent, 0);
    o.resolve_us = us(r1 - r0);
    let tap = Packet::Msg {
        dest: hook,
        label: "tap".into(),
        args: vec![WireWord::Chan(peer.reply_ref(TAP_ID))],
    };
    peer.send(hook.node, &tap).expect("send tap");
    while (o.results.len() as u64) < inp.total() {
        let got = peer.recv_until(deadline, |p| matches!(p, Packet::Msg { .. }));
        let t = Instant::now();
        match got {
            Ok(Packet::Msg { dest, args, .. }) if dest.heap_id == TAP_ID => match args.as_slice() {
                [WireWord::Int(id), WireWord::Int(v)] => {
                    o.results.push((*id as u64, *v as u64, t));
                }
                other => o.violations.push(format!("collector forwarded {other:?}")),
            },
            Ok(other) => o.violations.push(format!("observer got {other:?}")),
            Err(e) => {
                o.violations.push(format!(
                    "observer saw {} of {} results: {e}",
                    o.results.len(),
                    inp.total()
                ));
                break;
            }
        }
    }
    o
}

struct Job {
    setup_s: f64,
    build_us: f64,
    job_s: f64,
    term_tail_s: f64,
    server: RunReport,
    client: RunReport,
    obs: Observed,
}

/// Compile every site and build both partitions: the job's set-up.
fn set_up(inp: &Inputs) -> (ditico::BuiltEnv, ditico::BuiltEnv, f64) {
    let env_s = inp.env(topology(), false, false);
    let env_c = inp.env(topology(), false, false);
    let b0 = Instant::now();
    let built_s = env_s
        .build_partition(&[0])
        .expect("server partition builds");
    let built_c = env_c
        .build_partition(&[1])
        .expect("client partition builds");
    (built_s, built_c, us(b0.elapsed()))
}

fn job(inp: &Inputs, tracer: &mut Tracer) -> Job {
    let top = tracer.open("mobility.job", None);
    let t0 = Instant::now();
    let (built_s, built_c, build_us) = set_up(inp);
    let setup_s = t0.elapsed().as_secs_f64();
    tracer.record("env.build", t0, Instant::now(), top, 0);

    let addr = free_addr().expect("loopback address");
    let scfg = TransportConfig {
        local_nodes: vec![NodeId(0)],
        listen: Some(addr),
        serve: true,
        ..TransportConfig::default()
    };
    let hb = scfg.hb_period;
    let start = Instant::now();
    let server = std::thread::spawn(move || {
        let r = built_s.run_distributed(scfg, WALL);
        (r, Instant::now())
    });
    // The observer's handshake doubles as "the server is listening", so
    // the client partition's first dial never waits out a backoff.
    let mut peer = RawPeer::connect(addr, NodeId(2), hb, start + Duration::from_secs(10))
        .expect("observer handshake");
    let ccfg = TransportConfig {
        local_nodes: vec![NodeId(1)],
        peers: vec![addr],
        ..TransportConfig::default()
    };
    let client = std::thread::spawn(move || {
        let r = built_c.run_distributed(ccfg, WALL);
        (r, Instant::now())
    });
    let obs = observe(inp, &mut peer, tracer, top);
    drop(peer);
    let (client, c_end) = client.join().expect("client partition thread");
    let (server, s_end) = server.join().expect("server partition thread");
    let end = c_end.max(s_end);
    tracer.record("cluster.run", start, end, top, 0);
    tracer.close(top);
    Job {
        setup_s,
        build_us,
        job_s: (end - start).as_secs_f64(),
        term_tail_s: obs.last_result().map_or(0.0, |t| (end - t).as_secs_f64()),
        server: server.expect("server partition starts"),
        client: client.expect("client partition starts"),
        obs,
    }
}

impl Job {
    /// (attempted, failed, violations): one operation per client
    /// checksum, collector total and forwarded result.
    fn account(&self, inp: &Inputs) -> (u64, u64, Vec<String>) {
        let mut bad = report_failures("server", &self.server);
        bad.extend(report_failures("client", &self.client));
        bad.extend(self.obs.violations.iter().cloned());
        let outputs = |lex: &str| {
            let mut v = self.server.output(lex).to_vec();
            v.extend(self.client.output(lex).iter().cloned());
            v
        };
        let wrong_outputs = inp.check_outputs(false, &outputs);
        let mut failed = wrong_outputs.len() as u64;
        bad.extend(wrong_outputs);
        // The results the observer saw must be exactly the ones the
        // clients made.
        let mut want: Vec<(u64, u64)> = (0..CLIENTS)
            .flat_map(|c| (1..=inp.rounds[c]).map(move |k| (c as u64, k)))
            .map(|(c, k)| (c, inp.result(c, k)))
            .collect();
        let mut got: Vec<(u64, u64)> = self.obs.results.iter().map(|r| (r.0, r.1)).collect();
        want.sort_unstable();
        got.sort_unstable();
        let missing = want.len() - want.iter().filter(|w| got.binary_search(w).is_ok()).count();
        if got != want {
            failed += missing.max(1) as u64;
            bad.push(format!(
                "observer saw {} results, {} of the {} expected missing or wrong",
                got.len(),
                missing,
                want.len()
            ));
        }
        if !bad.is_empty() {
            failed = failed.max(1);
        }
        let attempted = CLIENTS as u64 + 1 + inp.total();
        (attempted, failed.min(attempted), bad)
    }
}

/// The job on the paper's cluster model, observer stand-in included;
/// returns the report and the wall time the engine took.
fn simulate(inp: &Inputs, mode: FabricMode, colocated: bool) -> (RunReport, f64) {
    let mut topo = Topology::paper_cluster();
    topo.mode = mode;
    let mut built = inp.env(topo, true, colocated).build().expect("links");
    let t0 = Instant::now();
    let r = built.run_deterministic(crate::unlimited());
    (r, t0.elapsed().as_secs_f64())
}

/// The seed's inputs at [`REDUCED`] size, observer stand-in included:
/// the VM must print exactly what the tyco-calculus interpreter and the
/// bench's own arithmetic say.
pub fn reference_check(seed: u64) -> Vec<String> {
    let inp = Inputs::new(seed, REDUCED);
    let expected = inp.expected(true);
    let expected: Vec<(&str, Vec<String>)> = expected
        .iter()
        .map(|(l, v)| (l.as_str(), v.clone()))
        .collect();
    crate::reference_check(inp.env(Topology::paper_cluster(), true, false), &expected)
}

pub fn run(seed: u64, seconds: f64, size: Size, traced: bool, out: &mut Outcome, v: &mut Values) {
    out.violations.extend(reference_check(seed));
    let inp = Inputs::new(seed, size);
    let mut tracer = Tracer::new(traced);
    let (sim, sim_wall) = simulate(&inp, FabricMode::Virtual, false);
    let mut sim_bad = report_failures("simulation", &sim);
    sim_bad.extend(inp.check_outputs(true, &|lex| sim.output(lex).to_vec()));
    out.violations.extend(sim_bad);

    let t_end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut jobs = Vec::new();
    loop {
        let j = job(&inp, &mut tracer);
        let (attempted, failed, bad) = j.account(&inp);
        out.attempted += attempted;
        out.failed += failed;
        let stop = !bad.is_empty() || Instant::now() >= t_end;
        out.violations.extend(bad);
        jobs.push(j);
        if stop {
            break;
        }
    }
    let mut setups: Vec<f64> = jobs.iter().map(|j| j.setup_s).collect();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        drop(set_up(&inp));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let rounds: Vec<f64> = jobs.iter().flat_map(|j| j.obs.rounds_us()).collect();
    let (p99, batches) = tail(&rounds);
    let med = |f: &dyn Fn(&Job) -> f64| median(&jobs.iter().map(f).collect::<Vec<_>>());
    let data_pkts = |j: &Job| -> f64 {
        [&j.server, &j.client]
            .iter()
            .filter_map(|r| r.transport.as_ref())
            .map(|t| t.data_in as f64)
            .sum()
    };
    v.set("setup_s", median(&setups));
    v.set("job_s", med(&|j| j.job_s));
    v.set("calls_per_s", med(&|j| inp.total() as f64 / j.job_s));
    v.set("msgs_per_s", med(&|j| data_pkts(j) / j.job_s));
    v.set("sim_ms", sim.virtual_ns as f64 / 1e6);
    v.set("rpc_p50_us", quantile(&rounds, 0.5).unwrap_or(0.0));
    v.set("rpc_p99_us", p99);
    out.note("jobs", jobs.len());
    out.note("rounds_per_job", inp.total());
    out.note("rpc_samples", rounds.len());
    out.note("rpc_p99_batches", batches);
    out.note("setup_samples", setups.len());
    // Over TCP the instruction count moves by a few hundred with arrival
    // order (an object that finds its message queued runs a shorter
    // path); the simulated job's count is the exact one.
    out.note(
        "vm_instrs_tcp",
        jobs[0].server.total_instrs + jobs[0].client.total_instrs,
    );
    out.note("vm_instrs", sim.total_instrs);

    if traced {
        trace_layers(&inp, &jobs, &sim, sim_wall, &rounds, &mut tracer, v);
        let json = tracer.to_json(&format!("\"workload\": \"mobility\", \"seed\": {seed}"));
        crate::write_trace("mobility", seed, &json);
    }
}

fn trace_layers(
    inp: &Inputs,
    jobs: &[Job],
    sim: &RunReport,
    sim_wall: f64,
    rounds: &[f64],
    tracer: &mut Tracer,
    v: &mut Values,
) {
    let last = jobs.last().expect("one job");
    report_counters(v, &[&last.server, &last.client]);
    v.set("vm.instrs", sim.total_instrs as f64);
    let calls = inp.total() as f64;
    v.set(
        "sched.slices_per_call",
        (last.server.sched.slices + last.client.sched.slices) as f64 / calls,
    );
    v.set(
        "transport.frames_per_call",
        v.get("transport.frames_out").unwrap_or(0.0) / calls,
    );
    let med = |f: &dyn Fn(&Job) -> f64| median(&jobs.iter().map(f).collect::<Vec<_>>());
    v.set("ns.resolve_us", med(&|j| j.obs.resolve_us));
    v.set("env.build_us", med(&|j| j.build_us));
    v.set("cluster.run_s", med(&|j| j.job_s));
    v.set("cluster.term_tail_s", med(&|j| j.term_tail_s));
    let c = layers::compile_layers(&inp.sources(), 10, tracer);
    v.set("syntax.parse_us", c.parse_us);
    v.set("types.check_us", c.check_us);
    v.set("vm.compile_us", c.compile_us);
    v.set("vm.verify_us", c.verify_us);

    let server = layers::compile(&inp.server());
    let client = layers::compile(&inp.client(0));
    let (pack, link) = layers::wire_replay(&server, "Worker", &client, 50, tracer);
    v.set("wire.pack_us", pack);
    v.set("wire.link_us", link);
    let ct = layers::codec_replay(&packets(inp, &server), 200, tracer);
    v.set("codec.encode_ns", ct.encode_ns);
    v.set("codec.decode_ns", ct.decode_ns);
    v.set("codec.bytes_per_pkt", ct.bytes_per_pkt);

    // A round's own compute, on a standalone machine, splits the round
    // time seen from outside into the client's self time and the rest.
    let (instrs, secs, lines) = layers::vm_kernel(&inp.kernel(), tracer);
    assert_eq!(lines, [inp.checksum(0).to_string()], "kernel checksum");
    v.set("vm.instrs_per_s", instrs as f64 / secs);
    let own = secs / inp.rounds[0] as f64 * 1e6;
    v.set("rpc.caller_self_us", own);
    v.set("rpc.server_us", median(rounds) - own);

    let (_, colocated) = simulate(inp, FabricMode::Virtual, true);
    let (_, ideal) = simulate(inp, FabricMode::Ideal, false);
    v.set("daemon.remote_path_share", 1.0 - colocated / sim_wall);
    v.set("fabric.virtual_share", 1.0 - ideal / sim_wall);
}

/// The job's packet shapes: the FETCH reply carrying `Worker`, a chunk
/// call and its reply, and a result forwarded to the observer.
fn packets(inp: &Inputs, server: &tyco_vm::Program) -> Vec<Packet> {
    let table = layers::class_table(server, "Worker");
    let packed = tyco_vm::wire::pack(server, &[table]);
    let db = NetRef {
        heap_id: 0,
        site: SiteId(0),
        node: NodeId(0),
    };
    let r = NetRef {
        heap_id: 7,
        site: SiteId(1),
        node: NodeId(1),
    };
    vec![
        Packet::FetchReply {
            to: Identity {
                site: SiteId(1),
                node: NodeId(1),
            },
            req: 1,
            digest: packed.digest,
            group: tyco_vm::wire::WireGroup {
                table: packed.table_map[&table],
                code: packed.code,
                captured: vec![WireWord::Chan(db), WireWord::Chan(db)],
            },
            index: 0,
        },
        Packet::Msg {
            dest: db,
            label: "get".into(),
            args: vec![WireWord::Int(0), WireWord::Int(1), WireWord::Chan(r)],
        },
        Packet::Msg {
            dest: r,
            label: "val".into(),
            args: vec![WireWord::Int(inp.chunk(0, 1) as i64)],
        },
        Packet::Msg {
            dest: r,
            label: "val".into(),
            args: vec![WireWord::Int(0), WireWord::Int(inp.result(0, 1) as i64)],
        },
    ]
}
