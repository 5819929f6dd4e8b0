//! `fanin`: message throughput on the deterministic engine that `ditico
//! net` runs by default, on `Topology::paper_cluster()` (4 nodes,
//! virtual-time Myrinet). Six sender sites on nodes 1–3 stream windowed
//! pings to one hub site on node 0: a burst of pings, then a `sync` call
//! the hub answers. The hub counts and sums the pings and prints both
//! once every sender has said `fin`; each sender prints `done`. One job
//! is one run of the engine. No sockets, no threads.

use crate::layers;
use crate::trace::Tracer;
use crate::util::{median, quantile, tail, Outcome, Rng};
use crate::{report_counters, report_failures, Values};
use ditico::{Env, FabricMode, RunLimits, RunReport, Topology};
use std::time::{Duration, Instant};
use tyco_vm::codec::Packet;
use tyco_vm::wire::WireWord;
use tyco_vm::word::{NetRef, NodeId, SiteId};

const SENDERS: usize = 6;
const M: u64 = 1_000_003;

#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Mean windows per sender (the seed moves single senders by up to a
    /// tenth of it, in pairs that cancel, so the total never changes).
    pub windows: u64,
    /// Pings per window.
    pub burst: u64,
}

pub const FULL: Size = Size {
    windows: 40,
    burst: 10,
};

/// Every `HEAVY_EVERY`-th job streams `HEAVY_SCALE` times the windows.
/// With 2% of the jobs heavy, the 99th percentile of job latency falls
/// on a typical heavy job: the tail of a request mix, not the rarest
/// stalls of a shared host, which swing the 99th percentile of any
/// CPU-bound loop by a quarter from one half-minute to the next.
const HEAVY_EVERY: usize = 50;
const HEAVY_SCALE: u64 = 4;

/// The seeded inputs: each sender's node, window count and ping-value
/// coefficients. Sender `i`'s ping `k` of window `w` carries
/// `(w * p + k * q + r) % M`.
#[derive(Debug, Clone)]
struct Inputs {
    pub size: Size,
    node: [usize; SENDERS],
    windows: [u64; SENDERS],
    coef: [[u64; 3]; SENDERS],
}

impl Inputs {
    pub fn new(seed: u64, size: Size) -> Inputs {
        let mut rng = Rng::new(seed);
        let mut node = [1, 1, 2, 2, 3, 3];
        rng.shuffle(&mut node);
        let mut windows = [size.windows; SENDERS];
        for i in 0..SENDERS / 2 {
            let d = rng.below(size.windows / 10 + 1);
            windows[i] += d;
            windows[i + SENDERS / 2] -= d;
        }
        let mut coef = [[0u64; 3]; SENDERS];
        for c in coef.iter_mut() {
            *c = [1 + rng.below(M - 1), 1 + rng.below(M - 1), rng.below(M)];
        }
        Inputs {
            size,
            node,
            windows,
            coef,
        }
    }

    pub fn pings(&self) -> u64 {
        self.windows.iter().sum::<u64>() * self.size.burst
    }

    pub fn syncs(&self) -> u64 {
        self.windows.iter().sum()
    }

    /// What the hub must print: the ping count and the ping-value sum.
    pub fn hub_line(&self) -> String {
        let mut sum = 0u64;
        for i in 0..SENDERS {
            let [p, q, r] = self.coef[i];
            for w in 1..=self.windows[i] {
                for k in 1..=self.size.burst {
                    sum = (sum + (w * p + k * q + r) % M) % M;
                }
            }
        }
        format!("{} {sum}", self.pings())
    }

    fn hub(&self) -> String {
        format!("{} in export new hub in Hub[hub, 0, 0, 0]", hub_def())
    }

    /// Sender `i`'s two classes, their names suffixed with `tag`.
    fn sender_defs(&self, i: usize, tag: &str) -> String {
        let [p, q, r] = self.coef[i];
        format!(
            "Outer{tag}(w) = \
                 if w > 0 then new a (Burst{tag}[{b}, w, a] | a?(v) = Outer{tag}[w - 1]) \
                 else (hub!fin[] | println(\"done\")) \
             and Burst{tag}(k, w, a) = \
                 if k > 0 then (hub!ping[(w * {p} + k * {q} + {r}) % {M}] | Burst{tag}[k - 1, w, a]) \
                 else hub!sync[a]",
            b = self.size.burst,
        )
    }

    fn sender(&self, i: usize) -> String {
        format!(
            "import hub from hub in def {} in Outer[{}]",
            self.sender_defs(i, ""),
            self.windows[i]
        )
    }

    /// The hub and every sender as one single-site program: the same
    /// reductions with no daemon, codec or fabric in between.
    fn kernel(&self) -> String {
        let defs: Vec<String> = (0..SENDERS)
            .map(|i| self.sender_defs(i, &i.to_string()))
            .collect();
        let starts: Vec<String> = (0..SENDERS)
            .map(|i| format!("Outer{i}[{}]", self.windows[i]))
            .collect();
        format!(
            "new hub ({} and {} in (Hub[hub, 0, 0, 0] | {}))",
            hub_def(),
            defs.join(" and "),
            starts.join(" | ")
        )
    }

    pub fn sources(&self) -> Vec<String> {
        let mut v = vec![self.hub()];
        v.extend((0..SENDERS).map(|i| self.sender(i)));
        v
    }

    /// The environment: hub on node 0, senders on their seeded nodes
    /// (all on node 0 when `colocated`).
    pub fn env(&self, mode: FabricMode, colocated: bool) -> Env {
        let mut topo = Topology::paper_cluster();
        topo.mode = mode;
        let mut env = Env::new(topo)
            .site_on(0, "hub", &self.hub())
            .expect("hub compiles");
        for i in 0..SENDERS {
            let node = if colocated { 0 } else { self.node[i] };
            env = env
                .site_on(node, &format!("s{i}"), &self.sender(i))
                .expect("sender compiles");
        }
        env
    }

    /// Output violations of a finished run.
    pub fn check(&self, r: &RunReport) -> Vec<String> {
        let mut bad = report_failures("fanin", r);
        let hub = self.hub_line();
        if r.output("hub") != [hub.clone()] {
            bad.push(format!(
                "hub printed {:?}, expected [{hub}]",
                r.output("hub")
            ));
        }
        for i in 0..SENDERS {
            let s = format!("s{i}");
            if r.output(&s) != ["done".to_string()] {
                bad.push(format!("sender {s} printed {:?}, not [done]", r.output(&s)));
            }
        }
        bad
    }
}

/// The hub counts and sums the pings, answers `sync`, and prints both
/// once every sender has said `fin`.
fn hub_def() -> String {
    format!(
        "def Hub(self, n, sum, fins) = \
             if fins == {SENDERS} then println(n, sum) \
             else self ? {{ \
                 ping(x) = Hub[self, n + 1, (sum + x) % {M}, fins], \
                 sync(r) = (r![0] | Hub[self, n, sum, fins]), \
                 fin() = Hub[self, n, sum, fins + 1] }}"
    )
}

struct Job {
    setup_s: f64,
    build_us: f64,
    wall_s: f64,
    /// Time the bench spent checking the job's outputs.
    check_s: f64,
    heavy: bool,
    report: RunReport,
}

fn job(inp: &Inputs, tracer: &mut Tracer) -> Job {
    let top = tracer.open("fanin.job", None);
    let t0 = Instant::now();
    let env = inp.env(FabricMode::Virtual, false);
    let b0 = Instant::now();
    let mut built = env.build().expect("links");
    let b1 = Instant::now();
    let report = built.run_deterministic(crate::unlimited());
    let t2 = Instant::now();
    tracer.record("env.build", b0, b1, top, 0);
    tracer.record("cluster.run", b1, t2, top, 0);
    tracer.close(top);
    Job {
        setup_s: (b1 - t0).as_secs_f64(),
        build_us: (b1 - b0).as_secs_f64() * 1e6,
        wall_s: (t2 - b1).as_secs_f64(),
        check_s: 0.0,
        heavy: false,
        report,
    }
}

/// Wall time from the engine's start until every sender has resolved
/// `hub` (sent its first ping), stepping one progress round at a time;
/// and the engine's termination tail: the wall time from the round that
/// runs the job's last instruction until the engine returns.
fn engine_edges(inp: &Inputs, total_instrs: u64) -> (f64, f64) {
    let mut built = inp.env(FabricMode::Virtual, false).build().expect("links");
    let t0 = Instant::now();
    let mut last = 0;
    let resolve = loop {
        let r = built.run_deterministic(RunLimits {
            max_instrs: last,
            ..crate::unlimited()
        });
        let resolved = (0..SENDERS).all(|i| r.stats[&format!("s{i}")].msgs_sent > 0);
        if resolved || r.total_instrs <= last {
            break t0.elapsed().as_secs_f64();
        }
        last = r.total_instrs;
    };
    built.run_deterministic(RunLimits {
        max_instrs: total_instrs - 1,
        ..crate::unlimited()
    });
    let t1 = Instant::now();
    let r = built.run_deterministic(crate::unlimited());
    let tail = t1.elapsed().as_secs_f64();
    assert_eq!(r.total_instrs, total_instrs, "tail replay ran further work");
    (resolve, tail)
}

/// Wall time of one run of `env` to completion.
fn replay(env: Env) -> f64 {
    let mut built = env.build().expect("links");
    let t0 = Instant::now();
    let r = built.run_deterministic(crate::unlimited());
    let s = t0.elapsed().as_secs_f64();
    assert!(r.errors.is_empty(), "replay failed: {:?}", r.errors);
    s
}

/// The workload's size for the check against the reference interpreter.
pub const REDUCED: Size = Size {
    windows: 2,
    burst: 3,
};

/// The seed's inputs at [`REDUCED`] size: the VM must print exactly what
/// the tyco-calculus interpreter and the bench's own arithmetic say.
pub fn reference_check(seed: u64) -> Vec<String> {
    let inp = Inputs::new(seed, REDUCED);
    let mut expected = vec![("hub", vec![inp.hub_line()])];
    let senders: Vec<String> = (0..SENDERS).map(|i| format!("s{i}")).collect();
    expected.extend(
        senders
            .iter()
            .map(|s| (s.as_str(), vec!["done".to_string()])),
    );
    crate::reference_check(inp.env(FabricMode::Virtual, false), &expected)
}

pub fn run(seed: u64, seconds: f64, size: Size, traced: bool, out: &mut Outcome, v: &mut Values) {
    out.violations.extend(reference_check(seed));
    // Regular jobs, and every `HEAVY_EVERY`-th one heavy.
    let kinds = [
        Inputs::new(seed, size),
        Inputs::new(
            seed,
            Size {
                windows: size.windows * HEAVY_SCALE,
                ..size
            },
        ),
    ];
    let inp = &kinds[0];
    let mut tracer = Tracer::new(traced);
    let t_end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut jobs = Vec::new();
    loop {
        let heavy = jobs.len() % HEAVY_EVERY == HEAVY_EVERY - 1;
        let kind = &kinds[usize::from(heavy)];
        let mut j = job(kind, &mut tracer);
        j.heavy = heavy;
        let c0 = Instant::now();
        let bad = kind.check(&j.report);
        j.check_s = c0.elapsed().as_secs_f64();
        let ops = kind.pings() + kind.syncs() + SENDERS as u64;
        out.attempted += ops;
        if !bad.is_empty() {
            out.failed += ops;
        }
        let stop = !bad.is_empty() || Instant::now() >= t_end;
        out.violations.extend(bad);
        jobs.push(j);
        if stop {
            break;
        }
    }
    for heavy in [false, true] {
        let same_kind: Vec<&RunReport> = jobs
            .iter()
            .filter(|j| j.heavy == heavy)
            .map(|j| &j.report)
            .collect();
        let Some(first) = same_kind.first() else {
            continue;
        };
        if same_kind.iter().any(|r| r.virtual_ns != first.virtual_ns) {
            out.violations
                .push("virtual makespan differs between runs of one job".into());
        }
        if same_kind
            .iter()
            .any(|r| r.total_instrs != first.total_instrs)
        {
            out.violations
                .push("instruction count differs between runs of one job".into());
        }
    }
    let med = |f: &dyn Fn(&Job) -> f64| median(&jobs.iter().map(f).collect::<Vec<_>>());
    let pings = |j: &Job| kinds[usize::from(j.heavy)].pings() as f64;
    let syncs = |j: &Job| kinds[usize::from(j.heavy)].syncs() as f64;
    v.set("setup_s", med(&|j| j.setup_s));
    v.set("job_s", med(&|j| j.wall_s));
    v.set("msgs_per_s", med(&|j| pings(j) / j.wall_s));
    v.set("calls_per_s", med(&|j| syncs(j) / j.wall_s));
    v.set("sim_ms", jobs[0].report.virtual_ns as f64 / 1e6);
    // No caller outside the engine sees a single remote call: the bench
    // is the caller, and its call is the whole job.
    let job_us: Vec<f64> = jobs.iter().map(|j| j.wall_s * 1e6).collect();
    v.set("rpc_p50_us", quantile(&job_us, 0.5).unwrap_or(0.0));
    let (p99, batches) = tail(&job_us);
    v.set("rpc_p99_us", p99);
    out.note("rpc_p99_batches", batches);
    out.note("jobs", jobs.len());
    out.note("heavy_jobs", jobs.iter().filter(|j| j.heavy).count());
    out.note("pings_per_job", inp.pings());
    out.note("rpc_samples", job_us.len());
    out.note("vm_instrs", jobs[0].report.total_instrs);

    if traced {
        report_counters(v, &[&jobs[0].report]);
        v.set("env.build_us", med(&|j| j.build_us));
        let run_s = med(&|j| j.wall_s);
        v.set("cluster.run_s", run_s);
        // The bench's call is the whole job: its own share is building
        // the environment and checking the outputs.
        v.set(
            "rpc.caller_self_us",
            med(&|j| (j.setup_s + j.check_s) * 1e6),
        );
        v.set("rpc.server_us", run_s * 1e6);
        let (resolve_s, tail_s) = engine_edges(inp, jobs[0].report.total_instrs);
        v.set("ns.resolve_us", resolve_s * 1e6);
        v.set("cluster.term_tail_s", tail_s);
        let c = layers::compile_layers(&inp.sources(), 10, &mut tracer);
        v.set("syntax.parse_us", c.parse_us);
        v.set("types.check_us", c.check_us);
        v.set("vm.compile_us", c.compile_us);
        v.set("vm.verify_us", c.verify_us);
        let hub = NetRef {
            heap_id: 0,
            site: SiteId(0),
            node: NodeId(0),
        };
        let ack = NetRef {
            heap_id: 3,
            site: SiteId(1),
            node: NodeId(1),
        };
        let mut pkts: Vec<Packet> = (1..=inp.size.burst)
            .map(|k| Packet::Msg {
                dest: hub,
                label: "ping".into(),
                args: vec![WireWord::Int((k * inp.coef[0][1] % M) as i64)],
            })
            .collect();
        pkts.push(Packet::Msg {
            dest: hub,
            label: "sync".into(),
            args: vec![WireWord::Chan(ack)],
        });
        pkts.push(Packet::Msg {
            dest: ack,
            label: "val".into(),
            args: vec![WireWord::Int(0)],
        });
        let ct = layers::codec_replay(&pkts, 5000, &mut tracer);
        v.set("codec.encode_ns", ct.encode_ns);
        v.set("codec.decode_ns", ct.decode_ns);
        v.set("codec.bytes_per_pkt", ct.bytes_per_pkt);
        let hub_code = layers::compile(&inp.hub());
        let (pack, link) =
            layers::wire_replay(&hub_code, "ping", &layers::compile("0"), 50, &mut tracer);
        v.set("wire.pack_us", pack);
        v.set("wire.link_us", link);
        let (instrs, secs, lines) = layers::vm_kernel(&inp.kernel(), &mut tracer);
        assert!(lines.contains(&inp.hub_line()), "kernel hub line");
        v.set("vm.instrs_per_s", instrs as f64 / secs);
        let colocated = replay(inp.env(FabricMode::Virtual, true));
        let ideal = replay(inp.env(FabricMode::Ideal, false));
        v.set("daemon.remote_path_share", 1.0 - colocated / run_s);
        v.set("fabric.virtual_share", 1.0 - ideal / run_s);
        let json = tracer.to_json(&format!("\"workload\": \"fanin\", \"seed\": {seed}"));
        crate::write_trace("fanin", seed, &json);
    }
}
