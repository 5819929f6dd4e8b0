//! Site-count scaling sweep of the M:N work-stealing scheduler at a fixed
//! total message volume. The full sweep prints its JSON on stdout;
//! `BENCH_scheduler.json` is the frozen record of the sweep that also ran
//! the retired thread-per-site baseline.
//!
//! ```sh
//! cargo run --release -p ditico-bench --bin site_sweep                  # full sweep
//! cargo run --release -p ditico-bench --bin site_sweep -- --smoke \
//!     --sites 256 --workers 2                                           # CI correctness smoke
//! cargo run --release -p ditico-bench --bin site_sweep -- --smoke-bench # CI bench smoke (8 sites)
//! ```
//!
//! The workload is a ring over 4 nodes: site `i` exports a slot, imports
//! its successor's, streams `TOTAL/sites` pings around the ring and counts
//! the same number arriving before reporting "done". Total traffic is
//! constant across sweep sizes, so the sweep isolates how the scheduler
//! scales with site count, not with work. Runs that hit the wall limit
//! are recorded with their partial throughput and `completed < sites`.

use std::time::{Duration, Instant};

use ditico_rt::sched::SchedConfig;
use ditico_rt::{Cluster, FabricMode, LinkProfile, RunReport};
use tyco_vm::word::NodeId;

/// Sweep points (sites spread round-robin over `NODES` nodes).
const SIZES: [usize; 5] = [8, 64, 256, 1024, 4096];
/// Total pings crossing the fabric per run, split evenly across sites.
const TOTAL_MSGS: u64 = 98_304;
/// Nodes in the cluster (the paper's 4-node platform).
const NODES: usize = 4;
/// Wall limit for scheduler runs (expected to finish far earlier).
const SCHED_WALL: Duration = Duration::from_secs(120);

fn ring_site_src(i: usize, n: usize, msgs: u64) -> String {
    let next = (i + 1) % n;
    format!(
        r#"
        export new slot{i} in
        import slot{next} from s{next} in (
            def Send(j) = if j > 0 then (slot{next}!ping[j] | Send[j - 1]) else 0
            and Recv(self, r) =
                if r > 0 then self ? {{ ping(x) = Recv[self, r - 1] }}
                else println("done")
            in (Send[{msgs}] | Recv[slot{i}, {msgs}])
        )
        "#
    )
}

fn build(sites: usize, msgs_per_site: u64) -> Cluster {
    let mut c = Cluster::new(FabricMode::Ideal, LinkProfile::ideal(), 1);
    let nodes: Vec<NodeId> = (0..NODES).map(|_| c.add_node()).collect();
    for i in 0..sites {
        c.add_site_src(
            nodes[i % NODES],
            &format!("s{i}"),
            &ring_site_src(i, sites, msgs_per_site),
        )
        .expect("ring site compiles");
    }
    c
}

struct Sample {
    msgs_per_sec: f64,
    elapsed: Duration,
    completed: usize,
    report: RunReport,
}

fn score(report: RunReport, elapsed: Duration, sites: usize) -> Sample {
    let completed = (0..sites)
        .filter(|i| report.output(&format!("s{i}")).iter().any(|l| l == "done"))
        .count();
    assert!(
        report.errors.is_empty(),
        "run produced VM errors: {:?}",
        report.errors
    );
    Sample {
        msgs_per_sec: report.fabric_packets as f64 / elapsed.as_secs_f64(),
        elapsed,
        completed,
        report,
    }
}

fn run_sched(sites: usize, msgs_per_site: u64, workers: usize) -> Sample {
    let mut c = build(sites, msgs_per_site);
    c.sched = SchedConfig {
        workers,
        ..SchedConfig::default()
    };
    let start = Instant::now();
    let report = c.run_threaded(SCHED_WALL);
    score(report, start.elapsed(), sites)
}

fn arg_after(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// CI correctness smoke: scheduler only, must fully complete and terminate.
fn smoke(sites: usize, workers: usize) {
    let msgs_per_site = 32;
    let s = run_sched(sites, msgs_per_site, workers);
    assert!(
        s.report.quiescent,
        "smoke run hit the wall limit instead of terminating"
    );
    assert_eq!(
        s.completed, sites,
        "only {} of {sites} sites finished",
        s.completed
    );
    println!(
        "smoke ok: {sites} sites x {msgs_per_site} msgs on {} workers in {:.3}s \
         ({} slices, {} steals, max ready depth {})",
        s.report.sched.workers,
        s.elapsed.as_secs_f64(),
        s.report.sched.slices,
        s.report.sched.steals,
        s.report.sched.max_ready_depth
    );
}

/// CI bench smoke: the smallest sweep point at reduced volume — proves
/// the sweep harness still runs and the scheduler completes it.
fn smoke_bench() {
    let sites = SIZES[0];
    let msgs_per_site = 1024;
    let sched = run_sched(sites, msgs_per_site, 0);
    assert_eq!(sched.completed, sites, "scheduler did not finish");
    println!(
        "bench smoke ok: {sites} sites, scheduler {:.0} msgs/s",
        sched.msgs_per_sec
    );
}

fn json_sample(s: &Sample) -> String {
    let st = &s.report.sched;
    format!(
        "{{ \"msgs_per_sec\": {:.0}, \"elapsed_s\": {:.3}, \"completed_sites\": {}, \
         \"workers\": {}, \"slices\": {}, \"steals\": {}, \"injector_pushes\": {}, \
         \"parks\": {}, \"unparks\": {}, \"max_ready_depth\": {}, \"max_site_slices\": {} }}",
        s.msgs_per_sec,
        s.elapsed.as_secs_f64(),
        s.completed,
        st.workers,
        st.slices,
        st.steals,
        st.injector_pushes,
        st.parks,
        st.unparks,
        st.max_ready_depth,
        st.max_site_slices
    )
}

fn sweep(workers: usize) {
    let mut rows = Vec::new();
    for &sites in &SIZES {
        let msgs_per_site = TOTAL_MSGS / sites as u64;
        eprintln!("== {sites} sites x {msgs_per_site} msgs ==");
        let sched = run_sched(sites, msgs_per_site, workers);
        eprintln!(
            "   scheduler: {:.0} msgs/s in {:.2}s ({}/{sites} done, {} workers, \
             {} slices, {} steals)",
            sched.msgs_per_sec,
            sched.elapsed.as_secs_f64(),
            sched.completed,
            sched.report.sched.workers,
            sched.report.sched.slices,
            sched.report.sched.steals
        );
        rows.push(format!(
            "    {{\n      \"sites\": {sites},\n      \"msgs_per_site\": {msgs_per_site},\n      \
             \"sched\": {}\n    }}",
            json_sample(&sched)
        ));
    }
    println!(
        "{{\n  \"bench\": \"site_sweep\",\n  \"workload\": \"ring over {NODES} nodes, \
         {TOTAL_MSGS} total pings split across sites, ideal fabric\",\n  \
         \"sched\": \"M:N work-stealing scheduler (run_threaded)\",\n  \"sizes\": [\n{}\n  ]\n}}",
        rows.join(",\n")
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let workers: usize = arg_after(&args, "--workers")
        .and_then(|w| w.parse().ok())
        .unwrap_or(0);
    if args.iter().any(|a| a == "--smoke") {
        let sites: usize = arg_after(&args, "--sites")
            .and_then(|s| s.parse().ok())
            .unwrap_or(64);
        smoke(sites, workers);
    } else if args.iter().any(|a| a == "--smoke-bench") {
        smoke_bench();
    } else {
        sweep(workers);
    }
}
