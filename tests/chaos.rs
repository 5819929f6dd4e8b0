//! Determinism and soak coverage for the chaos harness: the same seed and
//! plan must replay the same fault schedule bit for bit on the virtual
//! fabric, and seeded partition/heal/kill/restart churn must never panic,
//! hang, or crash a site.

use ditico::tyco_vm::word::NodeId;
use ditico::{ChaosEvent, ChaosPlan, ChaosSpec, Env, FabricMode, LinkProfile, Topology};

const SRV: &str = "def Srv(p) = p?{ val(x, a) = a![x] | Srv[p] } in export new p in Srv[p]";
const CLIENT: &str = r#"
    import p from server in
    def Loop(n) =
        if n > 0 then new a (p!val[n, a] | a?(v) = Loop[n - 1]) else println("done")
    in Loop[40]
"#;

/// One chaotic client/server run, collapsed to a canonical fingerprint:
/// every observable the report carries, in a fixed order. Two runs with
/// the same plan must produce the same string, byte for byte.
fn fingerprint(plan: ChaosPlan) -> String {
    let report = Env::new(Topology {
        nodes: 2,
        mode: FabricMode::Virtual,
        link: LinkProfile::fast_ethernet(),
        ns_replicas: 1,
    })
    .site("server", SRV)
    .expect("server compiles")
    .site("client", CLIENT)
    .expect("client compiles")
    .chaos(plan)
    .run()
    .expect("run starts");
    if let Some((site, err)) = report.errors.first() {
        panic!("chaos must degrade, not crash: [{site}] {err}");
    }
    let c = report.chaos.expect("chaos report recorded");
    format!(
        "out={:?} instrs={} pkts={} bytes={} vns={} quiescent={} \
         dropped={} dup={} delayed={} pdrops={} parts={} heals={} kills={} restarts={}",
        report.output("client"),
        report.total_instrs,
        report.fabric_packets,
        report.fabric_bytes,
        report.virtual_ns,
        report.quiescent,
        c.dropped,
        c.duplicated,
        c.delayed,
        c.partition_drops,
        c.partitions,
        c.heals,
        c.kills,
        c.restarts
    )
}

fn faulty_spec(seed: u64) -> ChaosSpec {
    let mut spec = ChaosSpec::quiet(seed);
    spec.drop_per_mille = 60;
    spec.dup_per_mille = 40;
    spec.delay_per_mille = 40;
    spec.delay_ns = 500_000;
    spec
}

/// The undisturbed run's length, used to place structural events at
/// meaningful fractions of the run instead of guessed absolute times.
fn baseline_ns() -> u64 {
    let quiet = fingerprint(ChaosPlan::new(ChaosSpec::quiet(0)));
    let vns: u64 = quiet
        .split(" vns=")
        .nth(1)
        .and_then(|s| s.split(' ').next())
        .and_then(|s| s.parse().ok())
        .expect("fingerprint carries vns");
    assert!(vns > 0, "remote traffic takes virtual time");
    vns
}

#[test]
fn same_seed_and_plan_replay_identically() {
    let v = baseline_ns();
    let plan = || {
        ChaosPlan::new(faulty_spec(42))
            .at(
                v / 4,
                ChaosEvent::Partition {
                    a: vec![NodeId(0)],
                    b: vec![NodeId(1)],
                },
            )
            .at(v / 2, ChaosEvent::Heal)
    };
    let first = fingerprint(plan());
    for i in 0..11 {
        assert_eq!(fingerprint(plan()), first, "iteration {i} diverged");
    }
    assert!(
        first.contains("parts=1") && first.contains("heals=1"),
        "the structural events fired: {first}"
    );
}

#[test]
fn different_seeds_draw_different_schedules() {
    let a = fingerprint(ChaosPlan::new(faulty_spec(1)));
    let b = fingerprint(ChaosPlan::new(faulty_spec(2)));
    assert_ne!(a, b, "independent seeds hit the same fault schedule");
}

#[test]
fn quiet_plan_is_a_no_op() {
    let quiet = fingerprint(ChaosPlan::new(ChaosSpec::quiet(7)));
    assert!(
        quiet.contains("out=[\"done\"]"),
        "no faults, full run: {quiet}"
    );
    assert!(
        quiet.ends_with("dropped=0 dup=0 delayed=0 pdrops=0 parts=0 heals=0 kills=0 restarts=0")
    );
}

/// Sharded-name-service programs for the drop regression below: the
/// server re-exports `p` after the client's kick, so a single run
/// exercises every name-service control packet — registers, imports,
/// lease grants, the epoch-bump invalidation, and follower replication.
const NS_SRV: &str = r#"
    import ack from nsclient in
    export new kick in
    export new q in (
        (q?(r) = r![1])
        | (kick?() = export new q in (ack![] | (q?(r2) = r2![2])))
    )
"#;
const NS_CLIENT: &str = r#"
    export new ack in
    import q from nsserver in
    import kick from nsserver in
    new a (q![a] | a?(x) = (
        print(x)
        | kick![]
        | ack?() = import q from nsserver in new b (q![b] | b?(y) = print(y))
    ))
"#;

/// Regression: lease grants, invalidations, and replication records ride
/// the same chaotic fabric as application packets, and a run under drop
/// and duplication rates must still wind down instead of hanging. (A
/// chaos-dropped control packet never enters a queue, so the termination
/// counters never count it.) Every seed is also replayed once, keeping
/// the sharded path inside the determinism gate.
#[test]
fn sharded_name_service_drops_are_termination_compensated() {
    let run = |seed: u64| {
        let report = Env::new(Topology {
            nodes: 4,
            mode: FabricMode::Virtual,
            link: LinkProfile::fast_ethernet(),
            ns_replicas: 1,
        })
        .ns_shards(4, 50)
        .site_on(0, "nsserver", NS_SRV)
        .expect("server compiles")
        .site_on(3, "nsclient", NS_CLIENT)
        .expect("client compiles")
        .chaos(ChaosPlan::new(faulty_spec(seed)))
        .run()
        .expect("run starts");
        if let Some((site, err)) = report.errors.first() {
            panic!("seed {seed}: chaos must degrade, not crash: [{site}] {err}");
        }
        let ns = report.ns_totals();
        let c = report.chaos.expect("chaos report recorded");
        let faults = c.dropped + c.duplicated;
        let fp = format!(
            "out={:?} pkts={} vns={} dropped={} dup={} delayed={} ns={ns:?}",
            report.output("nsclient"),
            report.fabric_packets,
            report.virtual_ns,
            c.dropped,
            c.duplicated,
            c.delayed,
        );
        (fp, faults, ns)
    };
    let (mut faults, mut registers, mut misses) = (0, 0, 0);
    for seed in 0..10u64 {
        let (first, f, ns) = run(seed);
        let (second, _, _) = run(seed);
        assert_eq!(first, second, "seed {seed} did not replay");
        faults += f;
        registers += ns.registers;
        misses += ns.lease_misses;
    }
    assert!(faults > 0, "the fault die never fired across ten seeds");
    assert!(registers >= 30, "the sharded path was engaged: {registers}");
    assert!(misses > 0, "imports crossed the wire under chaos");
}

/// Seeded churn soak: partition, heal, and a daemon restart in every run,
/// across many seeds, each replayed once. No panics, no hangs, no site
/// crashes, and every replay is byte-identical. (The larger 100+ round
/// soak runs in `bench chaos --soak`; this keeps the same machinery
/// honest under plain `cargo test`.)
#[test]
fn seeded_churn_soak_replays_cleanly() {
    let v = baseline_ns();
    for seed in 0..20u64 {
        let plan = || {
            ChaosPlan::new(faulty_spec(seed))
                .at(
                    v / 3,
                    ChaosEvent::Partition {
                        a: vec![NodeId(0)],
                        b: vec![NodeId(1)],
                    },
                )
                .at(v / 2, ChaosEvent::Heal)
                .at(2 * v / 3, ChaosEvent::RestartNode(NodeId(1)))
        };
        let first = fingerprint(plan());
        let second = fingerprint(plan());
        assert_eq!(first, second, "seed {seed} did not replay");
        assert!(first.contains("restarts=1"), "seed {seed}: {first}");
    }
}

/// The wall-clock chaos path: packet faults on the Ideal fabric plus a
/// timed kill and restart of a node with no sites, under `run_threaded`.
/// The client sends every request four times and takes the first answer,
/// so a dropped request or reply cannot lose an iteration. Node 0 hosts
/// the name service and the client, so the one packet the program cannot
/// repeat — the server's export registration, the first on the 1→0
/// edge — meets a fixed roll of the seed's per-edge stream.
#[test]
fn threaded_run_survives_wall_clock_chaos() {
    const ECHO_SRV: &str =
        "def Srv(p) = p?{ val(x, a) = a![x] | Srv[p] } in export new p in Srv[p]";
    const RETRY_CLIENT: &str = r#"
        import p from server in
        def Loop(n, acc) =
            if n > 0 then
                new a (p!val[n, a] | p!val[n, a] | p!val[n, a] | p!val[n, a]
                       | a?(v) = Loop[n - 1, acc + v])
            else print(acc)
        in Loop[300, 0]
    "#;
    let mut spec = ChaosSpec::quiet(7);
    spec.drop_per_mille = 30;
    spec.dup_per_mille = 30;
    let plan = ChaosPlan::new(spec)
        .at(0, ChaosEvent::KillNode(NodeId(2)))
        .at(500_000, ChaosEvent::RestartNode(NodeId(2)));
    let report = Env::new(Topology {
        nodes: 3,
        mode: FabricMode::Ideal,
        link: LinkProfile::ideal(),
        ns_replicas: 1,
    })
    .workers(2)
    .site_on(0, "client", RETRY_CLIENT)
    .expect("client compiles")
    .site_on(1, "server", ECHO_SRV)
    .expect("server compiles")
    .chaos(plan)
    .build()
    .expect("cluster builds")
    .run_threaded(std::time::Duration::from_secs(60));
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert!(report.aborts.is_empty(), "{:?}", report.aborts);
    assert!(
        report.quiescent,
        "the detector, not the wall limit, ends it"
    );
    assert_eq!(
        report.output("client"),
        [(1..=300).sum::<u64>().to_string()]
    );
    let c = report.chaos.expect("chaos report recorded");
    assert!(c.dropped > 0 && c.duplicated > 0, "{c:?}");
    assert_eq!((c.kills, c.restarts), (1, 1), "{c:?}");
}

/// Regression: a wall-clock kill of the *server's* node in the middle of
/// a long RPC loop. The client's next request is dropped at the fabric,
/// since its destination is dead. That drop once went uncounted, and the
/// threaded detector then waited for the request until the wall limit.
/// Both engines must now wind the run down on their own, and agree.
#[test]
fn killing_the_servers_node_mid_loop_terminates_on_both_engines() {
    const LOOP_CLIENT: &str = r#"
        import p from server in
        def Loop(n) =
            if n > 0 then new a (p!val[n, a] | a?(v) = Loop[n - 1]) else println("done")
        in Loop[1000000]
    "#;
    let env = |mode, link, kill_at_ns| {
        Env::new(Topology {
            nodes: 2,
            mode,
            link,
            ns_replicas: 1,
        })
        .workers(2)
        .site_on(0, "client", LOOP_CLIENT)
        .expect("client compiles")
        .site_on(1, "server", SRV)
        .expect("server compiles")
        .chaos(ChaosPlan::new(ChaosSpec::quiet(0)).at(kill_at_ns, ChaosEvent::KillNode(NodeId(1))))
    };
    let threaded = env(FabricMode::Ideal, LinkProfile::ideal(), 20_000_000)
        .build()
        .expect("cluster builds")
        .run_threaded(std::time::Duration::from_secs(30));
    let deterministic = env(FabricMode::Virtual, LinkProfile::myrinet(), 2_000_000)
        .run()
        .expect("run starts");
    for (engine, report) in [("threaded", &threaded), ("deterministic", &deterministic)] {
        assert!(report.errors.is_empty(), "{engine}: {:?}", report.errors);
        assert!(report.aborts.is_empty(), "{engine}: {:?}", report.aborts);
        assert!(
            report.quiescent,
            "{engine}: the detector, not the wall limit, ends the run"
        );
        assert_eq!(report.chaos.map(|c| c.kills), Some(1), "{engine}");
        assert!(report.total_instrs > 0, "{engine}: the loop ran");
        assert!(
            report.output("client").is_empty(),
            "{engine}: the kill cut the loop short"
        );
    }
}

/// Regression: on the sharded name service (3 nodes, 2 shards, no
/// leases), the client's import parks at the owner of `("server", "p")`,
/// chaos kills that owner, and only then does the server export `p` —
/// after 50 round trips to a helper on the follower, 1 ms each way. The
/// parked import is lost with the owner; both engines must re-issue it to
/// the follower, where the export lands, and end quiescent with nothing
/// blocked.
#[test]
fn import_parked_at_a_killed_owner_is_reissued_on_both_engines() {
    const HELPER: &str = "def H(h) = h?(r) = (r![] | H[h]) in export new h in H[h]";
    const DELAYED_SRV: &str = r#"
        import h from helper in
        def Srv(s) = s?{ val(x, r) = r![x * 3] | Srv[s] }
        and Delay(n) =
            if n > 0 then new a (h![a] | a?() = Delay[n - 1])
            else export new p in Srv[p]
        in Delay[50]
    "#;
    const CALLER: &str = "import p from server in new a (p!val[14, a] | a?(y) = print(y))";
    let owner = ditico::ditico_rt::NsShardMap::key_owner("server", "p", 2);
    let follower = 1 - owner.0 as usize;
    let link = LinkProfile::new(1_000_000, f64::INFINITY).expect("valid link");
    let env = |mode| {
        Env::new(Topology {
            nodes: 3,
            mode,
            link,
            ns_replicas: 1,
        })
        .workers(2)
        .ns_shards(2, 0)
        .site_on(follower, "helper", HELPER)
        .expect("helper compiles")
        .site_on(2, "server", DELAYED_SRV)
        .expect("server compiles")
        .site_on(2, "client", CALLER)
        .expect("client compiles")
        .chaos(ChaosPlan::new(ChaosSpec::quiet(0)).at(20_000_000, ChaosEvent::KillNode(owner)))
    };
    let threaded = env(FabricMode::RealTime)
        .build()
        .expect("cluster builds")
        .run_threaded(std::time::Duration::from_secs(30));
    let deterministic = env(FabricMode::Virtual).run().expect("run starts");
    for (engine, report) in [("threaded", &threaded), ("deterministic", &deterministic)] {
        assert!(report.errors.is_empty(), "{engine}: {:?}", report.errors);
        assert_eq!(report.chaos.map(|c| c.kills), Some(1), "{engine}");
        assert_eq!(report.output("client"), ["42"], "{engine}");
        assert_eq!(report.blocked_imports, 0, "{engine}");
        assert!(report.quiescent, "{engine}");
        assert!(report.ns_failovers > 0, "{engine}: the export failed over");
    }
}

/// A wall-clock run whose work quiesces long before the plan's last
/// event still waits for it, as the deterministic engine advances to it.
#[test]
fn threaded_run_waits_for_late_chaos_events() {
    let plan = ChaosPlan::new(ChaosSpec::quiet(0))
        .at(0, ChaosEvent::KillNode(NodeId(1)))
        .at(200_000_000, ChaosEvent::RestartNode(NodeId(1)));
    let report = Env::new(Topology {
        nodes: 2,
        mode: FabricMode::Ideal,
        link: LinkProfile::ideal(),
        ns_replicas: 1,
    })
    .workers(2)
    .site_on(0, "quick", "println(\"done\")")
    .expect("site compiles")
    .chaos(plan)
    .build()
    .expect("cluster builds")
    .run_threaded(std::time::Duration::from_secs(30));
    assert_eq!(report.output("quick"), ["done"]);
    assert!(report.quiescent);
    let c = report.chaos.expect("chaos report recorded");
    assert_eq!((c.kills, c.restarts), (1, 1), "{c:?}");
}

/// Regression: a healed name-service replica catches up before it serves
/// a missed binding. Central service, 2 replicas on nodes 0 and 1, 1 ms
/// links. Chaos kills the owner (node 0) at 20 ms; the server exports
/// `p` after 30 round trips to a helper, so the export is applied by the
/// replica on node 1 while node 0 is down; node 0 restarts at 150 ms; the
/// client imports `p` only after 150 round trips, so the import routes
/// back to node 0, which never saw the export's replication record. The
/// sites re-send their exports on the heal, and the import is answered.
#[test]
fn healed_name_service_owner_catches_up_on_both_engines() {
    const HELPER: &str = "def H(h) = h?(r) = (r![] | H[h]) in export new h in H[h]";
    const DELAYED_SRV: &str = r#"
        import h from helper in
        def Srv(s) = s?{ val(x, r) = r![x * 3] | Srv[s] }
        and Delay(n) =
            if n > 0 then new a (h![a] | a?() = Delay[n - 1])
            else export new p in Srv[p]
        in Delay[30]
    "#;
    const DELAYED_CALLER: &str = r#"
        import h from helper in
        def Wait(n) =
            if n > 0 then new a (h![a] | a?() = Wait[n - 1])
            else import p from server in new b (p!val[14, b] | b?(y) = print(y))
        in Wait[150]
    "#;
    let link = LinkProfile::new(1_000_000, f64::INFINITY).expect("valid link");
    let plan = || {
        ChaosPlan::new(ChaosSpec::quiet(0))
            .at(20_000_000, ChaosEvent::KillNode(NodeId(0)))
            .at(150_000_000, ChaosEvent::RestartNode(NodeId(0)))
    };
    let env = |mode| {
        Env::new(Topology {
            nodes: 3,
            mode,
            link,
            ns_replicas: 2,
        })
        .workers(2)
        .site_on(1, "helper", HELPER)
        .expect("helper compiles")
        .site_on(2, "server", DELAYED_SRV)
        .expect("server compiles")
        .site_on(2, "client", DELAYED_CALLER)
        .expect("client compiles")
        .chaos(plan())
    };
    let threaded = env(FabricMode::RealTime)
        .build()
        .expect("cluster builds")
        .run_threaded(std::time::Duration::from_secs(30));
    let deterministic = env(FabricMode::Virtual).run().expect("run starts");
    for (engine, report) in [("threaded", &threaded), ("deterministic", &deterministic)] {
        assert!(report.errors.is_empty(), "{engine}: {:?}", report.errors);
        let c = report.chaos.expect("chaos report recorded");
        assert_eq!((c.kills, c.restarts), (1, 1), "{engine}");
        assert!(report.ns_failovers > 0, "{engine}: the export failed over");
        assert_eq!(report.output("client"), ["42"], "{engine}");
        assert_eq!(report.blocked_imports, 0, "{engine}");
        assert!(report.quiescent, "{engine}");
    }
}

/// Regression: a registration in flight to the owner when it dies is
/// not lost. Central service, 2 replicas, 20 ms links: the server's
/// export and the client's import both leave at once for node 0, which
/// chaos kills at 10 ms, before either lands. The kill's liveness notice
/// makes the server re-send its export and the client re-issue its
/// import, and both reach the replica on node 1.
#[test]
fn registration_racing_the_owners_death_reaches_the_replica_on_both_engines() {
    let link = LinkProfile::new(20_000_000, f64::INFINITY).expect("valid link");
    let env = |mode| {
        Env::new(Topology {
            nodes: 3,
            mode,
            link,
            ns_replicas: 2,
        })
        .workers(2)
        .site_on(2, "server", SRV)
        .expect("server compiles")
        .site_on(2, "client", CLIENT)
        .expect("client compiles")
        .chaos(ChaosPlan::new(ChaosSpec::quiet(0)).at(10_000_000, ChaosEvent::KillNode(NodeId(0))))
    };
    let threaded = env(FabricMode::RealTime)
        .build()
        .expect("cluster builds")
        .run_threaded(std::time::Duration::from_secs(30));
    let deterministic = env(FabricMode::Virtual).run().expect("run starts");
    for (engine, report) in [("threaded", &threaded), ("deterministic", &deterministic)] {
        assert!(report.errors.is_empty(), "{engine}: {:?}", report.errors);
        assert_eq!(report.chaos.map(|c| c.kills), Some(1), "{engine}");
        assert_eq!(report.output("client"), ["done"], "{engine}");
        assert_eq!(report.blocked_imports, 0, "{engine}");
        assert!(report.quiescent, "{engine}");
    }
}

/// A chaos event scheduled past the wall limit never fires: the run
/// ends at the limit, not at the event, and is not reported quiescent.
#[test]
fn threaded_run_ends_at_the_wall_limit_before_a_later_chaos_event() {
    let plan = ChaosPlan::new(ChaosSpec::quiet(0))
        .at(0, ChaosEvent::KillNode(NodeId(1)))
        .at(60_000_000_000, ChaosEvent::RestartNode(NodeId(1)));
    let built = Env::new(Topology {
        nodes: 2,
        mode: FabricMode::Ideal,
        link: LinkProfile::ideal(),
        ns_replicas: 1,
    })
    .workers(2)
    .site_on(0, "quick", "println(\"done\")")
    .expect("site compiles")
    .chaos(plan)
    .build()
    .expect("cluster builds");
    let t0 = std::time::Instant::now();
    let report = built.run_threaded(std::time::Duration::from_millis(300));
    let took = t0.elapsed();
    assert!(took < std::time::Duration::from_secs(10), "ran {took:?}");
    assert_eq!(report.output("quick"), ["done"]);
    assert!(!report.quiescent);
    let c = report.chaos.expect("chaos report recorded");
    assert_eq!((c.kills, c.restarts), (1, 0), "{c:?}");
}
