//! The `ditico` command-line tool: compile, inspect and run DiTyCO
//! programs.
//!
//! ```text
//! ditico check   <file.dity> [--verify] [--lint]
//!                                         type-check a program; optionally
//!                                         run the byte-code verifier and
//!                                         the calculus liveness lint
//! ditico compile <file.dity> -o out.tyco  compile to a byte-code image
//! ditico asm     <file.dity>              show the VM assembly
//! ditico disasm  <file.tyco>              disassemble an image
//! ditico run     <file.dity|file.tyco>    run a single site to quiescence
//! ditico net     <spec.net> [--threaded] [--workers N] [--wall SECS] [--stats]
//!                                         run a network description
//!                                         (deterministic by default;
//!                                         --threaded runs it on the M:N
//!                                         worker-pool scheduler)
//! ditico net     <spec.net> --node LIST --peers ADDRS [--listen ADDR] …
//!                                         run one process of a multi-process
//!                                         cluster over real TCP
//! ditico serve   <spec.net> --node LIST --listen ADDR [--wall SECS] …
//!                                         host this process's nodes and
//!                                         linger until every peer is gone
//! ditico shell                            interactive TyCOsh
//! ```
//!
//! A network description (for `ditico net` / `ditico serve`) is a
//! line-oriented file; `node=N` pins a site (multi-process runs require
//! every process to read the same spec so placements agree):
//!
//! ```text
//! topology nodes=2 fabric=virtual link=myrinet
//! site server server.dity node=0
//! site client client.dity node=1
//! ```

use ditico::{parse_peer_list, Env, FabricMode, LinkProfile, Program, Shell, Topology};
use ditico::{RunReport, TransportConfig};
use std::io::BufRead as _;
use std::net::ToSocketAddrs as _;
use std::path::Path;
use std::process::ExitCode;
use tyco_vm::word::NodeId;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("check") => cmd_check(&args[1..]),
        Some("compile") => cmd_compile(&args[1..]),
        Some("asm") => cmd_asm(&args[1..]),
        Some("disasm") => cmd_disasm(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("net") => cmd_net(&args[1..]),
        Some("serve") => cmd_distributed(&args[1..], true),
        Some("shell") => cmd_shell(),
        Some("help") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}` (try `ditico help`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ditico: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!(
        "usage: ditico <command>\n\
         \n\
         commands:\n\
         \x20 check   <file.dity> [--verify] [--lint] [--analyze] [--json]\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 type-check; --verify runs the byte-code verifier,\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 --lint the calculus liveness lint, --analyze the\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 whole-program byte-code analysis (unreachable\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 methods, dead classes, orphan sends; --json for CI);\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 any failing gate exits nonzero\n\
         \x20 compile <file.dity> [-o out.tyco] [--optimize] [--shake]\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 compile to a byte-code image; --optimize runs the\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 verified folding passes, --shake prunes unreachable\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 code from the image\n\
         \x20 asm     <file.dity>              show the VM assembly\n\
         \x20 disasm  <file.tyco>              disassemble an image\n\
         \x20 run     <file.dity|file.tyco>    run a single site to quiescence\n\
         \x20 net     <spec.net> [--threaded] [--workers N] [--wall SECS] [--stats]\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 [--code-cache N] [--shake] [--chaos-seed N]\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 [--chaos-drop N] [--chaos-dup N] [--chaos-delay N]\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 run a network description (--threaded uses the\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 M:N worker-pool scheduler; --stats prints per-site\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 SHIPM/SHIPO/FETCH and scheduler counters;\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 --code-cache sets the per-node code store capacity\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 in images, 0 disables caching/dedup/coalescing;\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 --chaos-* injects seeded packet faults, rates in\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 per-mille, extra latency via --chaos-delay-ns;\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 --ns-shards N partitions the name service over N\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 owners with one follower each, --ns-lease-ms sets\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 the lease TTL (0: no leases); otherwise node 0 owns\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 every name, on `replicas=` nodes; either way a\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 down owner fails over to the next replica)\n\
         \x20 net     <spec.net> --node LIST --peers ADDRS [--listen ADDR]\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 [--wall SECS] [--hb-ms N] [--retries N] [--stats]\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 run one process of a multi-process cluster over TCP\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 (LIST: comma-separated node indices this process hosts)\n\
         \x20 serve   <spec.net> --node LIST --listen ADDR [--peers ADDRS]\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 [--wall SECS] [--hb-ms N] [--retries N] [--stats]\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 host this process's nodes; linger until peers are gone\n\
         \x20 shell                            interactive TyCOsh"
    );
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
}

fn compile_file(path: &str) -> Result<Program, String> {
    Program::compile(&read(path)?).map_err(|e| format!("{path}: {e}"))
}

/// Minimal JSON string escaping for `check --json` output.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn cmd_check(args: &[String]) -> Result<(), String> {
    let path = args
        .first()
        .ok_or("usage: ditico check <file.dity> [--verify] [--lint] [--analyze] [--json]")?;
    let json = args.iter().any(|a| a == "--json");
    let p = compile_file(path)?;
    if !json {
        println!("{path}: ok ({} byte-code instructions)", p.instr_count());
        if !p.types.exported_names.is_empty() || !p.types.exported_classes.is_empty() {
            println!("exported interface:");
            for (name, t) in &p.types.exported_names {
                println!("  {name} : {t}");
            }
            for (name, s) in &p.types.exported_classes {
                println!("  {name} : {s}");
            }
        }
        for (site, name, kind) in &p.types.imports {
            println!("imports {name} ({kind:?}) from {site}");
        }
    }
    // Every requested gate runs — a verifier failure must not mask the
    // lint or analysis findings — and any failing gate fails the command,
    // so `check` can gate a build.
    let mut failures: Vec<String> = Vec::new();
    if args.iter().any(|a| a == "--verify") {
        match p.verify() {
            Ok(()) => {
                if !json {
                    println!("{path}: byte-code image verifies");
                }
            }
            Err(e) => {
                eprintln!("{path}: verifier rejected the image: {e}");
                failures.push("verify".to_string());
            }
        }
    }
    if args.iter().any(|a| a == "--opstats") && !json {
        // Static census: occurrence counts over the compiled image, a
        // preview of fusion opportunities (run with `ditico run --opstats`
        // for execution-weighted counts).
        print!("{}", tyco_vm::stats::OpStats::census(&p.code).render(12));
    }
    if args.iter().any(|a| a == "--lint") {
        let findings = p.lint();
        if !json {
            for l in &findings {
                println!("{path}:{l}");
            }
            if findings.is_empty() {
                println!("{path}: no liveness findings");
            }
        }
        if !findings.is_empty() {
            failures.push(format!("{} liveness finding(s)", findings.len()));
        }
    }
    if args.iter().any(|a| a == "--analyze") {
        let findings = p.findings();
        if json {
            // One JSON document on stdout for CI gating.
            let items: Vec<String> = findings
                .iter()
                .map(|f| {
                    format!(
                        r#"{{"kind":"{}","subject":"{}","detail":"{}"}}"#,
                        f.kind.tag(),
                        json_escape(&f.subject),
                        json_escape(&f.detail)
                    )
                })
                .collect();
            println!(
                r#"{{"file":"{}","findings":[{}]}}"#,
                json_escape(path),
                items.join(",")
            );
        } else {
            for f in &findings {
                println!("{path}: {f}");
            }
            if findings.is_empty() {
                println!("{path}: no analysis findings");
            }
        }
        if !findings.is_empty() {
            failures.push(format!("{} analysis finding(s)", findings.len()));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!("{path}: {}", failures.join(", ")))
    }
}

fn cmd_compile(args: &[String]) -> Result<(), String> {
    let path = args
        .first()
        .ok_or("usage: ditico compile <file.dity> [-o out.tyco] [--optimize] [--shake]")?;
    let out = match args.iter().position(|a| a == "-o") {
        Some(i) => args.get(i + 1).cloned().ok_or("missing output after -o")?,
        None => {
            let stem = Path::new(path)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("out");
            format!("{stem}.tyco")
        }
    };
    let mut p = compile_file(path)?;
    let full_len = tyco_vm::image_to_bytes(&p.code).len();
    if args.iter().any(|a| a == "--optimize") {
        let st = p.optimize();
        println!(
            "{path}: optimized ({} consts propagated, {} folds, {} dead instrs removed)",
            st.consts_propagated, st.folds, st.dead_removed
        );
    }
    let shake = args.iter().any(|a| a == "--shake");
    let bytes = if shake {
        tyco_vm::image_to_bytes_shaken(&p.code)
    } else {
        tyco_vm::image_to_bytes(&p.code)
    };
    std::fs::write(&out, &bytes).map_err(|e| format!("cannot write `{out}`: {e}"))?;
    if shake && bytes.len() < full_len {
        println!(
            "{path}: tree-shake saved {} bytes ({} -> {})",
            full_len - bytes.len(),
            full_len,
            bytes.len()
        );
    }
    println!("{out}: {} bytes", bytes.len());
    Ok(())
}

fn cmd_asm(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("usage: ditico asm <file.dity>")?;
    let p = compile_file(path)?;
    print!("{}", tyco_vm::emit_asm(&p.code));
    Ok(())
}

fn cmd_disasm(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("usage: ditico disasm <file.tyco>")?;
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let prog = tyco_vm::image_from_bytes(bytes.into()).map_err(|e| e.to_string())?;
    print!("{}", tyco_vm::emit_asm(&prog));
    Ok(())
}

fn load_program(path: &str, unchecked: bool) -> Result<tyco_vm::Program, String> {
    if path.ends_with(".tyco") {
        let bytes = std::fs::read(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        tyco_vm::image_from_bytes(bytes.into()).map_err(|e| e.to_string())
    } else if unchecked {
        // Skip the static type check: the dynamic checks at reduction time
        // take over (useful with --trace to watch them fire).
        Ok(Program::compile_unchecked(&read(path)?)
            .map_err(|e| format!("{path}: {e}"))?
            .code)
    } else {
        Ok(compile_file(path)?.code)
    }
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or(
        "usage: ditico run <file.dity|file.tyco> [--stats] [--opstats] [--trace] \
         [--no-fuse] [--shake] [--unchecked]",
    )?;
    let prog = load_program(path, args.iter().any(|a| a == "--unchecked"))?;
    let port = tyco_vm::LoopbackPort::new("main");
    // --no-fuse executes the byte-code exactly as compiled; the default
    // applies superinstruction fusion. Telemetry for *choosing* fusions is
    // read from `--no-fuse --opstats` runs (base-opcode digrams).
    let mut m = if args.iter().any(|a| a == "--no-fuse") {
        tyco_vm::Machine::new_unfused(prog, port)
    } else {
        tyco_vm::Machine::new(prog, port)
    };
    if args.iter().any(|a| a == "--shake") {
        m.set_shake(true);
    }
    let tracing = args.iter().any(|a| a == "--trace");
    if tracing {
        m.set_trace(64);
    }
    let opstats = args.iter().any(|a| a == "--opstats");
    if opstats {
        m.enable_opstats();
    }
    let result = m.run_to_quiescence(u64::MAX);
    for line in &m.io {
        println!("{line}");
    }
    if args.iter().any(|a| a == "--stats") {
        eprintln!("{}", m.stats);
    } else if opstats {
        if let Some(ops) = &m.stats.ops {
            eprint!("{}", ops.render(12));
        }
    }
    match result {
        Ok(_) => Ok(()),
        Err(e) => {
            if tracing {
                eprintln!("last instructions before the error:\n{}", m.render_trace());
            }
            Err(e.to_string())
        }
    }
}

/// One parsed `site` line of a network spec.
struct SiteSpec {
    lexeme: String,
    src: String,
    /// `node=N` pin, if any.
    pin: Option<usize>,
}

/// Parse a `.net` network description (shared by `net` and `serve`).
fn parse_net_spec(path: &str) -> Result<(Topology, Vec<SiteSpec>), String> {
    let spec = read(path)?;
    let dir = Path::new(path).parent().unwrap_or(Path::new("."));
    let mut topology = Topology::default();
    let mut sites: Vec<SiteSpec> = Vec::new();
    for (i, raw) in spec.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut words = line.split_whitespace();
        match words.next() {
            Some("topology") => {
                for kv in words {
                    let (k, v) = kv
                        .split_once('=')
                        .ok_or_else(|| format!("{path}:{}: expected key=value", i + 1))?;
                    match k {
                        "nodes" => {
                            topology.nodes =
                                v.parse().map_err(|e| format!("{path}:{}: {e}", i + 1))?;
                        }
                        "fabric" => {
                            topology.mode = match v {
                                "ideal" => FabricMode::Ideal,
                                "virtual" => FabricMode::Virtual,
                                "realtime" => FabricMode::RealTime,
                                other => {
                                    return Err(format!("{path}:{}: bad fabric `{other}`", i + 1));
                                }
                            };
                        }
                        "link" => {
                            topology.link = match v {
                                "ideal" => LinkProfile::ideal(),
                                "myrinet" => LinkProfile::myrinet(),
                                "ethernet" => LinkProfile::fast_ethernet(),
                                "wan" => LinkProfile::wan(),
                                other => {
                                    return Err(format!("{path}:{}: bad link `{other}`", i + 1));
                                }
                            };
                        }
                        "replicas" => {
                            topology.ns_replicas =
                                v.parse().map_err(|e| format!("{path}:{}: {e}", i + 1))?;
                        }
                        other => return Err(format!("{path}:{}: unknown key `{other}`", i + 1)),
                    }
                }
            }
            Some("site") => {
                let lexeme = words
                    .next()
                    .ok_or_else(|| format!("{path}:{}: site needs a lexeme", i + 1))?;
                let file = words
                    .next()
                    .ok_or_else(|| format!("{path}:{}: site needs a program file", i + 1))?;
                let mut pin = None;
                for extra in words {
                    match extra.split_once('=') {
                        Some(("node", v)) => {
                            pin = Some(v.parse().map_err(|e| format!("{path}:{}: {e}", i + 1))?);
                        }
                        _ => {
                            return Err(format!(
                                "{path}:{}: unknown site attribute `{extra}`",
                                i + 1
                            ));
                        }
                    }
                }
                let src = read(dir.join(file).to_str().unwrap_or(file))?;
                sites.push(SiteSpec {
                    lexeme: lexeme.to_string(),
                    src,
                    pin,
                });
            }
            Some(other) => return Err(format!("{path}:{}: unknown directive `{other}`", i + 1)),
            None => {}
        }
    }
    for s in &sites {
        if let Some(pin) = s.pin {
            if pin >= topology.nodes.max(1) {
                return Err(format!(
                    "site `{}` is pinned to node {pin}, but the topology has {} node(s)",
                    s.lexeme, topology.nodes
                ));
            }
        }
    }
    Ok((topology, sites))
}

/// Optional `--flag value` string lookup.
fn string_flag(args: &[String], name: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == name) {
        Some(i) => args
            .get(i + 1)
            .cloned()
            .map(Some)
            .ok_or_else(|| format!("{name} needs a value")),
        None => Ok(None),
    }
}

/// Optional `--flag N` numeric lookup.
fn num_flag(args: &[String], name: &str) -> Result<Option<u64>, String> {
    match string_flag(args, name)? {
        Some(v) => v.parse().map(Some).map_err(|e| format!("{name}: {e}")),
        None => Ok(None),
    }
}

/// Build the environment `net` and `serve` run: the spec's topology and
/// sites plus the runtime flags both commands share — `--workers`,
/// `--code-cache`, `--shake`, the `--chaos-*` plan, and `--ns-shards N`,
/// which partitions the name service over N owners with one follower
/// each and lease caching (lease TTL from `--ns-lease-ms`, default 50 ms;
/// otherwise node 0 owns every name, on the topology's replicas).
fn env_from_args(args: &[String], topology: Topology, sites: &[SiteSpec]) -> Result<Env, String> {
    let mut env = Env::new(topology);
    if let Some(w) = num_flag(args, "--workers")? {
        env = env.workers(w as usize);
    }
    if let Some(c) = num_flag(args, "--code-cache")? {
        env = env.code_cache(c as usize);
    }
    if args.iter().any(|a| a == "--shake") {
        env = env.shake(true);
    }
    if let Some(shards) = num_flag(args, "--ns-shards")?.filter(|&s| s > 0) {
        let lease_ms = num_flag(args, "--ns-lease-ms")?.unwrap_or(50);
        env = env.ns_shards(shards as usize, lease_ms);
    }
    if let Some(plan) = chaos_from_args(args)? {
        env = env.chaos(plan);
    }
    for s in sites {
        env = match s.pin {
            Some(pin) => env.site_on(pin, &s.lexeme, &s.src),
            None => env.site(&s.lexeme, &s.src),
        }
        .map_err(|e| e.to_string())?;
    }
    Ok(env)
}

/// Parse the `--chaos-*` fault-injection flags into a plan, or `None` when
/// no chaos flag was given. Rates are per-mille of packets; structural
/// events (partitions, kills) are only reachable from the library API.
fn chaos_from_args(args: &[String]) -> Result<Option<ditico::ChaosPlan>, String> {
    let seed = num_flag(args, "--chaos-seed")?;
    let drop = num_flag(args, "--chaos-drop")?;
    let dup = num_flag(args, "--chaos-dup")?;
    let delay = num_flag(args, "--chaos-delay")?;
    let delay_ns = num_flag(args, "--chaos-delay-ns")?;
    if seed.is_none() && drop.is_none() && dup.is_none() && delay.is_none() && delay_ns.is_none() {
        return Ok(None);
    }
    let mut spec = ditico::ChaosSpec::quiet(seed.unwrap_or(0));
    spec.drop_per_mille = drop.unwrap_or(0) as u32;
    spec.dup_per_mille = dup.unwrap_or(0) as u32;
    spec.delay_per_mille = delay.unwrap_or(0) as u32;
    spec.delay_ns = delay_ns.unwrap_or(1_000_000);
    Ok(Some(ditico::ChaosPlan::new(spec)))
}

/// Print a finished run's outputs and summary; returns an error when any
/// site failed so the process exits non-zero.
fn print_report(report: &RunReport, show_stats: bool) -> Result<(), String> {
    let mut lexemes: Vec<&String> = report.outputs.keys().collect();
    lexemes.sort();
    for lexeme in lexemes {
        for line in &report.outputs[lexeme] {
            println!("[{lexeme}] {line}");
        }
    }
    for (site, err) in &report.errors {
        eprintln!("[{site}] error: {err}");
    }
    for a in &report.aborts {
        eprintln!("abort: {a}");
    }
    if !report.suspects.is_empty() {
        let list: Vec<String> = report.suspects.iter().map(|n| n.0.to_string()).collect();
        eprintln!("suspected dead nodes: {}", list.join(", "));
    }
    eprintln!(
        "-- {} instrs, {} fabric packets ({} bytes), virtual {} µs{}",
        report.total_instrs,
        report.fabric_packets,
        report.fabric_bytes,
        report.virtual_ns / 1_000,
        if report.quiescent { "" } else { " (limit hit)" }
    );
    let cache = report.cache_totals();
    if cache.insertions > 0 || cache.hits > 0 || cache.misses > 0 {
        eprintln!(
            "code cache: {} hits / {} misses, {} coalesced fetches, {} dedup sends \
             ({} B saved), {} insertions, {} evictions, {} digest mismatches, \
             {} dup replies dropped",
            cache.hits,
            cache.misses,
            cache.coalesced,
            cache.dedup_sends,
            cache.bytes_saved,
            cache.insertions,
            cache.evictions,
            cache.digest_mismatches,
            report.total_dup_fetch_replies()
        );
    }
    let (shaken_packs, shake_saved) = report.shake_totals();
    if shaken_packs > 0 {
        eprintln!("ship shake: {shaken_packs} packs, {shake_saved} B saved");
    }
    let ns = report.ns_totals();
    if ns.any() {
        eprintln!(
            "name service: {} registers, {} imports ({} resolved, {} parked), \
             {} lease hits / {} misses / {} expired, {} invalidations, \
             {} shard hops, repl {} shipped / {} applied, {} failovers; \
             refusals: {} unknown site, {} kind, {} stamp",
            ns.registers,
            ns.imports,
            ns.resolved,
            ns.parked,
            ns.lease_hits,
            ns.lease_misses,
            ns.lease_expired,
            ns.invalidations,
            ns.shard_hops,
            ns.repl_shipped,
            ns.repl_applied,
            report.ns_failovers,
            ns.unknown_site,
            ns.kind_mismatch,
            ns.stamp_mismatch
        );
    }
    if let Some(t) = &report.transport {
        eprintln!(
            "wire: {} data out / {} data in ({} B out, {} B in), {} heartbeats in, \
             {} rejected, {} dropped, {} reconnects, {} peers failed, \
             outq hwm {}, {} flush stalls, {} perma-down drops",
            t.data_out,
            t.data_in,
            t.bytes_out,
            t.bytes_in,
            t.heartbeats_in,
            t.rejected,
            t.dropped,
            t.reconnects,
            t.peers_failed,
            t.outq_hwm,
            t.flush_stalls,
            t.dropped_perma
        );
    }
    if let Some(c) = &report.chaos {
        eprintln!(
            "chaos: {} dropped, {} duplicated, {} delayed, {} partition drops; \
             {} partitions / {} heals, {} kills / {} restarts",
            c.dropped,
            c.duplicated,
            c.delayed,
            c.partition_drops,
            c.partitions,
            c.heals,
            c.kills,
            c.restarts
        );
    }
    if show_stats {
        let mut lexemes: Vec<&String> = report.stats.keys().collect();
        lexemes.sort();
        for lexeme in lexemes {
            eprintln!("[{lexeme}]\n{}", report.stats[lexeme]);
        }
        let s = report.sched;
        if s.workers > 0 {
            eprintln!(
                "scheduler: workers={} slices={} (max/site {}) steals={} injector={} \
                 parks={} unparks={} max-ready-depth={} detector-probes={}",
                s.workers,
                s.slices,
                s.max_site_slices,
                s.steals,
                s.injector_pushes,
                s.parks,
                s.unparks,
                s.max_ready_depth,
                report.detector_probes
            );
        }
    }
    if !report.errors.is_empty() {
        return Err(format!("{} site(s) failed", report.errors.len()));
    }
    Ok(())
}

fn cmd_net(args: &[String]) -> Result<(), String> {
    const USAGE: &str =
        "usage: ditico net <spec.net> [--threaded] [--workers N] [--wall SECS] [--stats]\n\
         \x20      [--ns-shards N] [--ns-lease-ms N]\n\
         \x20      [--chaos-seed N] [--chaos-drop N] [--chaos-dup N] [--chaos-delay N]\n\
         \x20      ditico net <spec.net> --node LIST --peers ADDRS [--listen ADDR] …";
    let path = args.first().ok_or(USAGE)?;
    // Any transport flag switches to the multi-process runner.
    if ["--peers", "--listen", "--node"]
        .iter()
        .any(|f| args.iter().any(|a| a == f))
    {
        return cmd_distributed(args, false);
    }
    let threaded = args.iter().any(|a| a == "--threaded");
    let show_stats = args.iter().any(|a| a == "--stats");
    let wall = num_flag(args, "--wall")?.unwrap_or(60);
    let (topology, sites) = parse_net_spec(path)?;
    if threaded && topology.mode == FabricMode::Virtual {
        return Err("--threaded needs fabric=ideal or fabric=realtime in the spec".into());
    }
    let env = env_from_args(args, topology, &sites)?;
    let report = if threaded {
        env.build()
            .map_err(|e| e.to_string())?
            .run_threaded(std::time::Duration::from_secs(wall))
    } else {
        env.run().map_err(|e| e.to_string())?
    };
    print_report(&report, show_stats)
}

/// Run one process of a multi-process cluster over the TCP transport
/// (`ditico net --node/--peers/--listen` and `ditico serve`).
fn cmd_distributed(args: &[String], serve: bool) -> Result<(), String> {
    let usage = if serve {
        "usage: ditico serve <spec.net> --node LIST --listen ADDR [--peers ADDRS]\n\
         \x20      [--wall SECS] [--hb-ms N] [--retries N] [--workers N] [--code-cache N]\n\
         \x20      [--ns-shards N] [--ns-lease-ms N] [--stats]"
    } else {
        "usage: ditico net <spec.net> --node LIST --peers ADDRS [--listen ADDR]\n\
         \x20      [--wall SECS] [--hb-ms N] [--retries N] [--workers N] [--code-cache N]\n\
         \x20      [--ns-shards N] [--ns-lease-ms N] [--stats]"
    };
    let path = args.first().ok_or(usage)?;
    let show_stats = args.iter().any(|a| a == "--stats");
    let node_list = string_flag(args, "--node")?
        .ok_or_else(|| format!("--node LIST is required for a multi-process run\n{usage}"))?;
    let mut local_nodes: Vec<usize> = Vec::new();
    for part in node_list.split(',') {
        let part = part.trim();
        local_nodes.push(
            part.parse()
                .map_err(|e| format!("--node: bad node index `{part}`: {e}"))?,
        );
    }
    let peers = match string_flag(args, "--peers")? {
        Some(s) => parse_peer_list(&s)?,
        None => Vec::new(),
    };
    let listen = match string_flag(args, "--listen")? {
        Some(s) => Some(
            s.to_socket_addrs()
                .map_err(|e| format!("--listen: bad address `{s}`: {e}"))?
                .next()
                .ok_or_else(|| format!("--listen: address `{s}` resolved to nothing"))?,
        ),
        None => None,
    };
    if serve && listen.is_none() {
        return Err(format!("serve needs --listen\n{usage}"));
    }
    if !serve && peers.is_empty() && listen.is_none() {
        return Err(format!(
            "a multi-process run needs --peers and/or --listen\n{usage}"
        ));
    }
    let wall = num_flag(args, "--wall")?.unwrap_or(60);
    let (topology, sites) = parse_net_spec(path)?;
    if topology.mode != FabricMode::Ideal {
        return Err(
            "multi-process runs need fabric=ideal in the spec: link latency comes from \
             the real network"
                .to_string(),
        );
    }
    for &n in &local_nodes {
        if n >= topology.nodes.max(1) {
            return Err(format!(
                "--node: index {n} is outside the topology ({} node(s))",
                topology.nodes
            ));
        }
    }
    let mut cfg = TransportConfig {
        local_nodes: local_nodes.iter().map(|&n| NodeId(n as u32)).collect(),
        listen,
        peers,
        serve,
        ..TransportConfig::default()
    };
    if let Some(ms) = num_flag(args, "--hb-ms")? {
        cfg.hb_period = std::time::Duration::from_millis(ms.max(1));
        cfg.idle_grace = cfg.hb_period * 6;
    }
    if let Some(r) = num_flag(args, "--retries")? {
        cfg.max_retries = r as u32;
    }
    let built = env_from_args(args, topology, &sites)?
        .build_partition(&local_nodes)
        .map_err(|e| e.to_string())?;
    if let Some(addr) = listen {
        eprintln!("listening on {addr}, hosting node(s) {node_list}");
    }
    let report = built.run_distributed(cfg, std::time::Duration::from_secs(wall))?;
    print_report(&report, show_stats)
}

fn cmd_shell() -> Result<(), String> {
    let mut shell = Shell::new();
    let stdin = std::io::stdin();
    let mut lock = stdin.lock();
    let mut line = String::new();
    println!("TyCOsh — type `help` for commands, ctrl-D to exit.");
    loop {
        line.clear();
        match lock.read_line(&mut line) {
            Ok(0) => return Ok(()),
            Ok(_) => {
                if matches!(line.trim(), "exit" | "quit") {
                    return Ok(());
                }
                let reply = shell.exec(&line);
                if !reply.is_empty() {
                    println!("{reply}");
                }
            }
            Err(e) => return Err(format!("read error: {e}")),
        }
    }
}
