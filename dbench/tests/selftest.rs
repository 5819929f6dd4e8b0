//! Reduced-size self-tests of every workload: the output checks pass,
//! nothing fails, every metric is printed, and the result line parses.

use ditico_perfbench::util::Outcome;
use ditico_perfbench::{fanin, mobility, rpc_tcp, Values, END_TO_END, PER_LAYER};

/// A minimal JSON reader: enough to prove the result line is one
/// well-formed object and to pull its fields back out.
#[derive(Debug, PartialEq)]
enum Json {
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => &fields.iter().find(|(k, _)| k == key).expect(key).1,
            other => panic!("{other:?} is not an object"),
        }
    }

    fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("{other:?} is not an array"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }
}

fn parse(s: &str) -> Json {
    let mut p = s.trim().as_bytes();
    let v = value(&mut p);
    assert!(p.is_empty(), "trailing text after the JSON object");
    v
}

fn skip_ws(p: &mut &[u8]) {
    while let [b' ' | b'\n' | b'\t', rest @ ..] = p {
        *p = rest;
    }
}

fn eat(p: &mut &[u8], c: u8) {
    skip_ws(p);
    assert_eq!(p.first(), Some(&c), "expected {:?}", c as char);
    *p = &p[1..];
}

fn value(p: &mut &[u8]) -> Json {
    skip_ws(p);
    match p.first() {
        Some(b'{') => {
            eat(p, b'{');
            let mut fields = Vec::new();
            skip_ws(p);
            if p.first() == Some(&b'}') {
                eat(p, b'}');
                return Json::Obj(fields);
            }
            loop {
                let Json::Str(k) = value(p) else {
                    panic!("object key is not a string")
                };
                eat(p, b':');
                fields.push((k, value(p)));
                skip_ws(p);
                if p.first() == Some(&b',') {
                    eat(p, b',');
                } else {
                    eat(p, b'}');
                    return Json::Obj(fields);
                }
            }
        }
        Some(b'[') => {
            eat(p, b'[');
            let mut items = Vec::new();
            skip_ws(p);
            if p.first() == Some(&b']') {
                eat(p, b']');
                return Json::Arr(items);
            }
            loop {
                items.push(value(p));
                skip_ws(p);
                if p.first() == Some(&b',') {
                    eat(p, b',');
                } else {
                    eat(p, b']');
                    return Json::Arr(items);
                }
            }
        }
        Some(b'"') => {
            *p = &p[1..];
            let end = p.iter().position(|&c| c == b'"').expect("string ends");
            let s = String::from_utf8(p[..end].to_vec()).expect("utf-8");
            *p = &p[end + 1..];
            Json::Str(s)
        }
        Some(b't') if p.starts_with(b"true") => {
            *p = &p[4..];
            Json::Bool(true)
        }
        Some(b'f') if p.starts_with(b"false") => {
            *p = &p[5..];
            Json::Bool(false)
        }
        _ => {
            let end = p
                .iter()
                .position(|c| !(c.is_ascii_digit() || b"+-.eE".contains(c)))
                .unwrap_or(p.len());
            let n = std::str::from_utf8(&p[..end])
                .expect("ascii")
                .parse()
                .expect("number");
            *p = &p[end..];
            Json::Num(n)
        }
    }
}

/// The run passed its checks, and its result line parses with exactly
/// the keys `correct`, `attempted`, `failed` and `metrics` and every
/// metric of `list`, none of them zero unless `zero_ok` names it.
fn assert_clean(
    out: &mut Outcome,
    v: &Values,
    list: &[(&'static str, &'static str)],
    zero_ok: &[&str],
) {
    assert!(out.violations.is_empty(), "{:?}", out.violations);
    assert_eq!(out.failed, 0);
    assert!(out.attempted > 0);
    out.metrics = v.emit(list);
    let j = parse(&out.result_json());
    let Json::Obj(top) = &j else { panic!() };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(j.get("correct"), &Json::Bool(true));
    assert_eq!(j.get("failed"), &Json::Num(0.0));
    let Json::Obj(metrics) = j.get("metrics") else {
        panic!()
    };
    assert_eq!(metrics.len(), list.len());
    for (name, unit) in list {
        let m = j.get("metrics").get(name);
        assert_eq!(m.get("unit"), &Json::Str(unit.to_string()), "{name}");
        let Json::Num(x) = m.get("value") else {
            panic!("{name} has no number")
        };
        assert!(x.is_finite(), "{name}");
        assert!(*x != 0.0 || zero_ok.contains(name), "{name} reads 0");
    }
}

#[test]
fn rpc_tcp_reduced() {
    let (mut out, mut v) = (Outcome::default(), Values::default());
    rpc_tcp::run(
        3,
        0.01,
        rpc_tcp::Size { calls: 60 },
        false,
        &mut out,
        &mut v,
    );
    assert_clean(&mut out, &v, END_TO_END, &[]);
}

#[test]
fn fanin_reduced() {
    let (mut out, mut v) = (Outcome::default(), Values::default());
    let size = fanin::Size {
        windows: 4,
        burst: 5,
    };
    fanin::run(3, 0.01, size, false, &mut out, &mut v);
    assert_clean(&mut out, &v, END_TO_END, &[]);
}

#[test]
fn mobility_reduced() {
    let (mut out, mut v) = (Outcome::default(), Values::default());
    let size = mobility::Size {
        rounds: 4,
        churn: 20,
    };
    mobility::run(3, 0.01, size, false, &mut out, &mut v);
    assert_clean(&mut out, &v, END_TO_END, &[]);
}

/// Counters of events that must not happen in a clean run read 0, and
/// the tracing overhead is only set by the command line, which runs the
/// workload twice.
const NEVER: &[&str] = &[
    "daemon.rejected",
    "transport.rejected",
    "transport.dropped",
    "codecache.misses",
    "trace.overhead_s",
];

#[test]
fn traced_runs_report_every_layer() {
    let (mut out, mut v) = (Outcome::default(), Values::default());
    let size = fanin::Size {
        windows: 4,
        burst: 5,
    };
    fanin::run(4, 0.01, size, true, &mut out, &mut v);
    // The deterministic engine has no scheduler, sockets or moving code.
    let idle: Vec<&str> = PER_LAYER
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| {
            n.starts_with("sched.")
                || n.starts_with("transport.")
                || n.starts_with("codecache.")
                || *n == "vm.fetches"
                || *n == "vm.objs_sent"
        })
        .chain(NEVER.iter().copied())
        .collect();
    assert_clean(&mut out, &v, PER_LAYER, &idle);

    let (mut out, mut v) = (Outcome::default(), Values::default());
    let size = mobility::Size {
        rounds: 4,
        churn: 20,
    };
    mobility::run(4, 0.01, size, true, &mut out, &mut v);
    let idle = [
        NEVER,
        &[
            "sched.steals",
            "transport.flush_stalls",
            "codecache.coalesced",
        ],
    ]
    .concat();
    assert_clean(&mut out, &v, PER_LAYER, &idle);
    assert!(v.get("cluster.term_tail_s").unwrap() > 0.0);
    assert!(v.get("vm.fetches").unwrap() >= mobility::CLIENTS as f64);

    let (mut out, mut v) = (Outcome::default(), Values::default());
    rpc_tcp::run(4, 0.01, rpc_tcp::Size { calls: 60 }, true, &mut out, &mut v);
    let idle = [
        NEVER,
        &[
            "vm.fetches",
            "vm.objs_sent",
            "sched.steals",
            "transport.flush_stalls",
            "codecache.hits",
            "codecache.coalesced",
            "codecache.dedup_sends",
            "codecache.bytes_saved",
        ],
    ]
    .concat();
    assert_clean(&mut out, &v, PER_LAYER, &idle);
    assert!(v.get("rpc.server_us").unwrap() > 0.0);
    assert!(v.get("rpc.caller_self_us").unwrap() > 0.0);
}

#[test]
fn reference_interpreter_agrees() {
    for seed in [1, 2] {
        assert_eq!(fanin::reference_check(seed), Vec::<String>::new());
        assert_eq!(mobility::reference_check(seed), Vec::<String>::new());
    }
}

#[test]
fn manifest_declares_every_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let j = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json beside this package"));
    let listed = |key: &str| -> Vec<(String, String)> {
        j.get(key)
            .items()
            .iter()
            .map(|m| {
                (
                    m.get("name").str().to_string(),
                    m.get("unit").str().to_string(),
                )
            })
            .collect()
    };
    let owned = |l: &[(&str, &str)]| -> Vec<(String, String)> {
        l.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), owned(END_TO_END));
    assert_eq!(listed("per_layer"), owned(PER_LAYER));
    let workloads: Vec<&str> = j
        .get("workloads")
        .items()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(workloads, ["rpc_tcp", "fanin", "mobility"]);
}

#[test]
fn command_line_prints_the_result_last() {
    let bin = env!("CARGO_BIN_EXE_ditico-perfbench");
    let out = std::process::Command::new(bin)
        .args([
            "--workload",
            "fanin",
            "--seed",
            "7",
            "--seconds",
            "0.05",
            "--trace",
            "0",
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let j = parse(stdout.lines().last().expect("a result line"));
    assert_eq!(j.get("correct"), &Json::Bool(true));
    let stderr = String::from_utf8(out.stderr).expect("utf-8");
    assert!(
        stderr.contains("\"nproc\"") && stderr.contains("\"rustc\""),
        "{stderr}"
    );

    let bad = std::process::Command::new(bin)
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("runs");
    assert!(!bad.status.success());
    assert!(bad.stdout.is_empty());
}
