//! `ditico-perfbench --workload <rpc_tcp|fanin|mobility> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Runs one workload for about `--seconds`, checks its outputs, and
//! prints as the last line of standard output one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: every end-to-end
//! metric with `--trace 0`, every per-layer metric with `--trace 1`.
//! A traced run first measures the workload untraced for half the time,
//! then traced for the other half, and reports the difference in job
//! time as `trace.overhead_s`. The run record (seed, sample counts,
//! nproc, rustc, git revision) goes to standard error. Exits 1 when an
//! output check fails.

use ditico_perfbench::util::{json_str, Outcome};
use ditico_perfbench::{fanin, mobility, rpc_tcp, Values, END_TO_END, PER_LAYER};
use std::process::{Command, ExitCode};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    };
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

/// Run `workload` once; `false` if the name is unknown.
fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: &mut Outcome,
    v: &mut Values,
) -> bool {
    match workload {
        "rpc_tcp" => rpc_tcp::run(seed, seconds, rpc_tcp::FULL, traced, out, v),
        "fanin" => fanin::run(seed, seconds, fanin::FULL, traced, out, v),
        "mobility" => mobility::run(seed, seconds, mobility::FULL, traced, out, v),
        _ => return false,
    }
    true
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: --workload <rpc_tcp|fanin|mobility> --seed <n> --seconds <s> --trace <0|1>\n{e}");
            return ExitCode::from(2);
        }
    };
    let mut out = Outcome::default();
    let mut values = Values::default();
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    if !run(
        &args.workload,
        args.seed,
        seconds,
        false,
        &mut out,
        &mut values,
    ) {
        eprintln!("unknown workload {}", args.workload);
        return ExitCode::from(2);
    }
    if args.trace {
        let untraced_job = values.get("job_s").unwrap_or(0.0);
        let mut traced = Values::default();
        let mut t_out = Outcome::default();
        run(
            &args.workload,
            args.seed,
            seconds,
            true,
            &mut t_out,
            &mut traced,
        );
        out.attempted += t_out.attempted;
        out.failed += t_out.failed;
        out.violations.extend(t_out.violations);
        for (k, v) in t_out.record {
            out.record.push((format!("traced.{k}"), v));
        }
        let overhead = traced.get("job_s").unwrap_or(0.0) - untraced_job;
        traced.set("trace.overhead_s", overhead);
        values = traced;
    }
    out.metrics = values.emit(if args.trace { PER_LAYER } else { END_TO_END });

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"rustc\": {}, \"git_rev\": {}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        json_str(&command_line("rustc", &["--version"])),
        json_str(&command_line("git", &["rev-parse", "HEAD"])),
    );
    for (k, v) in &out.record {
        record.push_str(&format!(", {}: {}", json_str(k), json_str(v)));
    }
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    record.push_str(&format!(
        ", \"failed_frac\": {failed_frac}, \"violations\": {}}}",
        out.violations.len()
    ));
    eprintln!("run record: {record}");
    for v in &out.violations {
        eprintln!("check failed: {v}");
    }
    for m in &out.metrics {
        eprintln!("  {:<28} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", out.result_json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
