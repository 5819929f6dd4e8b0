//! The DiTyCO benchmark: three workloads, each run against the public
//! API, each checking its own outputs, each printing every end-to-end
//! metric (and, in a traced run, every per-layer metric) by name and
//! unit. See README.md for what each metric means on each workload.

pub mod fanin;
mod layers;
pub mod mobility;
mod rawwire;
pub mod rpc_tcp;
mod trace;
pub mod util;

use ditico::RunReport;
use std::collections::BTreeMap;
use util::Metric;

/// The end-to-end metrics, in print order, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("rpc_p50_us", "us"),
    ("rpc_p99_us", "us"),
    ("calls_per_s", "1/s"),
    ("msgs_per_s", "1/s"),
    ("sim_ms", "ms"),
    ("job_s", "s"),
];

/// The per-layer metrics of the traced run, in print order, with units.
/// Layers a workload does not exercise report 0 (see README.md).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("syntax.parse_us", "us"),
    ("types.check_us", "us"),
    ("vm.compile_us", "us"),
    ("vm.verify_us", "us"),
    ("env.build_us", "us"),
    ("vm.instrs", "count"),
    ("vm.reductions", "count"),
    ("vm.ic_hit_rate", "ratio"),
    ("vm.instrs_per_s", "1/s"),
    ("vm.fetches", "count"),
    ("vm.objs_sent", "count"),
    ("codec.encode_ns", "ns"),
    ("codec.decode_ns", "ns"),
    ("codec.bytes_per_pkt", "bytes"),
    ("wire.pack_us", "us"),
    ("wire.link_us", "us"),
    ("daemon.remote_sends", "count"),
    ("daemon.remote_batches", "count"),
    ("daemon.pkts_per_batch", "ratio"),
    ("daemon.local_deliveries", "count"),
    ("daemon.rejected", "count"),
    ("daemon.remote_path_share", "ratio"),
    ("fabric.packets", "count"),
    ("fabric.bytes", "bytes"),
    ("fabric.virtual_share", "ratio"),
    ("sched.slices", "count"),
    ("sched.parks", "count"),
    ("sched.unparks", "count"),
    ("sched.steals", "count"),
    ("sched.slices_per_call", "ratio"),
    ("transport.frames_out", "count"),
    ("transport.frames_in", "count"),
    ("transport.frames_per_call", "ratio"),
    ("transport.flush_stalls", "count"),
    ("transport.outq_hwm", "count"),
    ("transport.rejected", "count"),
    ("transport.dropped", "count"),
    ("rpc.caller_self_us", "us"),
    ("rpc.server_us", "us"),
    ("ns.imports", "count"),
    ("ns.registers", "count"),
    ("ns.resolve_us", "us"),
    ("codecache.hits", "count"),
    ("codecache.misses", "count"),
    ("codecache.coalesced", "count"),
    ("codecache.dedup_sends", "count"),
    ("codecache.bytes_saved", "bytes"),
    ("cluster.run_s", "s"),
    ("cluster.term_tail_s", "s"),
    ("trace.overhead_s", "s"),
];

/// Named metric values a workload fills in; [`Values::emit`] walks a
/// canonical list so every run prints the same names in the same order.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.0.insert(name, v);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Every metric of `list`; a name the workload never set reads 0.
    pub fn emit(&self, list: &[(&'static str, &'static str)]) -> Vec<Metric> {
        list.iter()
            .map(|&(name, unit)| Metric {
                name,
                value: self.0.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect()
    }
}

/// The failures a run report shows by itself: VM errors, runtime-thread
/// aborts, an end by wall limit rather than termination, and packets the
/// transport rejected or dropped. Each becomes one violation.
pub(crate) fn report_failures(who: &str, r: &RunReport) -> Vec<String> {
    let mut out = Vec::new();
    for (site, e) in &r.errors {
        out.push(format!("{who}: site {site} failed: {e}"));
    }
    for a in &r.aborts {
        out.push(format!("{who}: runtime abort: {a}"));
    }
    if !r.quiescent {
        out.push(format!(
            "{who}: run ended by its wall limit, not by termination"
        ));
    }
    if let Some(t) = &r.transport {
        if t.rejected > 0 {
            out.push(format!("{who}: transport rejected {} packets", t.rejected));
        }
        if t.dropped > 0 {
            out.push(format!("{who}: transport dropped {} frames", t.dropped));
        }
    }
    out
}

/// Add the counters of a run report (or several partitions' reports) to
/// the per-layer values.
pub(crate) fn report_counters(v: &mut Values, reports: &[&RunReport]) {
    let mut sum = |name: &'static str, f: &dyn Fn(&RunReport) -> f64| {
        let x: f64 = reports.iter().map(|r| f(r)).sum();
        v.set(name, x);
    };
    sum("vm.instrs", &|r| r.total_instrs as f64);
    sum("vm.reductions", &|r| {
        r.stats.values().map(|s| s.reductions()).sum::<u64>() as f64
    });
    sum("vm.fetches", &|r| {
        r.stats.values().map(|s| s.fetches).sum::<u64>() as f64
    });
    sum("vm.objs_sent", &|r| {
        r.stats.values().map(|s| s.objs_sent).sum::<u64>() as f64
    });
    sum("daemon.remote_sends", &|r| {
        r.daemon_stats.iter().map(|d| d.remote_sends).sum::<u64>() as f64
    });
    sum("daemon.remote_batches", &|r| {
        r.daemon_stats.iter().map(|d| d.remote_batches).sum::<u64>() as f64
    });
    sum("daemon.local_deliveries", &|r| {
        r.daemon_stats
            .iter()
            .map(|d| d.local_deliveries)
            .sum::<u64>() as f64
    });
    sum("daemon.rejected", &|r| {
        r.daemon_stats.iter().map(|d| d.rejected).sum::<u64>() as f64
    });
    sum("fabric.packets", &|r| r.fabric_packets as f64);
    sum("fabric.bytes", &|r| r.fabric_bytes as f64);
    sum("sched.slices", &|r| r.sched.slices as f64);
    sum("sched.parks", &|r| r.sched.parks as f64);
    sum("sched.unparks", &|r| r.sched.unparks as f64);
    sum("sched.steals", &|r| r.sched.steals as f64);
    let wire = |f: fn(&ditico::TransportReport) -> u64| {
        move |r: &RunReport| r.transport.as_ref().map_or(0.0, |t| f(t) as f64)
    };
    sum("transport.frames_out", &wire(|t| t.frames_out));
    sum("transport.frames_in", &wire(|t| t.frames_in));
    sum("transport.flush_stalls", &wire(|t| t.flush_stalls));
    sum("transport.rejected", &wire(|t| t.rejected));
    sum("transport.dropped", &wire(|t| t.dropped));
    sum("ns.imports", &|r| r.ns_totals().imports as f64);
    sum("ns.registers", &|r| r.ns_totals().registers as f64);
    sum("codecache.hits", &|r| r.cache_totals().hits as f64);
    sum("codecache.misses", &|r| r.cache_totals().misses as f64);
    sum("codecache.coalesced", &|r| {
        r.cache_totals().coalesced as f64
    });
    sum("codecache.dedup_sends", &|r| {
        r.cache_totals().dedup_sends as f64
    });
    sum("codecache.bytes_saved", &|r| {
        r.cache_totals().bytes_saved as f64
    });
    let hwm = reports
        .iter()
        .filter_map(|r| r.transport.as_ref().map(|t| t.outq_hwm))
        .max()
        .unwrap_or(0);
    v.set("transport.outq_hwm", hwm as f64);
    let (hits, lookups) = reports
        .iter()
        .flat_map(|r| r.stats.values())
        .fold((0u64, 0u64), |(h, l), s| {
            (h + s.ic_hits, l + s.ic_hits + s.ic_misses)
        });
    v.set(
        "vm.ic_hit_rate",
        if lookups > 0 {
            hits as f64 / lookups as f64
        } else {
            0.0
        },
    );
    let batches = v.get("daemon.remote_batches").unwrap_or(0.0);
    if batches > 0.0 {
        v.set(
            "daemon.pkts_per_batch",
            v.get("daemon.remote_sends").unwrap_or(0.0) / batches,
        );
    }
}

/// Deterministic-engine limits that let a job run to its end.
pub(crate) fn unlimited() -> ditico::RunLimits {
    ditico::RunLimits {
        max_instrs: u64::MAX,
        ..ditico::RunLimits::default()
    }
}

/// Write a traced run's spans (kept in memory until now) to
/// `out/trace-<workload>-<seed>.json` beside this package's manifest,
/// inside the checkout being measured.
pub(crate) fn write_trace(workload: &str, seed: u64, json: &str) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{workload}-{seed}.json"));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, json)) {
        eprintln!("could not write {}: {e}", path.display());
    }
}

/// Run `env` on the tyco-calculus interpreter (the reference semantics,
/// independent of the compiler and VM under test) and on the
/// deterministic engine, and compare every site's output lines with
/// each other and with `expected`. Returns one violation per mismatch.
pub(crate) fn reference_check(env: ditico::Env, expected: &[(&str, Vec<String>)]) -> Vec<String> {
    let mut bad = Vec::new();
    let reference = match env.run_reference(50_000_000) {
        Ok(r) => r,
        Err(e) => return vec![format!("reference interpreter failed: {e}")],
    };
    let lexemes = env.lexemes();
    let mut built = env.build().expect("reference environment links");
    let vm = built.run_deterministic(unlimited());
    bad.extend(report_failures("reduced run", &vm));
    for (lexeme, ref_lines) in lexemes.iter().zip(&reference.outputs) {
        if vm.output(lexeme) != ref_lines.as_slice() {
            bad.push(format!(
                "site {lexeme}: VM printed {:?}, reference interpreter {ref_lines:?}",
                vm.output(lexeme)
            ));
        }
    }
    for (lexeme, want) in expected {
        if vm.output(lexeme) != want.as_slice() {
            bad.push(format!(
                "reduced run: site {lexeme} printed {:?}, expected {want:?}",
                vm.output(lexeme)
            ));
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_is_emitted_once() {
        let v = Values::default();
        for list in [END_TO_END, PER_LAYER] {
            let m = v.emit(list);
            let mut names: Vec<_> = m.iter().map(|m| m.name).collect();
            names.sort();
            names.dedup();
            assert_eq!(names.len(), list.len());
        }
    }
}
