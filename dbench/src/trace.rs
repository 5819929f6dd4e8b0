//! Bench-side spans for the traced run.
//!
//! Every span is recorded from the benchmark's own files, around a call
//! into one layer's public function: name, start, end, the span that
//! caused it, and the call id it belongs to (0 when it serves no single
//! call). Spans stay in memory and are written out when the run ends.
//! A layer's self time is its spans' durations minus the parts their
//! child spans cover.

use crate::util::json_str;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub call: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans of one name a traced run keeps; later ones are counted, not
/// kept, so a long run of short calls writes megabytes, not tens of them.
const MAX_SPANS_PER_NAME: usize = 20_000;

/// A span recorder; a disabled one records nothing and costs a branch.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    per_name: BTreeMap<&'static str, usize>,
    dropped: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            per_name: BTreeMap::new(),
            dropped: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Record a finished span; returns its id for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        call: u64,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let kept = self.per_name.entry(name).or_default();
        if *kept >= MAX_SPANS_PER_NAME {
            self.dropped += 1;
            return None;
        }
        *kept += 1;
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            call,
        });
        Some(self.spans.len() - 1)
    }

    /// Open a parent span now and close it later with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        let now = Instant::now();
        self.record(name, now, now, parent, 0)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(i) = id {
            let end = self.ns(Instant::now());
            self.spans[i].end_ns = end;
        }
    }

    /// Per span name: (count, total ns, self ns).
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let child_ns = self.child_ns();
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.dur_ns();
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(child_ns[i]);
        }
        out
    }

    /// Self-time durations (µs) of every span named `name`.
    pub fn self_us_of(&self, name: &str) -> Vec<f64> {
        let child_ns = self.child_ns();
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.dur_ns().saturating_sub(child_ns[i]) as f64 / 1e3)
            .collect()
    }

    /// Per span: the time its direct children cover.
    fn child_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        child_ns
    }

    /// The spans and the per-name self-time table as one JSON document.
    pub fn to_json(&self, header: &str) -> String {
        let mut s = format!(
            "{{{header}, \"spans_dropped\": {}, \"self_times\": {{",
            self.dropped
        );
        for (i, (name, (n, total, own))) in self.self_times().iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}{}: {{\"count\": {n}, \"total_ns\": {total}, \"self_ns\": {own}}}",
                json_str(name)
            );
        }
        s.push_str("}, \"spans\": [");
        for (i, sp) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{sep}{{\"id\": {i}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"call\": {}}}",
                json_str(sp.name),
                sp.start_ns,
                sp.end_ns,
                sp.call
            );
        }
        s.push_str("]}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let a = Instant::now();
        let b = a + Duration::from_micros(100);
        let c = a + Duration::from_micros(30);
        let d = a + Duration::from_micros(70);
        let p = t.record("call", a, b, None, 1);
        t.record("self", c, d, p, 1);
        let st = t.self_times();
        assert_eq!(st["call"].2, 60_000);
        assert_eq!(st["self"].2, 40_000);
        assert!(Tracer::new(false).record("x", a, b, None, 0).is_none());
    }
}
