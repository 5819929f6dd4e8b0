//! Seeded input generation, order statistics and the result record.

use std::fmt::Write as _;
use std::time::Duration;

/// SplitMix64: the workload generator. The seed fixes every generated
/// value, so the same seed gives the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// The `q`-quantile of `v` by the nearest-rank rule (`v` need not be
/// sorted). `None` for an empty sample.
pub fn quantile(v: &[f64], q: f64) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    Some(s[rank - 1])
}

/// The median, averaging the middle pair of an even sample.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Samples per batch of [`tail`]: the 99th percentile of a batch this
/// size has ten samples beyond it.
const TAIL_BATCH: usize = 1000;

/// The 99th percentile of `samples` (in arrival order) as the median of
/// the 99th percentiles of consecutive batches of [`TAIL_BATCH`] samples,
/// a short last batch folded into the one before. A stall of the host
/// during one batch moves one batch's tail, not the reported one. Returns
/// the value and the number of batches.
pub fn tail(samples: &[f64]) -> (f64, usize) {
    let n = (samples.len() / TAIL_BATCH).max(1);
    let per: Vec<f64> = (0..n)
        .map(|i| {
            let end = if i + 1 == n {
                samples.len()
            } else {
                (i + 1) * TAIL_BATCH
            };
            quantile(&samples[i * TAIL_BATCH..end], 0.99).unwrap_or(0.0)
        })
        .collect();
    (median(&per), n)
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one benchmark invocation produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations the workload attempted and how many of them failed,
    /// by the workload's own definition (see README.md).
    pub attempted: u64,
    pub failed: u64,
    /// Output-check violations, each a human-readable reason.
    pub violations: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Free-form run facts (sample counts, sizes) for the run record.
    pub record: Vec<(String, String)>,
}

impl Outcome {
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.record.push((key.to_string(), value.to_string()));
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, each metric as `{"value", "unit"}`.
    pub fn result_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// A finite JSON number with every digit `f64` carries.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Escape a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_follow_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.99), Some(99.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, {
            let mut r = Rng::new(8);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        });
    }
}
