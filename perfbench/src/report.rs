//! Sample statistics and the one-line JSON result.
//!
//! Percentiles use the nearest-rank rule: the p-th percentile of n
//! sorted samples is the sample at rank ceil(p/100 · n). A tail
//! percentile is only meaningful with enough samples beyond it, so
//! [`tail_ok`] states the floor the workloads check before they trust a
//! p99.

use std::fmt::Write as _;

/// Fewest samples a p99 is computed from: ten samples lie beyond it.
pub const P99_MIN_SAMPLES: usize = 1000;

/// Nearest-rank percentile of `samples` (sorted in place). `None` when
/// there are no samples.
pub fn percentile(samples: &mut [f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    Some(samples[rank.clamp(1, samples.len()) - 1])
}

/// Median (nearest-rank p50).
pub fn median(samples: &mut [f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Whether `n` samples carry a p99 with at least ten samples beyond it.
pub fn tail_ok(n: usize) -> bool {
    n >= P99_MIN_SAMPLES
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The run's result line.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every non-failed operation matched the benchmark's own model.
    pub correct: bool,
    /// Operations (requests or trials) attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Reported metrics, in declaration order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Appends a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Renders the single JSON line the benchmark ends with. Non-finite
    /// values cannot be represented in JSON and are a bug in a workload.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            assert!(m.value.is_finite(), "metric {} is {}", m.name, m.value);
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                fmt_value(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Peak resident set of this process, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| format!("proc status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Clock ticks per second of `/proc/<pid>/stat` times (Linux's fixed
/// USER_HZ).
const USER_HZ: f64 = 100.0;

/// CPU time (user + system, every thread) this process has used, in
/// seconds. Unlike wall time it is not charged for time the host gives
/// to other guests, so it stays steady on a shared machine.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("proc stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the line.
    let rest = stat.rsplit_once(')').ok_or("malformed /proc/self/stat")?.1;
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        f.get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    Ok((tick(11)? + tick(12)?) / USER_HZ)
}

/// Formats a value with all its digits; whole numbers print without a
/// fractional part.
fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut s: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut s, 50.0), Some(50.0));
        assert_eq!(percentile(&mut s, 99.0), Some(99.0));
        assert_eq!(percentile(&mut s, 100.0), Some(100.0));
        assert_eq!(percentile(&mut s, 0.0), Some(1.0));
        let mut one = vec![7.5];
        assert_eq!(median(&mut one), Some(7.5));
        assert_eq!(percentile(&mut [], 50.0), None);
        // Odd count: the middle sample, not an interpolation.
        let mut odd = vec![3.0, 1.0, 2.0];
        assert_eq!(median(&mut odd), Some(2.0));
        // Rank rounds up: p99 of 1000 samples is the 990th.
        let mut k: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&mut k, 99.0), Some(990.0));
    }

    #[test]
    fn tail_needs_a_thousand_samples() {
        assert!(!tail_ok(999));
        assert!(tail_ok(1000));
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut o = Outcome {
            correct: true,
            attempted: 1000,
            failed: 4,
            metrics: Vec::new(),
        };
        o.push("ops_s", 1234.5678, "1/s");
        o.push("setup_s", 0.8127, "s");
        o.push("peak_rss_mb", 42.0, "MiB");
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 4, \"metrics\": \
             {\"ops_s\": {\"value\": 1234.5678, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"peak_rss_mb\": {\"value\": 42, \"unit\": \"MiB\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "is NaN")]
    fn non_finite_values_are_refused() {
        let mut o = Outcome::default();
        o.push("x", f64::NAN, "s");
        let _ = o.to_json();
    }
}
