//! Metric records, summary statistics, run provenance and the JSON lines
//! the benchmark prints.

use std::fmt::Write as _;

/// Which clock (or counter) a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Real wall time on the machine running the benchmark.
    Host,
    /// gpu-sim's analytic device clock or the server's virtual clock.
    Model,
    /// A count or a ratio of counts; no clock involved.
    Count,
    /// Operating-system memory accounting.
    Memory,
}

impl Clock {
    fn as_str(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Model => "model",
            Clock::Count => "count",
            Clock::Memory => "memory",
        }
    }
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub clock: Clock,
}

/// Collects metrics in print order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str, clock: Clock) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
            clock,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Median of the samples (mean of the middle two for an even count);
/// 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len().is_multiple_of(2) {
        (s[mid - 1] + s[mid]) / 2.0
    } else {
        s[mid]
    }
}

/// Nearest-rank quantile `q` in `(0, 1]` of already sorted samples; 0 for
/// no samples.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 when the
/// platform does not expose it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host CPU's model name, or `"unknown"`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host threads the simulated engines may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A finite number as JSON, with every digit Rust's shortest round-trip
/// formatting gives; `null` for a non-finite value (the caller counts
/// that as a failed check).
fn json_num(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// `{"provenance": {...}}`: string key/value pairs describing the run.
pub fn provenance_line(pairs: &[(String, String)]) -> String {
    let mut out = String::from("{\"provenance\": {");
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json_str(&mut out, k);
        out.push_str(": ");
        json_str(&mut out, v);
    }
    out.push_str("}}");
    out
}

/// `{"clocks": {...}}`: the clock every printed metric is read from.
pub fn clocks_line(metrics: &Metrics) -> String {
    let mut out = String::from("{\"clocks\": {");
    for (i, m) in metrics.0.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json_str(&mut out, &m.name);
        out.push_str(": ");
        json_str(&mut out, m.clock.as_str());
    }
    out.push_str("}}");
    out
}

/// The result object: the last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.0.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json_str(&mut out, &m.name);
        out.push_str(": {\"value\": ");
        json_num(&mut out, m.value);
        out.push_str(", \"unit\": ");
        json_str(&mut out, m.unit);
        out.push('}');
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&s, 0.5), 50.0);
        assert_eq!(quantile_sorted(&s, 0.99), 99.0);
        assert_eq!(quantile_sorted(&s, 1.0), 100.0);
    }

    #[test]
    fn result_line_is_json_shaped() {
        let mut m = Metrics::default();
        m.push("a_s", 0.25, "s", Clock::Host);
        let line = result_line(true, 3, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
