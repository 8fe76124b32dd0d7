//! What a run prints: the host stamp, one line per metric with its unit and
//! sample count, and — last — the one-line JSON result.

use crate::calibrate::{Speed, Timed};
use std::fmt::Write as _;

/// One reported metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (a configure, a study, a refresh or an update).
    pub attempted: u64,
    /// Operations that errored, answered non-200 or failed a check.
    pub failed: u64,
    /// Human-readable report lines, printed before the JSON result.
    pub lines: Vec<String>,
    /// The metrics of the JSON result, in print order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.lines.push(format!("FAILED {}", what()));
        }
    }

    /// Adds a line to the human report.
    pub fn line(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// Adds a metric of the JSON result.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.to_string(), value, unit });
    }

    /// Reports a sampled timing as its median and the highest percentile
    /// with at least ten samples beyond it, with the sample count.
    pub fn timing(&mut self, name: &str, unit: &'static str, samples: &[f64]) {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let mut line = format!("{name}: median {} {unit}", fmt(median(&sorted)));
        if let Some(q) = tail_quantile(sorted.len()) {
            let _ = write!(line, ", p{} {} {unit}", q * 100.0, fmt(quantile(&sorted, q)));
        }
        let _ = write!(line, ", n = {}", sorted.len());
        self.lines.push(line);
    }

    /// Reports a timed operation's wall time and its time scaled to the
    /// nominal host, and returns the median scaled time.
    pub fn scaled_timing(&mut self, name: &str, speed: &Speed, samples: &[Timed]) -> f64 {
        let wall: Vec<f64> = samples.iter().map(Timed::wall).collect();
        let scaled: Vec<f64> = samples.iter().map(|t| speed.scaled(t)).collect();
        self.timing(&format!("{name} (wall)"), "s", &wall);
        self.timing(&format!("{name} (scaled)"), "s", &scaled);
        median(&scaled)
    }

    /// Reports the reference loop's speed over the run.
    pub fn speed(&mut self, speed: &Speed) {
        self.lines.push(format!(
            "reference loop: median pass {} ms over {} passes; scaled times refer to {} ms",
            fmt(speed.median_pass() * 1e3),
            speed.passes(),
            fmt(crate::calibrate::NOMINAL_S * 1e3)
        ));
    }
}

/// Median of a sample (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank quantile of an ascending sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p99.9, p99 and p90 that leaves at least ten samples
/// beyond it.
pub fn tail_quantile(samples: usize) -> Option<f64> {
    [999, 990, 900]
        .into_iter()
        .find(|per_mille| samples * (1000 - per_mille) >= 10_000)
        .map(|per_mille| per_mille as f64 / 1000.0)
}

/// Six significant digits for the human report.
pub fn fmt(value: f64) -> String {
    if value == 0.0 || !value.is_finite() {
        return format!("{value}");
    }
    let digits = (5 - value.abs().log10().floor() as i32).max(0) as usize;
    format!("{value:.digits$}")
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Cores, CPU model, rustc version and commit of this run.
pub fn host_stamp() -> String {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|line| line.strip_prefix("model name"))
        .and_then(|rest| rest.split_once(':'))
        .map_or("unknown", |(_, model)| model.trim());
    format!(
        "host: cores {cores}, cpu \"{cpu}\", rustc \"{}\", commit {}",
        env!("GEOBENCH_RUSTC_VERSION"),
        commit()
    )
}

/// The checked-out commit, read from `.git` in the working directory
/// (`unknown` when the checkout is not a git repository).
fn commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown (no .git in the working directory)".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(hash) = read(&format!(".git/{reference}")) {
        return hash.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (hash, name) = line.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| format!("unknown ({reference} unresolved)"))
}

/// The one-line JSON result: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(outcome: &Outcome) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    );
    for (i, metric) in outcome.metrics.iter().enumerate() {
        let value =
            if metric.value.is_finite() { format!("{}", metric.value) } else { "null".into() };
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            metric.name,
            metric.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&sorted, 0.5), 50.0);
        assert_eq!(quantile(&sorted, 0.9), 90.0);
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(9), None);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut outcome = Outcome::default();
        outcome.check(true, String::new);
        outcome.metric("setup_s", 0.25, "s");
        assert_eq!(
            result_json(&outcome),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
