//! Request metrics: per-route/status counters and a latency histogram,
//! rendered in the Prometheus text exposition format on `GET /metrics`.
//!
//! The histogram uses fixed buckets (decade thirds from 100 µs to 1 s) so
//! the rendering is allocation-free on the hot path: recording a request is
//! a handful of atomic increments plus one short mutex hold for the
//! route/status counter map.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Upper bounds (seconds) of the latency histogram buckets; an implicit
/// `+Inf` bucket follows.
const BUCKET_BOUNDS_S: [f64; 9] = [0.0001, 0.000316, 0.001, 0.00316, 0.01, 0.0316, 0.1, 0.316, 1.0];

/// Counters and latency histogram for the serving request path.
///
/// Shared between the metrics middleware layer (which records) and the
/// `/metrics` route (which renders); both sides hold it behind an
/// [`std::sync::Arc`].
#[derive(Debug, Default)]
pub struct RequestMetrics {
    /// `(route label, status) → count`. BTreeMap so `/metrics` renders in a
    /// stable order.
    counters: Mutex<BTreeMap<(String, u16), u64>>,
    /// One cumulative-style counter per bucket bound, plus the +Inf bucket
    /// at the last index (stored non-cumulative, summed at render time).
    buckets: [AtomicU64; BUCKET_BOUNDS_S.len() + 1],
    latency_sum_micros: AtomicU64,
    latency_count: AtomicU64,
}

impl RequestMetrics {
    /// Creates an empty metrics store.
    pub fn new() -> RequestMetrics {
        RequestMetrics::default()
    }

    /// Records one finished request.
    pub fn record(&self, route: &str, status: u16, elapsed: Duration) {
        {
            let mut counters = self.counters.lock();
            *counters.entry((route.to_string(), status)).or_insert(0) += 1;
        }
        let seconds = elapsed.as_secs_f64();
        let bucket = BUCKET_BOUNDS_S
            .iter()
            .position(|&bound| seconds <= bound)
            .unwrap_or(BUCKET_BOUNDS_S.len());
        if let Some(counter) = self.buckets.get(bucket) {
            counter.fetch_add(1, Ordering::Relaxed);
        }
        self.latency_sum_micros.fetch_add(elapsed.as_micros() as u64, Ordering::Relaxed);
        self.latency_count.fetch_add(1, Ordering::Relaxed);
    }

    /// Renders the Prometheus text exposition.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ =
            writeln!(out, "# HELP geopriv_requests_total Requests served, by route and status.");
        let _ = writeln!(out, "# TYPE geopriv_requests_total counter");
        for ((route, status), count) in self.counters.lock().iter() {
            let _ = writeln!(
                out,
                "geopriv_requests_total{{route=\"{route}\",status=\"{status}\"}} {count}"
            );
        }
        let _ = writeln!(out, "# HELP geopriv_request_seconds Request latency histogram.");
        let _ = writeln!(out, "# TYPE geopriv_request_seconds histogram");
        let mut cumulative = 0u64;
        // `buckets` has exactly one more slot than `BUCKET_BOUNDS_S`; zip
        // pairs the bounded buckets and leaves the +Inf slot for `last()`.
        for (counter, &bound) in self.buckets.iter().zip(BUCKET_BOUNDS_S.iter()) {
            cumulative += counter.load(Ordering::Relaxed);
            let _ = writeln!(out, "geopriv_request_seconds_bucket{{le=\"{bound}\"}} {cumulative}");
        }
        if let Some(inf) = self.buckets.last() {
            cumulative += inf.load(Ordering::Relaxed);
        }
        let _ = writeln!(out, "geopriv_request_seconds_bucket{{le=\"+Inf\"}} {cumulative}");
        let sum = self.latency_sum_micros.load(Ordering::Relaxed) as f64 / 1e6;
        let _ = writeln!(out, "geopriv_request_seconds_sum {sum}");
        let _ = writeln!(
            out,
            "geopriv_request_seconds_count {}",
            self.latency_count.load(Ordering::Relaxed)
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_renders_counters_and_histogram() -> Result<(), Box<dyn std::error::Error>> {
        let metrics = RequestMetrics::new();
        metrics.record("/protect", 200, Duration::from_micros(50));
        metrics.record("/protect", 200, Duration::from_micros(500));
        metrics.record("/protect", 400, Duration::from_millis(2));
        metrics.record("/metrics", 200, Duration::from_secs(2));
        let text = metrics.render();
        assert!(!text.contains("/nope"));
        assert!(text.contains("geopriv_requests_total{route=\"/protect\",status=\"200\"} 2"));
        assert!(text.contains("geopriv_requests_total{route=\"/protect\",status=\"400\"} 1"));
        assert!(text.contains("geopriv_requests_total{route=\"/metrics\",status=\"200\"} 1"));
        // 50 µs lands in the first bucket; cumulative counts are monotone and
        // the +Inf bucket equals the total.
        assert!(text.contains("geopriv_request_seconds_bucket{le=\"0.0001\"} 1"));
        assert!(text.contains("geopriv_request_seconds_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("geopriv_request_seconds_count 4"));
        // Cumulative bucket counts never decrease.
        let counts: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("geopriv_request_seconds_bucket"))
            .filter_map(|l| l.rsplit(' ').next())
            .map(str::parse)
            .collect::<Result<_, _>>()?;
        assert_eq!(counts.len(), BUCKET_BOUNDS_S.len() + 1);
        assert!(counts.iter().zip(counts.iter().skip(1)).all(|(a, b)| a <= b));
        Ok(())
    }

    #[test]
    fn render_is_byte_deterministic() {
        let metrics = RequestMetrics::new();
        // Routes inserted in non-sorted order; render must not depend on
        // insertion order or any hash seed.
        metrics.record("/protect", 200, Duration::from_micros(80));
        metrics.record("/assignment", 200, Duration::from_micros(120));
        metrics.record("/metrics", 503, Duration::from_millis(7));
        metrics.record("/protect", 400, Duration::from_micros(80));
        let first = metrics.render();
        let second = metrics.render();
        assert_eq!(first.as_bytes(), second.as_bytes());
        // And the counter section is sorted by (route, status).
        let counter_lines: Vec<&str> =
            first.lines().filter(|l| l.starts_with("geopriv_requests_total{")).collect();
        let mut sorted = counter_lines.clone();
        sorted.sort_unstable();
        assert_eq!(counter_lines, sorted);
    }

    #[test]
    fn latencies_land_in_the_first_bucket_that_bounds_them() {
        let metrics = RequestMetrics::new();
        // On the first bound, on the third, on the last, and past it.
        for elapsed in [
            Duration::from_micros(100),
            Duration::from_millis(1),
            Duration::from_secs(1),
            Duration::from_millis(1_500),
        ] {
            metrics.record("/protect", 200, elapsed);
        }
        let text = metrics.render();
        let bucket = |le: &str| {
            let prefix = format!("geopriv_request_seconds_bucket{{le=\"{le}\"}} ");
            text.lines().find_map(|l| l.strip_prefix(&prefix)).map(str::to_string)
        };
        assert_eq!(bucket("0.0001").as_deref(), Some("1"));
        assert_eq!(bucket("0.000316").as_deref(), Some("1"));
        assert_eq!(bucket("0.001").as_deref(), Some("2"));
        assert_eq!(bucket("0.316").as_deref(), Some("2"));
        assert_eq!(bucket("1").as_deref(), Some("3"));
        assert_eq!(bucket("+Inf").as_deref(), Some("4"));
        assert!(text.contains("geopriv_request_seconds_sum 2.5011\n"));
    }
}
