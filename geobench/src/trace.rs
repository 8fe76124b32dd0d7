//! In-memory span recorder for the traced run.
//!
//! The traced run wraps every call into a layer's public functions in a
//! span: name, start, end and parent. Spans stay in memory and are written
//! out once, when the run ends. A span's *self time* is its duration minus
//! the part its child spans cover; the recorder runs on one thread, so
//! children never overlap and that part is simply the sum of their
//! durations.
//!
//! A disabled tracer runs the same closures without recording anything,
//! which is how the traced run measures its own overhead.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Aggregate of every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Number of spans.
    pub count: u64,
    /// Summed self times, seconds.
    pub self_s: f64,
}

/// Records nested spans on one thread.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A recorder; `enabled == false` runs closures without recording.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `work` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, work: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return work(self);
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per run");
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let start_ns = self.now_ns();
        self.spans.push(Span { name, parent, start_ns, end_ns: start_ns });
        self.open.push(id);
        let out = work(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id as usize].end_ns = end_ns;
        out
    }

    /// Runs `work` in a span with no children.
    pub fn leaf<T>(&mut self, name: &'static str, work: impl FnOnce() -> T) -> T {
        self.span(name, |_| work())
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per-name count and self time.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != ROOT {
                covered[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            let duration = span.end_ns - span.start_ns;
            let entry = totals.entry(span.name).or_default();
            entry.count += 1;
            entry.self_s += duration.saturating_sub(covered) as f64 * 1e-9;
        }
        totals
    }

    /// Writes every span as one tab-separated line
    /// `id parent name start_ns end_ns` (`parent` is `-` for a root).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns")?;
        for (id, span) in self.spans.iter().enumerate() {
            if span.parent == ROOT {
                writeln!(out, "{id}\t-\t{}\t{}\t{}", span.name, span.start_ns, span.end_ns)?;
            } else {
                writeln!(
                    out,
                    "{id}\t{}\t{}\t{}\t{}",
                    span.parent, span.name, span.start_ns, span.end_ns
                )?;
            }
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let sleep = |ms| std::thread::sleep(std::time::Duration::from_millis(ms));
        let mut tracer = Tracer::new(true);
        tracer.span("outer", |t| {
            t.leaf("inner", || sleep(20));
            sleep(2);
            t.leaf("inner", || sleep(20));
        });
        let totals = tracer.totals();
        let (outer, inner) = (totals["outer"], totals["inner"]);
        assert_eq!((outer.count, inner.count), (1, 2));
        assert!(inner.self_s >= 0.04);
        // The outer span's own 2 ms, without its children's 40 ms.
        assert!(outer.self_s >= 0.002 && outer.self_s < inner.self_s, "{outer:?}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        assert_eq!(tracer.span("x", |t| t.leaf("y", || 7)), 7);
        assert_eq!(tracer.len(), 0);
    }
}
