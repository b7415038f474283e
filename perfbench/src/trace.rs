//! In-memory spans for the traced runs, and their self times.
//!
//! A span is one timed call into a layer: name, start, end, the span that
//! caused it and the run it belongs to. Each thread records into its own
//! [`SpanLog`] (no locking on the hot path); worker logs are absorbed into
//! the run's log when the workers join. The merged log is written out at
//! the end of the benchmark as a Chrome trace — the complete-event (`"X"`)
//! format `collectives::Timeline` writes — with `pid` = run id, `tid` =
//! lane (0 = the driving thread, 1 + r = worker rank r) and the span's id
//! and parent in `args`.

use std::time::{Duration, Instant};

/// One completed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call name (`load`, `step`, `sync`, ...).
    pub name: &'static str,
    /// Run it belongs to.
    pub run: u32,
    /// Thread lane: 0 for the driving thread, 1 + rank for a worker.
    pub lane: u32,
    /// Index of the causing span in the same log.
    pub parent: Option<usize>,
    /// Start, nanoseconds after the log's origin.
    pub start_ns: u64,
    /// End, nanoseconds after the log's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// The spans one thread recorded, all timed against one shared origin.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    run: u32,
    lane: u32,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log for `lane` of run `run`.
    pub fn new(origin: Instant, run: u32, lane: u32) -> Self {
        Self {
            origin,
            run,
            lane,
            spans: Vec::new(),
        }
    }

    /// An empty log for another lane of the same run and origin.
    pub fn sibling(&self, lane: u32) -> SpanLog {
        SpanLog::new(self.origin, self.run, lane)
    }

    /// Opens a span now; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, parent, now, now)
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Records a span with known bounds.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name,
            run: self.run,
            lane: self.lane,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Records `parts` as consecutive child spans of `parent` starting at
    /// `start`: phases a layer timed itself and returned as durations.
    pub fn record_phases(
        &mut self,
        parent: usize,
        start: Instant,
        parts: &[(&'static str, Duration)],
    ) {
        let mut t = start;
        for &(name, d) in parts {
            self.record(name, Some(parent), t, t + d);
            t += d;
        }
    }

    /// Moves `other`'s spans into this log; its root spans become children
    /// of `parent`.
    pub fn absorb(&mut self, other: SpanLog, parent: usize) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = Some(s.parent.map_or(parent, |p| p + base));
            s
        }));
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds spent in spans called `name` on `lane`.
    pub fn total(&self, name: &str, lane: u32) -> f64 {
        self.durations(name, lane).iter().sum()
    }

    /// Durations in seconds of the spans called `name` on `lane`.
    pub fn durations(&self, name: &str, lane: u32) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.lane == lane)
            .map(Span::secs)
            .collect()
    }

    /// Every span's self time in seconds: its duration minus the part of
    /// its interval that its children cover (children on different lanes
    /// may overlap; their union is subtracted once).
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered) as f64 * 1e-9
            })
            .collect()
    }

    /// This log's spans as Chrome trace complete events.
    fn chrome_events(&self) -> impl Iterator<Item = String> + '_ {
        self.spans.iter().enumerate().map(|(id, s)| {
            let parent = s.parent.map_or(-1, |p| p as i64);
            format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{},\"tid\":{},\"args\":{{\"id\":{id},\"parent\":{parent}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.run,
                s.lane
            )
        })
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }
}

/// Writes logs as one Chrome trace file.
pub fn write_chrome_trace(path: &std::path::Path, logs: &[SpanLog]) -> std::io::Result<()> {
    let events: Vec<String> = logs.iter().flat_map(SpanLog::chrome_events).collect();
    std::fs::write(path, format!("{{\"traceEvents\":[{}]}}", events.join(",")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let origin = Instant::now();
        let at = |ms: u64| origin + Duration::from_millis(ms);
        let mut log = SpanLog::new(origin, 0, 0);
        let root = log.record("run", None, at(0), at(100));
        let mut worker = SpanLog::new(origin, 0, 1);
        worker.record("a", None, at(10), at(40));
        log.record("b", Some(root), at(30), at(60));
        log.absorb(worker, root);
        let selfs = log.self_times();
        // Children cover 10..60 of 0..100.
        assert!((selfs[root] - 0.050).abs() < 1e-9, "{}", selfs[root]);
        assert_eq!(log.spans()[2].parent, Some(root));
    }
}
