//! In-memory spans recorded by the benchmark around its calls into the
//! program, with self time (a span's duration minus the part its
//! children cover). Spans are written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Index of a recorded span.
pub type SpanId = usize;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What was called, as `layer.call`.
    pub name: &'static str,
    /// Offset of the start from the tracer's origin.
    pub start: Duration,
    /// Offset of the end from the tracer's origin.
    pub end: Duration,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The join/leave event (or session) the span belongs to.
    pub event: u64,
}

impl Span {
    /// Wall time between start and end.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// A span recorder. Recording is two `Instant::now` calls and a push; a
/// recorder made with [`off`](Self::off) records nothing, so untraced
/// runs share the traced code path at the cost of one branch per span.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            on: true,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// A recorder that ignores every call.
    pub fn off() -> Self {
        Self {
            on: false,
            ..Self::new()
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Opens a span starting now; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str, event: u64, parent: Option<SpanId>) -> SpanId {
        if !self.on {
            return 0;
        }
        let at = self.origin.elapsed();
        self.record(name, event, parent, at, at)
    }

    /// Closes span `id` now.
    pub fn end(&mut self, id: SpanId) {
        if self.on {
            self.spans[id].end = self.origin.elapsed();
        }
    }

    /// Records a span timed elsewhere (e.g. on another thread).
    pub fn record_between(
        &mut self,
        name: &'static str,
        event: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let at = |t: Instant| t.saturating_duration_since(self.origin);
        let (start, end) = (at(start), at(end));
        self.record(name, event, parent, start, end)
    }

    /// Records a span with explicit offsets from the origin.
    pub fn record(
        &mut self,
        name: &'static str,
        event: u64,
        parent: Option<SpanId>,
        start: Duration,
        end: Duration,
    ) -> SpanId {
        if !self.on {
            return 0;
        }
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            event,
        });
        self.spans.len() - 1
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed like [`spans`](Self::spans).
    pub fn self_times(&self) -> Vec<Duration> {
        self_times(&self.spans)
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration().as_secs_f64() * 1e6)
            .collect()
    }

    /// Mean self time in microseconds of the spans called `name`; 0 when
    /// there are none.
    pub fn mean_self_us(&self, name: &str) -> f64 {
        let selfs = self.self_times();
        let times: Vec<f64> = self
            .spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t.as_secs_f64() * 1e6)
            .collect();
        crate::stats::mean(&times).unwrap_or(0.0)
    }

    /// Per-name totals: `(count, total duration, total self time)`.
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, Duration, Duration)> {
        let mut out: BTreeMap<&'static str, (usize, Duration, Duration)> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            let entry = out.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += span.duration();
            entry.2 += own;
        }
        out
    }

    /// Writes every span as a tab-separated line:
    /// `id parent event name start_ns end_ns self_ns` (`-` for no parent).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tevent\tname\tstart_ns\tend_ns\tself_ns")?;
        for (id, (span, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = span.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                span.event,
                span.name,
                span.start.as_nanos(),
                span.end.as_nanos(),
                own.as_nanos()
            )?;
        }
        out.flush()
    }
}

/// Self time of each span: its duration minus the union of its direct
/// children's intervals, each clipped to the parent's interval, so
/// overlapping children (work on other threads) are not subtracted
/// twice.
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort();
            let mut covered = Duration::ZERO;
            let mut reach = span.start;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(span.end);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> Duration {
        Duration::from_micros(n)
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let mut t = Tracer::new();
        let event = t.record("testbed.event", 0, None, us(0), us(100));
        let decide = t.record("testbed.decide", 0, Some(event), us(10), us(70));
        t.record("core.phase1", 0, Some(decide), us(12), us(20));
        t.record("core.phase2", 0, Some(decide), us(20), us(60));
        t.record("testbed.ack", 0, Some(event), us(80), us(90));
        assert_eq!(
            t.self_times(),
            vec![us(30), us(12), us(8), us(40), us(10)],
            "event 100-60-10, decide 60-8-40, leaves keep their duration"
        );
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            Span {
                name: "session",
                start: us(0),
                end: us(100),
                parent: None,
                event: 0,
            },
            // Two agents running concurrently, the second past the end.
            Span {
                name: "agent",
                start: us(10),
                end: us(60),
                parent: Some(0),
                event: 0,
            },
            Span {
                name: "agent",
                start: us(40),
                end: us(130),
                parent: Some(0),
                event: 0,
            },
        ];
        assert_eq!(self_times(&spans), vec![us(10), us(50), us(90)]);
    }

    #[test]
    fn summary_and_means_group_by_name() {
        let mut t = Tracer::new();
        let root = t.record("resolve", 1, None, us(0), us(50));
        t.record("core.phase2", 1, Some(root), us(0), us(30));
        let root = t.record("resolve", 2, None, us(100), us(200));
        t.record("core.phase2", 2, Some(root), us(100), us(190));
        assert_eq!(t.mean_self_us("core.phase2"), 60.0);
        assert_eq!(t.mean_self_us("resolve"), 15.0);
        assert_eq!(t.mean_self_us("absent"), 0.0);
        assert_eq!(t.durations_us("resolve"), vec![50.0, 100.0]);
        let s = t.summary();
        assert_eq!(s["resolve"], (2, us(150), us(30)));
        assert_eq!(s["core.phase2"], (2, us(120), us(120)));
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::off();
        let id = t.begin("outer", 0, None);
        t.end(id);
        t.record("x", 0, None, us(0), us(5));
        assert!(t.spans().is_empty());
        assert!(t.summary().is_empty());
    }

    #[test]
    fn live_spans_nest_in_time() {
        let mut t = Tracer::new();
        let outer = t.begin("outer", 7, None);
        let inner = t.begin("inner", 7, Some(outer));
        std::thread::sleep(Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        let s = t.spans();
        assert!(s[outer].start <= s[inner].start && s[inner].end <= s[outer].end);
        assert!(s[inner].duration() >= Duration::from_millis(2));
        assert!(t.self_times()[outer] < s[outer].duration());
    }
}
