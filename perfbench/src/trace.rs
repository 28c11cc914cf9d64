//! In-memory spans recorded around the benchmark's own calls into each
//! layer, written out once the run ends.

use std::borrow::Cow;
use std::io::Write;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.fusion.segment.0`.
    pub name: Cow<'static, str>,
    /// Start, nanoseconds from the tracer origin.
    pub start_ns: u64,
    /// End, nanoseconds from the tracer origin (`>= start_ns`).
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Request the span belongs to; spans of one request share it.
    pub request: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span store with one time origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose origin is now.
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::with_capacity(1 << 16) }
    }

    /// Nanoseconds from the origin to `t` (0 for instants before it).
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: u64,
    ) -> SpanId {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Opens a span starting now; [`close`](Self::close) sets its end.
    /// Children recorded in between can name it as their parent.
    pub fn open(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        parent: Option<SpanId>,
        request: u64,
    ) -> SpanId {
        let now = Instant::now();
        self.record(name, now, now, parent, request)
    }

    /// Ends span `id` now.
    pub fn close(&mut self, id: SpanId) {
        let end = self.ns(Instant::now());
        let span = &mut self.spans[id];
        span.end_ns = end.max(span.start_ns);
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of its
    /// interval covered by its children (overlapping children count once,
    /// and a child reaching outside its parent counts only inside it).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| s.dur_ns() - covered_ns(s.start_ns, s.end_ns, kids))
            .collect()
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        w.flush()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(lo: u64, hi: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (a, b) in intervals {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(t: &Tracer, ns: u64) -> Instant {
        t.origin + Duration::from_nanos(ns)
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let root = t.record("root", at(&t, 0), at(&t, 100), None, 1);
        t.record("a", at(&t, 10), at(&t, 30), Some(root), 1);
        t.record("b", at(&t, 50), at(&t, 60), Some(root), 1);
        let self_ns = t.self_times_ns();
        assert_eq!(self_ns, vec![70, 20, 10]);
    }

    #[test]
    fn overlapping_children_count_once_and_clip_to_the_parent() {
        let mut t = Tracer::new();
        let root = t.record("root", at(&t, 100), at(&t, 200), None, 0);
        t.record("a", at(&t, 110), at(&t, 150), Some(root), 0);
        t.record("b", at(&t, 140), at(&t, 170), Some(root), 0);
        t.record("late", at(&t, 190), at(&t, 250), Some(root), 0);
        t.record("early", at(&t, 50), at(&t, 105), Some(root), 0);
        // covered: [100,105] + [110,170] + [190,200] = 5 + 60 + 10
        assert_eq!(t.self_times_ns()[root], 100 - 75);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let mut t = Tracer::new();
        let root = t.record("root", at(&t, 0), at(&t, 100), None, 3);
        let mid = t.record("mid", at(&t, 0), at(&t, 40), Some(root), 3);
        t.record("leaf", at(&t, 0), at(&t, 30), Some(mid), 3);
        assert_eq!(t.self_times_ns(), vec![60, 10, 30]);
    }
}
