//! In-memory spans recorded around calls into each layer's public
//! functions, written out as JSON lines when the benchmark ends.

use std::io::Write;
use std::time::Instant;

/// One timed call: a layer boundary crossed by one request.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span id, unique within the run.
    pub id: usize,
    /// The span that caused this one; `None` for a request's root.
    pub parent: Option<usize>,
    /// Request id shared by every span of one request.
    pub req: u64,
    /// Layer boundary, e.g. `segment.search`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer started.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer started.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    requests: u64,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            requests: 0,
        }
    }

    /// A fresh request id.
    pub fn next_request(&mut self) -> u64 {
        self.requests += 1;
        self.requests
    }

    /// Request ids handed out so far.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a span that ran from `start` to `end`; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let id = self.spans.len();
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Run `f` inside a span; returns its result and the span id.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        (out, self.record(name, req, parent, start, end))
    }

    /// Widen a recorded span's end to now (a parent opened before its
    /// children and closed after them).
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The direct children of span `id`.
    pub fn children(&self, id: usize) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.parent == Some(id))
    }

    /// Durations in microseconds of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{},"parent":{},"req":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
                s.id, parent, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// What recording one span costs, in nanoseconds: the median over five
/// batches of 10k empty spans recorded into a scratch tracer.
pub fn span_cost_ns() -> f64 {
    const SPANS: usize = 10_000;
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let mut tr = Tracer::new();
            let start = Instant::now();
            for i in 0..SPANS {
                std::hint::black_box(tr.span("cost", i as u64, None, || ()));
            }
            start.elapsed().as_nanos() as f64 / SPANS as f64
        })
        .collect();
    crate::stats::median(&samples)
}

/// Nanoseconds of the window `[start, end)` covered by the union of
/// `children` (clipped to the window; overlapping children count once).
pub fn covered_ns(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// A span's self time: its duration minus the part of it that its
/// children cover.
pub fn self_ns(span: &Span, children: &[&Span]) -> u64 {
    let iv: Vec<(u64, u64)> = children.iter().map(|c| (c.start_ns, c.end_ns)).collect();
    span.dur_ns() - covered_ns(span.start_ns, span.end_ns, &iv)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 0,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let root = sp(0, None, 0, 100);
        // Two parallel children overlapping on [20, 40), a third disjoint
        // one, and one sticking out past the parent's end.
        let a = sp(1, Some(0), 10, 40);
        let b = sp(2, Some(0), 20, 50);
        let c = sp(3, Some(0), 60, 70);
        let d = sp(4, Some(0), 90, 130);
        assert_eq!(self_ns(&root, &[&a, &b, &c, &d]), 100 - (40 + 10 + 10));
        assert_eq!(self_ns(&root, &[]), 100);
        // A child nested inside another adds nothing.
        let inner = sp(5, Some(0), 12, 30);
        assert_eq!(self_ns(&root, &[&a, &inner]), 70);
    }

    #[test]
    fn covered_handles_touching_and_empty_intervals() {
        assert_eq!(covered_ns(0, 10, &[(0, 5), (5, 10)]), 10);
        assert_eq!(covered_ns(0, 10, &[(3, 3), (20, 30)]), 0);
        assert_eq!(covered_ns(5, 10, &[(0, 7)]), 2);
    }

    #[test]
    fn tracer_links_parents_and_writes_lines() {
        let mut t = Tracer::new();
        let (_, root) = t.span("root", 7, None, || ());
        let (v, child) = t.span("child", 7, Some(root), || 42);
        t.close(root);
        assert_eq!(v, 42);
        assert_eq!(
            t.children(root).map(|s| s.id).collect::<Vec<_>>(),
            vec![child]
        );
        assert!(t.spans()[root].end_ns >= t.spans()[child].end_ns);
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains(r#""parent":null,"req":7,"name":"root""#));
    }
}
