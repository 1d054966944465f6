//! The benchmark's own host-time spans (name, start, end, parent), kept
//! in memory and written out as JSON lines when the traced run ends.
//! They wrap the calls the benchmark makes into the program; the program
//! itself is not instrumented further.

use std::io::Write;
use std::time::Instant;

/// One recorded span, in nanoseconds since the recorder was created.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Span name.
    pub name: String,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
}

/// An append-only span store.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty store whose clock starts now.
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span; returns its index for use as a parent.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name: name.into(),
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Time `f` as a span named `name` under `parent`.
    pub fn time<R>(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let start = Instant::now();
        let out = f();
        let id = self.record(name, parent, start, Instant::now());
        (out, id)
    }

    /// Open a span now; close it with [`Spans::close`].
    pub fn open(&mut self, name: impl Into<String>, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, parent, now, now)
    }

    /// Close a span opened with [`Spans::open`].
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                serde_json::to_string(&s.name).expect("string serializes"),
                s.start_ns,
                s.end_ns,
                self_ns(&self.spans, i),
            )?;
        }
        out.flush()
    }
}

/// Duration of `spans[id]` minus the union of its direct children's
/// intervals (clipped to the parent).
pub fn self_ns(spans: &[Span], id: usize) -> u64 {
    let s = &spans[id];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|c| c.parent == Some(id))
        .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = s.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    (s.end_ns - s.start_ns).saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: name.into(),
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 60),  // overlaps a: union is 10..60
            span("c", Some(0), 90, 120), // clipped to 90..100
            span("grandchild", Some(1), 15, 20),
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 50 - 10);
        assert_eq!(self_ns(&spans, 1), 30 - 5);
        assert_eq!(self_ns(&spans, 4), 5);
    }
}
