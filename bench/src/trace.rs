//! In-memory spans recorded from outside the program: name, start,
//! end, the span that caused it, and an operation id. Kept in memory
//! and written as JSON lines when the run ends; nothing here touches
//! the timed pass.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Index of a recorded span.
pub type SpanId = u32;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `store.wal_append`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// The span this one ran inside.
    pub parent: Option<SpanId>,
    /// Operation (or first operation of a block) the span belongs to.
    pub op: u64,
}

/// A span recorder. One per thread; merged by `absorb`.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    next_op: u64,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer::at(Instant::now())
    }

    /// A tracer sharing another's clock (for a second thread).
    pub fn at(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            next_op: 0,
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Run `f` inside a new span; the span's id is passed in so `f`
    /// can parent further spans to it.
    pub fn scope<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(&mut Tracer, SpanId) -> R,
    ) -> R {
        let id = self.spans.len() as SpanId;
        let op = self.next_op;
        self.next_op += 1;
        let start = Instant::now();
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: 0,
            parent,
            op,
        });
        let r = f(self, id);
        self.spans[id as usize].end_ns = self.ns(Instant::now());
        r
    }

    /// Record a span that ended at `done` after `took`.
    pub fn span_ending(
        &mut self,
        name: &'static str,
        done: Instant,
        took: Duration,
        parent: Option<SpanId>,
    ) {
        let end_ns = self.ns(done);
        let op = self.next_op;
        self.next_op += 1;
        self.spans.push(Span {
            name,
            start_ns: end_ns.saturating_sub(took.as_nanos() as u64),
            end_ns,
            parent,
            op,
        });
    }

    /// Take over another tracer's spans (same clock); their parent
    /// links are re-based.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Duration of span `id`.
    pub fn duration(&self, id: SpanId) -> Duration {
        let s = &self.spans[id as usize];
        Duration::from_nanos(s.end_ns - s.start_ns)
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_scopes_record_parents_and_durations() {
        let mut t = Tracer::new();
        let mut inner = 0;
        let outer = t.scope("outer", None, |t, outer| {
            std::thread::sleep(Duration::from_millis(2));
            inner = t.scope("inner", Some(outer), |_, id| {
                std::thread::sleep(Duration::from_millis(3));
                id
            });
            outer
        });
        assert_eq!(t.spans()[inner as usize].parent, Some(outer));
        assert!(t.duration(inner) >= Duration::from_millis(3));
        assert!(t.duration(outer) >= t.duration(inner) + Duration::from_millis(2));
        let done = Instant::now();
        t.span_ending("late", done, Duration::from_millis(1), Some(outer));
        let late = t.spans().last().unwrap();
        assert_eq!(late.end_ns - late.start_ns, 1_000_000);
        assert!(late.op > t.spans()[inner as usize].op);
    }

    #[test]
    fn absorbed_spans_keep_their_parents_and_written_lines_parse() {
        let epoch = Instant::now();
        let mut a = Tracer::at(epoch);
        a.scope("a", None, |_, _| ());
        let mut b = Tracer::at(epoch);
        b.scope("b.outer", None, |t, id| {
            t.scope("b.inner", Some(id), |_, _| ())
        });
        a.absorb(b);
        assert_eq!(a.spans().len(), 3);
        assert_eq!(a.spans()[2].parent, Some(1));
        let dir = ltam::store::ScratchDir::new("perf-trace");
        let path = dir.path().join("trace.jsonl");
        a.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text
            .lines()
            .nth(2)
            .unwrap()
            .contains("\"name\":\"b.inner\""));
        assert!(text.lines().nth(2).unwrap().contains("\"parent\":1"));
        assert!(text.lines().next().unwrap().contains("\"parent\":null"));
    }
}
