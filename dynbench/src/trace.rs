//! Spans recorded by the benchmark's own code around each call into the
//! library. Kept in memory (pre-sized, so recording never allocates)
//! and written out as JSON lines when the run ends.

use std::io::Write;
use std::time::Instant;

/// Index of a span in the tracer; [`NO_PARENT`] for a root span.
pub type SpanId = u32;

/// The parent of a root span.
pub const NO_PARENT: SpanId = u32::MAX;

/// One recorded call: `[start, end)` in nanoseconds since the tracer
/// started, the span that caused it, and the stream ops `[lo, hi)` it
/// covered (empty for calls that apply no ops).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Name of the call, `layer.call`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start: u64,
    /// End, ns since the tracer's epoch (0 while open).
    pub end: u64,
    /// The enclosing span.
    pub parent: SpanId,
    /// First op covered.
    pub lo: u32,
    /// One past the last op covered.
    pub hi: u32,
}

/// An in-memory span log for one workload.
#[derive(Debug)]
pub struct Tracer {
    workload: &'static str,
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    /// A tracer with room for `cap` spans.
    pub fn new(workload: &'static str, cap: usize) -> Self {
        Tracer {
            workload,
            epoch: Instant::now(),
            spans: Vec::with_capacity(cap),
            dropped: 0,
        }
    }

    fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished call; spans past the pre-sized capacity are
    /// counted as dropped instead of growing the log.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        t0: Instant,
        t1: Instant,
        ops: (usize, usize),
    ) -> SpanId {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return NO_PARENT;
        }
        let span = Span {
            name,
            start: self.at(t0),
            end: self.at(t1),
            parent,
            lo: ops.0 as u32,
            hi: ops.1 as u32,
        };
        self.spans.push(span);
        (self.spans.len() - 1) as SpanId
    }

    /// Opens a span whose end is set by [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId, ops: (usize, usize)) -> SpanId {
        let now = Instant::now();
        self.record(name, parent, now, now, ops)
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: SpanId) {
        let end = self.at(Instant::now());
        if let Some(s) = self.spans.get_mut(id as usize) {
            s.end = end;
        }
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans that did not fit.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"workload\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"ops\":[{},{}]}}",
                self.workload, s.name, s.start, s.end, s.lo, s.hi
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_keep_their_parent_and_op_range() {
        let mut tr = Tracer::new("w", 8);
        let t0 = tr.epoch;
        let at = |ns: u64| t0 + std::time::Duration::from_nanos(ns);
        let root = tr.record("round", NO_PARENT, at(0), at(100), (0, 10));
        tr.record("engine.apply", root, at(10), at(30), (0, 1));
        tr.record("engine.apply", root, at(40), at(70), (1, 2));
        let s = tr.spans()[2];
        assert_eq!((s.start, s.end, s.parent, s.lo, s.hi), (40, 70, root, 1, 2));
        let mut buf = Vec::new();
        tr.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("\"parent\":null") && text.contains("\"parent\":0"));
    }

    #[test]
    fn a_full_tracer_drops_instead_of_growing() {
        let mut tr = Tracer::new("w", 1);
        let a = tr.open("a", NO_PARENT, (0, 0));
        tr.close(a);
        assert_eq!(tr.open("b", NO_PARENT, (0, 0)), NO_PARENT);
        assert_eq!((tr.spans().len(), tr.dropped()), (1, 1));
    }
}
