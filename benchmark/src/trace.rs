//! Spans recorded from the benchmark's own files, around its calls into
//! each layer's public functions. Kept in a preallocated `Vec` and
//! written out once, after everything timed has finished.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Operations the span covers.
    pub ops: u32,
}

pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    cap: usize,
}

impl SpanLog {
    pub fn with_capacity(cap: usize) -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::with_capacity(cap),
            cap,
        }
    }

    /// Records a span and returns its index (`None` once full).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        ops: u32,
    ) -> Option<u32> {
        if self.spans.len() >= self.cap {
            return None;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            ops,
        });
        Some(self.spans.len() as u32 - 1)
    }

    /// Closes a span recorded with a provisional end.
    pub fn set_end(&mut self, idx: Option<u32>, end: Instant) {
        if let Some(s) = idx.and_then(|i| self.spans.get_mut(i as usize)) {
            s.end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
        }
    }

    /// Times `f` as one span.
    pub fn time<R>(&mut self, name: &'static str, ops: u32, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.record(name, t0, Instant::now(), None, ops);
        r
    }

    /// Moves another log's spans in (its parent indices are rebased).
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len() as u32;
        let shift = other.epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.start_ns += shift;
            s.end_ns += shift;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Total duration and ops of the spans called `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, ops), s| {
                (ns + (s.end_ns - s.start_ns), ops + s.ops as u64)
            })
    }

    /// Mean span time per op of the spans called `name` (0 if none).
    pub fn ns_per_op(&self, name: &str) -> f64 {
        match self.total(name) {
            (_, 0) => 0.0,
            (ns, ops) => ns as f64 / ops as f64,
        }
    }

    /// One JSON object per line: `{name, start_ns, end_ns, parent, ops}`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"ops\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.ops
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn totals_parents_and_capacity() {
        let mut log = SpanLog::with_capacity(3);
        let t = log.epoch;
        let root = log.record("frame", t, t + Duration::from_nanos(100), None, 4);
        log.record(
            "child",
            t + Duration::from_nanos(10),
            t + Duration::from_nanos(40),
            root,
            4,
        );
        log.record(
            "child",
            t + Duration::from_nanos(50),
            t + Duration::from_nanos(70),
            root,
            4,
        );
        assert_eq!(
            log.record("late", t, t, None, 1),
            None,
            "full: dropped, not reallocated"
        );
        assert_eq!(log.total("child"), (50, 8));
        assert_eq!(log.ns_per_op("frame"), 25.0);
        assert_eq!(log.ns_per_op("absent"), 0.0);
        assert_eq!(log.spans[1].parent, Some(0));
    }
}
