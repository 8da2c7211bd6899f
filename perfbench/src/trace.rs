//! In-memory span recorder for the traced run.
//!
//! The benchmark records spans in its own code around the public calls it
//! makes into each layer: name, start, end, parent span and op id. Spans
//! stay in memory while the workload runs and are written out as JSON
//! lines when it ends. A span's self time is its duration minus the time
//! its child spans cover.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `verifier` or `store.get`.
    pub name: &'static str,
    /// The op (job or request) the span belongs to.
    pub op: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans for one thread. Tracers from several threads are
/// combined with [`Tracer::absorb`].
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed durations, nanoseconds.
    pub total_ns: u64,
    /// Summed self times (duration minus child spans), nanoseconds.
    pub self_ns: u64,
}

impl Tracer {
    /// A tracer timing from `epoch` (share one epoch across threads).
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Attributes the spans that follow to op `op`.
    pub fn set_op(&mut self, op: u64) {
        debug_assert!(self.open.is_empty(), "op changed inside a span");
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one; close it with
    /// [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let value = f();
        self.exit(id);
        value
    }

    /// Per-name totals: count, summed duration and summed self time.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.ns();
            }
        }
        let mut totals: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let t = totals.entry(span.name).or_default();
            t.count += 1;
            t.total_ns += span.ns();
            t.self_ns += span.ns().saturating_sub(children);
        }
        totals
    }

    /// Summed duration of spans named `name`, milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e6)
            .sum()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer_with(spans: &[(&'static str, Option<usize>, u64, u64)]) -> Tracer {
        let mut t = Tracer::new(Instant::now());
        t.spans = spans
            .iter()
            .map(|&(name, parent, start_ns, end_ns)| Span {
                name,
                op: 0,
                parent,
                start_ns,
                end_ns,
            })
            .collect();
        t
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = tracer_with(&[
            ("op", None, 0, 100),
            ("a", Some(0), 10, 40),
            ("b", Some(0), 40, 90),
            ("b.inner", Some(2), 50, 60),
        ]);
        let totals = t.totals();
        assert_eq!(totals["op"].self_ns, 20);
        assert_eq!(totals["a"].self_ns, 30);
        assert_eq!(totals["b"].total_ns, 50);
        assert_eq!(totals["b"].self_ns, 40);
        assert_eq!(totals["b.inner"].self_ns, 10);
        assert_eq!(t.total_ms("b"), 50.0 / 1e6);
    }

    #[test]
    fn nesting_follows_enter_and_exit() {
        let mut t = Tracer::new(Instant::now());
        t.set_op(7);
        let op = t.enter("op");
        t.span("child", || ());
        t.exit(op);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].op, 7);
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
    }

    #[test]
    #[should_panic(expected = "innermost")]
    fn closing_out_of_order_panics() {
        let mut t = Tracer::new(Instant::now());
        let outer = t.enter("outer");
        let _inner = t.enter("inner");
        t.exit(outer);
    }
}
