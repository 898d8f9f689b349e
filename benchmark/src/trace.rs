//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the harness's own files, around its calls into
//! each layer's public functions; nothing inside the program is
//! instrumented. A span has a name (`<layer>.<call>`), a start and end in
//! ns since the tracer's epoch, the span that caused it, and a request id
//! (the ghost of the message the call handled, 0 when there is none).
//! They stay in memory and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a span in its tracer.
pub type SpanId = u32;

/// Parent of a root span, and the id a disabled tracer hands out.
pub const NO_SPAN: SpanId = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// The span this one ran inside ([`NO_SPAN`] for a root).
    pub parent: SpanId,
    /// Start, ns since the tracer epoch.
    pub start_ns: u64,
    /// End, ns since the tracer epoch.
    pub end_ns: u64,
    /// Request id shared by the spans of one message.
    pub req: u64,
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times (duration minus child durations).
    pub self_ns: u64,
}

/// The recorder. Disabled, every call is a no-op that reads no clock, so
/// an untraced rep runs the same harness code without the tracing cost.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Tracer {
    /// A recording tracer.
    pub fn enabled() -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled: true,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::enabled()
        }
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span inside the innermost open one.
    pub fn begin(&mut self, name: &'static str, req: u64) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        let id = self.spans.len() as SpanId;
        let parent = self.open.last().copied().unwrap_or(NO_SPAN);
        self.open.push(id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
            req,
        });
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a span that has no child spans.
    pub fn leaf<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, req);
        let r = f();
        self.end(id);
        r
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of a closed span in ns (0 for [`NO_SPAN`]).
    pub fn duration_ns(&self, id: SpanId) -> u64 {
        self.spans
            .get(id as usize)
            .map_or(0, |s| s.end_ns - s.start_ns)
    }

    /// Self time of every span: its duration minus the durations of its
    /// direct children (children run strictly inside their parent, one at
    /// a time, so that is the part of the interval they cover).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if s.parent != NO_SPAN {
                let p = s.parent as usize;
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Per-name totals over `root` and everything below it (spans are
    /// stored in start order, so a span's subtree is a contiguous run).
    pub fn totals_under(&self, root: SpanId) -> BTreeMap<&'static str, NameTotals> {
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        if root == NO_SPAN {
            return out;
        }
        let own = self.self_times_ns();
        let r = root as usize;
        for (i, s) in self.spans.iter().enumerate().skip(r) {
            // Every span since `root` so far is inside the subtree, so a
            // parent at or after `root` keeps this one inside too; the
            // first span parented before it began after the subtree closed.
            if i != r && (s.parent == NO_SPAN || (s.parent as usize) < r) {
                break;
            }
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.end_ns - s.start_ns;
            t.self_ns += own[i];
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_SPAN {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        w.flush()
    }
}

/// The layer a span name belongs to: the part before the first `.`.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer with hand-set clocks: `(name, parent, start, end)`.
    fn fixed(spans: &[(&'static str, SpanId, u64, u64)]) -> Tracer {
        let mut t = Tracer::enabled();
        t.spans = spans
            .iter()
            .map(|&(name, parent, start_ns, end_ns)| Span {
                name,
                parent,
                start_ns,
                end_ns,
                req: 0,
            })
            .collect();
        t
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root [0,100) ⊃ a [10,40) ⊃ a1 [15,25); root ⊃ b [50,90), sibling of a.
        let t = fixed(&[
            ("x.root", NO_SPAN, 0, 100),
            ("x.a", 0, 10, 40),
            ("y.a1", 1, 15, 25),
            ("x.b", 0, 50, 90),
        ]);
        assert_eq!(t.self_times_ns(), vec![30, 20, 10, 40]);
        // Self times of a subtree add up to its root's duration.
        let totals = t.totals_under(0);
        assert_eq!(totals.values().map(|v| v.self_ns).sum::<u64>(), 100);
        assert_eq!(totals["x.a"].total_ns, 30);
        assert_eq!(totals["x.a"].self_ns, 20);
        assert_eq!(totals["y.a1"].count, 1);
        // A subtree excludes its siblings and whatever follows it.
        let sub = t.totals_under(1);
        assert_eq!(sub.keys().copied().collect::<Vec<_>>(), vec!["x.a", "y.a1"]);
        assert_eq!(sub.values().map(|v| v.self_ns).sum::<u64>(), 30);
    }

    #[test]
    fn subtree_stops_at_the_next_root() {
        let t = fixed(&[
            ("r.one", NO_SPAN, 0, 10),
            ("r.kid", 0, 1, 5),
            ("r.two", NO_SPAN, 20, 30),
            ("r.kid", 2, 21, 22),
        ]);
        let first = t.totals_under(0);
        assert_eq!(first["r.kid"].count, 1);
        assert!(!first.contains_key("r.two"));
    }

    #[test]
    fn live_spans_nest_and_a_disabled_tracer_records_nothing() {
        let mut t = Tracer::enabled();
        let outer = t.begin("l.outer", 7);
        let v = t.leaf("l.inner", 7, || 41 + 1);
        t.end(outer);
        assert_eq!(v, 42);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, outer);
        assert!(t.duration_ns(outer) >= t.duration_ns(1));
        assert_eq!(layer_of("port.on_message"), "port");

        let mut off = Tracer::disabled();
        let id = off.begin("l.outer", 0);
        off.leaf("l.inner", 0, || ());
        off.end(id);
        assert_eq!(id, NO_SPAN);
        assert!(off.spans().is_empty());
        assert!(off.totals_under(id).is_empty());
    }
}
