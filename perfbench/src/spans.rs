//! In-memory span recording for the traced run.
//!
//! A span is a named interval on the benchmark's one thread, with the span
//! that was open when it began as its parent and the op it belongs to. Spans
//! stay in memory until the run ends and are then written as JSON lines.
//! A span's self time is its duration minus the durations of its direct
//! children: children begin and end inside their parent on the same thread,
//! so they never overlap and their sum is exactly the covered part.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the recorder's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer boundary name, e.g. `engine.deliver`.
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start: u64,
    /// End, ns since the recorder's origin.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op (repetition, pass or cluster run) the span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end - self.start
    }
}

/// Records nested spans against one clock origin.
#[derive(Debug)]
pub struct SpanRecorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for SpanRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanRecorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        SpanRecorder { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), op: 0 }
    }

    /// Tags spans opened from now on with op id `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn since_origin(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span under the innermost open one; returns its id.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let start = self.since_origin(Instant::now());
        self.open_at(name, start)
    }

    fn open_at(&mut self, name: &'static str, start: u64) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start, end: start, parent, op: self.op });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        let end = self.since_origin(Instant::now());
        self.close_at(id, end);
    }

    fn close_at(&mut self, id: usize, end: u64) {
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        self.spans[id].end = end;
    }

    /// Opens a span that began at `start`, an instant taken elsewhere.
    pub fn enter_at(&mut self, name: &'static str, start: Instant) -> usize {
        let start = self.since_origin(start);
        self.open_at(name, start)
    }

    /// Closes span `id` at `end`, an instant taken elsewhere.
    pub fn exit_at(&mut self, id: usize, end: Instant) {
        let end = self.since_origin(end);
        self.close_at(id, end);
    }

    /// Records a closed span between two instants taken elsewhere (observer
    /// timestamps), under the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let id = self.enter_at(name, start);
        self.exit_at(id, end);
    }

    /// Duration of span `id` in nanoseconds.
    pub fn nanos(&self, id: usize) -> u64 {
        self.spans[id].nanos()
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines, with their self times.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let own = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent},\"self_ns\":{}}}",
                s.name, s.op, s.start, s.end, own[i]
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::nanos).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.nanos());
        }
    }
    own
}

/// Total self time per span name, over the spans with ids from `from`.
pub fn self_time_by_name(spans: &[Span], from: usize) -> BTreeMap<&'static str, u64> {
    let own = self_times(spans);
    let mut totals = BTreeMap::new();
    for (s, own) in spans[from..].iter().zip(&own[from..]) {
        *totals.entry(s.name).or_insert(0) += own;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start, end, parent, op: 0 }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // rep [0, 100) ⊃ gen [0, 20), step [20, 90) ⊃ deliver [30, 80).
        let spans = vec![
            span("rep", 0, 100, None),
            span("gen", 0, 20, Some(0)),
            span("step", 20, 90, Some(0)),
            span("deliver", 30, 80, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![10, 20, 20, 50]);
        // Self times partition the root: they sum to its duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn self_times_aggregate_by_name() {
        let spans = vec![
            span("step", 0, 10, None),
            span("deliver", 2, 8, Some(0)),
            span("step", 10, 30, None),
            span("deliver", 12, 25, Some(2)),
        ];
        let totals = self_time_by_name(&spans, 0);
        assert_eq!(totals["step"], 4 + 7);
        assert_eq!(totals["deliver"], 6 + 13);
        // Parents are absolute ids, so a later range still finds them.
        let later = self_time_by_name(&spans, 2);
        assert_eq!((later["step"], later["deliver"]), (7, 13));
    }

    #[test]
    fn recorder_nests_and_tags_ops() {
        let mut rec = SpanRecorder::new();
        rec.set_op(7);
        let outer = rec.enter("outer");
        let inner = rec.enter("inner");
        rec.exit(inner);
        let t = Instant::now();
        rec.record("stamped", t, t);
        rec.exit(outer);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[1].parent, spans[2].parent), (Some(0), Some(0)));
        assert!(spans.iter().all(|s| s.op == 7 && s.end >= s.start));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut rec = SpanRecorder::new();
        let outer = rec.enter("outer");
        let _inner = rec.enter("inner");
        rec.exit(outer);
    }
}
