//! In-memory spans recorded from the benchmark's side of every call into a
//! layer, the self-time table over them, and their Chrome-trace export.
//!
//! Spans live in the benchmark, not in the program: the program under test
//! is unchanged, and a run with tracing off records nothing (the `enter`/
//! `exit` pair still reads the clock, because the round timings come from
//! the same two readings).

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`, e.g. `engines.flush`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The enclosing span (index into the tracer's span list).
    pub parent: Option<usize>,
    /// The timed-phase round the span belongs to (0 outside the rounds).
    pub round: u32,
}

/// An open span: the token `exit` closes.
pub struct Open {
    index: Option<usize>,
    start: Instant,
}

/// Records spans when enabled; always measures.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, round: u32) -> Open {
        let start = Instant::now();
        let index = self.enabled.then(|| {
            let t = (start - self.origin).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns: t,
                end_ns: t,
                parent: self.stack.last().copied(),
                round,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { index, start }
    }

    /// Close `open` (which must be the innermost open span); returns its
    /// duration in seconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(index) = open.index {
            let top = self.stack.pop();
            assert_eq!(top, Some(index), "spans must close innermost-first");
            self.spans[index].end_ns = (end - self.origin).as_nanos() as u64;
        }
        (end - open.start).as_secs_f64()
    }

    /// Time `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, round: u32, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.enter(name, round);
        let out = f();
        (out, self.exit(open))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// One row of the self-time table.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTime {
    pub name: &'static str,
    pub calls: u64,
    /// Sum of the spans' durations.
    pub total_ns: u64,
    /// Sum of the durations minus the part their child spans cover.
    pub self_ns: u64,
}

/// Per span name: calls, total time, and self time (duration minus the
/// children's durations). Children nest inside their parent and do not
/// overlap (single-threaded recording), so the self times of all spans sum
/// to the durations of the root spans.
pub fn self_times(spans: &[Span]) -> Vec<SelfTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut rows: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end_ns - s.start_ns;
        let row = rows.entry(s.name).or_insert(SelfTime {
            name: s.name,
            calls: 0,
            total_ns: 0,
            self_ns: 0,
        });
        row.calls += 1;
        row.total_ns += dur;
        row.self_ns += dur.saturating_sub(child_ns[i]);
    }
    let mut rows: Vec<SelfTime> = rows.into_values().collect();
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
    rows
}

/// Wall time the root spans cover.
pub fn root_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end_ns - s.start_ns)
        .sum()
}

/// The table as text, one row per span name, largest self time first.
pub fn render_self_times(rows: &[SelfTime], wall_ns: u64) -> String {
    let mut out = format!(
        "{:<28} {:>9} {:>12} {:>12} {:>7}\n",
        "span", "calls", "total ms", "self ms", "self %"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<28} {:>9} {:>12.3} {:>12.3} {:>6.1}%\n",
            r.name,
            r.calls,
            r.total_ns as f64 / 1e6,
            r.self_ns as f64 / 1e6,
            100.0 * r.self_ns as f64 / wall_ns.max(1) as f64
        ));
    }
    out
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// slice per span on a single track; the layer is the category and the
/// round and parent ride in `args`.
pub fn to_chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from(
        "{\"traceEvents\":[\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
         \"ts\":0,\"args\":{\"name\":\"fsf-benchmark\"}}",
    );
    for (i, s) in spans.iter().enumerate() {
        let layer = s.name.split('.').next().unwrap_or(s.name);
        let parent = s.parent.map_or(-1, |p| p as i64);
        out.push_str(&format!(
            ",\n{{\"name\":\"{}\",\"cat\":\"{layer}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"round\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.round
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            round: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // run [0,100] ⊃ round [10,60] ⊃ {inject [10,20], flush [20,55]}; round [60,90]
        let spans = [
            span("run", 0, 100, None),
            span("round", 10, 60, Some(0)),
            span("inject", 10, 20, Some(1)),
            span("flush", 20, 55, Some(1)),
            span("round", 60, 90, Some(0)),
        ];
        let rows = self_times(&spans);
        let get = |n: &str| rows.iter().find(|r| r.name == n).unwrap().clone();
        assert_eq!(get("run").self_ns, 100 - 50 - 30);
        assert_eq!(get("round").calls, 2);
        assert_eq!(get("round").total_ns, 80);
        assert_eq!(get("round").self_ns, (50 - 10 - 35) + 30);
        assert_eq!(get("flush").self_ns, 35);
        // the self times partition the root's wall time
        let total: u64 = rows.iter().map(|r| r.self_ns).sum();
        assert_eq!(total, root_ns(&spans));
        // largest self time first
        assert_eq!(rows[0].name, "flush");
    }

    #[test]
    fn tracer_nests_and_measures_even_when_disabled() {
        let mut on = Tracer::new(true);
        let outer = on.enter("outer", 0);
        let (v, secs) = on.span("inner", 3, || 7);
        on.exit(outer);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert_eq!(on.spans().len(), 2);
        assert_eq!(on.spans()[1].parent, Some(0));
        assert_eq!(on.spans()[1].round, 3);
        assert!(on.spans()[0].end_ns >= on.spans()[1].end_ns);

        let mut off = Tracer::new(false);
        let (_, secs) = off.span("x", 0, || std::hint::black_box(1 + 1));
        assert!(secs >= 0.0);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn chrome_trace_passes_the_repo_validator() {
        let spans = [span("engines.flush", 1_500, 4_000, None)];
        let json = to_chrome_trace(&spans);
        let stats = fsf::telemetry::validate_chrome_trace(&json).expect("valid trace");
        assert_eq!((stats.slices, stats.metadata, stats.tracks), (1, 1, 1));
        assert!(json.contains("\"cat\":\"engines\""));
    }
}
