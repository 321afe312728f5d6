//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer's public functions; nothing inside the product is
//! instrumented. They are kept in memory and written out (as JSON) only
//! after the run, and only when a path was asked for.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span that has no parent.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `layer.what`, e.g. `session.ah_step`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// The capture tick this span belongs to: the identifier every span of
    /// one frame shares.
    pub frame: u32,
}

impl Span {
    /// Wall nanoseconds from start to end.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread. A disabled tracer records nothing,
/// so the untraced run can share the traced run's code path.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    frame: u32,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            frame: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Whether this tracer records.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tag the spans that follow with capture tick `frame`.
    pub fn set_frame(&mut self, frame: u32) {
        self.frame = frame;
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str) -> u32 {
        if !self.enabled {
            return NO_PARENT;
        }
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            frame: self.frame,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn end(&mut self, id: u32) {
        if !self.enabled {
            return;
        }
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Time one call as a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// Everything recorded so far.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total and self time per span name, and whether every child lies
    /// inside its parent.
    pub fn summarise(&self) -> TraceSummary {
        assert!(self.open.is_empty(), "summarise with spans still open");
        summarise(&self.spans)
    }

    /// The spans as a JSON array of
    /// `{name, start_ns, end_ns, parent, frame}` objects (`parent` is an
    /// index into the array, or `null`).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 2);
        out.push('[');
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            write!(
                out,
                "\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"frame\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.frame
            )
            .expect("write to String");
        }
        out.push_str("\n]\n");
        out
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    /// `name → (calls, total ns, self ns)`. Self time is a span's duration
    /// minus the part of it its direct children cover.
    pub by_name: BTreeMap<&'static str, (u64, u64, u64)>,
    /// Spans that start before or end after their parent (must be 0).
    pub escaped_children: u64,
}

impl TraceSummary {
    /// Total nanoseconds spent in spans called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |v| v.1)
    }

    /// Self nanoseconds of spans called `name`.
    pub fn self_ns(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |v| v.2)
    }

    /// Calls recorded under `name`.
    #[cfg(test)]
    pub fn calls(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |v| v.0)
    }
}

/// Summarise spans recorded on one thread (children never overlap each
/// other, so the cover of a span's children is the sum of their lengths).
pub fn summarise(spans: &[Span]) -> TraceSummary {
    let mut child_ns = vec![0u64; spans.len()];
    let mut escaped = 0;
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent as usize];
            if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
                escaped += 1;
            }
            child_ns[s.parent as usize] += s.duration_ns();
        }
    }
    let mut by_name: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.duration_ns();
        e.2 += s.duration_ns().saturating_sub(covered);
    }
    TraceSummary {
        by_name,
        escaped_children: escaped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            frame: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = [
            span("tick", 0, 100, NO_PARENT),
            span("a", 10, 40, 0),
            span("b", 50, 90, 0),
            span("leaf", 55, 60, 2),
        ];
        let s = summarise(&spans);
        assert_eq!(s.by_name["tick"], (1, 100, 30));
        assert_eq!(s.by_name["a"], (1, 30, 30));
        assert_eq!(s.by_name["b"], (1, 40, 35));
        assert_eq!(s.self_ns("leaf"), 5);
        assert_eq!(s.escaped_children, 0);
        // A child that outlives its parent is reported, not hidden.
        let bad = [span("p", 0, 10, NO_PARENT), span("c", 5, 12, 0)];
        assert_eq!(summarise(&bad).escaped_children, 1);
    }

    #[test]
    fn recorder_nests_and_serialises() {
        let mut t = Tracer::new(true);
        t.set_frame(7);
        let outer = t.begin("outer");
        t.span("inner", || std::hint::black_box(1 + 1));
        t.end(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[1].parent), (NO_PARENT, 0));
        assert_eq!(spans[1].frame, 7);
        let s = t.summarise();
        assert_eq!(s.escaped_children, 0);
        assert_eq!(s.calls("inner"), 1);
        assert!(s.total_ns("outer") >= s.total_ns("inner"));
        let mut off = Tracer::new(false);
        off.span("ignored", || ());
        assert!(off.spans().is_empty());
        let doc = adshare::obs::json::parse(&t.to_json()).expect("span JSON parses");
        let arr = doc.as_array().expect("array");
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[1].get("parent").and_then(|p| p.as_u64()), Some(0));
        assert_eq!(arr[1].get("name").and_then(|n| n.as_str()), Some("inner"));
    }
}
