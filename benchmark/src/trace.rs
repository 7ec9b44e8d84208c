//! Bench-side spans: recorded around the calls into each layer, kept
//! in memory, written out as chrome-trace JSON when the run ends. The
//! program's own profiler is not involved — these are the timings a
//! caller sees from outside.

use crate::json::{self, Value};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// Request the span belongs to.
    pub request: u64,
}

/// Span recorder. When off, `span` is a plain call and nothing is
/// stored, so the untraced loop runs the same code minus the clock
/// reads.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Option<usize>,
    request: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: None,
            request: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Spans recorded from here on belong to request `id`.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    /// Run `f` inside a span named `name`, nested under the span that
    /// is open on this thread.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.replace(idx);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request: self.request,
        });
        let out = f(self);
        self.spans[idx].end_ns = self.now_ns();
        self.open = parent;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in ms of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Span names in order of first appearance.
    pub fn names(&self) -> Vec<&'static str> {
        let mut names = Vec::new();
        for s in &self.spans {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
        names
    }

    /// The chrome-trace (`chrome://tracing`, Perfetto) form: one
    /// complete event per span, with the parent index and the request
    /// id as arguments.
    pub fn chrome_trace(&self, process: &str) -> Value {
        let num = |v: u64| Value::Number(v as f64);
        let mut events = vec![json::obj([
            ("name", json::str("process_name")),
            ("ph", json::str("M")),
            ("pid", num(1)),
            ("args", json::obj([("name", json::str(process))])),
        ])];
        events.extend(self.spans.iter().enumerate().map(|(i, s)| {
            json::obj([
                ("name", json::str(s.name)),
                ("ph", json::str("X")),
                ("pid", num(1)),
                ("tid", num(1)),
                ("ts", Value::Number(s.start_ns as f64 / 1e3)),
                ("dur", Value::Number((s.end_ns - s.start_ns) as f64 / 1e3)),
                (
                    "args",
                    json::obj([
                        ("id", num(i as u64)),
                        ("parent", s.parent.map_or(Value::Null, |p| num(p as u64))),
                        ("request", num(s.request)),
                    ]),
                ),
            ])
        }));
        json::obj([("traceEvents", Value::Array(events))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_carry_the_request_id() {
        let mut tr = Tracer::new(true);
        tr.set_request(7);
        let out = tr.span("request", |tr| {
            tr.span("factor", |_| ());
            tr.span("solve", |_| 42)
        });
        assert_eq!(out, 42);
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        assert_eq!(tr.names(), ["request", "factor", "solve"]);
        assert_eq!(tr.durations_ms("factor").len(), 1);
        let text = json::encode(&tr.chrome_trace("t"));
        assert!(json::parse(&text).is_ok());
        assert!(text.contains("\"parent\": 0") && text.contains("\"request\": 7"));
    }

    #[test]
    fn an_untraced_run_stores_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("request", |tr| tr.span("factor", |_| 1)), 1);
        assert!(tr.spans().is_empty());
    }
}
