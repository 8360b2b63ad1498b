//! In-memory span log of the traced run.
//!
//! The benchmark opens a span around each call it makes into a crate's
//! public functions. A span's name starts with the layer it is charged
//! to (`core.route_codar` is a `core` span); spans of the benchmark's
//! own loop start with `bench.` and are charged to no layer. Spans stay
//! in memory while the run measures and are written out at the end.

use std::fmt::Write as _;
use std::time::Instant;

/// The layers, named after the crates whose public functions the
/// benchmark times.
pub const LAYERS: [&str; 5] = ["qasm", "circuit", "core", "engine", "service"];

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<what>`.
    pub name: &'static str,
    /// Nanoseconds since the log's origin.
    pub start_ns: u64,
    /// Nanoseconds since the log's origin (`>= start_ns`).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The operation (job or request) the span belongs to.
    pub op: u64,
}

impl Span {
    /// The layer the span is charged to, if any.
    pub fn layer(&self) -> Option<usize> {
        let prefix = self.name.split('.').next().unwrap_or("");
        LAYERS.iter().position(|&l| l == prefix)
    }

    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span log.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records an interval measured by the caller; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end).max(self.ns(start)),
            parent,
            op,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span that [`SpanLog::close`] ends.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let now = Instant::now();
        self.record(name, parent, op, now, now)
    }

    /// Ends a span opened with [`SpanLog::open`].
    pub fn close(&mut self, id: usize) {
        let end = self.ns(Instant::now());
        self.spans[id].end_ns = end;
    }

    /// Times `f` as a span; returns its result.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, op, start, Instant::now());
        out
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration (ns) and count of the spans named `name`.
    pub fn total(&self, name: &str) -> (u64, usize) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(t, n), s| (t + s.dur_ns(), n + 1))
    }

    /// Mean duration of the spans named `name`, in microseconds (0 when
    /// there are none).
    pub fn mean_us(&self, name: &str) -> f64 {
        let (total, n) = self.total(name);
        crate::stats::per(total as f64 / 1e3, n)
    }

    /// Sum of self times per layer (ns), indexed like [`LAYERS`].
    pub fn layer_self_ns(&self) -> [u64; LAYERS.len()] {
        let mut out = [0u64; LAYERS.len()];
        for (span, self_ns) in self.spans.iter().zip(self_times(&self.spans)) {
            if let Some(layer) = span.layer() {
                out[layer] += self_ns;
            }
        }
        out
    }

    /// The log as NDJSON, one span per line.
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once; the parts
/// of children outside the parent's interval count not at all).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, span) in spans.iter().enumerate() {
        if let Some(parent) = span.parent {
            children[parent].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(span, kids)| {
            let mut covered: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| {
                    (
                        spans[k].start_ns.max(span.start_ns),
                        spans[k].end_ns.min(span.end_ns),
                    )
                })
                .filter(|(s, e)| s < e)
                .collect();
            covered.sort_unstable();
            let mut union = 0;
            let mut reach = span.start_ns;
            for (s, e) in covered {
                let from = s.max(reach);
                if e > from {
                    union += e - from;
                    reach = e;
                }
            }
            span.dur_ns() - union
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children_clipped_to_the_parent() {
        let spans = vec![
            span("bench.pass", 0, 100, None),
            span("engine.job", 10, 60, Some(0)),
            span("core.route_codar", 12, 30, Some(1)),
            // Overlaps the route span: the overlap is covered once.
            span("core.verify_equiv", 25, 40, Some(1)),
            // Sticks out of its parent: only [50, 60) is covered.
            span("core.verify_coupling", 50, 70, Some(1)),
            span("engine.summary", 80, 90, Some(0)),
        ];
        let selfs = self_times(&spans);
        // pass: 100 - (job 50 + summary 10) = 40
        assert_eq!(selfs[0], 40);
        // job: 50 - ([12,40) 28 + [50,60) 10) = 12
        assert_eq!(selfs[1], 12);
        assert_eq!(&selfs[2..], &[18, 15, 20, 10]);
    }

    #[test]
    fn layers_come_from_the_name_prefix() {
        let log = SpanLog {
            origin: Instant::now(),
            spans: vec![
                span("bench.round", 0, 100, None),
                span("service.handle_line", 0, 60, Some(0)),
                span("qasm.parse_flatten", 60, 90, Some(0)),
            ],
        };
        assert_eq!(log.spans()[0].layer(), None);
        let by_layer = log.layer_self_ns();
        assert_eq!(by_layer[0], 30); // qasm
        assert_eq!(by_layer[4], 60); // service
        assert_eq!(by_layer.iter().sum::<u64>(), 90); // 10 ns unattributed
        assert_eq!(log.total("service.handle_line"), (60, 1));
        assert_eq!(log.mean_us("qasm.parse_flatten"), 0.03);
    }

    #[test]
    fn recorded_and_opened_spans_nest() {
        let mut log = SpanLog::new();
        let root = log.open("bench.pass", None, 0);
        let x = log.time("core.route_sabre", Some(root), 1, || 2 + 2);
        log.close(root);
        assert_eq!(x, 4);
        let spans = log.spans();
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(log.to_ndjson().lines().count(), 2);
    }
}
