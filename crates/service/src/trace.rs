//! Structured request tracing: span trees, per-thread rings, NDJSON sink.
//!
//! Every traced request gets a **trace id** — supplied by the client as
//! an optional `"trace"` field, or minted by the daemon/proxy when a
//! trace log is attached — and a **span tree** of typed records
//! describing where its wall time went: protocol parse, circuit
//! canonicalization, cache lookup, queue wait, the worker phases
//! (route, verify, simulate, serialize), and on the proxy side the
//! shard pick and every forward attempt. The tree is assembled on the
//! serving thread into a [`TraceCtx`], then committed to a
//! [`TraceRecorder`]: a lock-cheap per-thread ring buffer (served by
//! the `trace` protocol verb) plus an optional NDJSON sink
//! (`--trace-log FILE` on `coded` and `codar-proxy`) that the
//! `codar-trace` bin merges into per-request waterfalls.
//!
//! # Determinism boundary
//!
//! Exactly like `RunStats` vs `Summary` in the engine, structure and
//! measurement are kept separate:
//!
//! * **Structure** — the tree shape (ordinals, parents, kinds, names,
//!   details) is a pure function of the request stream: ordinals come
//!   from a per-request logical event counter, never from wall time or
//!   thread interleaving. Seeded reruns must produce byte-identical
//!   structure; the CI trace smoke diffs it.
//! * **Measurement** — wall-clock data is confined to the two
//!   clearly-marked fields `t_us` (offset from request start) and
//!   `dur_us` (span duration). [`normalize_line`] zeroes both so the
//!   gates can diff what is left.
//!
//! # Examples
//!
//! ```
//! use codar_service::trace::{normalize_line, TraceCtx, TraceRecorder};
//!
//! let recorder = TraceRecorder::new();
//! let mut ctx = TraceCtx::begin("t-1".to_string(), "route");
//! let parse_started = ctx.start();
//! // ... work ...
//! ctx.phase("parse", 0, parse_started);
//! ctx.event("cache_miss", 0, None);
//! ctx.finish_root("ok");
//! recorder.commit(ctx);
//!
//! let spans = recorder.recent(8);
//! assert_eq!(spans.len(), 3);
//! assert!(spans[0].contains("\"kind\":\"request\",\"name\":\"route\""));
//! // Durations normalize away; structure stays.
//! assert!(normalize_line(&spans[1]).contains("\"name\":\"parse\",\"t_us\":0,\"dur_us\":0"));
//! ```

use crate::json::escape;
use crate::protocol::{TRACE_REPLY_DEFAULT, TRACE_REPLY_MAX};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

/// Longest accepted `"trace"` field value, in bytes. Anything longer
/// (or empty, or non-string) is a parse rejection — trace ids are
/// correlation keys, not payload.
pub const TRACE_ID_MAX_BYTES: usize = 128;

/// Spans a per-thread ring retains; older spans are evicted FIFO.
pub const RING_CAPACITY: usize = 512;

/// Whether `id` is acceptable as a trace id: non-empty, at most
/// [`TRACE_ID_MAX_BYTES`] bytes. The fuzz checker mirrors this rule.
pub fn valid_trace_id(id: &str) -> bool {
    !id.is_empty() && id.len() <= TRACE_ID_MAX_BYTES
}

/// What a span record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// The root span: one per request, named after the verb.
    Request,
    /// A timed phase (has a duration).
    Phase,
    /// A point event (no duration).
    Event,
}

impl SpanKind {
    fn name(self) -> &'static str {
        match self {
            SpanKind::Request => "request",
            SpanKind::Phase => "phase",
            SpanKind::Event => "event",
        }
    }
}

/// One record of a span tree. Serialized as one NDJSON line with a
/// fixed field order; `t_us`/`dur_us` are the only wall-clock fields.
#[derive(Debug, Clone)]
pub struct Span {
    /// Per-request ordinal from the logical event counter (root is 0).
    pub ord: u32,
    /// Parent ordinal; `None` only for the root.
    pub parent: Option<u32>,
    /// Record kind.
    pub kind: SpanKind,
    /// Event taxonomy name (`parse`, `route`, `cache_hit`, ...).
    pub name: &'static str,
    /// Deterministic annotation (outcome, backend index), if any.
    pub detail: Option<String>,
    /// Microseconds from request start (measurement; normalized away).
    pub t_us: u64,
    /// Span duration in microseconds; `None` for point events.
    pub dur_us: Option<u64>,
}

impl Span {
    fn render(&self, trace: &str) -> String {
        let mut line = format!("{{\"trace\":{},\"ord\":{}", escape(trace), self.ord);
        if let Some(parent) = self.parent {
            line.push_str(&format!(",\"parent\":{parent}"));
        }
        line.push_str(&format!(
            ",\"kind\":{},\"name\":{}",
            escape(self.kind.name()),
            escape(self.name)
        ));
        if let Some(detail) = &self.detail {
            line.push_str(&format!(",\"detail\":{}", escape(detail)));
        }
        line.push_str(&format!(",\"t_us\":{}", self.t_us));
        if let Some(dur) = self.dur_us {
            line.push_str(&format!(",\"dur_us\":{dur}"));
        }
        line.push('}');
        line
    }
}

/// A worker-side phase measurement, shipped back to the serving thread
/// so the span tree is assembled in one deterministic place. Offsets
/// are relative to the request start `Instant` carried by the job.
#[derive(Debug, Clone, Copy)]
pub struct PhaseSample {
    /// Phase name (`queue_wait`, `route`, `verify`, ...).
    pub name: &'static str,
    /// Microseconds from request start.
    pub t_us: u64,
    /// Phase duration, microseconds.
    pub dur_us: u64,
}

fn as_us(duration: Duration) -> u64 {
    u64::try_from(duration.as_micros()).unwrap_or(u64::MAX)
}

/// Builds a [`PhaseSample`] from three instants: the request start
/// (`started`, the zero of the trace timeline), the phase start and
/// the phase end. Workers use this to measure phases against the
/// serving thread's clock origin.
pub fn phase_sample(
    name: &'static str,
    started: Instant,
    from: Instant,
    until: Instant,
) -> PhaseSample {
    PhaseSample {
        name,
        t_us: as_us(from.duration_since(started)),
        dur_us: as_us(until.duration_since(from)),
    }
}

/// The span tree of one in-flight request, assembled on the serving
/// thread. Ordinals are handed out in call order by a logical counter,
/// so the structure is independent of wall time.
#[derive(Debug)]
pub struct TraceCtx {
    id: String,
    started: Instant,
    spans: Vec<Span>,
}

impl TraceCtx {
    /// Opens a tree for trace `id` with a root span named `verb`.
    /// The request clock starts now.
    pub fn begin(id: String, verb: &'static str) -> TraceCtx {
        TraceCtx::begin_at(id, verb, Instant::now())
    }

    /// Like [`TraceCtx::begin`], but with an explicit clock origin —
    /// the server passes the instant the request line arrived, so
    /// phases measured before the tree existed (protocol parse) still
    /// offset correctly.
    pub fn begin_at(id: String, verb: &'static str, started: Instant) -> TraceCtx {
        TraceCtx {
            id,
            started,
            spans: vec![Span {
                ord: 0,
                parent: None,
                kind: SpanKind::Request,
                name: verb,
                detail: None,
                t_us: 0,
                dur_us: None,
            }],
        }
    }

    /// The trace id this tree belongs to.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// An `Instant` for bracketing a phase: capture before the work,
    /// pass to [`TraceCtx::phase`] after it.
    pub fn start(&self) -> Instant {
        Instant::now()
    }

    /// Records a completed phase that began at `from` and ends now.
    /// Returns the new span's ordinal (usable as a parent).
    pub fn phase(&mut self, name: &'static str, parent: u32, from: Instant) -> u32 {
        let t_us = as_us(from.duration_since(self.started));
        let dur_us = as_us(from.elapsed());
        self.sample(PhaseSample { name, t_us, dur_us }, parent)
    }

    /// Records a pre-measured phase (e.g. shipped back from a worker).
    pub fn sample(&mut self, sample: PhaseSample, parent: u32) -> u32 {
        self.sample_with_detail(sample, parent, None)
    }

    /// [`TraceCtx::sample`] with a deterministic annotation — e.g. the
    /// proxy's per-attempt `backend=i outcome=ok` phases.
    pub fn sample_with_detail(
        &mut self,
        sample: PhaseSample,
        parent: u32,
        detail: Option<String>,
    ) -> u32 {
        self.push(Span {
            ord: 0,
            parent: Some(parent),
            kind: SpanKind::Phase,
            name: sample.name,
            detail,
            t_us: sample.t_us,
            dur_us: Some(sample.dur_us),
        })
    }

    /// Records a point event happening now.
    pub fn event(&mut self, name: &'static str, parent: u32, detail: Option<String>) -> u32 {
        let t_us = as_us(self.started.elapsed());
        self.push(Span {
            ord: 0,
            parent: Some(parent),
            kind: SpanKind::Event,
            name,
            detail,
            t_us,
            dur_us: None,
        })
    }

    /// Closes the root span: total duration plus a deterministic
    /// outcome annotation (`ok` / `error` / `overloaded`).
    pub fn finish_root(&mut self, detail: &str) {
        self.spans[0].dur_us = Some(as_us(self.started.elapsed()));
        self.spans[0].detail = Some(detail.to_string());
    }

    fn push(&mut self, mut span: Span) -> u32 {
        span.ord = u32::try_from(self.spans.len()).expect("span count fits u32");
        let ord = span.ord;
        self.spans.push(span);
        ord
    }

    /// Serializes every span, in ordinal order, one NDJSON line each.
    pub fn render(&self) -> Vec<String> {
        self.spans.iter().map(|s| s.render(&self.id)).collect()
    }
}

/// Zeroes the two wall-clock fields (`t_us`, `dur_us`) of a serialized
/// span line, leaving the deterministic structure. The trace gates diff
/// normalized lines; `codar-trace --normalize` applies this to a log.
pub fn normalize_line(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    loop {
        // Find the nearer of the two markers in what is left.
        let next = ["\"t_us\":", "\"dur_us\":"]
            .iter()
            .filter_map(|m| rest.find(m).map(|at| (at, m.len())))
            .min();
        let Some((at, len)) = next else {
            out.push_str(rest);
            return out;
        };
        out.push_str(&rest[..at + len]);
        rest = &rest[at + len..];
        let digits = rest.chars().take_while(char::is_ascii_digit).count();
        if digits > 0 {
            out.push('0');
            rest = &rest[digits..];
        }
    }
}

struct ThreadRing {
    entries: Mutex<VecDeque<(u64, String)>>,
}

thread_local! {
    // Per-thread cache of (recorder key -> ring), so committing a span
    // tree costs one uncontended Mutex lock, not a registry lookup.
    static RINGS: RefCell<Vec<(usize, Weak<ThreadRing>)>> = const { RefCell::new(Vec::new()) };
}

static RECORDER_KEYS: AtomicUsize = AtomicUsize::new(0);

struct RecorderInner {
    key: usize,
    seq: AtomicU64,
    mint: AtomicU64,
    minting: bool,
    prefix: &'static str,
    sink: Option<Mutex<BufWriter<File>>>,
    rings: Mutex<Vec<Arc<ThreadRing>>>,
}

impl std::fmt::Debug for RecorderInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRecorder")
            .field("minting", &self.minting)
            .field("sink", &self.sink.is_some())
            .finish()
    }
}

/// The daemon-wide trace store: per-thread rings of recent span lines
/// (served by the `trace` verb) plus an optional NDJSON sink. Minting
/// of fresh trace ids is enabled exactly when a sink is attached — a
/// daemon without `--trace-log` assembles trees only for requests that
/// *carry* a trace id, keeping the untraced hot path free of tree
/// work.
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    inner: Arc<RecorderInner>,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        TraceRecorder::new()
    }
}

impl TraceRecorder {
    fn build(sink: Option<BufWriter<File>>, prefix: &'static str) -> TraceRecorder {
        TraceRecorder {
            inner: Arc::new(RecorderInner {
                key: RECORDER_KEYS.fetch_add(1, Ordering::Relaxed),
                seq: AtomicU64::new(0),
                mint: AtomicU64::new(0),
                minting: sink.is_some(),
                prefix,
                sink: sink.map(Mutex::new),
                rings: Mutex::new(Vec::new()),
            }),
        }
    }

    /// A recorder with rings only: no sink, no minting.
    pub fn new() -> TraceRecorder {
        TraceRecorder::build(None, "t")
    }

    /// A recorder draining committed spans to the NDJSON log at `path`
    /// (truncated), with minting enabled (ids `t-1`, `t-2`, ...).
    ///
    /// # Errors
    ///
    /// Any I/O error creating `path`.
    pub fn with_sink(path: &str) -> io::Result<TraceRecorder> {
        TraceRecorder::with_sink_prefix(path, "t")
    }

    /// [`TraceRecorder::with_sink`] with an explicit mint prefix. Each
    /// tier mints from its own namespace (`t-N` daemons, `p-N` the
    /// proxy) so merging a proxy log with shard logs can never join
    /// unrelated trees that happen to share a sequence number.
    ///
    /// # Errors
    ///
    /// Any I/O error creating `path`.
    pub fn with_sink_prefix(path: &str, prefix: &'static str) -> io::Result<TraceRecorder> {
        Ok(TraceRecorder::build(
            Some(BufWriter::new(File::create(path)?)),
            prefix,
        ))
    }

    /// Whether this recorder mints ids for untraced work requests
    /// (true exactly when a sink is attached).
    pub fn minting(&self) -> bool {
        self.inner.minting
    }

    /// Mints the next recorder-local trace id (`<prefix>-1`,
    /// `<prefix>-2`, ...) if minting is enabled. Sequential per
    /// recorder, so a single-client seeded replay mints a
    /// deterministic id stream.
    pub fn mint(&self) -> Option<String> {
        self.inner.minting.then(|| {
            format!(
                "{}-{}",
                self.inner.prefix,
                self.inner.mint.fetch_add(1, Ordering::Relaxed) + 1
            )
        })
    }

    fn ring(&self) -> Arc<ThreadRing> {
        RINGS.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some(ring) = cache
                .iter()
                .find(|(key, _)| *key == self.inner.key)
                .and_then(|(_, weak)| weak.upgrade())
            {
                return ring;
            }
            let ring = Arc::new(ThreadRing {
                entries: Mutex::new(VecDeque::new()),
            });
            self.inner
                .rings
                .lock()
                .expect("ring registry poisoned")
                .push(Arc::clone(&ring));
            cache.retain(|(_, weak)| weak.strong_count() > 0);
            cache.push((self.inner.key, Arc::downgrade(&ring)));
            ring
        })
    }

    /// Commits a finished tree: every span goes to this thread's ring
    /// (evicting FIFO past [`RING_CAPACITY`]) and, when a sink is
    /// attached, to the NDJSON log (flushed per request, so a crashed
    /// daemon loses at most the in-flight request's spans).
    pub fn commit(&self, ctx: TraceCtx) {
        let lines = ctx.render();
        let ring = self.ring();
        {
            let mut entries = ring.entries.lock().expect("ring poisoned");
            for line in &lines {
                let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
                if entries.len() == RING_CAPACITY {
                    entries.pop_front();
                }
                entries.push_back((seq, line.clone()));
            }
        }
        if let Some(sink) = &self.inner.sink {
            let mut sink = sink.lock().expect("trace sink poisoned");
            for line in &lines {
                let _ = writeln!(sink, "{line}");
            }
            let _ = sink.flush();
        }
    }

    /// The last `n` committed span lines across every thread's ring,
    /// oldest first (merged by commit sequence).
    pub fn recent(&self, n: usize) -> Vec<String> {
        let rings: Vec<Arc<ThreadRing>> = self
            .inner
            .rings
            .lock()
            .expect("ring registry poisoned")
            .clone();
        let mut entries: Vec<(u64, String)> = Vec::new();
        for ring in rings {
            entries.extend(ring.entries.lock().expect("ring poisoned").iter().cloned());
        }
        entries.sort_unstable_by_key(|(seq, _)| *seq);
        if entries.len() > n {
            entries.drain(..entries.len() - n);
        }
        entries.into_iter().map(|(_, line)| line).collect()
    }

    /// The `trace` reply body of either tier: the last `n` committed
    /// span lines (default [`TRACE_REPLY_DEFAULT`], clamped to
    /// [`TRACE_REPLY_MAX`]), oldest first, embedded as raw span objects
    /// — the same lines the NDJSON sink receives. `proxy` adds the
    /// `"proxy":true` marker the front tier puts on the verbs it
    /// answers itself.
    pub fn reply_body(&self, n: Option<u64>, proxy: bool) -> String {
        let n = n.unwrap_or(TRACE_REPLY_DEFAULT).min(TRACE_REPLY_MAX);
        let spans = self.recent(usize::try_from(n).unwrap_or(usize::MAX));
        let marker = if proxy { "\"proxy\":true," } else { "" };
        format!(
            "{{\"type\":\"trace\",\"status\":\"ok\",{marker}\"count\":{},\"spans\":[{}]}}",
            spans.len(),
            spans.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_id_validation_bounds() {
        assert!(valid_trace_id("t-1"));
        assert!(valid_trace_id(&"x".repeat(TRACE_ID_MAX_BYTES)));
        assert!(!valid_trace_id(""));
        assert!(!valid_trace_id(&"x".repeat(TRACE_ID_MAX_BYTES + 1)));
    }

    #[test]
    fn span_lines_have_fixed_field_order() {
        let mut ctx = TraceCtx::begin("abc".to_string(), "route");
        let from = ctx.start();
        ctx.phase("parse", 0, from);
        ctx.event("cache_hit", 0, Some("shard=2".to_string()));
        ctx.finish_root("ok");
        let lines = ctx.render();
        assert_eq!(lines.len(), 3);
        assert!(
            normalize_line(&lines[0]).starts_with(
                "{\"trace\":\"abc\",\"ord\":0,\"kind\":\"request\",\"name\":\"route\",\
                 \"detail\":\"ok\",\"t_us\":0,\"dur_us\":0"
            ),
            "{}",
            lines[0]
        );
        assert_eq!(
            normalize_line(&lines[1]),
            "{\"trace\":\"abc\",\"ord\":1,\"parent\":0,\"kind\":\"phase\",\
             \"name\":\"parse\",\"t_us\":0,\"dur_us\":0}"
        );
        assert_eq!(
            normalize_line(&lines[2]),
            "{\"trace\":\"abc\",\"ord\":2,\"parent\":0,\"kind\":\"event\",\
             \"name\":\"cache_hit\",\"detail\":\"shard=2\",\"t_us\":0}"
        );
    }

    #[test]
    fn ordinals_are_logical_not_temporal() {
        // Two trees built with very different wall profiles must have
        // identical normalized structure.
        let build = |sleep: bool| {
            let mut ctx = TraceCtx::begin("t".to_string(), "route");
            let from = ctx.start();
            if sleep {
                std::thread::sleep(Duration::from_millis(2));
            }
            ctx.phase("canonicalize", 0, from);
            ctx.event("cache_miss", 0, None);
            ctx.sample(
                PhaseSample {
                    name: "route",
                    t_us: if sleep { 5000 } else { 3 },
                    dur_us: 1,
                },
                0,
            );
            ctx.finish_root("ok");
            ctx.render()
                .iter()
                .map(|l| normalize_line(l))
                .collect::<Vec<_>>()
        };
        assert_eq!(build(false), build(true));
    }

    #[test]
    fn normalization_zeroes_only_duration_fields() {
        let line = "{\"trace\":\"t-9\",\"ord\":3,\"parent\":0,\"kind\":\"phase\",\
                    \"name\":\"route\",\"t_us\":12345,\"dur_us\":678}";
        assert_eq!(
            normalize_line(line),
            "{\"trace\":\"t-9\",\"ord\":3,\"parent\":0,\"kind\":\"phase\",\
             \"name\":\"route\",\"t_us\":0,\"dur_us\":0}"
        );
        // Ordinals, parents and ids survive untouched.
        let tricky = "{\"trace\":\"dur_us:77\",\"ord\":42,\"t_us\":1}";
        assert_eq!(
            normalize_line(tricky),
            "{\"trace\":\"dur_us:77\",\"ord\":42,\"t_us\":0}"
        );
    }

    #[test]
    fn ring_keeps_the_most_recent_spans() {
        let recorder = TraceRecorder::new();
        for i in 0..(RING_CAPACITY + 10) {
            let mut ctx = TraceCtx::begin(format!("t-{i}"), "stats");
            ctx.finish_root("ok");
            recorder.commit(ctx);
        }
        let all = recorder.recent(usize::MAX);
        assert_eq!(all.len(), RING_CAPACITY);
        assert!(all
            .last()
            .expect("non-empty")
            .contains(&format!("\"trace\":\"t-{}\"", RING_CAPACITY + 9)));
        let tail = recorder.recent(3);
        assert_eq!(tail.len(), 3);
        assert_eq!(tail, all[RING_CAPACITY - 3..].to_vec());
    }

    #[test]
    fn recent_merges_rings_across_threads() {
        let recorder = TraceRecorder::new();
        let mut ctx = TraceCtx::begin("main-1".to_string(), "stats");
        ctx.finish_root("ok");
        recorder.commit(ctx);
        let clone = recorder.clone();
        std::thread::spawn(move || {
            let mut ctx = TraceCtx::begin("other-1".to_string(), "stats");
            ctx.finish_root("ok");
            clone.commit(ctx);
        })
        .join()
        .expect("thread");
        let all = recorder.recent(usize::MAX);
        assert_eq!(all.len(), 2);
        assert!(all[0].contains("main-1"));
        assert!(all[1].contains("other-1"));
    }

    #[test]
    fn minting_requires_a_sink() {
        let recorder = TraceRecorder::new();
        assert!(!recorder.minting());
        assert_eq!(recorder.mint(), None);
    }

    #[test]
    fn sink_receives_flushed_ndjson() {
        let path = std::env::temp_dir().join(format!("codar_trace_sink_{}", std::process::id()));
        let path_text = path.to_string_lossy().to_string();
        let recorder = TraceRecorder::with_sink(&path_text).expect("sink opens");
        assert!(recorder.minting());
        assert_eq!(recorder.mint().as_deref(), Some("t-1"));
        assert_eq!(recorder.mint().as_deref(), Some("t-2"));
        let mut ctx = TraceCtx::begin("t-1".to_string(), "route");
        ctx.event("cache_hit", 0, None);
        ctx.finish_root("ok");
        recorder.commit(ctx);
        let logged = std::fs::read_to_string(&path).expect("log readable");
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = logged.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"kind\":\"request\""));
        assert!(lines[1].contains("\"name\":\"cache_hit\""));
    }
}
