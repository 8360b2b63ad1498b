//! Daemon counters, latency histograms, the tiered metrics snapshot and
//! the loadgen summary.
//!
//! [`ServiceMetrics`] are the daemon-side request counters (plain
//! atomics) and [`Histogram`]s the fixed log2-bucket latency histograms
//! per verb, for queue wait and per routing phase. Both tiers report
//! their counters as a [`Snapshot`]: one ordered list of typed fields,
//! each tagged with the lowest [`Tier`] that shows it, `Stats` ⊂
//! `Metrics` ⊂ `Hist`. [`Snapshot::render`] writes the `stats`, plain
//! `metrics` or `{"type":"metrics","hist":true}` body, so each body's
//! fields are an ordered subsequence of the next one's, and plain
//! `metrics` is a prefix of `hist`. One rule covers the daemon's cache
//! counters: a [`Snapshot::group`] nests as `"cache":{…}` in `stats`
//! and flattens to `cache_<name>` above it. The golden fixtures pin the
//! plain `stats` and `metrics` bytes, so a new counter (such as a router
//! counter) goes in as one `Hist`-tier field. Every field is a scalar:
//! a bucket row is one comma-joined string.
//!
//! [`LatencySummary`] is the client-side view: `loadgen` records one
//! microsecond sample per request and summarizes them here. Latency is
//! a *measurement* (inherently nondeterministic), so it is kept out of
//! the deterministic loadgen summary JSON, exactly like the engine
//! keeps `RunStats` out of its `Summary`.

use crate::json::escape;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Buckets per [`Histogram`]: bucket `i` covers `[2^i, 2^(i+1))`
/// microseconds (bucket 0 also holds zero), the last bucket is
/// open-ended at ~8.4 s. Compile-time constant, so two scrapes of the
/// same request stream bucket identically.
pub const HISTOGRAM_BUCKETS: usize = 24;

/// Routing phases with a dedicated histogram, in pipeline order. The
/// queue wait sits between `cache_lookup` and `route` but is tracked
/// separately (it measures the queue, not a worker phase).
pub const PHASE_NAMES: [&str; 7] = [
    "parse",
    "canonicalize",
    "cache_lookup",
    "route",
    "verify",
    "simulate",
    "serialize",
];

/// Verbs with a dedicated end-to-end latency histogram, in the
/// emission order of the extended `metrics` body.
pub const VERB_NAMES: [&str; 8] = [
    "route",
    "calibration",
    "stats",
    "devices",
    "health",
    "metrics",
    "shutdown",
    "trace",
];

/// A fixed-boundary log2-bucket latency histogram (microseconds).
/// Lock-free: every field is an independent relaxed atomic — `total`
/// is the monotone event count the fuzz checker watches, `sum_us` and
/// the buckets are the measurement side.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    total: AtomicU64,
    sum_us: AtomicU64,
}

impl Histogram {
    /// A fresh all-zero histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// The bucket index `us` falls into: `floor(log2(us))`, clamped.
    pub fn bucket_index(us: u64) -> usize {
        if us <= 1 {
            0
        } else {
            ((63 - us.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Records one sample.
    pub fn record(&self, us: u64) {
        self.buckets[Histogram::bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Samples recorded so far (monotone).
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples, microseconds.
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// Bucket counts as a comma-joined string — a *scalar* JSON value,
    /// so the extended `metrics` body stays flat under the fuzz
    /// checker's flatness contract.
    pub fn render_buckets(&self) -> String {
        let counts: Vec<String> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed).to_string())
            .collect();
        counts.join(",")
    }
}

/// The lowest body a [`Snapshot`] field appears in; a field shows in
/// its own tier and every tier above it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// The `stats` body.
    Stats,
    /// The plain `metrics` body.
    Metrics,
    /// The extended `{"type":"metrics","hist":true}` body.
    Hist,
}

/// A typed [`Snapshot`] field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A counter or gauge.
    U64(u64),
    /// A flag.
    Bool(bool),
    /// A ratio, rendered with 6 decimals.
    F64(f64),
    /// A string, rendered escaped.
    Str(String),
}

macro_rules! value_from {
    ($($from:ty => |$v:ident| $value:expr),* $(,)?) => {$(
        impl From<$from> for Value {
            fn from($v: $from) -> Value {
                $value
            }
        }
    )*};
}

value_from! {
    u64 => |v| Value::U64(v),
    usize => |v| Value::U64(v as u64),
    bool => |v| Value::Bool(v),
    f64 => |v| Value::F64(v),
    String => |v| Value::Str(v),
}

#[derive(Debug, Clone)]
struct Field {
    tier: Tier,
    group: Option<&'static str>,
    name: Cow<'static, str>,
    value: Value,
}

/// One point-in-time reading of a tier's counters, rendered as its
/// `stats`, `metrics` or `hist` body (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    fields: Vec<Field>,
    group: Option<&'static str>,
}

impl Snapshot {
    /// Appends one field. Names are plain identifiers, written
    /// unescaped.
    pub fn push(
        &mut self,
        tier: Tier,
        name: impl Into<Cow<'static, str>>,
        value: impl Into<Value>,
    ) -> &mut Snapshot {
        let (group, name, value) = (self.group, name.into(), value.into());
        debug_assert!(!name.contains(['"', '\\']), "field name `{name}`");
        self.fields.push(Field {
            tier,
            group,
            name,
            value,
        });
        self
    }

    /// Appends the fields `fill` pushes as the group `name`: nested as
    /// `"name":{…}` in `stats`, flattened to `name_<field>` above it.
    pub fn group(&mut self, name: &'static str, fill: impl FnOnce(&mut Snapshot)) -> &mut Snapshot {
        self.group = Some(name);
        fill(self);
        self.group = None;
        self
    }

    /// Appends `hist_<name>_total`, `_sum_us` and `_buckets`, all in
    /// the `Hist` tier.
    pub fn histogram(&mut self, name: &str, hist: &Histogram) -> &mut Snapshot {
        let buckets = hist.render_buckets();
        self.push(Tier::Hist, format!("hist_{name}_total"), hist.total())
            .push(Tier::Hist, format!("hist_{name}_sum_us"), hist.sum_us())
            .push(Tier::Hist, format!("hist_{name}_buckets"), buckets)
    }

    /// The body of `tier`: `"type":"stats"` for [`Tier::Stats`],
    /// `"type":"metrics"` otherwise, then every field of that tier or a
    /// lower one, in push order.
    pub fn render(&self, tier: Tier) -> String {
        let kind = match tier {
            Tier::Stats => "stats",
            _ => "metrics",
        };
        let mut out = format!("{{\"type\":\"{kind}\",\"status\":\"ok\"");
        let mut nested = None;
        for field in self.fields.iter().filter(|f| f.tier <= tier) {
            let nest = field.group.filter(|_| tier == Tier::Stats);
            if nest == nested {
                out.push(',');
            } else {
                if nested.is_some() {
                    out.push('}');
                }
                match nest {
                    Some(group) => {
                        let _ = write!(out, ",\"{group}\":{{");
                    }
                    None => out.push(','),
                }
                nested = nest;
            }
            let _ = match field.group.filter(|_| nest.is_none()) {
                Some(prefix) => write!(out, "\"{prefix}_{}\":", field.name),
                None => write!(out, "\"{}\":", field.name),
            };
            let _ = match &field.value {
                Value::U64(v) => write!(out, "{v}"),
                Value::Bool(v) => write!(out, "{v}"),
                Value::F64(v) => write!(out, "{v:.6}"),
                Value::Str(v) => write!(out, "{}", escape(v)),
            };
        }
        if nested.is_some() {
            out.push('}');
        }
        out.push('}');
        out
    }
}

/// Request counters of one daemon instance.
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    /// Request lines received (any type, well-formed or not).
    pub requests: AtomicU64,
    /// Route requests answered from a fresh routing run.
    pub routed: AtomicU64,
    /// Requests answered with an error response.
    pub errors: AtomicU64,
    /// Route requests rejected by queue backpressure.
    pub overloaded: AtomicU64,
    /// Route jobs currently inside a worker (gauge, not a counter:
    /// incremented when a worker picks the job up, decremented when
    /// its reply is sent).
    pub in_flight: AtomicU64,
    /// Well-formed `route` requests (cache hits included).
    pub verb_route: AtomicU64,
    /// Well-formed `calibration` requests.
    pub verb_calibration: AtomicU64,
    /// Well-formed `stats` requests.
    pub verb_stats: AtomicU64,
    /// Well-formed `devices` requests.
    pub verb_devices: AtomicU64,
    /// Well-formed `health` requests.
    pub verb_health: AtomicU64,
    /// Well-formed `metrics` requests.
    pub verb_metrics: AtomicU64,
    /// Well-formed `shutdown` requests.
    pub verb_shutdown: AtomicU64,
    /// Well-formed `trace` requests (ring reads; counted like the
    /// other verbs, but a `Hist`-tier field, since the golden fixtures
    /// pin the plain bodies).
    pub verb_trace: AtomicU64,
    /// `route` requests with `"router":"auto"` that ran the whole
    /// portfolio because the (device, circuit-class) pair had no win
    /// history yet.
    pub portfolio_explore: AtomicU64,
    /// `route` requests with `"router":"auto"` answered by the class's
    /// current leader (single-member route or cache hit under the
    /// leader's key).
    pub portfolio_exploit: AtomicU64,
    /// Per-(device, circuit-class, member-label) win counts, keyed
    /// `device\0class\0label`. A `BTreeMap` so iteration — and with it
    /// the `hist` body and leader election — is deterministic.
    /// Reported by [`ServiceMetrics::push_portfolio`] in the `Hist`
    /// tier only.
    pub portfolio_wins: Mutex<BTreeMap<String, u64>>,
    /// End-to-end latency per verb, indexed like [`VERB_NAMES`].
    pub hist_verbs: [Histogram; 8],
    /// Time accepted route jobs spent queued before a worker picked
    /// them up.
    pub hist_queue_wait: Histogram,
    /// Per-phase routing breakdown, indexed like [`PHASE_NAMES`].
    pub hist_phases: [Histogram; 7],
}

impl ServiceMetrics {
    /// Fresh all-zero counters.
    pub fn new() -> Self {
        ServiceMetrics::default()
    }

    /// Increments a counter (relaxed; counters are independent).
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Decrements a gauge, saturating at zero. A plain `fetch_sub`
    /// would wrap an unpaired decrement to `u64::MAX` — a future
    /// pairing bug would then read as 18 quintillion in-flight jobs in
    /// `metrics` output instead of the honest 0 — so this is a CAS
    /// loop that refuses to go below zero.
    pub fn drop_one(gauge: &AtomicU64) {
        let mut current = gauge.load(Ordering::Relaxed);
        while current != 0 {
            match gauge.compare_exchange_weak(
                current,
                current - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// The per-phase histogram for `name`, if `name` is one of
    /// [`PHASE_NAMES`].
    pub fn phase_histogram(&self, name: &str) -> Option<&Histogram> {
        PHASE_NAMES
            .iter()
            .position(|&p| p == name)
            .map(|i| &self.hist_phases[i])
    }

    /// The per-verb latency histogram for `name`, if `name` is one of
    /// [`VERB_NAMES`].
    pub fn verb_histogram(&self, name: &str) -> Option<&Histogram> {
        VERB_NAMES
            .iter()
            .position(|&v| v == name)
            .map(|i| &self.hist_verbs[i])
    }

    /// Reads a counter.
    pub fn read(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// Credits one portfolio win to `label` for (`device`, `class`).
    pub fn record_portfolio_win(&self, device: &str, class: &str, label: &str) {
        let key = format!("{device}\0{class}\0{label}");
        let mut wins = self.portfolio_wins.lock().expect("win table poisoned");
        *wins.entry(key).or_insert(0) += 1;
    }

    /// The current leader for (`device`, `class`): the member label
    /// with the most recorded wins, ties broken by lexicographically
    /// smaller label (the `BTreeMap` iterates labels in ascending
    /// order, so "first strictly greater wins" implements exactly
    /// that). `None` until the pair has any history — the explore
    /// signal.
    pub fn portfolio_leader(&self, device: &str, class: &str) -> Option<String> {
        let prefix = format!("{device}\0{class}\0");
        let wins = self.portfolio_wins.lock().expect("win table poisoned");
        let mut leader: Option<(&str, u64)> = None;
        for (key, &count) in wins.range(prefix.clone()..) {
            let Some(label) = key.strip_prefix(prefix.as_str()) else {
                break; // past the (device, class) block
            };
            if leader.map_or(true, |(_, best)| count > best) {
                leader = Some((label, count));
            }
        }
        leader.map(|(label, _)| label.to_string())
    }

    /// Appends the portfolio (`auto`) telemetry in the `Hist` tier: the
    /// explore/exploit split, then one `portfolio_wins_<device>_<class>_<label>`
    /// count per win-table entry (NUL separators and spaces rendered as
    /// `_`), in table order.
    pub fn push_portfolio(&self, snapshot: &mut Snapshot) {
        let read = ServiceMetrics::read;
        snapshot
            .push(
                Tier::Hist,
                "portfolio_explore",
                read(&self.portfolio_explore),
            )
            .push(
                Tier::Hist,
                "portfolio_exploit",
                read(&self.portfolio_exploit),
            );
        let wins = self.portfolio_wins.lock().expect("win table poisoned");
        for (key, &count) in wins.iter() {
            let flat = key.replace(['\0', ' '], "_");
            snapshot.push(Tier::Hist, format!("portfolio_wins_{flat}"), count);
        }
    }
}

/// Schema version of the loadgen latency JSON (`--latency-json`).
/// Bump whenever its shape changes, as with
/// [`codar_engine::TIMINGS_SCHEMA_VERSION`]. Version 1 carried only
/// the percentiles; version 2 added the run context (request count,
/// seed, device/router, daemon cache capacity/shards and the active
/// calibration snapshot version) so two latency files can be checked
/// for comparability before being diffed; version 3 added the traffic
/// mode (`mode`, `arrival_us`) and the failover context (`proxy`,
/// `retries`, `failovers`) so tail latencies measured through the
/// sharded tier carry the fault story that produced them; version 4
/// made the file self-diagnosing — the client-side log2-bucket latency
/// histogram (same compile-time buckets as the daemon's) and the
/// daemon's per-phase profile scraped via `metrics` `hist:true` at end
/// of run, so a p99 spike in the percentiles can be attributed to
/// queue wait vs routing phases without rerunning anything.
pub const LATENCY_SCHEMA_VERSION: u32 = 4;

/// Percentile summary of recorded per-request latencies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Samples summarized.
    pub count: usize,
    /// Arithmetic mean, microseconds.
    pub mean_us: f64,
    /// Median (nearest-rank), microseconds.
    pub p50_us: u64,
    /// 90th percentile (nearest-rank), microseconds.
    pub p90_us: u64,
    /// 99th percentile (nearest-rank), microseconds.
    pub p99_us: u64,
    /// Slowest sample, microseconds.
    pub max_us: u64,
}

impl LatencySummary {
    /// Nearest-rank summary of `samples` (order irrelevant). An empty
    /// slice summarizes to all zeros.
    pub fn from_micros(samples: &[u64]) -> Self {
        if samples.is_empty() {
            return LatencySummary {
                count: 0,
                mean_us: 0.0,
                p50_us: 0,
                p90_us: 0,
                p99_us: 0,
                max_us: 0,
            };
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let rank = |p: f64| -> u64 {
            // Nearest-rank: smallest value with at least p of the mass
            // at or below it.
            let idx = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
            sorted[idx]
        };
        LatencySummary {
            count: sorted.len(),
            mean_us: sorted.iter().sum::<u64>() as f64 / sorted.len() as f64,
            p50_us: rank(0.50),
            p90_us: rank(0.90),
            p99_us: rank(0.99),
            max_us: *sorted.last().expect("non-empty"),
        }
    }

    /// The percentile fields of the latency JSON, as `"key": value`
    /// lines (the run context around them lives in
    /// `LoadgenReport::latency_json`, which owns the versioned
    /// payload).
    pub fn json_fields(&self) -> String {
        format!(
            "  \"count\": {},\n  \"mean_us\": {:.3},\n  \"p50_us\": {},\n  \
             \"p90_us\": {},\n  \"p99_us\": {},\n  \"max_us\": {}",
            self.count, self.mean_us, self.p50_us, self.p90_us, self.p99_us, self.max_us
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample_set_is_all_zero() {
        let summary = LatencySummary::from_micros(&[]);
        assert_eq!(summary.count, 0);
        assert_eq!(summary.p99_us, 0);
        assert_eq!(summary.mean_us, 0.0);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let samples: Vec<u64> = (1..=100).collect();
        let summary = LatencySummary::from_micros(&samples);
        assert_eq!(summary.count, 100);
        assert_eq!(summary.p50_us, 50);
        assert_eq!(summary.p90_us, 90);
        assert_eq!(summary.p99_us, 99);
        assert_eq!(summary.max_us, 100);
        assert!((summary.mean_us - 50.5).abs() < 1e-9);
    }

    #[test]
    fn single_sample_dominates_every_percentile() {
        let summary = LatencySummary::from_micros(&[42]);
        assert_eq!(
            (
                summary.p50_us,
                summary.p90_us,
                summary.p99_us,
                summary.max_us
            ),
            (42, 42, 42, 42)
        );
    }

    #[test]
    fn input_order_is_irrelevant() {
        let a = LatencySummary::from_micros(&[5, 1, 9, 3, 7]);
        let b = LatencySummary::from_micros(&[9, 7, 5, 3, 1]);
        assert_eq!(a, b);
    }

    #[test]
    fn json_fields_carry_every_percentile() {
        let fields = LatencySummary::from_micros(&[10, 20]).json_fields();
        assert!(fields.contains("\"count\": 2"));
        assert!(fields.contains("\"p50_us\": 10"));
        assert!(fields.contains("\"p99_us\": 20"));
        assert!(fields.contains("\"max_us\": 20"));
        assert!(
            !fields.contains("version"),
            "version belongs to the payload owner"
        );
    }

    #[test]
    fn metrics_counters_bump() {
        let metrics = ServiceMetrics::new();
        ServiceMetrics::bump(&metrics.requests);
        ServiceMetrics::bump(&metrics.requests);
        ServiceMetrics::bump(&metrics.errors);
        assert_eq!(ServiceMetrics::read(&metrics.requests), 2);
        assert_eq!(ServiceMetrics::read(&metrics.errors), 1);
        assert_eq!(ServiceMetrics::read(&metrics.overloaded), 0);
    }

    #[test]
    fn drop_one_saturates_at_zero() {
        // Regression: an unpaired decrement used to wrap the gauge to
        // u64::MAX via fetch_sub; it must clamp at zero instead.
        let metrics = ServiceMetrics::new();
        ServiceMetrics::drop_one(&metrics.in_flight);
        assert_eq!(ServiceMetrics::read(&metrics.in_flight), 0);
        ServiceMetrics::bump(&metrics.in_flight);
        ServiceMetrics::drop_one(&metrics.in_flight);
        ServiceMetrics::drop_one(&metrics.in_flight);
        ServiceMetrics::drop_one(&metrics.in_flight);
        assert_eq!(ServiceMetrics::read(&metrics.in_flight), 0);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(2), 1);
        assert_eq!(Histogram::bucket_index(3), 1);
        assert_eq!(Histogram::bucket_index(4), 2);
        assert_eq!(Histogram::bucket_index(1024), 10);
        assert_eq!(Histogram::bucket_index(1025), 10);
        assert_eq!(Histogram::bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_records_and_renders_flat() {
        let hist = Histogram::new();
        for us in [0, 1, 2, 3, 1024, u64::MAX / 2] {
            hist.record(us);
        }
        assert_eq!(hist.total(), 6);
        let buckets = hist.render_buckets();
        assert_eq!(buckets.split(',').count(), HISTOGRAM_BUCKETS);
        let counts: Vec<u64> = buckets.split(',').map(|c| c.parse().unwrap()).collect();
        assert_eq!(counts[0], 2);
        assert_eq!(counts[1], 2);
        assert_eq!(counts[10], 1);
        assert_eq!(counts[HISTOGRAM_BUCKETS - 1], 1);
        assert_eq!(counts.iter().sum::<u64>(), hist.total());
        let mut snapshot = Snapshot::default();
        snapshot.histogram("route", &hist);
        let body = snapshot.render(Tier::Hist);
        assert!(body.starts_with(
            "{\"type\":\"metrics\",\"status\":\"ok\",\"hist_route_total\":6,\"hist_route_sum_us\":"
        ));
        assert!(body.contains(",\"hist_route_buckets\":\"2,2,0"), "{body}");
        // Histograms are `Hist`-tier only.
        assert_eq!(
            snapshot.render(Tier::Metrics),
            "{\"type\":\"metrics\",\"status\":\"ok\"}"
        );
    }

    #[test]
    fn phase_histograms_resolve_by_name() {
        let metrics = ServiceMetrics::new();
        metrics.phase_histogram("route").unwrap().record(7);
        assert_eq!(metrics.hist_phases[3].total(), 1);
        assert!(metrics.phase_histogram("queue_wait").is_none());
        assert!(metrics.phase_histogram("nope").is_none());
    }

    #[test]
    fn portfolio_win_table_elects_deterministic_leaders() {
        let metrics = ServiceMetrics::new();
        assert_eq!(metrics.portfolio_leader("q20", "q6g3"), None);
        metrics.record_portfolio_win("q20", "q6g3", "sabre");
        metrics.record_portfolio_win("q20", "q6g3", "codar");
        // Tie at 1–1: the lexicographically smaller label leads.
        assert_eq!(
            metrics.portfolio_leader("q20", "q6g3").as_deref(),
            Some("codar")
        );
        metrics.record_portfolio_win("q20", "q6g3", "sabre");
        assert_eq!(
            metrics.portfolio_leader("q20", "q6g3").as_deref(),
            Some("sabre")
        );
        // Other (device, class) pairs have independent histories.
        assert_eq!(metrics.portfolio_leader("q5", "q6g3"), None);
        metrics.record_portfolio_win("q5", "q2g1", "greedy");
        assert_eq!(
            metrics.portfolio_leader("q5", "q2g1").as_deref(),
            Some("greedy")
        );
        let mut snapshot = Snapshot::default();
        metrics.push_portfolio(&mut snapshot);
        assert_eq!(
            snapshot.render(Tier::Hist),
            "{\"type\":\"metrics\",\"status\":\"ok\",\"portfolio_explore\":0,\
             \"portfolio_exploit\":0,\"portfolio_wins_q20_q6g3_codar\":1,\
             \"portfolio_wins_q20_q6g3_sabre\":2,\"portfolio_wins_q5_q2g1_greedy\":1}"
        );
        let mut empty = Snapshot::default();
        ServiceMetrics::new().push_portfolio(&mut empty);
        assert_eq!(empty.fields.len(), 2, "an empty table adds no win fields");
    }

    #[test]
    fn snapshot_renders_each_tier_and_nests_groups_only_in_stats() {
        let mut snapshot = Snapshot::default();
        snapshot
            .push(Tier::Stats, "requests", 3u64)
            .push(Tier::Metrics, "draining", false)
            .group("cache", |s| {
                s.push(Tier::Stats, "hits", 1u64)
                    .push(Tier::Stats, "hit_rate", 0.5)
                    .push(Tier::Metrics, "shards", 8usize);
            })
            .push(Tier::Hist, "label", "a\"b".to_string());
        assert_eq!(
            snapshot.render(Tier::Stats),
            "{\"type\":\"stats\",\"status\":\"ok\",\"requests\":3,\
             \"cache\":{\"hits\":1,\"hit_rate\":0.500000}}"
        );
        assert_eq!(
            snapshot.render(Tier::Metrics),
            "{\"type\":\"metrics\",\"status\":\"ok\",\"requests\":3,\"draining\":false,\
             \"cache_hits\":1,\"cache_hit_rate\":0.500000,\"cache_shards\":8}"
        );
        assert_eq!(
            snapshot.render(Tier::Hist),
            "{\"type\":\"metrics\",\"status\":\"ok\",\"requests\":3,\"draining\":false,\
             \"cache_hits\":1,\"cache_hit_rate\":0.500000,\"cache_shards\":8,\"label\":\"a\\\"b\"}"
        );
        // A group closes before the next ungrouped field.
        snapshot.push(Tier::Stats, "after", true);
        assert!(snapshot
            .render(Tier::Stats)
            .ends_with("\"hit_rate\":0.500000},\"after\":true}"));
        assert_eq!(
            Snapshot::default().render(Tier::Stats),
            "{\"type\":\"stats\",\"status\":\"ok\"}"
        );
    }

    #[test]
    fn in_flight_gauge_rises_and_falls() {
        let metrics = ServiceMetrics::new();
        ServiceMetrics::bump(&metrics.in_flight);
        ServiceMetrics::bump(&metrics.in_flight);
        ServiceMetrics::drop_one(&metrics.in_flight);
        assert_eq!(ServiceMetrics::read(&metrics.in_flight), 1);
        ServiceMetrics::bump(&metrics.verb_route);
        ServiceMetrics::bump(&metrics.verb_health);
        assert_eq!(ServiceMetrics::read(&metrics.verb_route), 1);
        assert_eq!(ServiceMetrics::read(&metrics.verb_health), 1);
        assert_eq!(ServiceMetrics::read(&metrics.verb_metrics), 0);
    }
}
