//! Seeded structured fuzzing for the daemon's line protocol.
//!
//! The `codar-fuzz` bin and the CI smoke gate are thin shells around
//! this module. Six grammar-aware generator/mutator families produce
//! corpus lines that sit *near* the grammar boundary (valid skeletons
//! with targeted corruptions), instead of random bytes the first token
//! check would reject:
//!
//! * [`Grammar::Protocol`] — NDJSON request frames (`route`, `stats`,
//!   `devices`, `calibration`, `shutdown`) mutated by field drops,
//!   type swaps, boundary numbers, unicode/surrogate injection,
//!   truncation and deep nesting. Route frames carry a `sim` mutator
//!   family: valid backend names and aliases, unknown names, wrong
//!   JSON types, and deliberate backend/circuit mismatches
//!   (`"stabilizer"` on a T-heavy circuit);
//! * [`Grammar::Qasm`] — valid OpenQASM 2 sources (from
//!   [`codar_qasm::generate`]) mutated by index perturbation, operand
//!   duplication and keyword corruption, embedded in `route` frames;
//! * [`Grammar::Calibration`] — valid snapshot documents (from
//!   [`CalibrationSnapshot::synthetic`]) mutated by version games,
//!   NaN/Inf/denormal injection and missing sections, embedded in
//!   `calibration set` frames;
//! * [`Grammar::Proxy`] — the sharded-tier surface: `health`/`metrics`
//!   frames with the usual mutations, and hashed-key boundary routes —
//!   the same circuit under different surface forms (whitespace,
//!   device case, an `id`) that must land on one shard, next to
//!   one-gate neighbors that must be free to land elsewhere. Valid
//!   against a bare daemon too, so every harness runs it;
//! * [`Grammar::Trace`] — the observability surface: requests carrying
//!   hostile `trace` ids (huge, empty, non-string, duplicated — only a
//!   *valid* id may ever be echoed), mutated `trace`-verb frames (the
//!   span-ring readback with boundary `n` values), and
//!   `metrics`/`hist` probes against the histogram fields;
//! * [`Grammar::Portfolio`] — the `auto` routing surface: recurring
//!   base circuits per (device, class) so explore→exploit transitions
//!   and win-table churn happen inside one corpus, the `portfolio`
//!   alias and case variants of `auto`, hostile `alpha` values
//!   (NaN/Inf/huge/wrong-typed — rejected at parse time, never allowed
//!   to poison the win table) and client-smuggled `chosen` fields (the
//!   winner is server-elected, never client-asserted).
//!
//! Every corpus is a pure function of `(seed, iterations, grammars)`
//! — two runs at equal seeds are byte-identical, so any crasher is
//! reproducible from its seed alone.
//!
//! [`InvariantChecker`] holds the contract the daemon must keep for
//! *every* line, hostile or not: exactly one single-line well-formed
//! JSON reply, `status` ∈ {`ok`, `error`, `overloaded`}, the request
//! `id` echoed exactly when recoverable, the request's **valid**
//! `trace` id echoed exactly (and invalid ones never echoed), and —
//! across interleaved `stats` probes — monotone counters and cache
//! occupancy within capacity; `metrics` histogram totals must stay
//! monotone too, with every bucket row summing to its total. An `ok` reply to a route that requested a simulation
//! backend must name the backend that actually ran (explicit requests
//! must not be silently substituted — no silent dense fallback).
//! [`minimize`] shrinks a violating line ddmin-style before
//! it is reported (and committed as a regression fixture).
//!
//! # Examples
//!
//! ```
//! use codar_service::fuzz::{generate_corpus, run_in_process, FuzzConfig};
//! use codar_service::{Service, ServiceConfig};
//!
//! let config = FuzzConfig { iterations: 64, ..FuzzConfig::default() };
//! let corpus = generate_corpus(&config);
//! assert_eq!(corpus, generate_corpus(&config)); // pure in the seed
//! let service = Service::start(ServiceConfig::default());
//! let report = run_in_process(&corpus, &service).expect("no invariant violations");
//! assert_eq!(report.lines, corpus.len());
//! ```

use crate::json::{escape, Json};
use crate::server::Service;
use codar_arch::{CalibrationSnapshot, Device};
use codar_engine::Backend;
use codar_qasm::generate::{random_source_with, GeneratorConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Seed used when the caller does not pick one.
pub const DEFAULT_SEED: u64 = 0xC0DA_F022;

/// The six corpus families. See the module docs for what each mutates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grammar {
    /// NDJSON protocol frames.
    Protocol,
    /// OpenQASM 2 sources inside `route` frames.
    Qasm,
    /// Calibration documents inside `calibration set` frames.
    Calibration,
    /// Sharded-tier frames: health/metrics mutations and hashed-key
    /// boundary routes.
    Proxy,
    /// Observability frames: hostile `trace` ids, `trace`-verb
    /// mutations and histogram-field probes.
    Trace,
    /// Portfolio (`auto`) route frames: recurring circuit classes,
    /// hostile alphas and client-smuggled `chosen` fields.
    Portfolio,
}

impl Grammar {
    /// All grammars, in generation order.
    pub const ALL: [Grammar; 6] = [
        Grammar::Protocol,
        Grammar::Qasm,
        Grammar::Calibration,
        Grammar::Proxy,
        Grammar::Trace,
        Grammar::Portfolio,
    ];

    /// The CLI name (`protocol` / `qasm` / `calibration` / `proxy` /
    /// `trace` / `portfolio`).
    pub fn name(self) -> &'static str {
        match self {
            Grammar::Protocol => "protocol",
            Grammar::Qasm => "qasm",
            Grammar::Calibration => "calibration",
            Grammar::Proxy => "proxy",
            Grammar::Trace => "trace",
            Grammar::Portfolio => "portfolio",
        }
    }

    /// Parses a CLI name; `all` is handled by the caller.
    pub fn parse(name: &str) -> Option<Grammar> {
        match name {
            "protocol" => Some(Grammar::Protocol),
            "qasm" => Some(Grammar::Qasm),
            "calibration" => Some(Grammar::Calibration),
            "proxy" => Some(Grammar::Proxy),
            "trace" => Some(Grammar::Trace),
            "portfolio" => Some(Grammar::Portfolio),
            _ => None,
        }
    }
}

/// What to generate. The corpus is a pure function of this struct.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Master seed; every derived choice flows from it.
    pub seed: u64,
    /// Corpus lines to generate (stats probes are injected *within*
    /// this budget, not on top of it).
    pub iterations: usize,
    /// Which families to draw from, round-robin.
    pub grammars: Vec<Grammar>,
    /// Inject a valid `stats` probe every N lines so the cache and
    /// counter invariants are actually observed mid-stream. 0 = never.
    pub stats_every: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: DEFAULT_SEED,
            iterations: 1000,
            grammars: Grammar::ALL.to_vec(),
            stats_every: 16,
        }
    }
}

/// A corpus line that broke the contract, with the shrunk repro.
#[derive(Debug, Clone)]
pub struct InvariantViolation {
    /// The exact line the daemon was fed.
    pub input: String,
    /// What the daemon replied (possibly empty on EOF).
    pub reply: String,
    /// Which invariant broke and how.
    pub message: String,
    /// 0-based index of the line within the corpus.
    pub index: usize,
}

/// Reply status counts, for the deterministic run summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplyTally {
    /// `"status":"ok"` replies.
    pub ok: u64,
    /// `"status":"error"` replies.
    pub error: u64,
    /// `"status":"overloaded"` replies.
    pub overloaded: u64,
}

/// Summary of a completed (violation-free) fuzz run.
#[derive(Debug, Clone, Copy)]
pub struct FuzzReport {
    /// Lines fed to the daemon.
    pub lines: usize,
    /// FNV-1a over every corpus line + `\n` — equal seeds must agree.
    pub corpus_fnv: u64,
    /// FNV-1a over every reply line + `\n`, each first passed through
    /// [`normalize_reply`]: what the daemon *decides* is byte-checked,
    /// what it *measures* (histogram sums/buckets, span clocks) is
    /// zeroed — measurements legitimately vary between equal runs.
    pub reply_fnv: u64,
    /// Per-status reply counts.
    pub tally: ReplyTally,
}

/// The id the daemon must echo for `line`: recoverable means the line
/// parses as JSON and carries a non-negative integral `"id"`. This
/// mirrors the server's own recovery rule exactly — both sides use the
/// same parser, so there is no second source of truth to drift.
pub fn expected_id(line: &str) -> Option<u64> {
    Json::parse(line)
        .ok()
        .as_ref()
        .and_then(|v| v.get("id"))
        .and_then(Json::as_u64)
}

/// The trace id the daemon must echo for `line`: a string `"trace"`
/// field that passes [`crate::trace::valid_trace_id`] (non-empty, at
/// most 128 bytes). Anything else — missing, wrong type, empty, or
/// oversized — must NOT be echoed. Mirrors the server's recovery rule
/// with the same parser, like [`expected_id`].
pub fn expected_trace(line: &str) -> Option<String> {
    Json::parse(line)
        .ok()
        .as_ref()
        .and_then(|v| v.get("trace"))
        .and_then(Json::as_str)
        .filter(|id| crate::trace::valid_trace_id(id))
        .map(str::to_string)
}

/// Zeroes every measurement field in a reply line before it is
/// hashed into [`FuzzReport::reply_fnv`]: span `t_us`/`dur_us`
/// clocks (via [`crate::trace::normalize_line`]), histogram `_sum_us`
/// sums, and `_buckets` rows (their *distribution* is timing-shaped
/// even when their total is deterministic). Every marker contains a
/// `"` — escaped payloads cannot fake one — so only genuine reply
/// fields are touched.
pub fn normalize_reply(line: &str) -> String {
    let out = crate::trace::normalize_line(line);
    let out = zero_digits_after(&out, "_sum_us\":");
    // Blank the bucket rows: `_buckets":"1,0,2"` → `_buckets":""`.
    let mut result = String::with_capacity(out.len());
    let mut rest = out.as_str();
    while let Some(at) = rest.find("_buckets\":\"") {
        let end = at + "_buckets\":\"".len();
        result.push_str(&rest[..end]);
        rest = &rest[end..];
        if let Some(close) = rest.find('"') {
            rest = &rest[close..];
        }
    }
    result.push_str(rest);
    result
}

/// Replaces the digit run after every occurrence of `marker` with `0`.
fn zero_digits_after(line: &str, marker: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(at) = rest.find(marker) {
        let end = at + marker.len();
        out.push_str(&rest[..end]);
        rest = &rest[end..];
        let digits = rest.chars().take_while(char::is_ascii_digit).count();
        if digits > 0 {
            out.push('0');
            rest = &rest[digits..];
        }
    }
    out.push_str(rest);
    out
}

/// One `stats` observation, for cross-probe monotonicity checks.
#[derive(Debug, Clone, Copy)]
struct StatsObservation {
    requests: u64,
    routed: u64,
    errors: u64,
    overloaded: u64,
    capacity: u64,
    shards: u64,
    entries: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl StatsObservation {
    fn parse(reply: &Json) -> Result<StatsObservation, String> {
        let field = |v: &Json, key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("stats reply lacks integer `{key}`"))
        };
        let cache = reply
            .get("cache")
            .ok_or_else(|| "stats reply lacks `cache`".to_string())?;
        Ok(StatsObservation {
            requests: field(reply, "requests")?,
            routed: field(reply, "routed")?,
            errors: field(reply, "errors")?,
            overloaded: field(reply, "overloaded")?,
            capacity: field(cache, "capacity")?,
            shards: field(cache, "shards")?,
            entries: field(cache, "entries")?,
            hits: field(cache, "hits")?,
            misses: field(cache, "misses")?,
            evictions: field(cache, "evictions")?,
        })
    }
}

/// The per-line protocol contract, plus counter/cache invariants
/// observed across `stats` probes. One checker per daemon lifetime —
/// monotonicity state must reset when the process restarts.
#[derive(Debug, Default)]
pub struct InvariantChecker {
    last: Option<StatsObservation>,
    /// Last-seen `hist_*_total` values from `metrics` replies, for the
    /// histogram monotonicity check.
    hist_totals: std::collections::HashMap<String, u64>,
    /// Running per-status reply counts.
    pub tally: ReplyTally,
}

impl InvariantChecker {
    /// A fresh checker with no stats history.
    pub fn new() -> Self {
        InvariantChecker::default()
    }

    /// Checks one request/reply pair. On `Err` the message names the
    /// broken invariant; the caller owns minimization and reporting.
    ///
    /// # Errors
    ///
    /// Any broken invariant: empty or multi-line reply, malformed
    /// JSON, unknown status, an `internal error` (a caught panic), id
    /// mismatch, or a `stats` reply whose counters regressed or whose
    /// cache overflowed its capacity.
    pub fn check(&mut self, input: &str, reply: &str) -> Result<(), String> {
        if reply.is_empty() {
            return Err("empty reply".to_string());
        }
        if reply.contains('\n') || reply.contains('\r') {
            return Err("reply spans multiple lines".to_string());
        }
        let parsed =
            Json::parse(reply).map_err(|e| format!("reply is not well-formed JSON: {e}"))?;
        let status = parsed
            .get("status")
            .and_then(Json::as_str)
            .ok_or_else(|| "reply lacks a string `status`".to_string())?;
        match status {
            "ok" => self.tally.ok += 1,
            "error" => self.tally.error += 1,
            "overloaded" => self.tally.overloaded += 1,
            other => return Err(format!("unknown status `{other}`")),
        }
        // A worker panic is caught and answered, so it looks like an
        // ordinary error; no request may reach one.
        if let Some(error) = parsed.get("error").and_then(Json::as_str) {
            if error.contains("internal error") {
                return Err(format!("request reached a panic: {error}"));
            }
        }
        let expected = expected_id(input);
        let echoed = parsed.get("id").and_then(Json::as_u64);
        if echoed != expected {
            return Err(format!(
                "id mismatch: request carries {expected:?}, reply echoes {echoed:?}"
            ));
        }
        // The trace-echo rule: a valid client trace id comes back
        // verbatim, an invalid or absent one must never be invented.
        let expected_trace = expected_trace(input);
        let echoed_trace = parsed
            .get("trace")
            .and_then(Json::as_str)
            .map(str::to_string);
        if echoed_trace != expected_trace {
            return Err(format!(
                "trace mismatch: request carries {expected_trace:?}, reply echoes {echoed_trace:?}"
            ));
        }
        let reply_type = parsed.get("type").and_then(Json::as_str);
        // A `"proxy":true` stats reply is the front tier answering for
        // itself: its counters are retry/failover gauges with no cache
        // section, so the daemon cache invariants do not apply.
        let from_proxy = parsed.get("proxy").and_then(Json::as_bool) == Some(true);
        if status == "ok" && reply_type == Some("stats") && !from_proxy {
            self.observe_stats(&parsed)?;
        }
        if status == "ok" && reply_type == Some("metrics") {
            check_metrics_shape(&parsed)?;
            self.observe_histograms(&parsed)?;
        }
        if status == "ok" && reply_type == Some("health") {
            check_health_shape(&parsed)?;
        }
        if status == "ok" {
            check_sim_contract(input, &parsed)?;
        }
        Ok(())
    }

    fn observe_stats(&mut self, reply: &Json) -> Result<(), String> {
        let now = StatsObservation::parse(reply)?;
        if now.capacity > 0 && now.entries > now.capacity {
            return Err(format!(
                "cache holds {} entries over its capacity {}",
                now.entries, now.capacity
            ));
        }
        if now.requests < now.routed + now.errors + now.overloaded {
            return Err(format!(
                "counter accounting broken: requests {} < routed {} + errors {} + overloaded {}",
                now.requests, now.routed, now.errors, now.overloaded
            ));
        }
        if let Some(last) = self.last {
            let monotone: [(&str, u64, u64); 7] = [
                ("requests", last.requests, now.requests),
                ("routed", last.routed, now.routed),
                ("errors", last.errors, now.errors),
                ("overloaded", last.overloaded, now.overloaded),
                ("hits", last.hits, now.hits),
                ("misses", last.misses, now.misses),
                ("evictions", last.evictions, now.evictions),
            ];
            for (name, before, after) in monotone {
                if after < before {
                    return Err(format!(
                        "counter `{name}` went backwards: {before} -> {after}"
                    ));
                }
            }
            if last.capacity != now.capacity || last.shards != now.shards {
                return Err("cache geometry changed mid-run".to_string());
            }
            // Every cache probe is a request; probes cannot outnumber
            // the requests that happened between the two observations.
            if (now.hits - last.hits) + (now.misses - last.misses) > now.requests - last.requests {
                return Err("more cache probes than requests between stats probes".to_string());
            }
        }
        self.last = Some(now);
        Ok(())
    }

    /// The histogram contract on extended `metrics` replies: every
    /// `hist_<name>_total` is monotone across probes of one daemon,
    /// and its bucket row sums exactly to it (samples are recorded
    /// atomically: no lost or double-counted entries).
    fn observe_histograms(&mut self, reply: &Json) -> Result<(), String> {
        let Json::Obj(fields) = reply else {
            return Ok(());
        };
        for (key, value) in fields {
            let Some(name) = key
                .strip_prefix("hist_")
                .and_then(|k| k.strip_suffix("_total"))
            else {
                continue;
            };
            let total = value
                .as_u64()
                .ok_or_else(|| format!("histogram total `{key}` is not an integer"))?;
            if let Some(&before) = self.hist_totals.get(key) {
                if total < before {
                    return Err(format!(
                        "histogram total `{key}` went backwards: {before} -> {total}"
                    ));
                }
            }
            self.hist_totals.insert(key.clone(), total);
            let buckets_key = format!("hist_{name}_buckets");
            let Some(buckets) = reply.get(&buckets_key).and_then(Json::as_str) else {
                return Err(format!("`{key}` has no matching `{buckets_key}`"));
            };
            let mut sum = 0u64;
            for count in buckets.split(',') {
                sum += count
                    .trim()
                    .parse::<u64>()
                    .map_err(|_| format!("`{buckets_key}` holds a non-integer bucket `{count}`"))?;
            }
            if sum != total {
                return Err(format!(
                    "`{buckets_key}` buckets sum to {sum} but `{key}` says {total}"
                ));
            }
        }
        Ok(())
    }
}

/// The metrics-flatness contract: a `metrics` reply is the scrapeable
/// superset of `stats` and must stay **flat** — every top-level value
/// a scalar, with at least the `requests` counter present. (Daemon and
/// proxy metrics carry different gauges; flatness and a request count
/// are the shared shape.)
fn check_metrics_shape(reply: &Json) -> Result<(), String> {
    let Json::Obj(fields) = reply else {
        return Err("metrics reply is not an object".to_string());
    };
    for (key, value) in fields {
        if matches!(value, Json::Obj(_) | Json::Arr(_)) {
            return Err(format!("metrics field `{key}` is not flat"));
        }
    }
    if reply.get("requests").and_then(Json::as_u64).is_none() {
        return Err("metrics reply lacks integer `requests`".to_string());
    }
    Ok(())
}

/// The health-shape contract: a `health` reply must carry the two
/// booleans supervisors and the proxy's prober key off — `ready` and
/// `draining` — and they must never both be true.
fn check_health_shape(reply: &Json) -> Result<(), String> {
    let ready = reply
        .get("ready")
        .and_then(Json::as_bool)
        .ok_or_else(|| "health reply lacks boolean `ready`".to_string())?;
    let draining = reply
        .get("draining")
        .and_then(Json::as_bool)
        .ok_or_else(|| "health reply lacks boolean `draining`".to_string())?;
    if ready && draining {
        return Err("health reply claims ready while draining".to_string());
    }
    Ok(())
}

/// The no-silent-fallback contract: when a route request names a
/// recognizable simulation backend and the daemon answers `ok`, the
/// reply must say which backend ran — and an *explicit* request must
/// have run exactly that backend (a backend that cannot run the
/// circuit is an `error`, never a quiet substitution). Requests whose
/// `sim` value does not parse to a backend carry no obligation here:
/// they must already have been rejected (checked via `status`).
fn check_sim_contract(input: &str, reply: &Json) -> Result<(), String> {
    // Mirror the server's own recovery rule: same parser, same `get`.
    let Ok(request) = Json::parse(input) else {
        return Ok(());
    };
    if request.get("type").and_then(Json::as_str) != Some("route") {
        return Ok(());
    }
    let Some(requested) = request
        .get("sim")
        .and_then(Json::as_str)
        .and_then(Backend::parse)
    else {
        return Ok(());
    };
    let Some(ran) = reply.get("sim").and_then(Json::as_str) else {
        return Err(format!(
            "ok reply to a `sim`:`{}` route reports no backend (silent fallback)",
            requested.name()
        ));
    };
    let allowed: &[&str] = match requested {
        Backend::Auto => &["dense", "stabilizer", "sparse"],
        Backend::Dense => &["dense"],
        Backend::Stabilizer => &["stabilizer"],
        Backend::Sparse => &["sparse"],
    };
    if !allowed.contains(&ran) {
        return Err(format!(
            "route requested backend `{}` but the reply reports `{ran}` ran",
            requested.name()
        ));
    }
    Ok(())
}

/// The full corpus for `config`, in feed order. Pure in the config:
/// equal configs give byte-identical corpora, on any platform.
pub fn generate_corpus(config: &FuzzConfig) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let grammars = if config.grammars.is_empty() {
        Grammar::ALL.to_vec()
    } else {
        config.grammars.clone()
    };
    let mut corpus = Vec::with_capacity(config.iterations);
    for i in 0..config.iterations {
        let line = if config.stats_every > 0 && i > 0 && i % config.stats_every == 0 {
            // An untouched probe: the invariants it observes must hold
            // regardless of the hostility around it.
            format!("{{\"type\":\"stats\",\"id\":{i}}}")
        } else {
            match grammars[i % grammars.len()] {
                Grammar::Protocol => protocol_line(&mut rng),
                Grammar::Qasm => qasm_line(&mut rng),
                Grammar::Calibration => calibration_line(&mut rng),
                Grammar::Proxy => proxy_line(&mut rng),
                Grammar::Trace => trace_line(&mut rng),
                Grammar::Portfolio => portfolio_line(&mut rng),
            }
        };
        // NDJSON: the transport splits on newlines, so a corpus line
        // containing one would silently become two requests. Blank
        // lines are skipped (not answered) by the stream server, so a
        // mutation that empties the line would desync an e2e replay.
        let line = line.replace(['\n', '\r'], " ");
        corpus.push(if line.trim().is_empty() {
            "{".to_string()
        } else {
            line
        });
    }
    corpus
}

/// Replays `corpus` against an in-process [`Service`], checking every
/// reply. `shutdown` lines only raise the flag — [`Service::handle_line`]
/// keeps answering, so one service instance survives the whole corpus.
///
/// # Errors
///
/// The first [`InvariantViolation`], input already minimized against a
/// *fresh* service (replay context can matter; the shrunk line is the
/// smallest that still fails from a clean start, or the original line
/// verbatim when the failure needs its stream prefix).
pub fn run_in_process(
    corpus: &[String],
    service: &Service,
) -> Result<FuzzReport, InvariantViolation> {
    let mut checker = InvariantChecker::new();
    let mut corpus_fnv = crate::cache::FNV_OFFSET;
    let mut reply_fnv = crate::cache::FNV_OFFSET;
    for (index, line) in corpus.iter().enumerate() {
        corpus_fnv = crate::cache::fnv1a_extend(corpus_fnv, line.as_bytes());
        corpus_fnv = crate::cache::fnv1a_extend(corpus_fnv, b"\n");
        let reply = service.handle_line(line);
        reply_fnv = crate::cache::fnv1a_extend(reply_fnv, normalize_reply(&reply).as_bytes());
        reply_fnv = crate::cache::fnv1a_extend(reply_fnv, b"\n");
        if let Err(message) = checker.check(line, &reply) {
            let config = service.config().clone();
            let input = minimize(line, |candidate| {
                let fresh = Service::start(config.clone());
                let reply = fresh.handle_line(candidate);
                InvariantChecker::new().check(candidate, &reply).is_err()
            });
            let reply = if input == *line {
                reply
            } else {
                Service::start(config).handle_line(&input)
            };
            return Err(InvariantViolation {
                input,
                reply,
                message,
                index,
            });
        }
    }
    Ok(FuzzReport {
        lines: corpus.len(),
        corpus_fnv,
        reply_fnv,
        tally: checker.tally,
    })
}

/// Shrinks `line` ddmin-style: repeatedly drops char chunks (halving
/// the chunk size down to single chars) while `still_fails` keeps
/// returning true. Returns `line` unchanged if it does not fail.
pub fn minimize(line: &str, mut still_fails: impl FnMut(&str) -> bool) -> String {
    if !still_fails(line) {
        return line.to_string();
    }
    let mut current: Vec<char> = line.chars().collect();
    let mut chunk = (current.len() / 2).max(1);
    loop {
        let mut start = 0;
        while start < current.len() {
            let mut candidate = current.clone();
            candidate.drain(start..(start + chunk).min(candidate.len()));
            let text: String = candidate.iter().collect();
            if !text.is_empty() && still_fails(&text) {
                current = candidate;
            } else {
                start += chunk;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk = (chunk / 2).max(1);
    }
    current.into_iter().collect()
}

// ---------------------------------------------------------------------------
// Protocol frames
// ---------------------------------------------------------------------------

/// An ordered JSON object under construction: keys with *raw* JSON
/// value text, so mutations can plant arbitrarily malformed values.
struct Frame {
    fields: Vec<(String, String)>,
}

impl Frame {
    fn new() -> Frame {
        Frame { fields: Vec::new() }
    }

    fn push(&mut self, key: &str, raw_value: impl Into<String>) {
        self.fields.push((key.to_string(), raw_value.into()));
    }

    fn render(&self) -> String {
        let mut out = String::from("{");
        for (i, (key, value)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&escape(key));
            out.push(':');
            out.push_str(value);
        }
        out.push('}');
        out
    }
}

/// Hostile scalar replacements for type-swap mutations.
const SWAPPED_VALUES: &[&str] = &[
    "null",
    "true",
    "false",
    "[]",
    "{}",
    "[[\"x\"]]",
    "{\"a\":{\"b\":1}}",
    "\"1\"",
    "3.5",
    "\"\"",
];

/// Boundary numbers: sign, precision and range edges the JSON layer
/// and `as_u64` must classify correctly.
const BOUNDARY_NUMBERS: &[&str] = &[
    "-1",
    "0",
    "-0",
    "1.5",
    "1e308",
    "-1e308",
    "1e-320",
    "9007199254740993",
    "18446744073709551615",
    "18446744073709551616",
    "0.30000000000000004",
];

/// Hostile string payloads: NUL, lone surrogates (escaped — raw ones
/// cannot exist in a Rust `&str`), astral pairs, RTL controls, and a
/// long run to stress any fixed-size assumption.
fn hostile_string(rng: &mut StdRng) -> String {
    match rng.gen_range(0..7u32) {
        0 => "\"\\u0000\"".to_string(),
        1 => "\"\\ud800\"".to_string(),
        2 => "\"\\udc00\\ud800\"".to_string(),
        3 => "\"\\ud83d\\ude00\"".to_string(),
        4 => "\"\u{202e}drawkcab\u{202e}\"".to_string(),
        5 => format!("\"{}\"", "A".repeat(rng.gen_range(256..4096usize))),
        6 => "\"q20\\u0000\"".to_string(),
        _ => unreachable!(),
    }
}

/// A device name: usually a real preset, sometimes an alias-case or
/// near-miss so the catalog lookup path gets exercised too.
fn device_name(rng: &mut StdRng) -> String {
    let presets = Device::preset_names();
    match rng.gen_range(0..8u32) {
        0 => "Q20".to_string(),
        1 => "q21".to_string(),
        2 => String::new(),
        _ => presets[rng.gen_range(0..presets.len())].to_string(),
    }
}

/// The `sim` mutator family: raw JSON values for a route frame's
/// `sim` field. Valid names and aliases (any case), near-miss and
/// unknown names, and wrong JSON types — the parse layer must reject
/// the bad ones with a clean error, never panic or quietly ignore.
fn sim_value(rng: &mut StdRng) -> String {
    match rng.gen_range(0..10u32) {
        0 => "\"auto\"".to_string(),
        1 => "\"dense\"".to_string(),
        2 => "\"stabilizer\"".to_string(),
        3 => "\"sparse\"".to_string(),
        4 => ["\"statevector\"", "\"clifford\"", "\"AUTO\"", "\"Sparse\""]
            [rng.gen_range(0..4usize)]
        .to_string(),
        5 => [
            "\"gpu\"",
            "\"tensor-network\"",
            "\"chp\"",
            "\"\"",
            "\"auto \"",
            "\"den se\"",
        ][rng.gen_range(0..6usize)]
        .to_string(),
        6 => "null".to_string(),
        7 => SWAPPED_VALUES[rng.gen_range(0..SWAPPED_VALUES.len())].to_string(),
        8 => BOUNDARY_NUMBERS[rng.gen_range(0..BOUNDARY_NUMBERS.len())].to_string(),
        9 => hostile_string(rng),
        _ => unreachable!(),
    }
}

/// A deliberately T-heavy circuit: a guaranteed backend/circuit
/// mismatch when paired with `"sim":"stabilizer"` — the daemon must
/// answer with a well-formed error, not fall back to dense.
const T_HEAVY_CIRCUIT: &str = "qreg q[3]; t q[0]; cx q[0], q[1]; t q[1]; cx q[1], q[2]; tdg q[2];";

/// A small valid circuit for route skeletons.
fn small_circuit(rng: &mut StdRng) -> String {
    let config = GeneratorConfig {
        max_qubits: 5,
        max_gates: 8,
        measure_probability: 0.3,
        header_probability: 0.8,
    };
    random_source_with(rng, &config)
}

/// A valid request frame of a random type, ids on roughly half.
fn valid_frame(rng: &mut StdRng) -> Frame {
    let mut frame = Frame::new();
    if rng.gen_bool(0.5) {
        frame.push("id", rng.gen_range(0..1_000_000u64).to_string());
    }
    // Shutdown is deliberately rare: every served one costs the e2e
    // harness a daemon respawn.
    match rng.gen_range(0..20u32) {
        0..=8 => {
            frame.push("type", "\"route\"");
            frame.push("device", escape(&device_name(rng)));
            if rng.gen_bool(0.7) {
                let router = ["codar", "codar-cal", "sabre", "greedy"][rng.gen_range(0..4usize)];
                frame.push("router", escape(router));
                if router == "codar-cal" && rng.gen_bool(0.7) {
                    frame.push("alpha", format!("{:.3}", rng.gen::<f64>()));
                }
            }
            let sim = if rng.gen_bool(0.4) {
                Some(sim_value(rng))
            } else {
                None
            };
            // Half the Clifford-only-backend requests get a circuit
            // the backend *cannot* run: the mismatch must be a clean
            // error reply, and the contract checker would catch a
            // silent dense fallback.
            let mismatch = matches!(sim.as_deref(), Some("\"stabilizer\"" | "\"clifford\""))
                && rng.gen_bool(0.5);
            if let Some(sim) = sim {
                frame.push("sim", sim);
            }
            if mismatch {
                frame.push("circuit", escape(T_HEAVY_CIRCUIT));
            } else {
                frame.push("circuit", escape(&small_circuit(rng)));
            }
        }
        9..=10 => {
            frame.push("type", "\"stats\"");
        }
        11..=12 => {
            frame.push("type", "\"devices\"");
        }
        13..=14 => {
            frame.push("type", "\"calibration\"");
            frame.push("device", escape(&device_name(rng)));
            if rng.gen_bool(0.5) {
                frame.push("action", "\"get\"");
            } else {
                frame.push("action", "\"set\"");
                frame.push(
                    "synthetic",
                    format!(
                        "{{\"seed\":{},\"drift\":{}}}",
                        rng.gen_range(0..64u64),
                        rng.gen_range(0..4u64)
                    ),
                );
            }
        }
        15..=16 => {
            frame.push("type", "\"health\"");
        }
        17..=18 => {
            frame.push("type", "\"metrics\"");
        }
        _ => {
            frame.push("type", "\"shutdown\"");
        }
    }
    frame
}

/// Structural frame mutations (operate on the field list).
fn mutate_frame(frame: &mut Frame, rng: &mut StdRng) {
    if frame.fields.is_empty() {
        frame.push("junk", "null");
        return;
    }
    let i = rng.gen_range(0..frame.fields.len());
    match rng.gen_range(0..6u32) {
        // Drop a field — missing-required-field handling.
        0 => {
            frame.fields.remove(i);
        }
        // Swap a value's type.
        1 => {
            frame.fields[i].1 = SWAPPED_VALUES[rng.gen_range(0..SWAPPED_VALUES.len())].to_string();
        }
        // Plant a boundary number.
        2 => {
            frame.fields[i].1 =
                BOUNDARY_NUMBERS[rng.gen_range(0..BOUNDARY_NUMBERS.len())].to_string();
        }
        // Plant a hostile string.
        3 => {
            frame.fields[i].1 = hostile_string(rng);
        }
        // Duplicate a key (last-wins vs first-wins must still echo
        // whatever the server's own parse recovers).
        4 => {
            let clone = frame.fields[i].clone();
            frame.fields.push(clone);
        }
        // Wrap the value in deep nesting.
        5 => {
            let depth = rng.gen_range(8..128usize);
            let value = frame.fields[i].1.clone();
            frame.fields[i].1 = format!("{}{}{}", "[".repeat(depth), value, "]".repeat(depth));
        }
        _ => unreachable!(),
    }
}

/// Text-level mutations (operate on the rendered line).
fn mutate_text(line: &mut String, rng: &mut StdRng) {
    match rng.gen_range(0..4u32) {
        // Truncate at a char boundary.
        0 => {
            if !line.is_empty() {
                let mut cut = rng.gen_range(0..line.len());
                while !line.is_char_boundary(cut) {
                    cut -= 1;
                }
                line.truncate(cut);
            }
        }
        // Trailing garbage after the close brace.
        1 => line.push_str(["}", "]", " {}", ",", "\u{0}"][rng.gen_range(0..5usize)]),
        // Leading whitespace and BOM-ish prefixes.
        2 => {
            *line = format!(
                "{}{line}",
                ["  ", "\t", "\u{feff}"][rng.gen_range(0..3usize)]
            )
        }
        // Splice a printable rune mid-line at a char boundary.
        3 => {
            if !line.is_empty() {
                let mut at = rng.gen_range(0..line.len());
                while !line.is_char_boundary(at) {
                    at -= 1;
                }
                let rune = ['"', '\\', '{', '\u{1f600}', ':'][rng.gen_range(0..5usize)];
                line.insert(at, rune);
            }
        }
        _ => unreachable!(),
    }
}

/// One protocol-grammar corpus line: a valid skeleton, 0–2 structural
/// mutations, sometimes a text-level one. Zero mutations is on purpose
/// — fully valid traffic keeps the ok-path invariants honest.
fn protocol_line(rng: &mut StdRng) -> String {
    let mut frame = valid_frame(rng);
    for _ in 0..rng.gen_range(0..=2u32) {
        mutate_frame(&mut frame, rng);
    }
    let mut line = frame.render();
    if rng.gen_bool(0.25) {
        mutate_text(&mut line, rng);
    }
    line
}

// ---------------------------------------------------------------------------
// Proxy frames
// ---------------------------------------------------------------------------

/// One proxy-grammar corpus line. Three sub-families:
///
/// * mutated `health`/`metrics` frames (the verbs the tier answers
///   itself — and the daemon answers too, so the line is valid
///   everywhere);
/// * **hashed-key boundary** routes: one base circuit emitted under a
///   surface form that must not change its
///   [`RouteKey`](crate::cache::RouteKey) — extra whitespace, flipped
///   device case, the device's name instead of its catalog key, an
///   added `id` — so a sharded replay exercises
///   `codar_service::proxy::shard_key`, the key's
///   [`shard_fnv`](crate::cache::RouteKey::shard_fnv) projection (it
///   leaves out the seed, calibration version and portfolio member:
///   per-backend state the proxy cannot see);
/// * one-gate neighbors of the base circuit, which *may* hash
///   elsewhere — the keyspace-splitting side of the same boundary.
fn proxy_line(rng: &mut StdRng) -> String {
    match rng.gen_range(0..8u32) {
        0..=2 => {
            let mut frame = Frame::new();
            if rng.gen_bool(0.5) {
                frame.push("id", rng.gen_range(0..1_000_000u64).to_string());
            }
            frame.push(
                "type",
                if rng.gen_bool(0.5) {
                    "\"health\""
                } else {
                    "\"metrics\""
                },
            );
            for _ in 0..rng.gen_range(0..=2u32) {
                mutate_frame(&mut frame, rng);
            }
            let mut line = frame.render();
            if rng.gen_bool(0.2) {
                mutate_text(&mut line, rng);
            }
            line
        }
        3..=5 => {
            // The boundary family reuses a small deterministic pool of
            // base circuits so surface variants of the *same* circuit
            // actually recur within one corpus.
            let base = [
                "qreg q[3]; h q[0]; cx q[0], q[2];",
                "qreg q[4]; cx q[0], q[3]; cx q[1], q[2]; h q[3];",
                "qreg q[2]; h q[0]; h q[1]; cx q[0], q[1];",
            ][rng.gen_range(0..3usize)];
            let circuit = match rng.gen_range(0..3u32) {
                // Whitespace-only variant: same canonical form.
                0 => base.replace("; ", ";   ").replace(", ", " , "),
                // One-gate neighbor: a genuinely different circuit.
                1 => format!("{base} h q[1];"),
                _ => base.to_string(),
            };
            let device = ["q20", "q20", "Q20", "IBM Q20 Tokyo"][rng.gen_range(0..4usize)];
            let mut frame = Frame::new();
            if rng.gen_bool(0.4) {
                frame.push("id", rng.gen_range(0..1_000_000u64).to_string());
            }
            frame.push("type", "\"route\"");
            frame.push("device", escape(device));
            frame.push("circuit", escape(&circuit));
            frame.render()
        }
        6 => {
            // Boundary ids on the locally-answered verbs.
            let verb = ["\"stats\"", "\"health\"", "\"metrics\""][rng.gen_range(0..3usize)];
            let mut frame = Frame::new();
            frame.push(
                "id",
                BOUNDARY_NUMBERS[rng.gen_range(0..BOUNDARY_NUMBERS.len())].to_string(),
            );
            frame.push("type", verb);
            frame.render()
        }
        _ => {
            // Calibration-get through the tier (forwarded verbatim).
            let mut frame = Frame::new();
            if rng.gen_bool(0.5) {
                frame.push("id", rng.gen_range(0..1_000_000u64).to_string());
            }
            frame.push("type", "\"calibration\"");
            frame.push("action", "\"get\"");
            frame.push("device", escape(&device_name(rng)));
            frame.render()
        }
    }
}

// ---------------------------------------------------------------------------
// Trace frames
// ---------------------------------------------------------------------------

/// A raw JSON value for a request's `trace` field. Valid ids (which
/// must come back verbatim) sit next to every way an id can be
/// invalid: empty, oversized (the cap is 128 bytes — both sides of it
/// appear), wrong JSON type, hostile string content.
fn trace_value(rng: &mut StdRng) -> String {
    match rng.gen_range(0..9u32) {
        // Valid client ids, including ones squatting the daemon's and
        // the proxy's mint namespaces (`t-N` / `p-N`).
        0 => escape(&format!("req-{}", rng.gen_range(0..1000u64))),
        1 => escape(&format!("t-{}", rng.gen_range(0..1000u64))),
        2 => escape(&format!("p-{}", rng.gen_range(0..1000u64))),
        // Exactly around the 128-byte validity cap.
        3 => format!("\"{}\"", "x".repeat(rng.gen_range(120..=136usize))),
        // Empty and huge: both invalid, must never be echoed.
        4 => "\"\"".to_string(),
        5 => format!("\"{}\"", "T".repeat(rng.gen_range(256..4096usize))),
        // Wrong types and boundary numbers.
        6 => SWAPPED_VALUES[rng.gen_range(0..SWAPPED_VALUES.len())].to_string(),
        7 => BOUNDARY_NUMBERS[rng.gen_range(0..BOUNDARY_NUMBERS.len())].to_string(),
        8 => hostile_string(rng),
        _ => unreachable!(),
    }
}

/// One portfolio-grammar corpus line. Route frames under `"auto"`
/// (plus its `portfolio` alias and case variants) built from a small
/// recurring circuit pool, so the same (device, circuit-class) pair
/// reappears across one corpus and the win table actually transitions
/// from explore to exploit mid-run. Sub-families:
///
/// * clean `auto` routes — the cached/exploited replies must stay
///   byte-stable under the invariant checker's monotone-counter eye;
/// * hostile `alpha` values (NaN/Inf/denormal/huge/wrong-typed) that
///   must be rejected at parse time and never reach the win table;
/// * a client-smuggled `chosen` field — the winner is server-elected,
///   a spoofed label must not leak into the reply or the cache key;
/// * the usual frame/text mutations on top.
fn portfolio_line(rng: &mut StdRng) -> String {
    let base = [
        "qreg q[3]; h q[0]; cx q[0], q[2];",
        "qreg q[4]; cx q[0], q[3]; cx q[1], q[2]; h q[3];",
        "qreg q[5]; h q[0]; cx q[0], q[4]; cx q[1], q[3];",
    ][rng.gen_range(0..3usize)];
    let device = ["q5", "q20", "q16"][rng.gen_range(0..3usize)];
    let router = match rng.gen_range(0..8u32) {
        0 => "\"portfolio\"",
        1 => "\"AUTO\"",
        2 => "\"Auto\"",
        3 => "\"auto \"",
        _ => "\"auto\"",
    };
    let mut frame = Frame::new();
    if rng.gen_bool(0.5) {
        frame.push("id", rng.gen_range(0..1_000_000u64).to_string());
    }
    frame.push("type", "\"route\"");
    frame.push("device", escape(device));
    frame.push("router", router);
    match rng.gen_range(0..6u32) {
        0 => frame.push("alpha", "0.5"),
        1 => frame.push("alpha", "0.25"),
        2 => {
            let hostile = [
                "NaN", "-1.0", "1e308", "-0.0", "5e-324", "\"0.5\"", "[0.5]", "null",
            ];
            frame.push("alpha", hostile[rng.gen_range(0..hostile.len())]);
        }
        3 => {
            let smuggled = ["\"sabre\"", "\"codar\"", "\"nonsense\"", "42"];
            frame.push("chosen", smuggled[rng.gen_range(0..smuggled.len())]);
        }
        _ => {}
    }
    frame.push("circuit", escape(base));
    for _ in 0..rng.gen_range(0..=1u32) {
        mutate_frame(&mut frame, rng);
    }
    let mut line = frame.render();
    if rng.gen_bool(0.15) {
        mutate_text(&mut line, rng);
    }
    line
}

/// One trace-grammar corpus line. Three sub-families:
///
/// * ordinary verbs carrying a hostile `trace` field (sometimes
///   duplicated — last-wins vs first-wins must match the server's own
///   parse, the echo mirror catches any drift);
/// * `trace`-verb frames with boundary `n` values (the span-ring
///   readback must clamp, not crash or allocate unboundedly);
/// * `metrics` frames probing the `hist` switch with non-boolean
///   values — the histogram fields are opt-in and the opt-in must not
///   be spoofable into a malformed reply.
fn trace_line(rng: &mut StdRng) -> String {
    let mut frame = Frame::new();
    if rng.gen_bool(0.5) {
        frame.push("id", rng.gen_range(0..1_000_000u64).to_string());
    }
    match rng.gen_range(0..8u32) {
        0..=3 => {
            // A traced ordinary request: route keeps the trace id on
            // the longest path (queue, worker, cache), the probe verbs
            // answer inline.
            match rng.gen_range(0..4u32) {
                0 => {
                    frame.push("type", "\"route\"");
                    frame.push("trace", trace_value(rng));
                    frame.push("device", escape(&device_name(rng)));
                    frame.push("circuit", escape(&small_circuit(rng)));
                }
                1 => {
                    frame.push("type", "\"stats\"");
                    frame.push("trace", trace_value(rng));
                }
                2 => {
                    frame.push("type", "\"health\"");
                    frame.push("trace", trace_value(rng));
                }
                _ => {
                    frame.push("type", "\"metrics\"");
                    frame.push("trace", trace_value(rng));
                    if rng.gen_bool(0.5) {
                        frame.push("hist", "true");
                    }
                }
            }
            if rng.gen_bool(0.25) {
                // Duplicate the trace key, possibly with a different
                // value: whatever the parser recovers is what must be
                // echoed — the mirror uses the same parser.
                frame.push("trace", trace_value(rng));
            }
        }
        4..=5 => {
            frame.push("type", "\"trace\"");
            match rng.gen_range(0..4u32) {
                0 => frame.push("n", rng.gen_range(0..64u64).to_string()),
                1 => frame.push(
                    "n",
                    BOUNDARY_NUMBERS[rng.gen_range(0..BOUNDARY_NUMBERS.len())].to_string(),
                ),
                2 => frame.push(
                    "n",
                    SWAPPED_VALUES[rng.gen_range(0..SWAPPED_VALUES.len())].to_string(),
                ),
                _ => {} // no n: the default window
            }
            if rng.gen_bool(0.3) {
                frame.push("trace", trace_value(rng));
            }
        }
        6..=7 => {
            frame.push("type", "\"metrics\"");
            frame.push(
                "hist",
                match rng.gen_range(0..4u32) {
                    0 => "true".to_string(),
                    1 => "false".to_string(),
                    2 => SWAPPED_VALUES[rng.gen_range(0..SWAPPED_VALUES.len())].to_string(),
                    _ => BOUNDARY_NUMBERS[rng.gen_range(0..BOUNDARY_NUMBERS.len())].to_string(),
                },
            );
        }
        _ => unreachable!(),
    }
    let mut line = frame.render();
    if rng.gen_bool(0.15) {
        mutate_text(&mut line, rng);
    }
    line
}

// ---------------------------------------------------------------------------
// QASM sources
// ---------------------------------------------------------------------------

/// Replaces the `index`-th occurrence of `needle` (if any).
fn replace_nth(text: &str, needle: &str, replacement: &str, index: usize) -> String {
    let mut seen = 0;
    let mut from = 0;
    while let Some(at) = text[from..].find(needle) {
        let at = from + at;
        if seen == index {
            let mut out = String::with_capacity(text.len());
            out.push_str(&text[..at]);
            out.push_str(replacement);
            out.push_str(&text[at + needle.len()..]);
            return out;
        }
        seen += 1;
        from = at + needle.len();
    }
    text.to_string()
}

/// Source-level QASM mutations: each targets a distinct analyzer layer
/// (lexer, parser, semantic bounds, broadcast rules).
fn mutate_qasm(source: &str, rng: &mut StdRng) -> String {
    match rng.gen_range(0..8u32) {
        // Index perturbation: out-of-range, negative, empty, huge.
        0 => {
            let hostile = ["999999", "-1", "", "18446744073709551616"][rng.gen_range(0..4usize)];
            let opens = source.matches("q[").count();
            if opens == 0 {
                return source.to_string();
            }
            let target = rng.gen_range(0..opens);
            // Rewrite `q[<digits>` at the target occurrence.
            let mut seen = 0;
            let mut out = String::with_capacity(source.len());
            let mut rest = source;
            while let Some(at) = rest.find("q[") {
                out.push_str(&rest[..at + 2]);
                rest = &rest[at + 2..];
                if seen == target {
                    let digits = rest.chars().take_while(char::is_ascii_digit).count();
                    out.push_str(hostile);
                    rest = &rest[digits..];
                }
                seen += 1;
            }
            out.push_str(rest);
            out
        }
        // Operand duplication: `cx q[a], q[a]` must be rejected
        // semantically, not crash the router.
        1 => {
            if let Some(at) = source.find(", q[") {
                let operand_start = source[..at].rfind("q[").unwrap_or(at);
                let operand = &source[operand_start..at];
                let close = source[at + 2..].find(']').map(|c| at + 2 + c + 1);
                match close {
                    Some(close) => format!("{}, {}{}", &source[..at], operand, &source[close..]),
                    None => source.to_string(),
                }
            } else {
                source.to_string()
            }
        }
        // Keyword corruption.
        2 => {
            let (from, to) = [
                ("qreg", "qeg"),
                ("creg", "cregg"),
                ("measure", "measrue"),
                ("OPENQASM", "OPENQSM"),
                ("include", "inclde"),
                ("qelib1.inc", "qelib9.inc"),
            ][rng.gen_range(0..6usize)];
            replace_nth(source, from, to, 0)
        }
        // Statement terminator loss.
        3 => replace_nth(source, ";", "", rng.gen_range(0..4usize)),
        // Truncation at a char boundary.
        4 => {
            let mut cut = rng.gen_range(0..source.len().max(1)).min(source.len());
            while !source.is_char_boundary(cut) {
                cut -= 1;
            }
            source[..cut].to_string()
        }
        // Unicode/control injection into the token stream.
        5 => replace_nth(
            source,
            " ",
            ["\u{0}", "\u{202e}", "\u{1f600}"][rng.gen_range(0..3usize)],
            0,
        ),
        // Register renamed at declaration only — every use dangles.
        6 => replace_nth(source, "qreg q[", "qreg r[", 0),
        // A degenerate barrier: a repeated operand or a whole register
        // next to one of its own qubits (both rejected, since every
        // layer below assumes distinct operands), an operand-free one,
        // or a valid whole-register one.
        7 => {
            let barrier = ["q[0], q[0]", "q, q[0]", "q[1], q", "", "q"][rng.gen_range(0..5usize)];
            format!("{source} barrier {barrier};")
        }
        _ => unreachable!(),
    }
}

/// One QASM-grammar corpus line: a valid generated source, usually
/// mutated, wrapped in an otherwise-valid `route` frame.
fn qasm_line(rng: &mut StdRng) -> String {
    let mut source = small_circuit(rng);
    for _ in 0..rng.gen_range(0..=2u32) {
        source = mutate_qasm(&source, rng);
    }
    let mut frame = Frame::new();
    if rng.gen_bool(0.5) {
        frame.push("id", rng.gen_range(0..1_000_000u64).to_string());
    }
    frame.push("type", "\"route\"");
    frame.push("device", escape(&device_name(rng)));
    if rng.gen_bool(0.25) {
        // Mutated sources against simulation backends: whatever the
        // mutation did, a requested backend either runs or errors.
        frame.push("sim", sim_value(rng));
    }
    frame.push("circuit", escape(&source));
    frame.render()
}

// ---------------------------------------------------------------------------
// Calibration documents
// ---------------------------------------------------------------------------

/// Number of [`calibration_mutation`] arms.
const CALIBRATION_MUTATIONS: u32 = 8;

/// Document-level calibration mutation `arm`: version games,
/// non-finite and denormal numbers, missing sections, device
/// mismatches. Needles match [`CalibrationSnapshot::to_json`]'s
/// spacing (`"error": 0.…`); one that misses leaves the document as
/// it was.
fn calibration_mutation(document: &str, arm: u32) -> String {
    match arm {
        // Version games: zero, huge — the high-water check's edges.
        0 => replace_nth(document, "\"version\":", "\"version\":0,\"was\":", 0),
        1 => replace_nth(
            document,
            "\"version\":",
            "\"version\":18446744073709551615,\"was\":",
            0,
        ),
        // Non-finite and denormal numerics where errors live.
        2 => replace_nth(document, "\"error\": 0.", "\"error\": NaN, \"x\": 0.", 0),
        3 => replace_nth(document, "\"error\": 0.", "\"error\": 1e999, \"x\": 0.", 0),
        4 => replace_nth(document, "\"error\": 0.", "\"error\": 1e-320, \"x\": 0.", 0),
        // Missing sections.
        5 => replace_nth(document, "\"qubits\":", "\"qbits\":", 0),
        6 => replace_nth(document, "\"edges\":", "\"edgs\":", 0),
        // Device mismatch against the frame's device.
        7 => replace_nth(document, "\"device\": \"", "\"device\": \"not-", 0),
        _ => unreachable!(),
    }
}

/// One calibration-grammar corpus line: a genuine synthetic snapshot
/// (version occasionally restamped), usually mutated, sent as a
/// `calibration set` document.
fn calibration_line(rng: &mut StdRng) -> String {
    let presets = Device::preset_names();
    let name = presets[rng.gen_range(0..presets.len())];
    let device = Device::by_name(name).expect("preset names resolve");
    let mut snapshot = CalibrationSnapshot::synthetic(&device, rng.gen_range(0..64u64));
    if rng.gen_bool(0.3) {
        // Replay/stale/future versions against the high-water mark.
        snapshot = snapshot.with_version(rng.gen_range(0..5u64));
    }
    let mut document = snapshot.to_json();
    for _ in 0..rng.gen_range(0..=2u32) {
        document = calibration_mutation(&document, rng.gen_range(0..CALIBRATION_MUTATIONS));
    }
    let mut frame = Frame::new();
    if rng.gen_bool(0.5) {
        frame.push("id", rng.gen_range(0..1_000_000u64).to_string());
    }
    frame.push("type", "\"calibration\"");
    frame.push("action", "\"set\"");
    frame.push("device", escape(name));
    frame.push("snapshot", escape(&document));
    let mut line = frame.render();
    if rng.gen_bool(0.15) {
        mutate_text(&mut line, rng);
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServiceConfig;

    #[test]
    fn every_calibration_mutation_changes_the_document() {
        let device = Device::by_name("q20").expect("preset");
        let document = CalibrationSnapshot::synthetic(&device, 5).to_json();
        for arm in 0..CALIBRATION_MUTATIONS {
            let mutated = calibration_mutation(&document, arm);
            assert_ne!(mutated, document, "arm {arm} left the document unchanged");
        }
    }

    #[test]
    fn corpus_is_deterministic_per_seed() {
        let config = FuzzConfig {
            iterations: 400,
            ..FuzzConfig::default()
        };
        let a = generate_corpus(&config);
        let b = generate_corpus(&config);
        assert_eq!(a, b, "same seed must give a byte-identical corpus");
        let other = generate_corpus(&FuzzConfig { seed: 1, ..config });
        assert_ne!(a, other, "different seeds must actually vary the corpus");
    }

    #[test]
    fn corpus_lines_are_single_line() {
        let config = FuzzConfig {
            iterations: 600,
            ..FuzzConfig::default()
        };
        for line in generate_corpus(&config) {
            assert!(!line.contains('\n') && !line.contains('\r'), "{line:?}");
        }
    }

    #[test]
    fn single_grammar_configs_stay_in_family() {
        // Calibration-only corpora must be calibration frames (stats
        // probes excepted); qasm-only corpora must be route frames.
        let config = FuzzConfig {
            iterations: 120,
            grammars: vec![Grammar::Calibration],
            stats_every: 0,
            ..FuzzConfig::default()
        };
        for line in generate_corpus(&config) {
            assert!(line.contains("\"calibration\""), "{line}");
        }
        let config = FuzzConfig {
            iterations: 120,
            grammars: vec![Grammar::Qasm],
            stats_every: 0,
            ..FuzzConfig::default()
        };
        for line in generate_corpus(&config) {
            assert!(line.contains("\"route\""), "{line}");
        }
    }

    #[test]
    fn in_process_run_holds_all_invariants() {
        let config = FuzzConfig {
            iterations: 500,
            ..FuzzConfig::default()
        };
        let corpus = generate_corpus(&config);
        let service = Service::start(ServiceConfig {
            cache_capacity: 8,
            ..ServiceConfig::default()
        });
        let report = run_in_process(&corpus, &service).unwrap_or_else(|v| {
            panic!(
                "violation at line {}: {} on {:?}",
                v.index, v.message, v.input
            )
        });
        assert_eq!(report.lines, 500);
        assert!(report.tally.ok > 0, "some corpus lines must succeed");
        assert!(report.tally.error > 0, "some corpus lines must be rejected");
    }

    #[test]
    fn reports_are_reproducible() {
        let config = FuzzConfig {
            iterations: 200,
            ..FuzzConfig::default()
        };
        let corpus = generate_corpus(&config);
        let run = |corpus: &[String]| {
            let service = Service::start(ServiceConfig::default());
            run_in_process(corpus, &service).expect("clean run")
        };
        let (a, b) = (run(&corpus), run(&corpus));
        assert_eq!(a.corpus_fnv, b.corpus_fnv);
        // Cache-transparency makes even the replies byte-stable.
        assert_eq!(a.reply_fnv, b.reply_fnv);
        assert_eq!(a.tally, b.tally);
    }

    #[test]
    fn checker_flags_each_contract_break() {
        let cases = [
            ("{}", "", "empty reply"),
            (
                "{}",
                "{\"status\":\"ok\"}\n{\"status\":\"ok\"}",
                "multiple lines",
            ),
            ("{}", "{\"status\":\"ok\"", "well-formed"),
            ("{}", "{\"status\":\"busy\"}", "unknown status"),
            (
                "{\"id\":3,\"type\":\"stats\"}",
                "{\"status\":\"ok\"}",
                "id mismatch",
            ),
            ("{}", "{\"id\":3,\"status\":\"ok\"}", "id mismatch"),
            (
                "{}",
                "{\"type\":\"error\",\"status\":\"error\",\
                 \"error\":\"internal error: routing panicked\"}",
                "reached a panic",
            ),
        ];
        for (input, reply, needle) in cases {
            let err = InvariantChecker::new()
                .check(input, reply)
                .expect_err(reply);
            assert!(err.contains(needle), "`{reply}` gave `{err}`");
        }
        InvariantChecker::new()
            .check("{\"id\":3}", "{\"id\":3,\"status\":\"error\"}")
            .expect("matched ids pass");
    }

    #[test]
    fn sim_family_appears_and_holds_the_contract() {
        // The sim mutators live in the protocol and qasm families;
        // pinning the grammars keeps the mismatch-line probe stable as
        // more families join the default rotation.
        let config = FuzzConfig {
            iterations: 800,
            grammars: vec![Grammar::Protocol, Grammar::Qasm],
            ..FuzzConfig::default()
        };
        let corpus = generate_corpus(&config);
        let with_sim = corpus.iter().filter(|l| l.contains("\"sim\"")).count();
        assert!(with_sim >= 20, "only {with_sim} sim lines in 800");
        assert!(
            corpus
                .iter()
                .any(|l| l.contains("\"sim\":\"stabilizer\"") && l.contains("t q[0]")),
            "no stabilizer/T-heavy mismatch line generated"
        );
        let service = Service::start(ServiceConfig::default());
        let report = run_in_process(&corpus, &service).unwrap_or_else(|v| {
            panic!(
                "violation at line {}: {} on {:?}",
                v.index, v.message, v.input
            )
        });
        assert_eq!(report.lines, 800);
    }

    #[test]
    fn checker_rejects_silent_sim_fallback() {
        let route = "{\"type\":\"route\",\"device\":\"q5\",\"sim\":\"stabilizer\",\
                     \"circuit\":\"qreg q[2];\"}";
        // ok without reporting a backend: silent fallback.
        let err = InvariantChecker::new()
            .check(route, "{\"status\":\"ok\",\"qasm\":\"\"}")
            .expect_err("missing sim field must fail");
        assert!(err.contains("silent fallback"), "{err}");
        // ok reporting a *different* backend than the explicit request.
        let err = InvariantChecker::new()
            .check(route, "{\"status\":\"ok\",\"sim\":\"dense\",\"qasm\":\"\"}")
            .expect_err("substituted backend must fail");
        assert!(err.contains("reports `dense`"), "{err}");
        // The honest replies pass: exact match, or any backend for auto.
        InvariantChecker::new()
            .check(
                route,
                "{\"status\":\"ok\",\"sim\":\"stabilizer\",\"qasm\":\"\"}",
            )
            .expect("matching backend passes");
        let auto = route.replace("stabilizer", "auto");
        InvariantChecker::new()
            .check(
                &auto,
                "{\"status\":\"ok\",\"sim\":\"sparse\",\"qasm\":\"\"}",
            )
            .expect("auto may resolve to any backend");
        // Error replies carry no obligation; nor do sim-less routes.
        InvariantChecker::new()
            .check(route, "{\"status\":\"error\",\"error\":\"x\"}")
            .expect("error replies are fine");
    }

    #[test]
    fn proxy_family_covers_the_tier_surface_and_holds_invariants() {
        let config = FuzzConfig {
            iterations: 300,
            grammars: vec![Grammar::Proxy],
            stats_every: 16,
            ..FuzzConfig::default()
        };
        let corpus = generate_corpus(&config);
        assert!(corpus.iter().any(|l| l.contains("\"health\"")));
        assert!(corpus.iter().any(|l| l.contains("\"metrics\"")));
        // Both sides of the hashed-key boundary appear: a surface
        // variant (same canonical circuit) and a one-gate neighbor.
        assert!(
            corpus.iter().any(|l| l.contains(";   ")),
            "no whitespace variant generated"
        );
        assert!(
            corpus.iter().any(|l| l.contains("cx q[0], q[2]; h q[1];")),
            "no one-gate neighbor generated"
        );
        // The family is valid against a bare daemon too.
        let service = Service::start(ServiceConfig::default());
        let report = run_in_process(&corpus, &service).unwrap_or_else(|v| {
            panic!(
                "violation at line {}: {} on {:?}",
                v.index, v.message, v.input
            )
        });
        assert_eq!(report.lines, 300);
        assert!(report.tally.ok > 0);
    }

    #[test]
    fn checker_skips_cache_invariants_on_proxy_stats() {
        // A proxy stats reply has no cache section; the checker must
        // accept it rather than demand daemon-shaped counters.
        let mut checker = InvariantChecker::new();
        checker
            .check(
                "{\"type\":\"stats\"}",
                "{\"type\":\"stats\",\"status\":\"ok\",\"proxy\":true,\"requests\":4,\
                 \"forwarded\":3,\"retries\":1,\"failovers\":1,\"overloaded\":0,\
                 \"backends_alive\":2,\"backends_total\":3}",
            )
            .expect("proxy stats pass without a cache section");
        // The same reply without the proxy marker must fail — a daemon
        // stats reply that lost its cache section is a real bug.
        let err = InvariantChecker::new()
            .check(
                "{\"type\":\"stats\"}",
                "{\"type\":\"stats\",\"status\":\"ok\",\"requests\":4,\"routed\":3,\
                 \"errors\":1,\"overloaded\":0}",
            )
            .expect_err("daemon stats without cache must fail");
        assert!(err.contains("cache"), "{err}");
    }

    #[test]
    fn checker_enforces_metrics_flatness_and_health_shape() {
        let err = InvariantChecker::new()
            .check(
                "{\"type\":\"metrics\"}",
                "{\"type\":\"metrics\",\"status\":\"ok\",\"requests\":1,\
                 \"cache\":{\"hits\":0}}",
            )
            .expect_err("nested metrics must fail");
        assert!(err.contains("not flat"), "{err}");
        let err = InvariantChecker::new()
            .check(
                "{\"type\":\"metrics\"}",
                "{\"type\":\"metrics\",\"status\":\"ok\",\"draining\":false}",
            )
            .expect_err("metrics without requests must fail");
        assert!(err.contains("requests"), "{err}");
        let err = InvariantChecker::new()
            .check(
                "{\"type\":\"health\"}",
                "{\"type\":\"health\",\"status\":\"ok\",\"ready\":true}",
            )
            .expect_err("health without draining must fail");
        assert!(err.contains("draining"), "{err}");
        let err = InvariantChecker::new()
            .check(
                "{\"type\":\"health\"}",
                "{\"type\":\"health\",\"status\":\"ok\",\"ready\":true,\"draining\":true}",
            )
            .expect_err("ready while draining must fail");
        assert!(err.contains("ready while draining"), "{err}");
        InvariantChecker::new()
            .check(
                "{\"type\":\"health\"}",
                "{\"type\":\"health\",\"status\":\"ok\",\"ready\":false,\"draining\":true}",
            )
            .expect("a draining daemon is honestly unready");
    }

    #[test]
    fn checker_flags_counter_regressions() {
        let stats = |requests: u64, hits: u64| {
            format!(
                "{{\"type\":\"stats\",\"status\":\"ok\",\"requests\":{requests},\"routed\":0,\
                 \"errors\":0,\"overloaded\":0,\"cache\":{{\"capacity\":4,\"shards\":1,\
                 \"entries\":0,\"hits\":{hits},\"misses\":0,\"evictions\":0}}}}"
            )
        };
        let mut checker = InvariantChecker::new();
        checker.check("{}", &stats(5, 2)).expect("first probe");
        let err = checker.check("{}", &stats(4, 2)).expect_err("regressed");
        assert!(err.contains("went backwards"), "{err}");
        let mut checker = InvariantChecker::new();
        checker.check("{}", &stats(5, 2)).expect("first probe");
        let err = checker
            .check("{}", &stats(6, 9))
            .expect_err("more probes than requests");
        assert!(err.contains("probes"), "{err}");
    }

    #[test]
    fn trace_family_covers_the_surface_and_holds_invariants() {
        let config = FuzzConfig {
            iterations: 400,
            grammars: vec![Grammar::Trace],
            stats_every: 16,
            ..FuzzConfig::default()
        };
        let corpus = generate_corpus(&config);
        assert!(corpus.iter().any(|l| l.contains("\"trace\":\"req-")));
        assert!(
            corpus.iter().any(|l| l.contains("\"trace\":\"\"")),
            "no empty trace id generated"
        );
        assert!(
            corpus.iter().any(|l| l.contains(&"T".repeat(256))),
            "no oversized trace id generated"
        );
        assert!(
            corpus.iter().any(|l| l.matches("\"trace\":").count() >= 2),
            "no duplicated trace key generated"
        );
        assert!(corpus.iter().any(|l| l.contains("\"type\":\"trace\"")));
        assert!(corpus.iter().any(|l| l.contains("\"hist\":true")));
        let service = Service::start(ServiceConfig::default());
        let report = run_in_process(&corpus, &service).unwrap_or_else(|v| {
            panic!(
                "violation at line {}: {} on {:?}",
                v.index, v.message, v.input
            )
        });
        assert_eq!(report.lines, 400);
        assert!(report.tally.ok > 0);
    }

    #[test]
    fn expected_trace_mirrors_the_validity_rule() {
        assert_eq!(
            expected_trace("{\"type\":\"stats\",\"trace\":\"abc\"}"),
            Some("abc".to_string())
        );
        // Invalid ids carry no echo obligation — and must not be echoed.
        assert_eq!(expected_trace("{\"type\":\"stats\",\"trace\":\"\"}"), None);
        assert_eq!(expected_trace("{\"type\":\"stats\",\"trace\":7}"), None);
        let oversized = format!("{{\"trace\":\"{}\"}}", "x".repeat(129));
        assert_eq!(expected_trace(&oversized), None);
        let max = format!("{{\"trace\":\"{}\"}}", "x".repeat(128));
        assert_eq!(expected_trace(&max), Some("x".repeat(128)));
        assert_eq!(expected_trace("not json"), None);
    }

    #[test]
    fn checker_enforces_the_trace_echo() {
        // A valid trace id must come back verbatim...
        let err = InvariantChecker::new()
            .check(
                "{\"type\":\"stats\",\"trace\":\"abc\"}",
                "{\"type\":\"stats\",\"status\":\"ok\",\"proxy\":true,\"requests\":1,\
                 \"forwarded\":0,\"retries\":0,\"failovers\":0,\"overloaded\":0,\
                 \"backends_alive\":1,\"backends_total\":1}",
            )
            .expect_err("swallowed trace id must fail");
        assert!(err.contains("trace mismatch"), "{err}");
        // ...an invalid one must never be invented into the reply...
        let err = InvariantChecker::new()
            .check(
                "{\"type\":\"health\",\"trace\":\"\"}",
                "{\"trace\":\"\",\"type\":\"health\",\"status\":\"ok\",\
                 \"ready\":true,\"draining\":false}",
            )
            .expect_err("echoed invalid trace must fail");
        assert!(err.contains("trace mismatch"), "{err}");
        // ...and the honest echo passes.
        InvariantChecker::new()
            .check(
                "{\"type\":\"health\",\"trace\":\"abc\"}",
                "{\"trace\":\"abc\",\"type\":\"health\",\"status\":\"ok\",\
                 \"ready\":true,\"draining\":false}",
            )
            .expect("exact echo passes");
    }

    #[test]
    fn checker_enforces_histogram_monotonicity_and_bucket_sums() {
        let metrics = |total: u64, buckets: &str| {
            format!(
                "{{\"type\":\"metrics\",\"status\":\"ok\",\"requests\":1,\
                 \"hist_route_total\":{total},\"hist_route_sum_us\":10,\
                 \"hist_route_buckets\":\"{buckets}\"}}"
            )
        };
        // Buckets must sum to the total.
        let err = InvariantChecker::new()
            .check("{\"type\":\"metrics\"}", &metrics(3, "1,1,0"))
            .expect_err("bucket undercount must fail");
        assert!(err.contains("sum to 2"), "{err}");
        // Totals must not regress between probes of one daemon.
        let mut checker = InvariantChecker::new();
        checker
            .check("{\"type\":\"metrics\"}", &metrics(3, "1,1,1"))
            .expect("first probe");
        let err = checker
            .check("{\"type\":\"metrics\"}", &metrics(2, "1,1,0"))
            .expect_err("regressed total must fail");
        assert!(err.contains("went backwards"), "{err}");
    }

    #[test]
    fn minimizer_shrinks_to_the_failing_core() {
        let line = "prefix NEEDLE suffix padding padding padding";
        let shrunk = minimize(line, |candidate| candidate.contains("NEEDLE"));
        assert_eq!(shrunk, "NEEDLE");
        // Non-failing lines come back verbatim.
        assert_eq!(minimize(line, |_| false), line);
    }
}
