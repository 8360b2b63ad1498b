//! The line-delimited JSON wire protocol.
//!
//! One request per line, one response line per request, in order.
//! Requests are JSON objects dispatched on their `"type"` field:
//!
//! | request | fields | response |
//! |---|---|---|
//! | `route` | `circuit` (QASM source), `device`, optional `router` (default `codar`; `auto` routes the whole portfolio and keeps the winner), optional `alpha` (codar-cal and auto only), optional `id` | routed QASM + depth/swap/duration metrics (+ `cal_version`/`eps` when the device has an active calibration snapshot, + `chosen` for `auto` requests) |
//! | `calibration` | `device`, `action` (`get`/`set`); for `set`: `snapshot` (a calibration JSON document as a string) or `synthetic` (`{seed, drift}`) | the active snapshot / a versioned ack |
//! | `stats` | optional `id` | request/cache counters |
//! | `health` | optional `id` | readiness + draining state (a draining daemon reports `ready:false` and refuses new route work) |
//! | `metrics` | optional `id`, optional `hist` (boolean; `true` appends the log2-bucket latency histograms) | everything `stats` reports plus queue depth, in-flight gauge and per-verb counters, as scrape-friendly flat JSON |
//! | `devices` | optional `id` | the device catalog |
//! | `trace` | optional `id`, optional `n` (default 32, capped) | the last `n` span lines from the daemon's trace ring |
//! | `shutdown` | optional `id` | ack; the daemon stops serving |
//!
//! Every request additionally accepts an optional `"trace"` field — a
//! non-empty string of at most
//! [`TRACE_ID_MAX_BYTES`](crate::trace::TRACE_ID_MAX_BYTES) bytes used
//! as the request's trace id. When (and only when) a request carries a
//! valid trace id, the response echoes it right after the `id`; absent
//! the field, responses are byte-identical to the pre-tracing
//! protocol.
//!
//! Responses always carry `"status"`: `"ok"`, `"error"` or
//! `"overloaded"`. When the request had an `id`, the response echoes it
//! as its first field. **Route response bodies are cache-transparent**:
//! they never say whether they were served from the cache, so a
//! cache-enabled and a cache-disabled daemon produce byte-identical
//! response streams for the same route requests (the determinism gate);
//! cache effectiveness is observable via `stats` instead.
//!
//! Responses are emitted with hand-formatted, fixed field order — they
//! are diffed byte-for-byte by golden tests and the loadgen stream
//! checksum.

use crate::json::{escape, Json};
use crate::trace::valid_trace_id;
use codar_circuit::schedule::Time;
use codar_engine::{Backend, RouterKind};

/// Most span lines a `trace` request may ask for (`n` is clamped).
pub const TRACE_REPLY_MAX: u64 = 256;

/// Span lines a `trace` request returns when `n` is absent.
pub const TRACE_REPLY_DEFAULT: u64 = 32;

/// What a `calibration` request does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CalAction {
    /// Inspect the active snapshot.
    Get,
    /// Replace the active snapshot.
    Set,
}

/// How a `calibration set` provides the new snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum CalPayload {
    /// A full calibration JSON document, carried as a string (the same
    /// convention as the `circuit` field carrying QASM).
    Document(String),
    /// Server-generated synthetic snapshot: seed + drift steps.
    Synthetic {
        /// Generator seed.
        seed: u64,
        /// Drift steps applied after generation.
        drift: usize,
    },
}

/// Why a request line was rejected, plus the correlation id and trace
/// id when they could still be recovered from the line (a well-formed
/// JSON object with a well-formed `id`/`trace`). Carrying them here
/// lets the server echo both without re-parsing the line — on hostile
/// near-valid megabyte lines a second parse doubles the rejection
/// cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRejection {
    /// The `id` recovered from the rejected line, if any.
    pub id: Option<u64>,
    /// The valid `trace` id recovered from the rejected line, if any
    /// (an ill-formed trace value is never echoed).
    pub trace: Option<String>,
    /// Human-readable rejection reason.
    pub message: String,
}

impl ParseRejection {
    fn new(id: Option<u64>, trace: Option<String>, message: impl Into<String>) -> Self {
        ParseRejection {
            id,
            trace,
            message: message.into(),
        }
    }
}

/// A parsed request line plus its transport-level trace id. The trace
/// id rides outside [`Request`] because it belongs to the request's
/// *journey* (span correlation), not its semantics — two requests that
/// differ only in trace id are the same request, hit the same cache
/// entry, and route identically.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// The request itself.
    pub request: Request,
    /// The validated trace id, when the line carried one.
    pub trace: Option<String>,
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Route a QASM circuit on a named device.
    Route {
        /// Client-chosen correlation id, echoed in the response.
        id: Option<u64>,
        /// Target device name (see `codar_arch::Device::by_name`).
        device: String,
        /// Router to use.
        router: RouterKind,
        /// Calibration blend weight (`codar-cal` only; default 0.5).
        alpha: Option<f64>,
        /// Simulation backend for the differential routed-vs-original
        /// check (`None` = no simulation; the reply then carries no
        /// `sim` field, keeping pre-existing replies byte-identical).
        sim: Option<Backend>,
        /// OpenQASM 2.0 source of the circuit.
        qasm: String,
    },
    /// Inspect or replace a device's active calibration snapshot.
    Calibration {
        /// Echoed correlation id.
        id: Option<u64>,
        /// Target device name.
        device: String,
        /// Get or set.
        action: CalAction,
        /// The new snapshot (`set` only).
        payload: Option<CalPayload>,
    },
    /// Request/cache counters.
    Stats {
        /// Echoed correlation id.
        id: Option<u64>,
    },
    /// Readiness + draining state.
    Health {
        /// Echoed correlation id.
        id: Option<u64>,
    },
    /// Flat scrape-friendly counters (the `stats` superset).
    Metrics {
        /// Echoed correlation id.
        id: Option<u64>,
        /// Append the log2-bucket latency histograms. Opt-in because
        /// the plain `metrics` body is byte-frozen by golden fixtures.
        hist: bool,
    },
    /// The device catalog.
    Devices {
        /// Echoed correlation id.
        id: Option<u64>,
    },
    /// The last `n` span lines from the daemon's trace ring.
    Trace {
        /// Echoed correlation id.
        id: Option<u64>,
        /// How many span lines to return (default
        /// [`TRACE_REPLY_DEFAULT`], clamped to [`TRACE_REPLY_MAX`]).
        n: Option<u64>,
    },
    /// Stop serving after replying.
    Shutdown {
        /// Echoed correlation id.
        id: Option<u64>,
    },
}

impl Request {
    /// Parses one NDJSON request line, dropping the envelope. Prefer
    /// [`Request::parse_envelope`] when the trace id matters; this
    /// shorthand keeps call sites that only care about semantics
    /// simple.
    ///
    /// # Errors
    ///
    /// Exactly those of [`Request::parse_envelope`].
    pub fn parse_line(line: &str) -> Result<Request, ParseRejection> {
        Request::parse_envelope(line).map(|envelope| envelope.request)
    }

    /// Parses one NDJSON request line into the request plus its
    /// optional trace id.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseRejection`] — a human-readable message for
    /// malformed JSON, a missing or unknown `type`, missing or
    /// ill-typed fields, or an invalid `trace` value — together with
    /// the recovered `id` and valid `trace` (when the line was at
    /// least a JSON object carrying well-formed ones) so the server
    /// can echo both without parsing the line a second time.
    pub fn parse_envelope(line: &str) -> Result<Envelope, ParseRejection> {
        let value = Json::parse(line)
            .map_err(|e| ParseRejection::new(None, None, format!("malformed JSON: {e}")))?;
        // Recovered once, up front: rejected lines echo these so
        // clients can correlate the rejection.
        let recovered_id = value.get("id").and_then(Json::as_u64);
        let recovered_trace = value
            .get("trace")
            .and_then(Json::as_str)
            .filter(|t| valid_trace_id(t))
            .map(str::to_string);
        let reject = |message| ParseRejection::new(recovered_id, recovered_trace.clone(), message);
        let trace = match value.get("trace") {
            None | Some(Json::Null) => None,
            Some(v) => {
                let id = v
                    .as_str()
                    .ok_or_else(|| reject("`trace` must be a string".to_string()))?;
                if !valid_trace_id(id) {
                    return Err(reject(format!(
                        "`trace` must be a non-empty string of at most {} bytes",
                        crate::trace::TRACE_ID_MAX_BYTES
                    )));
                }
                Some(id.to_string())
            }
        };
        let request = Request::parse_value(&value).map_err(|message| reject(message))?;
        Ok(Envelope { request, trace })
    }

    /// The structural half of [`Request::parse_line`]: dispatches an
    /// already-parsed JSON value.
    fn parse_value(value: &Json) -> Result<Request, String> {
        if !matches!(value, Json::Obj(_)) {
            return Err("request must be a JSON object".into());
        }
        let id = match value.get("id") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_u64()
                    .ok_or_else(|| "`id` must be a non-negative integer".to_string())?,
            ),
        };
        let kind = value
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| "missing `type` field".to_string())?;
        match kind {
            "route" => {
                let device = value
                    .get("device")
                    .and_then(Json::as_str)
                    .ok_or_else(|| "route request needs a `device` string".to_string())?
                    .to_string();
                let qasm = value
                    .get("circuit")
                    .and_then(Json::as_str)
                    .ok_or_else(|| "route request needs a `circuit` string".to_string())?
                    .to_string();
                let router = match value.get("router") {
                    None | Some(Json::Null) => RouterKind::Codar,
                    Some(v) => {
                        let name = v
                            .as_str()
                            .ok_or_else(|| "`router` must be a string".to_string())?;
                        RouterKind::parse(name).ok_or_else(|| format!("unknown router `{name}`"))?
                    }
                };
                let alpha = match value.get("alpha") {
                    None | Some(Json::Null) => None,
                    Some(v) => {
                        let alpha = v
                            .as_f64()
                            .filter(|a| a.is_finite() && (0.0..=8.0).contains(a))
                            .ok_or_else(|| "`alpha` must be a number in [0, 8]".to_string())?;
                        // `auto` legitimately carries codar-cal
                        // portfolio members, so alpha configures them;
                        // for plain fixed routers it stays an error.
                        if router != RouterKind::CodarCal && router != RouterKind::Portfolio {
                            return Err(format!(
                                "`alpha` is only meaningful for router `codar-cal` or `auto`, \
                                 not `{}`",
                                router.name()
                            ));
                        }
                        Some(alpha)
                    }
                };
                let sim = match value.get("sim") {
                    None | Some(Json::Null) => None,
                    Some(v) => {
                        let name = v
                            .as_str()
                            .ok_or_else(|| "`sim` must be a string".to_string())?;
                        Some(
                            Backend::parse(name)
                                .ok_or_else(|| format!("unknown simulation backend `{name}`"))?,
                        )
                    }
                };
                Ok(Request::Route {
                    id,
                    device,
                    router,
                    alpha,
                    sim,
                    qasm,
                })
            }
            "calibration" => {
                let device = value
                    .get("device")
                    .and_then(Json::as_str)
                    .ok_or_else(|| "calibration request needs a `device` string".to_string())?
                    .to_string();
                let action = match value.get("action").and_then(Json::as_str) {
                    Some("get") => CalAction::Get,
                    Some("set") => CalAction::Set,
                    Some(other) => return Err(format!("unknown calibration action `{other}`")),
                    None => return Err("calibration request needs an `action` string".to_string()),
                };
                let payload = match (value.get("snapshot"), value.get("synthetic")) {
                    (Some(_), Some(_)) => {
                        return Err("pass `snapshot` or `synthetic`, not both".to_string())
                    }
                    (Some(doc), None) => Some(CalPayload::Document(
                        doc.as_str()
                            .ok_or_else(|| {
                                "`snapshot` must be a string holding a calibration JSON document"
                                    .to_string()
                            })?
                            .to_string(),
                    )),
                    (None, Some(synth)) => {
                        let seed = synth
                            .get("seed")
                            .and_then(Json::as_u64)
                            .ok_or_else(|| "`synthetic` needs a `seed` integer".to_string())?;
                        let drift = match synth.get("drift") {
                            None | Some(Json::Null) => 0,
                            Some(v) => {
                                usize::try_from(v.as_u64().filter(|&d| d <= 1024).ok_or_else(
                                    || "`drift` must be an integer in [0, 1024]".to_string(),
                                )?)
                                .expect("<= 1024 fits usize")
                            }
                        };
                        Some(CalPayload::Synthetic { seed, drift })
                    }
                    (None, None) => None,
                };
                match (action, &payload) {
                    (CalAction::Get, Some(_)) => {
                        Err("calibration get takes no `snapshot`/`synthetic`".to_string())
                    }
                    (CalAction::Set, None) => {
                        Err("calibration set needs `snapshot` or `synthetic`".to_string())
                    }
                    _ => Ok(Request::Calibration {
                        id,
                        device,
                        action,
                        payload,
                    }),
                }
            }
            "stats" => Ok(Request::Stats { id }),
            "health" => Ok(Request::Health { id }),
            "metrics" => {
                let hist = match value.get("hist") {
                    None | Some(Json::Null) => false,
                    Some(v) => v
                        .as_bool()
                        .ok_or_else(|| "`hist` must be a boolean".to_string())?,
                };
                Ok(Request::Metrics { id, hist })
            }
            "devices" => Ok(Request::Devices { id }),
            "trace" => {
                let n = match value.get("n") {
                    None | Some(Json::Null) => None,
                    Some(v) => Some(
                        v.as_u64()
                            .ok_or_else(|| "`n` must be a non-negative integer".to_string())?,
                    ),
                };
                Ok(Request::Trace { id, n })
            }
            "shutdown" => Ok(Request::Shutdown { id }),
            other => Err(format!("unknown request type `{other}`")),
        }
    }

    /// The correlation id, for any request kind.
    pub fn id(&self) -> Option<u64> {
        match self {
            Request::Route { id, .. }
            | Request::Calibration { id, .. }
            | Request::Stats { id }
            | Request::Health { id }
            | Request::Metrics { id, .. }
            | Request::Devices { id }
            | Request::Trace { id, .. }
            | Request::Shutdown { id } => *id,
        }
    }

    /// The verb name of this request, matching
    /// [`crate::metrics::VERB_NAMES`] — the root span's name and the
    /// per-verb latency histogram key.
    pub fn verb(&self) -> &'static str {
        match self {
            Request::Route { .. } => "route",
            Request::Calibration { .. } => "calibration",
            Request::Stats { .. } => "stats",
            Request::Health { .. } => "health",
            Request::Metrics { .. } => "metrics",
            Request::Devices { .. } => "devices",
            Request::Trace { .. } => "trace",
            Request::Shutdown { .. } => "shutdown",
        }
    }
}

/// Everything a successful `route` reply reports.
#[derive(Debug, Clone)]
pub struct RouteOutcome {
    /// Device the circuit was routed on.
    pub device: String,
    /// Router that produced the result.
    pub router: RouterKind,
    /// Qubits used by the input circuit.
    pub qubits: usize,
    /// Input gate count (after ≤2-qubit decomposition).
    pub input_gates: usize,
    /// Weighted depth (schedule makespan) of the routed circuit.
    pub weighted_depth: Time,
    /// Unweighted depth of the routed circuit.
    pub depth: usize,
    /// SWAPs inserted by the router.
    pub swaps: usize,
    /// Output gate count.
    pub output_gates: usize,
    /// Active-snapshot context: `(snapshot version, EPS of the routed
    /// circuit under it)`. `None` when the device has no active
    /// calibration snapshot — the body is then byte-identical to the
    /// pre-calibration protocol.
    pub calibration: Option<(u64, f64)>,
    /// Resolved simulation backend of the differential
    /// routed-vs-original check. Present exactly when the request asked
    /// for one (`"sim"` field) — including dense resolutions, so a
    /// client can always see which engine actually verified its
    /// circuit (never a silent fallback). `None` keeps the body
    /// byte-identical to the pre-simulation protocol.
    pub sim: Option<String>,
    /// Winning portfolio member label (`auto` requests only). `None`
    /// keeps fixed-router bodies byte-identical to the pre-portfolio
    /// protocol.
    pub chosen: Option<String>,
    /// Routed circuit as OpenQASM 2.0 (physical qubit indices).
    pub qasm: String,
}

impl RouteOutcome {
    /// The response body (no `id`; see [`attach_id`]).
    ///
    /// `eps` is formatted with `{}` — Rust's shortest round-trip f64
    /// form (never scientific notation), the same discipline as the
    /// calibration JSON writer — so a client re-parsing the reply
    /// recovers the bit-identical f64. A fixed `{:.6}` would collapse
    /// distinct EPS values, which portfolio win decisions and the
    /// alphasweep deltas (order 1e-3) cannot afford.
    pub fn body(&self) -> String {
        let cal = match self.calibration {
            Some((version, eps)) => format!(",\"cal_version\":{version},\"eps\":{eps}"),
            None => String::new(),
        };
        let sim = match &self.sim {
            Some(backend) => format!(",\"sim\":{}", escape(backend)),
            None => String::new(),
        };
        let chosen = match &self.chosen {
            Some(label) => format!(",\"chosen\":{}", escape(label)),
            None => String::new(),
        };
        format!(
            "{{\"type\":\"route\",\"status\":\"ok\",\"device\":{},\"router\":{},\
             \"qubits\":{},\"input_gates\":{},\"weighted_depth\":{},\"depth\":{},\
             \"swaps\":{},\"output_gates\":{},\"verified\":true{}{}{},\"qasm\":{}}}",
            escape(&self.device),
            escape(self.router.name()),
            self.qubits,
            self.input_gates,
            self.weighted_depth,
            self.depth,
            self.swaps,
            self.output_gates,
            cal,
            sim,
            chosen,
            escape(&self.qasm),
        )
    }
}

/// The `calibration get` response body: the active snapshot (carried
/// as a JSON document in a string, the inverse of the `set`
/// convention) or `null` with version 0.
pub fn calibration_get_body(device: &str, snapshot: Option<(u64, &str)>) -> String {
    match snapshot {
        Some((version, document)) => format!(
            "{{\"type\":\"calibration\",\"status\":\"ok\",\"device\":{},\
             \"version\":{version},\"snapshot\":{}}}",
            escape(device),
            escape(document),
        ),
        None => format!(
            "{{\"type\":\"calibration\",\"status\":\"ok\",\"device\":{},\
             \"version\":0,\"snapshot\":null}}",
            escape(device),
        ),
    }
}

/// The `calibration set` acknowledgement: the now-active version and
/// whether a previous snapshot was replaced.
pub fn calibration_set_body(device: &str, version: u64, replaced: bool) -> String {
    format!(
        "{{\"type\":\"calibration\",\"status\":\"ok\",\"device\":{},\
         \"version\":{version},\"replaced\":{replaced}}}",
        escape(device),
    )
}

/// An error response body.
pub fn error_body(message: &str) -> String {
    format!(
        "{{\"type\":\"error\",\"status\":\"error\",\"error\":{}}}",
        escape(message)
    )
}

/// The backpressure response body: the bounded request queue was full.
pub fn overloaded_body() -> String {
    "{\"type\":\"error\",\"status\":\"overloaded\",\
     \"error\":\"request queue full, retry later\"}"
        .to_string()
}

/// The `shutdown` acknowledgement body.
pub fn shutdown_body() -> String {
    "{\"type\":\"shutdown\",\"status\":\"ok\"}".to_string()
}

/// Splices the echoed request `id` in front of a response body.
pub fn attach_id(id: Option<u64>, body: &str) -> String {
    match id {
        None => body.to_string(),
        Some(id) => {
            debug_assert!(body.starts_with('{'));
            format!("{{\"id\":{id},{}", &body[1..])
        }
    }
}

/// Splices the echoed `trace` id in front of a response body. Applied
/// *before* [`attach_id`], so an id-carrying traced reply reads
/// `{"id":N,"trace":"...",...}` — the id stays the first field, as the
/// pre-tracing protocol promised.
pub fn attach_trace(trace: Option<&str>, body: &str) -> String {
    match trace {
        None => body.to_string(),
        Some(trace) => {
            debug_assert!(body.starts_with('{'));
            format!("{{\"trace\":{},{}", escape(trace), &body[1..])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_route_requests() {
        let req = Request::parse_line(
            r#"{"type":"route","id":3,"device":"q20","router":"sabre","circuit":"qreg q[1];"}"#,
        )
        .unwrap();
        assert_eq!(
            req,
            Request::Route {
                id: Some(3),
                device: "q20".into(),
                router: RouterKind::Sabre,
                alpha: None,
                sim: None,
                qasm: "qreg q[1];".into(),
            }
        );
        assert_eq!(req.id(), Some(3));
    }

    /// The daemon surface and the engine CLI share one router-name
    /// parser ([`RouterKind::parse`]); this drives the daemon's route
    /// parse through the full canonical name table — every
    /// `RouterKind::ALL` name, the alias set, and case variants — so
    /// the two surfaces cannot drift apart.
    #[test]
    fn daemon_accepts_every_canonical_router_name_and_alias() {
        let cases: Vec<(String, RouterKind)> = RouterKind::ALL
            .iter()
            .flat_map(|&kind| {
                [
                    (kind.name().to_string(), kind),
                    (kind.name().to_ascii_uppercase(), kind),
                ]
            })
            .chain([
                ("codar_cal".to_string(), RouterKind::CodarCal),
                ("codarcal".to_string(), RouterKind::CodarCal),
                ("portfolio".to_string(), RouterKind::Portfolio),
                ("Portfolio".to_string(), RouterKind::Portfolio),
            ])
            .collect();
        for (name, expected) in cases {
            let line = format!(
                r#"{{"type":"route","device":"q20","router":"{name}","circuit":"qreg q[1];"}}"#
            );
            match Request::parse_line(&line)
                .unwrap_or_else(|e| panic!("`{name}` rejected: {}", e.message))
            {
                Request::Route { router, .. } => {
                    assert_eq!(router, expected, "`{name}` parsed to the wrong kind")
                }
                other => panic!("unexpected request for `{name}`: {other:?}"),
            }
        }
        // Near-misses stay rejected on this surface exactly like on
        // the CLI: the shared parser does not trim or fuzzy-match.
        for bad in ["auto ", " auto", "portfolio!", "codar cal", "best"] {
            let line = format!(
                r#"{{"type":"route","device":"q20","router":"{bad}","circuit":"qreg q[1];"}}"#
            );
            let err = Request::parse_line(&line).expect_err("near-miss must be rejected");
            assert!(
                err.message.contains("unknown router"),
                "`{bad}` -> {}",
                err.message
            );
        }
    }

    #[test]
    fn parses_codar_cal_routes_with_alpha() {
        let req = Request::parse_line(
            r#"{"type":"route","device":"q20","router":"codar-cal","alpha":0.25,"circuit":"qreg q[1];"}"#,
        )
        .unwrap();
        match req {
            Request::Route { router, alpha, .. } => {
                assert_eq!(router, RouterKind::CodarCal);
                assert_eq!(alpha, Some(0.25));
            }
            other => panic!("unexpected {other:?}"),
        }
        // alpha with `auto` configures the portfolio's codar-cal
        // members instead of erroring.
        let req = Request::parse_line(
            r#"{"type":"route","device":"q20","router":"auto","alpha":0.25,"circuit":"qreg q[1];"}"#,
        )
        .unwrap();
        match req {
            Request::Route { router, alpha, .. } => {
                assert_eq!(router, RouterKind::Portfolio);
                assert_eq!(alpha, Some(0.25));
            }
            other => panic!("unexpected {other:?}"),
        }
        // alpha on plain fixed routers is rejected (default codar,
        // explicit sabre/greedy alike); out-of-range too.
        for (line, needle) in [
            (
                r#"{"type":"route","device":"q20","alpha":0.5,"circuit":"x"}"#,
                "only meaningful for router `codar-cal` or `auto`",
            ),
            (
                r#"{"type":"route","device":"q20","router":"sabre","alpha":0.5,"circuit":"x"}"#,
                "only meaningful for router `codar-cal` or `auto`",
            ),
            (
                r#"{"type":"route","device":"q20","router":"greedy","alpha":0.5,"circuit":"x"}"#,
                "only meaningful for router `codar-cal` or `auto`",
            ),
            (
                r#"{"type":"route","device":"q20","router":"codar-cal","alpha":-1,"circuit":"x"}"#,
                "`alpha` must be a number",
            ),
            (
                r#"{"type":"route","device":"q20","router":"codar-cal","alpha":"big","circuit":"x"}"#,
                "`alpha` must be a number",
            ),
        ] {
            let err = Request::parse_line(line).expect_err(line);
            assert!(err.message.contains(needle), "`{line}` gave `{err:?}`");
        }
    }

    #[test]
    fn parses_route_sim_field() {
        for (name, backend) in [
            ("auto", Backend::Auto),
            ("dense", Backend::Dense),
            ("stabilizer", Backend::Stabilizer),
            ("sparse", Backend::Sparse),
        ] {
            let line = format!(
                r#"{{"type":"route","device":"q20","sim":"{name}","circuit":"qreg q[1];"}}"#
            );
            match Request::parse_line(&line).unwrap() {
                Request::Route { sim, .. } => assert_eq!(sim, Some(backend), "{name}"),
                other => panic!("unexpected {other:?}"),
            }
        }
        // Null and absent both mean "no simulation".
        let line = r#"{"type":"route","device":"q20","sim":null,"circuit":"qreg q[1];"}"#;
        match Request::parse_line(line).unwrap() {
            Request::Route { sim, .. } => assert_eq!(sim, None),
            other => panic!("unexpected {other:?}"),
        }
        // Unknown names and non-strings are parse errors.
        for (line, needle) in [
            (
                r#"{"type":"route","device":"q20","sim":"gpu","circuit":"x"}"#,
                "unknown simulation backend `gpu`",
            ),
            (
                r#"{"type":"route","device":"q20","sim":7,"circuit":"x"}"#,
                "`sim` must be a string",
            ),
        ] {
            let err = Request::parse_line(line).expect_err(line);
            assert!(err.message.contains(needle), "`{line}` gave `{err:?}`");
        }
    }

    #[test]
    fn parses_calibration_requests() {
        assert_eq!(
            Request::parse_line(r#"{"type":"calibration","action":"get","device":"q5","id":2}"#)
                .unwrap(),
            Request::Calibration {
                id: Some(2),
                device: "q5".into(),
                action: CalAction::Get,
                payload: None,
            }
        );
        assert_eq!(
            Request::parse_line(
                r#"{"type":"calibration","action":"set","device":"q5","synthetic":{"seed":42,"drift":2}}"#
            )
            .unwrap(),
            Request::Calibration {
                id: None,
                device: "q5".into(),
                action: CalAction::Set,
                payload: Some(CalPayload::Synthetic { seed: 42, drift: 2 }),
            }
        );
        assert_eq!(
            Request::parse_line(
                r#"{"type":"calibration","action":"set","device":"q5","snapshot":"{...}"}"#
            )
            .unwrap(),
            Request::Calibration {
                id: None,
                device: "q5".into(),
                action: CalAction::Set,
                payload: Some(CalPayload::Document("{...}".into())),
            }
        );
        for (line, needle) in [
            (r#"{"type":"calibration","action":"get"}"#, "`device`"),
            (r#"{"type":"calibration","device":"q5"}"#, "`action`"),
            (
                r#"{"type":"calibration","action":"drop","device":"q5"}"#,
                "unknown calibration action",
            ),
            (
                r#"{"type":"calibration","action":"set","device":"q5"}"#,
                "needs `snapshot` or `synthetic`",
            ),
            (
                r#"{"type":"calibration","action":"get","device":"q5","synthetic":{"seed":1}}"#,
                "takes no",
            ),
            (
                r#"{"type":"calibration","action":"set","device":"q5","snapshot":"a","synthetic":{"seed":1}}"#,
                "not both",
            ),
            (
                r#"{"type":"calibration","action":"set","device":"q5","synthetic":{"drift":1}}"#,
                "`seed`",
            ),
            (
                r#"{"type":"calibration","action":"set","device":"q5","synthetic":{"seed":1,"drift":9999}}"#,
                "`drift`",
            ),
        ] {
            let err = Request::parse_line(line).expect_err(line);
            assert!(err.message.contains(needle), "`{line}` gave `{err:?}`");
        }
    }

    #[test]
    fn calibration_bodies_are_well_formed() {
        let get_some = calibration_get_body("q5", Some((3, "{\"k\":1}\n")));
        let get_none = calibration_get_body("q5", None);
        let set = calibration_set_body("q5", 4, true);
        for body in [&get_some, &get_none, &set] {
            assert!(!body.contains('\n'), "{body}");
            let parsed = Json::parse(body).expect(body);
            assert_eq!(parsed.get("status").and_then(Json::as_str), Some("ok"));
        }
        assert!(get_some.contains("\"version\":3"));
        assert!(get_none.contains("\"snapshot\":null"));
        assert!(set.contains("\"replaced\":true"));
    }

    #[test]
    fn router_defaults_to_codar_and_id_is_optional() {
        let req = Request::parse_line(r#"{"type":"route","device":"q5","circuit":"qreg q[1];"}"#)
            .unwrap();
        match req {
            Request::Route { id, router, .. } => {
                assert_eq!(id, None);
                assert_eq!(router, RouterKind::Codar);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_control_requests() {
        assert_eq!(
            Request::parse_line(r#"{"type":"stats"}"#).unwrap(),
            Request::Stats { id: None }
        );
        assert_eq!(
            Request::parse_line(r#"{"type":"devices","id":9}"#).unwrap(),
            Request::Devices { id: Some(9) }
        );
        assert_eq!(
            Request::parse_line(r#"{"type":"health","id":4}"#).unwrap(),
            Request::Health { id: Some(4) }
        );
        assert_eq!(
            Request::parse_line(r#"{"type":"metrics"}"#).unwrap(),
            Request::Metrics {
                id: None,
                hist: false
            }
        );
        assert_eq!(
            Request::parse_line(r#"{"type":"metrics","hist":true,"id":5}"#).unwrap(),
            Request::Metrics {
                id: Some(5),
                hist: true
            }
        );
        assert_eq!(
            Request::parse_line(r#"{"type":"trace"}"#).unwrap(),
            Request::Trace { id: None, n: None }
        );
        assert_eq!(
            Request::parse_line(r#"{"type":"trace","n":8,"id":2}"#).unwrap(),
            Request::Trace {
                id: Some(2),
                n: Some(8)
            }
        );
        for (line, needle) in [
            (r#"{"type":"metrics","hist":1}"#, "`hist` must be a boolean"),
            (
                r#"{"type":"trace","n":-3}"#,
                "`n` must be a non-negative integer",
            ),
            (
                r#"{"type":"trace","n":"all"}"#,
                "`n` must be a non-negative integer",
            ),
        ] {
            let err = Request::parse_line(line).expect_err(line);
            assert!(err.message.contains(needle), "`{line}` gave `{err:?}`");
        }
        assert_eq!(
            Request::parse_line(r#"{"type":"shutdown"}"#).unwrap(),
            Request::Shutdown { id: None }
        );
    }

    #[test]
    fn trace_envelope_rides_every_verb() {
        let envelope = Request::parse_envelope(r#"{"type":"stats","trace":"abc","id":4}"#).unwrap();
        assert_eq!(envelope.trace.as_deref(), Some("abc"));
        assert_eq!(envelope.request, Request::Stats { id: Some(4) });
        // Absent and null both mean untraced; the request is unchanged.
        for line in [r#"{"type":"stats"}"#, r#"{"type":"stats","trace":null}"#] {
            let envelope = Request::parse_envelope(line).unwrap();
            assert_eq!(envelope.trace, None, "{line}");
        }
        // parse_line drops the envelope but applies the same checks.
        assert_eq!(
            Request::parse_line(r#"{"type":"stats","trace":"abc"}"#).unwrap(),
            Request::Stats { id: None }
        );
    }

    #[test]
    fn invalid_trace_values_are_rejected_and_not_echoed() {
        for (line, needle) in [
            (r#"{"type":"stats","trace":""}"#, "non-empty string"),
            (r#"{"type":"stats","trace":7}"#, "`trace` must be a string"),
            (
                r#"{"type":"stats","trace":{"a":1}}"#,
                "`trace` must be a string",
            ),
        ] {
            let err = Request::parse_envelope(line).expect_err(line);
            assert!(err.message.contains(needle), "`{line}` gave `{err:?}`");
            assert_eq!(err.trace, None, "invalid trace must not be echoed");
        }
        let long = format!(
            r#"{{"type":"stats","trace":"{}"}}"#,
            "x".repeat(crate::trace::TRACE_ID_MAX_BYTES + 1)
        );
        let err = Request::parse_envelope(&long).expect_err("oversized trace");
        assert!(err.message.contains("at most"), "{err:?}");
        assert_eq!(err.trace, None);
        // A *valid* trace on an otherwise-rejected line is recovered
        // for echoing, exactly like the id.
        let err = Request::parse_envelope(r#"{"type":"fly","trace":"t-9","id":3}"#)
            .expect_err("unknown type");
        assert_eq!(err.id, Some(3));
        assert_eq!(err.trace.as_deref(), Some("t-9"));
    }

    #[test]
    fn attach_trace_splices_behind_the_id() {
        let body = shutdown_body();
        assert_eq!(attach_trace(None, &body), body);
        let traced = attach_trace(Some("t-1"), &body);
        assert!(traced.starts_with("{\"trace\":\"t-1\",\"type\":\"shutdown\""));
        let both = attach_id(Some(9), &traced);
        assert!(both.starts_with("{\"id\":9,\"trace\":\"t-1\",\"type\":\"shutdown\""));
        let parsed = Json::parse(&both).expect("traced reply parses");
        assert_eq!(parsed.get("trace").and_then(Json::as_str), Some("t-1"));
        assert_eq!(parsed.get("id").and_then(Json::as_u64), Some(9));
    }

    #[test]
    fn rejects_malformed_requests() {
        for (line, needle) in [
            ("{oops", "malformed JSON"),
            ("[1]", "must be a JSON object"),
            (r#"{"device":"q20"}"#, "missing `type`"),
            (r#"{"type":"fly"}"#, "unknown request type"),
            (r#"{"type":"route","device":"q20"}"#, "`circuit`"),
            (r#"{"type":"route","circuit":"x"}"#, "`device`"),
            (
                r#"{"type":"route","device":"q20","circuit":"x","router":"qiskit"}"#,
                "unknown router",
            ),
            (r#"{"type":"stats","id":-1}"#, "`id`"),
            (r#"{"type":"stats","id":1.5}"#, "`id`"),
            (r#"{"type":"stats","id":1e999}"#, "malformed JSON"),
        ] {
            let err = Request::parse_line(line).expect_err(line);
            assert!(err.message.contains(needle), "`{line}` gave `{err:?}`");
        }
    }

    #[test]
    fn bodies_are_single_lines_with_ids_spliced() {
        let mut outcome = RouteOutcome {
            device: "q20".into(),
            router: RouterKind::Codar,
            qubits: 3,
            input_gates: 5,
            weighted_depth: 42,
            depth: 6,
            swaps: 1,
            output_gates: 6,
            calibration: None,
            sim: None,
            chosen: None,
            qasm: "OPENQASM 2.0;\nqreg q[3];\n".into(),
        };
        let body = outcome.body();
        assert!(!body.contains('\n'), "NDJSON bodies must be one line");
        assert!(body.contains("\"verified\":true"));
        assert!(body.contains("\\n"), "QASM newlines must be escaped");
        // Without a snapshot the body carries no calibration fields
        // (pre-calibration byte compatibility); with one it does.
        assert!(!body.contains("cal_version"));
        outcome.calibration = Some((7, 0.75));
        let cal_body = outcome.body();
        assert!(
            cal_body.contains("\"cal_version\":7,\"eps\":0.75"),
            "{cal_body}"
        );
        // The sim field rides between the calibration fields and the
        // QASM, only when the request asked for simulation.
        assert!(!cal_body.contains("\"sim\""));
        outcome.sim = Some("stabilizer".into());
        let sim_body = outcome.body();
        assert!(
            sim_body.contains("\"eps\":0.75,\"sim\":\"stabilizer\",\"qasm\""),
            "{sim_body}"
        );
        // The chosen field trails sim, only on portfolio replies.
        assert!(!sim_body.contains("\"chosen\""));
        outcome.chosen = Some("codar-cal".into());
        let chosen_body = outcome.body();
        assert!(
            chosen_body.contains("\"sim\":\"stabilizer\",\"chosen\":\"codar-cal\",\"qasm\""),
            "{chosen_body}"
        );
        outcome.calibration = None;
        outcome.sim = None;
        outcome.chosen = None;
        let with = attach_id(Some(7), &body);
        assert!(with.starts_with("{\"id\":7,\"type\":\"route\""));
        assert_eq!(attach_id(None, &body), body);
        // Every body kind parses back as JSON.
        for b in [
            body,
            error_body("boom \"quoted\""),
            overloaded_body(),
            shutdown_body(),
        ] {
            let parsed = Json::parse(&b).expect(&b);
            assert!(parsed.get("status").is_some());
        }
    }

    /// Regression for the lossy `{:.6}` eps formatting: every reply's
    /// `eps` must re-parse to the bit-identical f64, including values
    /// whose 6-decimal roundings collide and extremes whose shortest
    /// form must still avoid scientific notation.
    #[test]
    fn reply_eps_re_parses_bit_identical() {
        for eps in [
            0.75,
            0.834782,
            0.123456789012345,
            0.1234567,
            0.12345674, // collides with the line above under {:.6}
            1.0,
            0.000001234,
            f64::MIN_POSITIVE,
            1.0 - f64::EPSILON,
        ] {
            let outcome = RouteOutcome {
                device: "q20".into(),
                router: RouterKind::CodarCal,
                qubits: 3,
                input_gates: 5,
                weighted_depth: 42,
                depth: 6,
                swaps: 1,
                output_gates: 6,
                calibration: Some((3, eps)),
                sim: None,
                chosen: None,
                qasm: "qreg q[3];".into(),
            };
            let body = outcome.body();
            let parsed = Json::parse(&body).expect(&body);
            let round_tripped = parsed.get("eps").and_then(Json::as_f64).expect(&body);
            assert_eq!(
                round_tripped.to_bits(),
                eps.to_bits(),
                "eps {eps:?} lost precision through the reply: {body}"
            );
            assert!(
                !body.contains("\"eps\":-") && !body.to_lowercase().contains("e-"),
                "shortest form must stay plain decimal: {body}"
            );
        }
        // Two alphas closer than 1e-6 produce distinct reply bytes now.
        let at = |eps: f64| RouteOutcome {
            device: "q20".into(),
            router: RouterKind::CodarCal,
            qubits: 3,
            input_gates: 5,
            weighted_depth: 42,
            depth: 6,
            swaps: 1,
            output_gates: 6,
            calibration: Some((3, eps)),
            sim: None,
            chosen: None,
            qasm: "qreg q[3];".into(),
        };
        assert_ne!(at(0.1234567).body(), at(0.12345674).body());
    }
}
