//! The sharded front tier: `codar-proxy`.
//!
//! A [`Proxy`] is a *stateless* NDJSON front end over N backend
//! `coded` instances. Route requests are placed by **rendezvous (HRW)
//! hashing** of the canonical route identity — the same circuit
//! canonicalization the backends key their result caches on — so
//! identical requests always land on the same shard (cache locality
//! for free), and when a shard dies only *its* keyspace moves to the
//! survivors; everyone else's cache stays hot.
//!
//! Per request the proxy runs a bounded retry loop: pick the best
//! alive shard, forward with connect/read timeouts, and on any
//! transport failure (connect refused, read timeout, EOF, torn frame)
//! or a `draining` refusal, mark the shard down, back off with capped
//! exponential backoff + deterministic seeded jitter, and re-pick
//! among the survivors. The health flags are only a fast path: when
//! the whole fleet looks dead the loop keeps reconnecting
//! optimistically (a connect attempt is itself a probe), so shards
//! coming back under a supervisor rejoin mid-request instead of after
//! the next probe sweep. Only when the budget is spent does the client
//! get a well-formed `overloaded` line — never silence, never a torn
//! frame. A background prober revives shards (and demotes draining
//! ones) via the `health` verb between requests.
//!
//! The proxy answers `stats`/`metrics`/`health` itself (its replies
//! carry `"proxy":true` so clients and checkers can tell the tiers
//! apart), broadcasts `calibration set` and `shutdown` to every
//! backend, and forwards everything else — including malformed lines,
//! whose error replies the backends own, keeping the tier transparent:
//! for the same request stream, a 1-shard and an N-shard deployment
//! produce byte-identical route-response multisets (the determinism
//! gate in `tests/proxy.rs` and CI).

use crate::cache::{fnv1a_extend, RouteKey, FNV_OFFSET};
use crate::json::Json;
use crate::metrics::{Histogram, ServiceMetrics, Snapshot, Tier};
use crate::protocol::{
    attach_id, attach_trace, overloaded_body, shutdown_body, CalAction, Request,
};
use crate::server::{accept_and_drain, canonicalize};
use crate::trace::{phase_sample, TraceCtx, TraceRecorder};
use codar_arch::Device;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Front-tier configuration.
#[derive(Debug, Clone)]
pub struct ProxyConfig {
    /// Backend `coded` addresses (`host:port`), shard order. All
    /// backends must run the same seed/config for replies to be
    /// byte-identical across shard counts.
    pub backends: Vec<String>,
    /// Per-attempt connect timeout.
    pub connect_timeout: Duration,
    /// Per-attempt reply read timeout (`set_read_timeout`).
    pub read_timeout: Duration,
    /// Retry budget per request *after* the first attempt.
    pub retries: u32,
    /// Backoff before retry k is `base * 2^(k-1)`, capped…
    pub backoff_base: Duration,
    /// …at this, then jittered into `[half, full]` deterministically.
    pub backoff_cap: Duration,
    /// Health-probe cadence of the background prober (it sleeps one
    /// interval *before* the first sweep, so tests can pick an hour to
    /// opt out of probe traffic entirely).
    pub probe_interval: Duration,
    /// Seed of the per-connection jitter streams.
    pub seed: u64,
    /// NDJSON trace log path (`codar-proxy --trace-log`). When set,
    /// untraced route lines get a proxy-minted id (`p-N`) *injected*
    /// into the forwarded bytes, so each shard's span tree joins the
    /// proxy's in the merged waterfall (`codar-trace --merge`).
    pub trace_log: Option<String>,
}

impl Default for ProxyConfig {
    fn default() -> Self {
        ProxyConfig {
            backends: Vec::new(),
            connect_timeout: Duration::from_millis(1000),
            read_timeout: Duration::from_millis(5000),
            retries: 3,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(200),
            probe_interval: Duration::from_millis(250),
            seed: 0,
            trace_log: None,
        }
    }
}

/// The proxy's own counters (its `stats`/`metrics` replies report
/// these, flagged `"proxy":true`; backend counters stay on the
/// backends).
#[derive(Debug, Default)]
pub struct ProxyMetrics {
    /// Client request lines received.
    pub requests: AtomicU64,
    /// Requests answered by a backend reply.
    pub forwarded: AtomicU64,
    /// Failed attempts (transport failure or draining refusal).
    pub retries: AtomicU64,
    /// Retries that moved to a different shard.
    pub failovers: AtomicU64,
    /// Requests answered `overloaded` because no shard could.
    pub overloaded: AtomicU64,
    /// End-to-end forwarded-request latency (first write → final
    /// reply, retries included), log2 buckets. Served by the proxy's
    /// extended `{"type":"metrics","hist":true}` body.
    pub hist_forward: Histogram,
}

struct ProxyInner {
    config: ProxyConfig,
    /// Per-backend health, index-aligned with `config.backends`.
    /// Optimistic at start; demoted by call failures and the prober,
    /// revived by the prober.
    alive: Vec<AtomicBool>,
    /// Per-backend forwarded-reply counters.
    served: Vec<AtomicU64>,
    metrics: ProxyMetrics,
    shutdown: AtomicBool,
    conn_seq: AtomicU64,
    /// Span rings + optional NDJSON sink; mints `p-N` ids (a distinct
    /// namespace from the daemons' `t-N`) exactly when the config
    /// carries a `trace_log`.
    recorder: TraceRecorder,
    prober: Mutex<Option<JoinHandle<()>>>,
}

impl Drop for ProxyInner {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.prober.lock().expect("prober handle").take() {
            let _ = handle.join();
        }
    }
}

/// The running front tier (cheaply cloneable; see the module docs).
#[derive(Clone)]
pub struct Proxy {
    inner: Arc<ProxyInner>,
}

/// One client connection's pooled backend connections plus its
/// deterministic jitter stream. Created per serve thread by
/// [`Proxy::connections`]; never shared.
pub struct BackendConns {
    conns: Vec<Option<NdConn>>,
    rng: StdRng,
}

struct NdConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// The rendezvous placement key of one request line. A route request
/// naming a catalog device with a parseable circuit hashes the
/// [`RouteKey::shard_fnv`] projection of the key the daemon caches it
/// under, so formatting, `id`, device case and device alias cannot
/// split one request across shards. Every other line hashes its raw
/// bytes: any shard answers those identically.
pub fn shard_key(line: &str) -> u64 {
    let key = match Request::parse_line(line) {
        Ok(Request::Route {
            device,
            router,
            alpha,
            sim,
            qasm,
            ..
        }) => Device::catalog_key(&device).and_then(|device| {
            let (_, canonical) = canonicalize(&qasm, preset(device)?).ok()?;
            Some(RouteKey::new(canonical, device, router, alpha, sim))
        }),
        _ => None,
    };
    key.map_or_else(
        || fnv1a_extend(FNV_OFFSET, line.as_bytes()),
        |key| key.shard_fnv(),
    )
}

/// The preset device under catalog key `key`. The catalog is built
/// once per process, so placement checks a route's declared register
/// total against its device, as the daemon does, without building a
/// [`Device`] per request.
fn preset(key: &str) -> Option<&'static Device> {
    static PRESETS: OnceLock<Vec<(&'static str, Device)>> = OnceLock::new();
    PRESETS
        .get_or_init(Device::presets)
        .iter()
        .find(|(preset, _)| *preset == key)
        .map(|(_, device)| device)
}

/// The HRW weight of `backend` for `key`: each backend scores the key
/// independently, the highest alive score wins. Removing a backend
/// only re-homes the keys it was winning; every other key keeps its
/// shard (and that shard's warm cache).
pub fn hrw_weight(key: u64, backend: &str) -> u64 {
    fnv1a_extend(
        fnv1a_extend(FNV_OFFSET, &key.to_le_bytes()),
        backend.as_bytes(),
    )
}

/// Whether a backend reply is a `draining` refusal — the backend is
/// shutting down and the request must fail over to a live shard.
fn reply_is_draining(reply: &str) -> bool {
    reply.contains("\"error\":\"draining")
}

impl Proxy {
    /// Starts the tier: validates the backend list and spawns the
    /// health prober. Backends are assumed alive until proven dead
    /// (first contact demotes liars fast).
    ///
    /// # Errors
    ///
    /// Returns a message when `config.backends` is empty or the trace
    /// log cannot be created.
    pub fn start(config: ProxyConfig) -> Result<Proxy, String> {
        if config.backends.is_empty() {
            return Err("codar-proxy needs at least one backend".to_string());
        }
        let recorder = match &config.trace_log {
            Some(path) => TraceRecorder::with_sink_prefix(path, "p")
                .map_err(|e| format!("cannot create trace log `{path}`: {e}"))?,
            None => TraceRecorder::new(),
        };
        let n = config.backends.len();
        let inner = Arc::new(ProxyInner {
            alive: (0..n).map(|_| AtomicBool::new(true)).collect(),
            served: (0..n).map(|_| AtomicU64::new(0)).collect(),
            metrics: ProxyMetrics::default(),
            shutdown: AtomicBool::new(false),
            conn_seq: AtomicU64::new(0),
            recorder,
            prober: Mutex::new(None),
            config,
        });
        let prober = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("codar-proxy-prober".to_string())
                .spawn(move || prober_loop(&inner))
                .expect("spawn prober thread")
        };
        *inner.prober.lock().expect("prober handle") = Some(prober);
        Ok(Proxy { inner })
    }

    /// Whether a `shutdown` request has been served.
    pub fn shutdown_requested(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst)
    }

    /// The configuration the tier was started with.
    pub fn config(&self) -> &ProxyConfig {
        &self.inner.config
    }

    /// Fresh per-connection backend state (pooled connections + the
    /// jitter stream, seeded from the config seed and a connection
    /// sequence number).
    pub fn connections(&self) -> BackendConns {
        let seq = self.inner.conn_seq.fetch_add(1, Ordering::SeqCst);
        BackendConns {
            conns: (0..self.inner.config.backends.len())
                .map(|_| None)
                .collect(),
            rng: StdRng::seed_from_u64(self.inner.config.seed ^ seq.wrapping_mul(0x9E37_79B9)),
        }
    }

    /// Marks backend `i` (index into the config's backend list) alive
    /// or dead. Public so harnesses can stage health states; normal
    /// operation is call failures demoting and the prober reviving.
    pub fn set_alive(&self, i: usize, alive: bool) {
        self.inner.alive[i].store(alive, Ordering::SeqCst);
    }

    /// Whether backend `i` is currently considered alive.
    pub fn is_alive(&self, i: usize) -> bool {
        self.inner.alive[i].load(Ordering::SeqCst)
    }

    /// The index of the backend that would serve this line right now:
    /// HRW over currently-alive backends, falling back to the full
    /// list when the whole fleet looks dead (the retry loop reconnects
    /// optimistically rather than blackholing — a connect attempt is
    /// itself a probe). What [`Proxy::handle_line`] uses for its first attempt —
    /// also how tests aim a fault plan at the shard a request will hit.
    pub fn preferred_backend(&self, line: &str) -> Option<usize> {
        self.pick(
            shard_key(line),
            &vec![false; self.inner.config.backends.len()],
        )
    }

    fn pick(&self, key: u64, banned: &[bool]) -> Option<usize> {
        self.pick_where(key, |i| {
            !banned[i] && self.inner.alive[i].load(Ordering::SeqCst)
        })
        // The alive flags are a fast path, not ground truth: when the
        // whole fleet *looks* dead (e.g. every shard crashed and is
        // being supervisor-restarted), retry optimistically instead of
        // blackholing until the next probe sweep — a connect attempt is
        // itself a probe, and a restarted shard rejoins immediately.
        .or_else(|| self.pick_where(key, |i| !banned[i]))
    }

    fn pick_where(&self, key: u64, eligible: impl Fn(usize) -> bool) -> Option<usize> {
        let mut best: Option<(u64, usize)> = None;
        for (i, addr) in self.inner.config.backends.iter().enumerate() {
            if !eligible(i) {
                continue;
            }
            let weight = hrw_weight(key, addr);
            if best.map_or(true, |(w, _)| weight > w) {
                best = Some((weight, i));
            }
        }
        best.map(|(_, i)| i)
    }

    /// Handles one client line and always returns exactly one
    /// well-formed response line (the tier's core contract).
    ///
    /// Tracing: locally-answered verbs echo any client trace id;
    /// forwarded lines carry theirs through to the backend (which
    /// echoes it). With a trace log attached, untraced route lines
    /// additionally get a proxy-minted `p-N` id *injected* into the
    /// forwarded bytes, so the shard's span tree records under the
    /// same id and `codar-trace --merge` can join the two tiers.
    pub fn handle_line(&self, line: &str, conns: &mut BackendConns) -> String {
        let t0 = Instant::now();
        let metrics = &self.inner.metrics;
        ServiceMetrics::bump(&metrics.requests);
        let parsed = Request::parse_envelope(line);
        // Validated during the one parse; also recovered from
        // rejected lines, mirroring the backends.
        let client_trace = match &parsed {
            Ok(envelope) => envelope.trace.clone(),
            Err(rejection) => rejection.trace.clone(),
        };
        match parsed.as_ref().map(|envelope| &envelope.request) {
            Ok(Request::Stats { id }) => {
                let body = self.snapshot().render(Tier::Stats);
                return attach_id(*id, &attach_trace(client_trace.as_deref(), &body));
            }
            Ok(Request::Metrics { id, hist }) => {
                let tier = if *hist { Tier::Hist } else { Tier::Metrics };
                let body = self.snapshot().render(tier);
                return attach_id(*id, &attach_trace(client_trace.as_deref(), &body));
            }
            Ok(Request::Health { id }) => {
                return attach_id(
                    *id,
                    &attach_trace(client_trace.as_deref(), &self.health_body()),
                )
            }
            Ok(Request::Trace { id, n }) => {
                let body = self.inner.recorder.reply_body(*n, true);
                return attach_id(*id, &attach_trace(client_trace.as_deref(), &body));
            }
            Ok(Request::Shutdown { id }) => {
                // Best-effort broadcast so the whole deployment drains,
                // then the proxy acks and stops serving itself.
                let framed = frame(line);
                for i in 0..self.inner.config.backends.len() {
                    if self.call(i, conns, &framed).is_err() {
                        conns.conns[i] = None;
                    }
                }
                self.inner.shutdown.store(true, Ordering::SeqCst);
                return attach_id(
                    *id,
                    &attach_trace(client_trace.as_deref(), &shutdown_body()),
                );
            }
            Ok(Request::Calibration {
                action: CalAction::Set,
                ..
            }) => return self.broadcast(line, conns, client_trace.as_deref()),
            // Route, calibration get, devices — and parse rejections,
            // which the backends answer so the tier adds no error
            // shapes of its own.
            _ => {}
        }
        let is_route = matches!(
            parsed.as_ref().map(|envelope| &envelope.request),
            Ok(Request::Route { .. })
        );
        let verb = match &parsed {
            Ok(envelope) => envelope.request.verb(),
            Err(_) => "opaque",
        };
        // Span recording is armed by `--trace-log`, exactly like the
        // backend daemons: an untraced proxy neither mints nor records,
        // so its behavior (and the bytes it forwards) are unchanged.
        let minted = if client_trace.is_none() && is_route {
            self.inner.recorder.mint()
        } else {
            None
        };
        let injected = minted.is_some();
        let trace_id = if self.inner.recorder.minting() {
            client_trace.clone().or(minted)
        } else {
            None
        };
        let mut ctx = trace_id.map(|trace_id| TraceCtx::begin_at(trace_id, verb, t0));
        // Placement hashes the original identity — route keys are
        // canonical and trace-free, so injection cannot re-home the
        // request.
        let key = shard_key(line);
        let rewritten;
        let outbound = if injected {
            let ctx = ctx.as_mut().expect("minted implies a trace context");
            ctx.event("inject", 0, None);
            rewritten = attach_trace(Some(ctx.id()), line);
            rewritten.as_str()
        } else {
            line
        };
        let reply = self.forward(outbound, key, conns, &mut ctx, t0, client_trace.as_deref());
        metrics
            .hist_forward
            .record(u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX));
        if let Some(mut ctx) = ctx {
            ctx.finish_root(crate::server::outcome_of(&reply));
            self.inner.recorder.commit(ctx);
        }
        reply
    }

    /// Broadcasts a line to every backend (calibration uploads must
    /// reach all shards — each keeps its own snapshot store). Replies
    /// with the first success, `overloaded` if nobody answered.
    fn broadcast(
        &self,
        line: &str,
        conns: &mut BackendConns,
        client_trace: Option<&str>,
    ) -> String {
        let framed = frame(line);
        let mut reply = None;
        for i in 0..self.inner.config.backends.len() {
            match self.call(i, conns, &framed) {
                Ok(body) => {
                    if reply.is_none() {
                        reply = Some(body);
                    }
                }
                Err(_) => {
                    conns.conns[i] = None;
                    self.set_alive(i, false);
                }
            }
        }
        match reply {
            Some(body) => {
                ServiceMetrics::bump(&self.inner.metrics.forwarded);
                body
            }
            None => {
                ServiceMetrics::bump(&self.inner.metrics.overloaded);
                // Backend replies echo the trace themselves; this body
                // is proxy-fabricated, so the echo is on us.
                attach_trace(client_trace, &overloaded_body())
            }
        }
    }

    /// The retry loop (see the module docs): HRW pick → forward →
    /// on failure demote, back off (capped exponential + deterministic
    /// jitter), re-pick among survivors; `overloaded` when the budget
    /// or the fleet is exhausted.
    fn forward(
        &self,
        line: &str,
        key: u64,
        conns: &mut BackendConns,
        ctx: &mut Option<TraceCtx>,
        t0: Instant,
        client_trace: Option<&str>,
    ) -> String {
        let metrics = &self.inner.metrics;
        let framed = frame(line);
        let mut banned = vec![false; self.inner.config.backends.len()];
        for attempt in 0..=self.inner.config.retries {
            let Some(choice) = self.pick(key, &banned) else {
                break;
            };
            if attempt > 0 {
                // Every retry lands on a different shard (failures ban
                // their shard for this request), so retry == failover.
                ServiceMetrics::bump(&metrics.failovers);
                self.backoff(&mut conns.rng, attempt);
            }
            if let Some(ctx) = ctx.as_mut() {
                ctx.event("shard_pick", 0, Some(format!("backend={choice}")));
            }
            let attempt_started = Instant::now();
            let attempted = self.call(choice, conns, &framed);
            let outcome = match &attempted {
                Ok(reply) if !reply_is_draining(reply) => "ok",
                Ok(_) => "draining",
                Err(_) => "io_error",
            };
            if let Some(ctx) = ctx.as_mut() {
                ctx.sample_with_detail(
                    phase_sample("attempt", t0, attempt_started, Instant::now()),
                    0,
                    Some(format!("backend={choice} outcome={outcome}")),
                );
            }
            match attempted {
                Ok(reply) if !reply_is_draining(&reply) => {
                    ServiceMetrics::bump(&metrics.forwarded);
                    ServiceMetrics::bump(&self.inner.served[choice]);
                    // An answer from an optimistically-picked shard is
                    // better evidence than any probe: revive it now.
                    self.set_alive(choice, true);
                    return reply;
                }
                Ok(_draining) => {
                    // A well-formed refusal: the shard is shutting
                    // down. Keep the connection (the goodbye was
                    // clean), stop routing there.
                    ServiceMetrics::bump(&metrics.retries);
                    self.set_alive(choice, false);
                    banned[choice] = true;
                }
                Err(_) => {
                    ServiceMetrics::bump(&metrics.retries);
                    conns.conns[choice] = None;
                    self.set_alive(choice, false);
                    banned[choice] = true;
                }
            }
        }
        ServiceMetrics::bump(&metrics.overloaded);
        attach_trace(client_trace, &overloaded_body())
    }

    /// One framed request/reply exchange with backend `i` over the
    /// connection pool. Any failure — connect, write, read timeout,
    /// EOF, torn frame — is an `Err`; the caller owns demotion.
    fn call(&self, i: usize, conns: &mut BackendConns, framed: &str) -> std::io::Result<String> {
        let config = &self.inner.config;
        if conns.conns[i].is_none() {
            let stream = connect_with_timeout(&config.backends[i], config.connect_timeout)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(config.read_timeout))?;
            let reader = BufReader::new(stream.try_clone()?);
            conns.conns[i] = Some(NdConn {
                reader,
                writer: stream,
            });
        }
        let conn = conns.conns[i].as_mut().expect("just connected");
        conn.writer.write_all(framed.as_bytes())?;
        conn.writer.flush()?;
        let mut reply = String::new();
        let n = conn.reader.read_line(&mut reply)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "backend closed the connection",
            ));
        }
        if !reply.ends_with('\n') {
            // EOF mid-line: the torn frame must never reach a client.
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "torn reply frame",
            ));
        }
        reply.pop();
        Ok(reply)
    }

    fn backoff(&self, rng: &mut StdRng, attempt: u32) {
        let base = self.inner.config.backoff_base.as_micros().max(1) as u64;
        let cap = self.inner.config.backoff_cap.as_micros() as u64;
        let exp = base
            .saturating_mul(1u64 << (attempt - 1).min(16))
            .min(cap.max(base));
        // Deterministic jitter (seeded per connection): spreads a
        // thundering herd without making reruns diverge.
        let wait = rng.gen_range(exp / 2..=exp);
        std::thread::sleep(Duration::from_micros(wait));
    }

    fn alive_count(&self) -> usize {
        self.inner
            .alive
            .iter()
            .filter(|a| a.load(Ordering::SeqCst))
            .count()
    }

    /// The proxy's `health` body: ready while at least one backend is
    /// alive and no shutdown has been served. `"proxy":true` marks the
    /// answering tier.
    pub fn health_body(&self) -> String {
        let draining = self.shutdown_requested();
        let alive = self.alive_count();
        format!(
            "{{\"type\":\"health\",\"status\":\"ok\",\"proxy\":true,\"ready\":{},\
             \"draining\":{},\"backends_alive\":{},\"backends_total\":{}}}",
            !draining && alive > 0,
            draining,
            alive,
            self.inner.config.backends.len(),
        )
    }

    /// The proxy's own counters as one [`Snapshot`], `"proxy":true`
    /// marking the tier (backend counters live on the backends). The
    /// `metrics` tier adds per-backend alive/served gauges, `hist` the
    /// forwarded-request latency, retries included.
    pub fn snapshot(&self) -> Snapshot {
        let (m, read) = (&self.inner.metrics, ServiceMetrics::read);
        let mut snapshot = Snapshot::default();
        snapshot
            .push(Tier::Stats, "proxy", true)
            .push(Tier::Stats, "requests", read(&m.requests))
            .push(Tier::Stats, "forwarded", read(&m.forwarded))
            .push(Tier::Stats, "retries", read(&m.retries))
            .push(Tier::Stats, "failovers", read(&m.failovers))
            .push(Tier::Stats, "overloaded", read(&m.overloaded))
            .push(Tier::Metrics, "draining", self.shutdown_requested())
            .push(Tier::Stats, "backends_alive", self.alive_count())
            .push(Tier::Stats, "backends_total", self.inner.served.len());
        for (i, served) in self.inner.served.iter().enumerate() {
            let alive = self.is_alive(i);
            snapshot
                .push(Tier::Metrics, format!("backend_{i}_alive"), alive)
                .push(Tier::Metrics, format!("backend_{i}_served"), read(served));
        }
        snapshot.histogram("forward", &m.hist_forward);
        snapshot
    }

    /// The proxy's most recent committed span lines, oldest first
    /// (test/tooling access mirroring [`crate::Service::recent_spans`]).
    pub fn recent_spans(&self, n: usize) -> Vec<String> {
        self.inner.recorder.recent(n)
    }

    /// Serves one NDJSON stream through the tier: one response line
    /// per request line, in order. Returns after EOF or shutdown.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the client reader or writer.
    pub fn serve_ndjson(
        &self,
        reader: impl BufRead,
        mut writer: impl Write,
    ) -> std::io::Result<()> {
        let mut conns = self.connections();
        for line in reader.lines() {
            let line = line?;
            if self.shutdown_requested() {
                break;
            }
            if line.trim().is_empty() {
                continue;
            }
            let mut response = self.handle_line(&line, &mut conns);
            response.push('\n');
            writer.write_all(response.as_bytes())?;
            writer.flush()?;
            if self.shutdown_requested() {
                break;
            }
        }
        Ok(())
    }

    /// Serves TCP clients through the daemon's accept-and-drain loop
    /// (`server::accept_and_drain`) until a `shutdown` is served.
    ///
    /// # Errors
    ///
    /// Propagates accept errors other than `WouldBlock`.
    pub fn serve_tcp(&self, listener: TcpListener, drain: Duration) -> std::io::Result<()> {
        let proxy = self.clone();
        accept_and_drain(
            listener,
            drain,
            || self.shutdown_requested(),
            || false,
            || true,
            move |reader, writer| {
                let _ = proxy.serve_ndjson(reader, writer);
            },
        )
    }
}

fn frame(line: &str) -> String {
    let mut framed = String::with_capacity(line.len() + 1);
    framed.push_str(line);
    framed.push('\n');
    framed
}

fn connect_with_timeout(addr: &str, timeout: Duration) -> std::io::Result<TcpStream> {
    let mut last = None;
    for sock in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&sock, timeout) {
            Ok(stream) => return Ok(stream),
            Err(e) => last = Some(e),
        }
    }
    Err(last.unwrap_or_else(|| std::io::Error::other("address resolved to nothing")))
}

/// One health probe: connect, ask `health`, require `status:"ok"` and
/// `ready:true` — a draining backend reports `ready:false` and drops
/// out of rotation before its refusals cost clients retries.
fn probe_backend(addr: &str, connect_timeout: Duration, read_timeout: Duration) -> bool {
    let Ok(stream) = connect_with_timeout(addr, connect_timeout) else {
        return false;
    };
    if stream.set_read_timeout(Some(read_timeout)).is_err() || stream.set_nodelay(true).is_err() {
        return false;
    }
    let mut writer = match stream.try_clone() {
        Ok(writer) => writer,
        Err(_) => return false,
    };
    if writer.write_all(b"{\"type\":\"health\"}\n").is_err() || writer.flush().is_err() {
        return false;
    }
    let mut reply = String::new();
    let mut reader = BufReader::new(stream);
    match reader.read_line(&mut reply) {
        Ok(n) if n > 0 && reply.ends_with('\n') => Json::parse(reply.trim_end())
            .ok()
            .map(|parsed| {
                parsed.get("status").and_then(Json::as_str) == Some("ok")
                    && parsed.get("ready").and_then(Json::as_bool) == Some(true)
            })
            .unwrap_or(false),
        _ => false,
    }
}

fn prober_loop(inner: &ProxyInner) {
    let interval = inner.config.probe_interval;
    loop {
        // Sleep first (in small slices so shutdown stays responsive):
        // startup is optimistic, and tests opt out of probe traffic by
        // configuring a long interval.
        let deadline = std::time::Instant::now() + interval;
        while std::time::Instant::now() < deadline {
            if inner.shutdown.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(Duration::from_millis(10).min(interval));
        }
        for (i, addr) in inner.config.backends.iter().enumerate() {
            if inner.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let healthy = probe_backend(
                addr,
                inner.config.connect_timeout,
                inner.config.read_timeout,
            );
            inner.alive[i].store(healthy, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn route_line(qasm: &str) -> String {
        format!(
            "{{\"type\":\"route\",\"device\":\"q20\",\"router\":\"codar\",\"circuit\":{}}}",
            crate::json::escape(qasm)
        )
    }

    #[test]
    fn shard_keys_canonicalize_circuits() {
        let compact =
            route_line("OPENQASM 2.0; include \"qelib1.inc\"; qreg q[3]; h q[0]; cx q[0], q[2];");
        let spaced = route_line(
            "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n\nqreg q[3];\n  h q[0];\n  cx q[0],q[2];\n",
        );
        assert_eq!(
            shard_key(&compact),
            shard_key(&spaced),
            "formatting must not split a circuit across shards"
        );
        // Device case and the device's own name resolve to one catalog
        // key, as in the backends' lookup.
        for device in ["Q20", "IBM Q20 Tokyo", "ibm q20 TOKYO"] {
            let renamed = compact.replace("\"q20\"", &format!("\"{device}\""));
            assert_eq!(shard_key(&compact), shard_key(&renamed), "{device}");
        }
        // Different router, different placement key.
        let sabre = compact.replace("\"codar\"", "\"sabre\"");
        assert_ne!(shard_key(&compact), shard_key(&sabre));
        // The id is NOT part of the key: retried/renumbered requests
        // keep their shard.
        let with_id = compact.replacen('{', "{\"id\":7,", 1);
        assert_eq!(shard_key(&compact), shard_key(&with_id));
        // `auto` folds alpha in, as the daemon's cache key does; an
        // omitted alpha is the default one.
        let auto = compact.replace("\"codar\"", "\"auto\"");
        let auto_low = auto.replacen('{', "{\"alpha\":0.25,", 1);
        let auto_default = auto.replacen('{', "{\"alpha\":0.5,", 1);
        assert_ne!(shard_key(&auto_low), shard_key(&auto_default));
        assert_eq!(shard_key(&auto), shard_key(&auto_default));
        // A route too wide for its device (here its register total
        // overflows) is refused before lowering and hashes its raw
        // bytes, like any line the backends only reject.
        let wide = route_line("qreg a[18446744073709551615]; qreg b[2]; h b[0];");
        assert_eq!(shard_key(&wide), fnv1a_extend(FNV_OFFSET, wide.as_bytes()));
        // Non-route lines hash raw bytes (any shard answers them).
        assert_ne!(
            shard_key("{\"type\":\"stats\"}"),
            shard_key("{\"type\":\"devices\"}")
        );
    }

    #[test]
    fn hrw_moves_only_the_dead_shards_keyspace() {
        let backends = ["127.0.0.1:7001", "127.0.0.1:7002", "127.0.0.1:7003"];
        let pick = |key: u64, dead: Option<usize>| -> usize {
            backends
                .iter()
                .enumerate()
                .filter(|(i, _)| Some(*i) != dead)
                .max_by_key(|(_, addr)| hrw_weight(key, addr))
                .expect("non-empty")
                .0
        };
        let mut moved = 0;
        let mut hit_each = [0usize; 3];
        for key in 0..300u64 {
            let key = fnv1a_extend(FNV_OFFSET, &key.to_le_bytes());
            let before = pick(key, None);
            hit_each[before] += 1;
            let after = pick(key, Some(2));
            if before != 2 {
                assert_eq!(before, after, "living shards must keep their keys");
            } else {
                moved += 1;
            }
        }
        assert!(moved > 0, "shard 2 owned some keys");
        for (i, hits) in hit_each.iter().enumerate() {
            assert!(*hits > 50, "shard {i} owns a fair share, got {hits}/300");
        }
    }

    #[test]
    fn proxy_answers_health_stats_metrics_itself() {
        let proxy = Proxy::start(ProxyConfig {
            backends: vec!["127.0.0.1:1".into(), "127.0.0.1:2".into()],
            probe_interval: Duration::from_secs(3600),
            ..ProxyConfig::default()
        })
        .unwrap();
        let mut conns = proxy.connections();
        for (line, kind) in [
            ("{\"type\":\"health\",\"id\":1}", "health"),
            ("{\"type\":\"stats\",\"id\":2}", "stats"),
            ("{\"type\":\"metrics\",\"id\":3}", "metrics"),
        ] {
            let reply = proxy.handle_line(line, &mut conns);
            let parsed = Json::parse(&reply).expect(&reply);
            assert_eq!(parsed.get("type").and_then(Json::as_str), Some(kind));
            assert_eq!(parsed.get("status").and_then(Json::as_str), Some("ok"));
            assert_eq!(parsed.get("proxy").and_then(Json::as_bool), Some(true));
        }
        let metrics = Json::parse(&proxy.snapshot().render(Tier::Metrics)).unwrap();
        assert_eq!(
            metrics.get("backend_0_alive").and_then(Json::as_bool),
            Some(true)
        );
        assert_eq!(
            metrics.get("backends_total").and_then(Json::as_u64),
            Some(2)
        );
        // Flat, like the backend metrics body.
        match &metrics {
            Json::Obj(fields) => {
                for (key, value) in fields {
                    assert!(
                        !matches!(value, Json::Obj(_) | Json::Arr(_)),
                        "proxy metrics field `{key}` is not a scalar"
                    );
                }
            }
            other => panic!("expected object, got {other:?}"),
        }
    }

    #[test]
    fn total_outage_yields_overloaded_not_silence() {
        // Ports 1/2 refuse connections; a route request burns its
        // budget and still gets one well-formed line.
        let proxy = Proxy::start(ProxyConfig {
            backends: vec!["127.0.0.1:1".into(), "127.0.0.1:2".into()],
            connect_timeout: Duration::from_millis(50),
            retries: 3,
            backoff_base: Duration::from_micros(100),
            backoff_cap: Duration::from_micros(200),
            probe_interval: Duration::from_secs(3600),
            ..ProxyConfig::default()
        })
        .unwrap();
        let mut conns = proxy.connections();
        let reply = proxy.handle_line(&route_line("qreg q[2]; cx q[0], q[1];"), &mut conns);
        let parsed = Json::parse(&reply).expect(&reply);
        assert_eq!(
            parsed.get("status").and_then(Json::as_str),
            Some("overloaded"),
            "{reply}"
        );
        assert!(!proxy.is_alive(0) && !proxy.is_alive(1));
        let health = Json::parse(&proxy.health_body()).unwrap();
        assert_eq!(health.get("ready").and_then(Json::as_bool), Some(false));
        // The counters saw the outage.
        let stats = Json::parse(&proxy.snapshot().render(Tier::Stats)).unwrap();
        assert_eq!(stats.get("overloaded").and_then(Json::as_u64), Some(1));
        assert!(stats.get("retries").and_then(Json::as_u64).unwrap() >= 1);
    }

    #[test]
    fn empty_backend_list_is_refused() {
        assert!(Proxy::start(ProxyConfig::default()).is_err());
    }
}
