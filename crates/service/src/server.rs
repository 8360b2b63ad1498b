//! The daemon core: request lifecycle, NDJSON stream serving, TCP.
//!
//! Request lifecycle (see ARCHITECTURE.md, "Service layer"):
//!
//! ```text
//! accept line → parse → [route?] cache probe ──hit──────────────┐
//!                          │ miss                               │
//!                          ▼                                    ▼
//!                    bounded queue ──full──► "overloaded"    respond
//!                          │
//!                          ▼
//!                 worker (per-thread scratch)
//!                 route → verify → serialize
//!                          │
//!                          ▼
//!                    cache fill → respond
//! ```
//!
//! A [`Service`] is cheaply cloneable (an `Arc` around the shared
//! state); [`Service::handle_line`] is the synchronous core used by
//! every front end — the `--stdin` NDJSON mode, per-connection TCP
//! threads and the in-process loadgen transport. Responses for one
//! stream are always emitted in request order because each stream is
//! handled by one thread; concurrent streams share the worker pool and
//! the cache.

use crate::cache::{CacheStats, RouteKey, ShardedCache};
use crate::faults::{FaultAction, FaultInjector, FaultPlan, KILL_EXIT_CODE};
use crate::json::escape;
use crate::metrics::{ServiceMetrics, Snapshot, Tier, PHASE_NAMES, VERB_NAMES};
use crate::protocol::{
    attach_id, attach_trace, calibration_get_body, calibration_set_body, error_body,
    overloaded_body, shutdown_body, CalAction, CalPayload, Request,
};
use crate::queue::{Bounded, PushError};
use crate::trace::{phase_sample, TraceCtx, TraceRecorder};
use crate::worker::{spawn_pool, RouteJob};
use codar_arch::{CalibrationSnapshot, Device, FidelityModel};
use codar_circuit::decompose::decompose_three_qubit_gates;
use codar_circuit::from_qasm::{circuit_from_flat, circuit_to_qasm};
use codar_circuit::Circuit;
use codar_engine::{Backend, RouterKind};
use codar_qasm::ast::Statement;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default calibration blend weight of `codar-cal` route requests
/// that do not pass an explicit `alpha`.
pub const DEFAULT_CAL_ALPHA: f64 = 0.5;

/// How long a stopping accept loop waits for open connections before
/// closing them (`coded --drain-ms` and `codar-proxy --drain-ms`
/// default).
pub const DEFAULT_DRAIN: Duration = Duration::from_secs(5);

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Routing worker threads (clamped to ≥ 1).
    pub workers: usize,
    /// Result-cache capacity in entries; `0` disables caching.
    pub cache_capacity: usize,
    /// Number of independently locked cache shards.
    pub cache_shards: usize,
    /// Bounded request-queue capacity; a full queue answers
    /// `overloaded` instead of buffering.
    pub queue_capacity: usize,
    /// Seed of the reverse-traversal initial placement (part of the
    /// cache key: different seeds are different results).
    pub seed: u64,
    /// Deterministic transport-fault schedule (`None` = no faults,
    /// the production shape). See [`crate::faults`].
    pub fault_plan: Option<FaultPlan>,
    /// Whether a `kill` fault exits the process (`coded
    /// --fault-plan`) or merely latches [`Service::fault_killed`]
    /// (the in-process harness).
    pub fault_exit: bool,
    /// NDJSON trace log path (`coded --trace-log`). When set, every
    /// route/calibration request is traced (ids are minted for
    /// requests that carry none) and committed span trees are
    /// appended to this file. `None` keeps the untraced hot path:
    /// only requests carrying a `"trace"` field build span trees,
    /// and those stay in the in-memory rings.
    pub trace_log: Option<String>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 1,
            cache_capacity: 1024,
            cache_shards: 8,
            queue_capacity: 64,
            seed: 0,
            fault_plan: None,
            fault_exit: false,
            trace_log: None,
        }
    }
}

/// The per-device calibration state behind one mutex. The lock is
/// held only for map reads and inserts — document parsing and model
/// derivation happen outside it, so a large upload cannot stall
/// concurrent route traffic.
#[derive(Default)]
struct CalibrationStore {
    /// Active snapshot + its (precomputed) EPS model per canonical
    /// device name; workers share these `Arc`s instead of re-deriving
    /// the per-edge tables on every cache miss.
    active: HashMap<String, (Arc<CalibrationSnapshot>, Arc<FidelityModel>)>,
    /// Highest snapshot version ever active per device. Uploads must
    /// *exceed* it (not merely differ from the active one): cache
    /// entries of any previously-active version may still be
    /// resident, so re-using an old number could serve them against
    /// new snapshot content.
    high_water: HashMap<String, u64>,
}

struct Inner {
    config: ServiceConfig,
    /// Preset catalog: (lookup key, shared device). Devices are built
    /// once at startup so their all-pairs distance matrices are paid
    /// once, never per request.
    catalog: Vec<(&'static str, Arc<Device>)>,
    cache: Arc<ShardedCache>,
    metrics: Arc<ServiceMetrics>,
    queue: Arc<Bounded<RouteJob>>,
    /// Active calibration snapshots. The snapshot's `version` is
    /// folded into every route cache key for that device, so replacing
    /// a snapshot atomically invalidates the stale cached routes (they
    /// simply stop being probed).
    calibration: Mutex<CalibrationStore>,
    shutdown: AtomicBool,
    /// The transport-fault injector, present iff the config carries a
    /// plan. Serve loops consult it per request line; `handle_line`
    /// never does (faults model the transport, not the router).
    faults: Option<FaultInjector>,
    /// Per-thread span rings + optional NDJSON sink (see
    /// [`crate::trace`]). Minting is on exactly when the config
    /// carries a `trace_log`.
    recorder: TraceRecorder,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Drop for Inner {
    fn drop(&mut self) {
        self.queue.close();
        for handle in self.workers.lock().expect("worker handles").drain(..) {
            let _ = handle.join();
        }
    }
}

/// The running daemon (see the module docs). Clones share one
/// instance; the worker pool stops when the last clone drops.
#[derive(Clone)]
pub struct Service {
    inner: Arc<Inner>,
}

impl Service {
    /// Builds the device catalog and starts the worker pool.
    pub fn start(config: ServiceConfig) -> Service {
        let catalog: Vec<(&'static str, Arc<Device>)> = Device::presets()
            .into_iter()
            .map(|(key, device)| (key, Arc::new(device)))
            .collect();
        let cache = Arc::new(ShardedCache::new(
            config.cache_capacity,
            config.cache_shards,
        ));
        let metrics = Arc::new(ServiceMetrics::new());
        let queue = Arc::new(Bounded::new(config.queue_capacity));
        let workers = spawn_pool(config.workers, &queue, &cache, &metrics, config.seed);
        let faults = config
            .fault_plan
            .clone()
            .map(|plan| FaultInjector::new(plan, config.fault_exit));
        // A trace log that cannot be created is a startup
        // misconfiguration (bad path, unwritable directory) — fail
        // loudly instead of silently dropping every span.
        let recorder = match &config.trace_log {
            Some(path) => TraceRecorder::with_sink(path)
                .unwrap_or_else(|e| panic!("cannot create trace log `{path}`: {e}")),
            None => TraceRecorder::new(),
        };
        Service {
            inner: Arc::new(Inner {
                config,
                catalog,
                cache,
                metrics,
                queue,
                calibration: Mutex::new(CalibrationStore::default()),
                shutdown: AtomicBool::new(false),
                faults,
                recorder,
                workers: Mutex::new(workers),
            }),
        }
    }

    /// Resolves a device name to its catalog key and shared device
    /// through [`Device::catalog_key`], the resolver the proxy uses too.
    fn lookup_device(&self, name: &str) -> Result<(&'static str, Arc<Device>), String> {
        let catalog = &self.inner.catalog;
        Device::catalog_key(name)
            .and_then(|wanted| catalog.iter().find(|(key, _)| *key == wanted))
            .map(|(key, device)| (*key, Arc::clone(device)))
            .ok_or_else(|| {
                let known: Vec<&str> = catalog.iter().map(|(key, _)| *key).collect();
                format!("unknown device `{name}` (known: {})", known.join(", "))
            })
    }

    /// Whether a `shutdown` request has been served.
    pub fn shutdown_requested(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst)
    }

    /// Whether an injected `kill` fault has fired (in-process harness
    /// mode; the real binary exits instead). Serve loops treat it like
    /// a shutdown with no drain courtesy — a dead process writes
    /// nothing.
    pub fn fault_killed(&self) -> bool {
        self.inner
            .faults
            .as_ref()
            .is_some_and(FaultInjector::killed)
    }

    /// Whether an injected `refuse` fault has fired: the accept loop
    /// must close its listener (existing connections keep serving).
    pub fn fault_refusing(&self) -> bool {
        self.inner
            .faults
            .as_ref()
            .is_some_and(FaultInjector::refusing)
    }

    /// Counts one request line against the fault plan and returns the
    /// serve loop's marching orders.
    fn fault_action(&self) -> FaultAction {
        self.inner
            .faults
            .as_ref()
            .map_or(FaultAction::None, FaultInjector::on_request)
    }

    /// The active calibration snapshot of `device` (canonical name).
    pub fn active_snapshot(&self, device_name: &str) -> Option<Arc<CalibrationSnapshot>> {
        self.active_calibration(device_name)
            .map(|(snapshot, _)| snapshot)
    }

    /// The active snapshot plus its shared EPS model.
    fn active_calibration(
        &self,
        device_name: &str,
    ) -> Option<(Arc<CalibrationSnapshot>, Arc<FidelityModel>)> {
        self.inner
            .calibration
            .lock()
            .expect("calibration store poisoned")
            .active
            .get(device_name)
            .cloned()
    }

    /// Point-in-time cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.cache.stats()
    }

    /// The configuration this service was started with — what a fuzz
    /// harness needs to spin up an identically-shaped fresh instance
    /// when minimizing a failing line.
    pub fn config(&self) -> &ServiceConfig {
        &self.inner.config
    }

    /// Handles one request line and returns the one response line
    /// (without trailing newline). Never panics on malformed input.
    ///
    /// Tracing: a request carrying a `"trace"` field gets its whole
    /// lifecycle recorded as a span tree (committed to the recorder,
    /// served by the `trace` verb) and the id echoed in the reply.
    /// With a trace log attached (`--trace-log`), untraced **work**
    /// requests (route, calibration) additionally get daemon-minted
    /// ids — control probes never mint, so health/stats pollers
    /// cannot make the log nondeterministic — and minted ids appear
    /// in the log only, never in the reply, keeping untraced clients'
    /// bytes unchanged.
    pub fn handle_line(&self, line: &str) -> String {
        let t0 = Instant::now();
        let metrics = &self.inner.metrics;
        ServiceMetrics::bump(&metrics.requests);
        let envelope = match Request::parse_envelope(line) {
            Ok(envelope) => envelope,
            Err(rejection) => {
                ServiceMetrics::bump(&metrics.errors);
                // The rejection carries any recoverable `id`/`trace`
                // so clients can correlate it — extracted during the
                // one parse, not by re-parsing a possibly-huge hostile
                // line.
                let body =
                    attach_trace(rejection.trace.as_deref(), &error_body(&rejection.message));
                return attach_id(rejection.id, &body);
            }
        };
        let parsed_at = Instant::now();
        let request = envelope.request;
        let id = request.id();
        let verb = request.verb();
        let mint = envelope.trace.is_none()
            && matches!(request, Request::Route { .. } | Request::Calibration { .. });
        // Span recording is armed by `--trace-log`. Without a sink the
        // daemon is id-echo-only: no minting, no ring writes — so
        // seeded replays (and their `trace`-verb readbacks) stay
        // byte-reproducible, and the untraced hot path builds no tree.
        let trace_id = if self.inner.recorder.minting() {
            envelope.trace.clone().or_else(|| {
                if mint {
                    self.inner.recorder.mint()
                } else {
                    None
                }
            })
        } else {
            None
        };
        let mut ctx = trace_id.map(|trace_id| {
            let mut ctx = TraceCtx::begin_at(trace_id, verb, t0);
            // Protocol parse finished before the tree existed; its
            // sample still offsets from t0 correctly.
            ctx.sample(phase_sample("parse", t0, t0, parsed_at), 0);
            ctx
        });
        let body = match request {
            Request::Route {
                device,
                router,
                alpha,
                sim,
                qasm,
                ..
            } => {
                ServiceMetrics::bump(&metrics.verb_route);
                self.handle_route(&mut ctx, t0, &device, router, alpha, sim, &qasm)
            }
            Request::Calibration {
                device,
                action,
                payload,
                ..
            } => {
                ServiceMetrics::bump(&metrics.verb_calibration);
                self.handle_calibration(&device, action, payload)
            }
            Request::Stats { .. } => {
                ServiceMetrics::bump(&metrics.verb_stats);
                self.snapshot().render(Tier::Stats)
            }
            Request::Health { .. } => {
                ServiceMetrics::bump(&metrics.verb_health);
                self.health_body()
            }
            Request::Metrics { hist, .. } => {
                ServiceMetrics::bump(&metrics.verb_metrics);
                self.snapshot()
                    .render(if hist { Tier::Hist } else { Tier::Metrics })
            }
            Request::Devices { .. } => {
                ServiceMetrics::bump(&metrics.verb_devices);
                self.devices_body()
            }
            Request::Trace { n, .. } => {
                ServiceMetrics::bump(&metrics.verb_trace);
                self.inner.recorder.reply_body(n, false)
            }
            Request::Shutdown { .. } => {
                ServiceMetrics::bump(&metrics.verb_shutdown);
                self.inner.shutdown.store(true, Ordering::SeqCst);
                shutdown_body()
            }
        };
        if let Some(hist) = metrics.verb_histogram(verb) {
            hist.record(u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX));
        }
        if let Some(mut ctx) = ctx {
            ctx.finish_root(outcome_of(&body));
            self.inner.recorder.commit(ctx);
        }
        // Echo the trace id exactly when the request carried one;
        // minted ids live in the log, not the reply.
        attach_id(id, &attach_trace(envelope.trace.as_deref(), &body))
    }

    /// The route path: parse → fit check → cache probe → queue →
    /// blocked wait for the worker's verified reply. With a trace
    /// context, the canonicalize/cache phases plus the worker's
    /// shipped-back samples are recorded under the root span, in
    /// deterministic (logical) order.
    fn handle_route(
        &self,
        ctx: &mut Option<TraceCtx>,
        t0: Instant,
        device_name: &str,
        router: RouterKind,
        alpha: Option<f64>,
        sim: Option<Backend>,
        qasm: &str,
    ) -> String {
        let metrics = &self.inner.metrics;
        let fail = |message: String| -> String {
            ServiceMetrics::bump(&metrics.errors);
            error_body(&message)
        };
        // New work is refused the moment drain starts: a draining
        // daemon only finishes what it already accepted. The error
        // message leads with "draining" — the proxy keys its failover
        // on that prefix.
        if self.shutdown_requested() {
            return fail("draining: shutting down, not accepting new route work".to_string());
        }
        let (device_key, device) = match self.lookup_device(device_name) {
            Ok(found) => found,
            Err(message) => return fail(message),
        };
        let calibration = self.active_calibration(device.name());
        if router == RouterKind::CodarCal && calibration.is_none() {
            return fail(format!(
                "router `codar-cal` needs an active calibration snapshot for {}; \
                 set one with a `calibration` request",
                device.name()
            ));
        }
        // Canonicalization (QASM parse → fit check → ≤2-qubit
        // decompose → re-serialize) is one traced phase bracketing the
        // whole block, recorded whether it succeeds or fails, so the
        // span *set* stays a pure function of the request.
        let canon_started = Instant::now();
        let canonicalized = canonicalize(qasm, &device);
        if let Some(ctx) = ctx.as_mut() {
            ctx.sample(
                phase_sample("canonicalize", t0, canon_started, Instant::now()),
                0,
            );
        }
        let (circuit, canonical) = match canonicalized {
            Ok(pair) => pair,
            Err(message) => return fail(message),
        };
        let mut key = RouteKey::new(canonical, device_key, router, alpha, sim);
        key.seed = self.inner.config.seed;
        key.cal_version = calibration.as_ref().map_or(0, |(s, _)| s.version);
        // An `auto` request with win history for this (device,
        // circuit-class) is bound to the leader now and probes the
        // cache (exploit). Without history the winner is only known
        // after the race: the worker sets the member (explore) and the
        // probe below is skipped.
        if router == RouterKind::Portfolio {
            key.member = metrics.portfolio_leader(device.name(), &circuit_class(&circuit));
            ServiceMetrics::bump(if key.member.is_some() {
                &metrics.portfolio_exploit
            } else {
                &metrics.portfolio_explore
            });
        }
        let lookup_started = Instant::now();
        // Explore requests cannot hit: their final key is unknown until
        // the portfolio has raced. The lookup phase is still recorded so
        // the span set stays a pure function of the request type.
        let cached = if key.explores() {
            None
        } else {
            self.inner.cache.get(&key)
        };
        if let Some(ctx) = ctx.as_mut() {
            ctx.sample(
                phase_sample("cache_lookup", t0, lookup_started, Instant::now()),
                0,
            );
            ctx.event(
                if cached.is_some() {
                    "cache_hit"
                } else {
                    "cache_miss"
                },
                0,
                None,
            );
        }
        if let Some(body) = cached {
            // The deep copy happens here, outside the shard lock; the
            // probe itself only bumped a refcount.
            return body.as_ref().to_string();
        }
        let (reply, result) = mpsc::channel();
        let job = RouteJob {
            key,
            circuit,
            device,
            calibration,
            t0,
            enqueued: Instant::now(),
            reply,
        };
        match self.inner.queue.try_push(job) {
            Ok(()) => match result.recv() {
                Ok(reply) => {
                    // The worker ships its samples back (queue wait
                    // first, then execution order) so the tree is
                    // assembled here, on one thread, in logical order.
                    if let Some(ctx) = ctx.as_mut() {
                        for sample in &reply.phases {
                            ctx.sample(*sample, 0);
                        }
                    }
                    reply.body
                }
                Err(_) => fail("worker terminated".to_string()),
            },
            Err(PushError::Full(_)) => {
                ServiceMetrics::bump(&metrics.overloaded);
                if let Some(ctx) = ctx.as_mut() {
                    ctx.event("enqueue_reject", 0, None);
                }
                overloaded_body()
            }
            Err(PushError::Closed(_)) => fail("service is shutting down".to_string()),
        }
    }

    /// The `calibration` path: inspect or replace a device's active
    /// snapshot. A replacement must carry a version different from
    /// the active one — the version is the cache-invalidation token,
    /// so re-using it would keep serving stale cached routes.
    fn handle_calibration(
        &self,
        device_name: &str,
        action: CalAction,
        payload: Option<CalPayload>,
    ) -> String {
        let metrics = &self.inner.metrics;
        let fail = |message: String| -> String {
            ServiceMetrics::bump(&metrics.errors);
            error_body(&message)
        };
        let device = match self.lookup_device(device_name) {
            Ok((_, device)) => device,
            Err(message) => return fail(message),
        };
        match action {
            CalAction::Get => {
                let snapshot = self.active_snapshot(device.name());
                let document = snapshot.as_ref().map(|s| (s.version, s.to_json()));
                calibration_get_body(
                    device.name(),
                    document.as_ref().map(|(v, doc)| (*v, doc.as_str())),
                )
            }
            CalAction::Set => {
                // Parse, validate and derive the EPS model *outside*
                // the calibration lock: a large uploaded document must
                // not stall concurrent route traffic. (The model never
                // reads the version, so stamping a synthetic version
                // under the lock below is safe.)
                let payload = payload.expect("parser guarantees a set payload");
                let is_document = matches!(payload, CalPayload::Document(_));
                let mut snapshot = match payload {
                    CalPayload::Document(document) => {
                        let snapshot = match CalibrationSnapshot::from_json(&document) {
                            Ok(snapshot) => snapshot,
                            Err(e) => return fail(format!("calibration document rejected: {e}")),
                        };
                        if snapshot.device != device.name() {
                            return fail(format!(
                                "snapshot calibrates `{}` but the request targets `{}`",
                                snapshot.device,
                                device.name()
                            ));
                        }
                        if let Err(e) = snapshot.validate_for(&device) {
                            return fail(format!("calibration document rejected: {e}"));
                        }
                        snapshot
                    }
                    CalPayload::Synthetic { seed, drift } => {
                        let mut snapshot = CalibrationSnapshot::synthetic(&device, seed);
                        for _ in 0..drift {
                            snapshot = snapshot.drifted(seed);
                        }
                        snapshot
                    }
                };
                let model = Arc::new(FidelityModel::from_snapshot(&snapshot));
                let mut store = self
                    .inner
                    .calibration
                    .lock()
                    .expect("calibration store poisoned");
                let high_water = store.high_water.get(device.name()).copied().unwrap_or(0);
                if is_document {
                    // Versions are the cache-invalidation token; any
                    // previously-active version may still have
                    // resident cache entries, so uploads must strictly
                    // exceed the high-water mark.
                    if snapshot.version <= high_water {
                        return fail(format!(
                            "snapshot version {} does not exceed the highest version {} \
                             already seen on {}; bump the version so stale cache entries \
                             cannot be served",
                            snapshot.version,
                            high_water,
                            device.name()
                        ));
                    }
                } else {
                    // Server-generated: stamp the next version so a
                    // reload always invalidates.
                    snapshot.version = high_water + 1;
                }
                let version = snapshot.version;
                store.high_water.insert(device.name().to_string(), version);
                let replaced = store
                    .active
                    .insert(device.name().to_string(), (Arc::new(snapshot), model))
                    .is_some();
                calibration_set_body(device.name(), version, replaced)
            }
        }
    }

    /// The `health` response body: readiness (`false` once drain has
    /// started — a draining daemon refuses new route work, and the
    /// proxy's prober takes `ready:false` as "stop routing here").
    pub fn health_body(&self) -> String {
        let draining = self.shutdown_requested();
        format!(
            "{{\"type\":\"health\",\"status\":\"ok\",\"ready\":{},\"draining\":{},\
             \"workers\":{},\"queue_depth\":{},\"queue_capacity\":{}}}",
            !draining,
            draining,
            self.inner.config.workers.max(1),
            self.inner.queue.len(),
            self.inner.config.queue_capacity,
        )
    }

    /// This daemon's counters as one [`Snapshot`], rendered as its
    /// `stats`, `metrics` and `hist` bodies (see [`crate::metrics`]).
    pub fn snapshot(&self) -> Snapshot {
        let (m, queue, config) = (&self.inner.metrics, &self.inner.queue, &self.inner.config);
        let (read, cache) = (ServiceMetrics::read, self.inner.cache.stats());
        let mut snapshot = Snapshot::default();
        snapshot
            .push(Tier::Stats, "requests", read(&m.requests))
            .push(Tier::Stats, "routed", read(&m.routed))
            .push(Tier::Stats, "errors", read(&m.errors))
            .push(Tier::Stats, "overloaded", read(&m.overloaded))
            .push(Tier::Metrics, "in_flight", read(&m.in_flight))
            .push(Tier::Metrics, "queue_depth", queue.len())
            .push(Tier::Metrics, "queue_capacity", config.queue_capacity)
            .push(Tier::Metrics, "workers", config.workers.max(1))
            .push(Tier::Metrics, "draining", self.shutdown_requested())
            .push(Tier::Metrics, "verb_route", read(&m.verb_route))
            .push(Tier::Metrics, "verb_calibration", read(&m.verb_calibration))
            .push(Tier::Metrics, "verb_stats", read(&m.verb_stats))
            .push(Tier::Metrics, "verb_devices", read(&m.verb_devices))
            .push(Tier::Metrics, "verb_health", read(&m.verb_health))
            .push(Tier::Metrics, "verb_metrics", read(&m.verb_metrics))
            .push(Tier::Metrics, "verb_shutdown", read(&m.verb_shutdown))
            .group("cache", |s| {
                s.push(Tier::Stats, "capacity", cache.capacity)
                    .push(Tier::Stats, "shards", cache.shards)
                    .push(Tier::Stats, "entries", cache.entries)
                    .push(Tier::Stats, "hits", cache.hits)
                    .push(Tier::Stats, "misses", cache.misses)
                    .push(Tier::Stats, "evictions", cache.evictions)
                    .push(Tier::Stats, "hit_rate", cache.hit_rate());
            })
            .push(Tier::Hist, "verb_trace", read(&m.verb_trace))
            .push(Tier::Hist, "queue_depth_high_water", queue.high_water());
        for (name, hist) in VERB_NAMES.iter().zip(&m.hist_verbs) {
            snapshot.histogram(name, hist);
        }
        snapshot.histogram("queue_wait", &m.hist_queue_wait);
        for (name, hist) in PHASE_NAMES.iter().zip(&m.hist_phases) {
            snapshot.histogram(&format!("phase_{name}"), hist);
        }
        m.push_portfolio(&mut snapshot);
        snapshot
    }

    /// The last `n` committed span lines (oldest first) — what the
    /// `trace` verb serves, exposed directly for tests and property
    /// harnesses that assert on span-tree structure.
    pub fn recent_spans(&self, n: usize) -> Vec<String> {
        self.inner.recorder.recent(n)
    }

    /// The `devices` response body (catalog order).
    pub fn devices_body(&self) -> String {
        let mut out = String::from("{\"type\":\"devices\",\"status\":\"ok\",\"devices\":[");
        for (i, (key, device)) in self.inner.catalog.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"device\":{},\"qubits\":{}}}",
                escape(key),
                escape(device.name()),
                device.num_qubits()
            );
        }
        out.push_str("]}");
        out
    }

    /// Serves one NDJSON stream: one response line per request line,
    /// in order. Returns after EOF or a `shutdown` request — including
    /// a shutdown served on *another* stream of the same service: the
    /// flag is checked before every line is handled, so no stream
    /// keeps serving new requests once any stream accepted a shutdown.
    /// Blank lines are skipped.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the reader or writer.
    pub fn serve_ndjson(
        &self,
        reader: impl BufRead,
        mut writer: impl Write,
    ) -> std::io::Result<()> {
        for line in reader.lines() {
            let line = line?;
            // Before, not only after, handling: a shutdown served on a
            // concurrent stream must stop this one at its next line,
            // not let it keep serving indefinitely. A fired kill fault
            // stops every stream the same way.
            if self.shutdown_requested() || self.fault_killed() {
                break;
            }
            if line.trim().is_empty() {
                continue;
            }
            // The fault plan counts request lines globally across this
            // daemon's streams; most lines get `None` and cost one
            // atomic increment.
            match self.fault_action() {
                FaultAction::None => {}
                FaultAction::Delay(pause) => std::thread::sleep(pause),
                FaultAction::Hang(pause) => {
                    // A stuck shard: park, then close without a reply.
                    std::thread::sleep(pause);
                    break;
                }
                FaultAction::Kill => {
                    if self.inner.config.fault_exit {
                        std::process::exit(KILL_EXIT_CODE);
                    }
                    break;
                }
                FaultAction::CloseAfter(bytes) => {
                    // The torn frame: a prefix of the real reply, then
                    // the stream ends.
                    let mut response = self.handle_line(&line);
                    response.push('\n');
                    let cut = bytes.min(response.len());
                    writer.write_all(&response.as_bytes()[..cut])?;
                    writer.flush()?;
                    break;
                }
            }
            let mut response = self.handle_line(&line);
            response.push('\n');
            // One write per response line: a split write would put the
            // newline in its own TCP segment and stall on
            // Nagle/delayed-ACK interaction.
            writer.write_all(response.as_bytes())?;
            writer.flush()?;
            if self.shutdown_requested() {
                break;
            }
        }
        Ok(())
    }

    /// Serves TCP clients through `accept_and_drain`, each stream
    /// through [`Service::serve_ndjson`], until a `shutdown` is served
    /// or a `kill` fault fires; a `refuse` fault closes the listener.
    ///
    /// # Errors
    ///
    /// Propagates accept errors other than `WouldBlock`.
    pub fn serve_tcp(&self, listener: TcpListener, drain: Duration) -> std::io::Result<()> {
        let service = self.clone();
        accept_and_drain(
            listener,
            drain,
            || self.shutdown_requested() || self.fault_killed(),
            || self.fault_refusing(),
            // A killed daemon is a dead process: it writes no goodbye.
            || !self.fault_killed(),
            move |reader, writer| {
                let _ = service.serve_ndjson(reader, writer);
            },
        )
    }
}

/// The canonical form of a route request's circuit, shared by the
/// daemon's cache key and the proxy's shard key: the QASM is parsed,
/// decomposed to ≤2-qubit gates (the benchmark suite's normalization)
/// and re-serialized, so formatting differences in the submitted text
/// cannot split cache entries or shards.
///
/// The declared register total is checked against `device` on the
/// parsed program, before lowering: a whole-register statement such as
/// `barrier q;` expands to one operand per declared qubit, so lowering
/// an oversized program first would cost memory in proportion to the
/// declared size, not to the request.
///
/// # Errors
///
/// `QASM error: …` when the text does not parse or lower,
/// `circuit uses N qubits but D has M` when it does not fit, or
/// `cannot canonicalize circuit: …` when the circuit cannot be written
/// back.
pub fn canonicalize(qasm: &str, device: &Device) -> Result<(Circuit, String), String> {
    let qasm_error = |e: codar_qasm::QasmError| format!("QASM error: {e}");
    let program = codar_qasm::parse(qasm).map_err(qasm_error)?;
    let declared = program
        .statements
        .iter()
        .map(|statement| match statement {
            Statement::QReg { size, .. } => *size,
            _ => 0,
        })
        .fold(0u64, u64::saturating_add);
    if declared > device.num_qubits() as u64 {
        return Err(format!(
            "circuit uses {declared} qubits but {} has {}",
            device.name(),
            device.num_qubits()
        ));
    }
    let flat = codar_qasm::semantic::flatten(&program).map_err(qasm_error)?;
    let circuit = decompose_three_qubit_gates(&circuit_from_flat(&flat));
    let canonical =
        circuit_to_qasm(&circuit).map_err(|e| format!("cannot canonicalize circuit: {e}"))?;
    Ok((circuit, canonical))
}

/// The circuit class that keys portfolio (`auto`) win history:
/// `q<qubits>g<bucket>` where the bucket is the log2 band of the gate
/// count (`floor(log2(gates)) + 1`, 0 for an empty circuit). Coarse on
/// purpose — classes must recur across requests for the win table to
/// converge on a leader, and which member wins is driven by circuit
/// width and scale far more than by exact gate counts.
///
/// # Examples
///
/// ```
/// use codar_circuit::Circuit;
/// use codar_service::server::circuit_class;
///
/// let mut c = Circuit::new(4);
/// c.h(0);
/// c.cx(0, 3);
/// c.cx(1, 2);
/// assert_eq!(circuit_class(&c), "q4g2"); // 3 gates → band [2, 4)
/// assert_eq!(circuit_class(&Circuit::new(2)), "q2g0");
/// ```
pub fn circuit_class(circuit: &Circuit) -> String {
    let gates = circuit.len() as u64;
    let bucket = (u64::BITS - gates.leading_zeros()) as u64;
    format!("q{}g{bucket}", circuit.num_qubits())
}

/// The deterministic root-span outcome annotation of a response body.
/// Every body renders `"status"` with the string escaped, so the
/// needle cannot occur inside an embedded payload.
pub(crate) fn outcome_of(body: &str) -> &'static str {
    if body.contains("\"status\":\"error\"") {
        "error"
    } else if body.contains("\"status\":\"overloaded\"") {
        "overloaded"
    } else {
        "ok"
    }
}

/// A cloneable TCP writer shared between a connection's serve thread
/// and the drain path, so drain can deliver one final well-formed
/// `error:"draining"` line instead of silently abandoning the client.
/// Each [`Write::write`] takes the lock once and writes the whole
/// buffer, so response lines written by either side never interleave
/// mid-line.
#[derive(Clone)]
pub(crate) struct SharedWriter {
    stream: Arc<Mutex<TcpStream>>,
}

impl SharedWriter {
    pub(crate) fn new(stream: TcpStream) -> SharedWriter {
        SharedWriter {
            stream: Arc::new(Mutex::new(stream)),
        }
    }

    /// Ends the connection: with `courtesy`, first writes the final
    /// draining error line; either way shuts the socket down both
    /// directions (waking any parked reader with EOF). Write failures
    /// are ignored — the client may already be gone.
    pub(crate) fn close(&self, courtesy: bool) {
        let Ok(mut stream) = self.stream.lock() else {
            return;
        };
        if courtesy {
            let mut line = error_body("draining: connection closed by server shutdown");
            line.push('\n');
            let _ = stream.write_all(line.as_bytes());
            let _ = stream.flush();
        }
        let _ = stream.shutdown(Shutdown::Both);
    }
}

impl Write for SharedWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let mut stream = self
            .stream
            .lock()
            .map_err(|_| std::io::Error::other("writer lock poisoned"))?;
        // All-or-nothing under one lock hold: `write_all` on the
        // wrapper must not interleave with the drain line.
        stream.write_all(buf)?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let mut stream = self
            .stream
            .lock()
            .map_err(|_| std::io::Error::other("writer lock poisoned"))?;
        stream.flush()
    }
}

/// The accept-and-drain loop of both tiers ([`Service::serve_tcp`] and
/// [`crate::Proxy::serve_tcp`]): one thread per connection, each
/// running `serve` on the connection's reader and a [`SharedWriter`].
///
/// The loop polls a non-blocking listener until `stopping` holds,
/// closing the listener for good once `refusing` does. Then it joins
/// the connection threads so in-flight replies complete before the
/// caller exits and would kill them mid-write. Threads parked in a
/// blocking read on an idle connection cannot be interrupted portably,
/// so the join is bounded by `drain`: a connection still open at the
/// deadline is closed through its [`SharedWriter`], with one final
/// well-formed `error:"draining"` line first if `courtesy` holds. The
/// client sees an explicit goodbye and a clean EOF, never a torn
/// frame, and the socket shutdown wakes the parked reader.
///
/// # Errors
///
/// Propagates accept errors other than `WouldBlock`.
pub(crate) fn accept_and_drain<S>(
    listener: TcpListener,
    drain: Duration,
    stopping: impl Fn() -> bool,
    refusing: impl Fn() -> bool,
    courtesy: impl FnOnce() -> bool,
    serve: S,
) -> std::io::Result<()>
where
    S: Fn(BufReader<TcpStream>, SharedWriter) + Clone + Send + 'static,
{
    listener.set_nonblocking(true)?;
    // Inside an Option so a `refuse` fault can close it mid-loop while
    // existing connections keep being served.
    let mut listener = Some(listener);
    let mut connections: Vec<(JoinHandle<()>, SharedWriter)> = Vec::new();
    while !stopping() {
        if refusing() {
            listener = None;
        }
        let Some(active) = listener.as_ref() else {
            std::thread::sleep(Duration::from_millis(5));
            continue;
        };
        match active.accept() {
            Ok((stream, _addr)) => {
                // Reap finished connections as we go so the handle
                // list tracks live connections, not history.
                connections = connections
                    .into_iter()
                    .filter_map(|(handle, shared)| {
                        if handle.is_finished() {
                            let _ = handle.join();
                            None
                        } else {
                            Some((handle, shared))
                        }
                    })
                    .collect();
                // Per-connection setup failures (e.g. the client RSTs
                // immediately) only cost that client its connection.
                // Request/response lines are tiny, so Nagle coalescing
                // would cost tens of ms per line.
                if stream.set_nodelay(true).is_err() {
                    continue;
                }
                let Ok(reader) = stream.try_clone() else {
                    continue;
                };
                let shared = SharedWriter::new(stream);
                let writer = shared.clone();
                let serve = serve.clone();
                connections.push((
                    std::thread::spawn(move || serve(BufReader::new(reader), writer)),
                    shared,
                ));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(e),
        }
    }
    let deadline = Instant::now() + drain;
    let courtesy = courtesy();
    for (handle, shared) in connections {
        while !handle.is_finished() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        if !handle.is_finished() {
            shared.close(courtesy);
            // The shutdown wakes the parked reader with EOF, so the
            // thread exits promptly; a short grace bounds the join (a
            // hang-faulted thread may sleep past it — it holds nothing
            // but its stack by now).
            let grace = Instant::now() + Duration::from_millis(250);
            while !handle.is_finished() && Instant::now() < grace {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        if handle.is_finished() {
            let _ = handle.join();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    const GHZ3: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\ncreg c[3];\n\
                        h q[0];\ncx q[0], q[1];\ncx q[1], q[2];\nmeasure q -> c;\n";

    fn route_line(device: &str, router: &str, qasm: &str) -> String {
        format!(
            "{{\"type\":\"route\",\"device\":{},\"router\":{},\"circuit\":{}}}",
            escape(device),
            escape(router),
            escape(qasm)
        )
    }

    #[test]
    fn sim_requests_route_end_to_end_and_cache_separately() {
        let service = Service::start(ServiceConfig::default());
        // Sim-less request: no `sim` field in the response (historical
        // shape, byte-compatible with the golden fixtures).
        let plain = service.handle_line(&route_line("q5", "codar", GHZ3));
        assert!(!plain.contains("\"sim\""), "{plain}");
        // `auto` on a Clifford circuit resolves to the stabilizer
        // backend, and the response reports it.
        let line = format!(
            "{{\"type\":\"route\",\"device\":\"q5\",\"router\":\"codar\",\
             \"sim\":\"auto\",\"circuit\":{}}}",
            escape(GHZ3)
        );
        let simmed = service.handle_line(&line);
        let parsed = Json::parse(&simmed).unwrap();
        assert_eq!(parsed.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(parsed.get("sim").and_then(Json::as_str), Some("stabilizer"));
        // The two are distinct cache entries: re-issuing each returns
        // its own body (a shared key would alias the sim-less reply).
        assert_eq!(service.handle_line(&route_line("q5", "codar", GHZ3)), plain);
        assert_eq!(service.handle_line(&line), simmed);
        // Unknown backend names are rejected at parse time.
        let bad = service.handle_line(
            "{\"type\":\"route\",\"device\":\"q5\",\"router\":\"codar\",\
             \"sim\":\"gpu\",\"circuit\":\"qreg q[2];\"}",
        );
        assert!(bad.contains("unknown simulation backend"), "{bad}");
        service.handle_line("{\"type\":\"shutdown\"}");
    }

    #[test]
    fn route_stats_devices_shutdown_lifecycle() {
        let service = Service::start(ServiceConfig::default());
        let response = service.handle_line(&route_line("q5", "codar", GHZ3));
        let parsed = Json::parse(&response).unwrap();
        assert_eq!(
            parsed.get("status").and_then(Json::as_str),
            Some("ok"),
            "{response}"
        );
        assert_eq!(parsed.get("verified").and_then(Json::as_bool), Some(true));

        // Identical request → cache hit, byte-identical response.
        let again = service.handle_line(&route_line("q5", "codar", GHZ3));
        assert_eq!(response, again);
        let stats = Json::parse(&service.handle_line("{\"type\":\"stats\"}")).unwrap();
        let cache = stats.get("cache").unwrap();
        assert_eq!(cache.get("hits").and_then(Json::as_u64), Some(1));
        assert_eq!(cache.get("misses").and_then(Json::as_u64), Some(1));
        assert_eq!(stats.get("routed").and_then(Json::as_u64), Some(1));

        let devices = Json::parse(&service.handle_line("{\"type\":\"devices\"}")).unwrap();
        match devices.get("devices") {
            Some(Json::Arr(items)) => assert_eq!(items.len(), Device::presets().len()),
            other => panic!("expected device array, got {other:?}"),
        }

        assert!(!service.shutdown_requested());
        let ack = service.handle_line("{\"type\":\"shutdown\",\"id\":5}");
        assert_eq!(ack, "{\"id\":5,\"type\":\"shutdown\",\"status\":\"ok\"}");
        assert!(service.shutdown_requested());
    }

    #[test]
    fn auto_router_explores_then_exploits_the_leader() {
        let service = Service::start(ServiceConfig::default());
        // Explore: no win history for (q5, q3g3) yet, so the whole
        // portfolio races and the reply names the winner. No snapshot
        // is active — `auto` must still work (the codar-cal member is
        // skipped, scoring falls back to depth + swaps).
        let first = service.handle_line(&route_line("q5", "auto", GHZ3));
        let parsed = Json::parse(&first).unwrap();
        assert_eq!(
            parsed.get("status").and_then(Json::as_str),
            Some("ok"),
            "{first}"
        );
        assert_eq!(parsed.get("router").and_then(Json::as_str), Some("auto"));
        let chosen = parsed
            .get("chosen")
            .and_then(Json::as_str)
            .expect("auto replies carry the winner")
            .to_string();
        assert!(
            ["codar", "codar-cal", "greedy", "sabre"].contains(&chosen.as_str()),
            "{chosen}"
        );
        // Exploit: the identical request keys on the leader, which is
        // exactly the label the explore insert was filed under — a
        // cache hit, byte for byte. (Explore skipped the probe, so the
        // only counted lookup is this hit.)
        let second = service.handle_line(&route_line("q5", "auto", GHZ3));
        assert_eq!(first, second);
        let stats = service.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 0));
        // A fixed-router request's key has no member, and its reply
        // never reports a winner.
        let fixed = service.handle_line(&route_line("q5", "codar", GHZ3));
        assert!(!fixed.contains("\"chosen\""), "{fixed}");
        // The portfolio telemetry is `Hist`-tier only: the golden
        // fixtures pin the plain `metrics` and `stats` bodies.
        let metrics = service.snapshot().render(Tier::Metrics);
        assert!(!metrics.contains("portfolio"), "{metrics}");
        let plain_stats = service.handle_line("{\"type\":\"stats\"}");
        assert!(!plain_stats.contains("portfolio"), "{plain_stats}");
        let hist = service.snapshot().render(Tier::Hist);
        assert!(hist.contains("\"portfolio_explore\":1"), "{hist}");
        assert!(hist.contains("\"portfolio_exploit\":1"), "{hist}");
        assert!(
            hist.contains(&format!(
                "\"portfolio_wins_IBM_Q5_Yorktown_q3g3_{chosen}\":1"
            )),
            "{hist}"
        );
        service.handle_line("{\"type\":\"shutdown\"}");
    }

    #[test]
    fn canonicalization_merges_equivalent_formattings() {
        let service = Service::start(ServiceConfig::default());
        let compact = "OPENQASM 2.0; include \"qelib1.inc\"; qreg q[3]; h q[0]; cx q[0], q[2];";
        let spaced = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n\nqreg q[3];\n  h q[0];\n  \
                      cx q[0],q[2];\n";
        let a = service.handle_line(&route_line("q20", "sabre", compact));
        let b = service.handle_line(&route_line("q20", "sabre", spaced));
        assert_eq!(a, b, "formatting must not split cache entries");
        let stats = service.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn canonicalize_vets_the_decomposed_circuit_before_writing_it() {
        let q5 = Device::ibm_q5_yorktown();
        let src = "include \"qelib1.inc\"; qreg q[3]; ccx q[0], q[1], q[2];";
        let (circuit, canonical) = canonicalize(src, &q5).unwrap();
        assert!(circuit.gates().iter().all(|g| g.qubits.len() <= 2));
        assert_eq!(circuit_to_qasm(&circuit).unwrap(), canonical);
        let (_, again) = canonicalize(&canonical, &q5).unwrap();
        assert_eq!(again, canonical, "canonical text is a fixed point");
        let err = canonicalize("qreg q[1]; zz q[0];", &q5).unwrap_err();
        assert!(err.starts_with("QASM error: "), "{err}");
        // The declared register total is checked on the parsed program,
        // before lowering could expand a whole-register statement: it
        // sums every register, saturates instead of wrapping, and comes
        // before lowering's own errors.
        for (src, declared) in [
            ("qreg q[3]; qreg r[3]; cx q[0], r[0];", "6"),
            ("qreg q[6]; zz q[0];", "6"),
            ("qreg q[100000000]; barrier q;", "100000000"),
            (
                "qreg q[18446744073709551615]; qreg r[2]; h r;",
                "18446744073709551615",
            ),
        ] {
            assert_eq!(
                canonicalize(src, &q5).unwrap_err(),
                format!("circuit uses {declared} qubits but IBM Q5 Yorktown has 5"),
                "{src}"
            );
        }
        assert!(canonicalize("qreg q[5]; barrier q;", &q5).is_ok());
    }

    #[test]
    fn bad_requests_get_error_responses() {
        let service = Service::start(ServiceConfig::default());
        for (line, needle) in [
            ("{not json", "malformed JSON"),
            (&route_line("warp-drive", "codar", GHZ3), "unknown device"),
            (
                &route_line("q5", "codar", "qreg q[2]; zz q[0];"),
                "QASM error",
            ),
            (
                &route_line("q5", "codar", "qreg q[9]; cx q[0], q[8];"),
                "uses 9 qubits",
            ),
        ] {
            let response = service.handle_line(line);
            let parsed = Json::parse(&response).unwrap();
            assert_eq!(
                parsed.get("status").and_then(Json::as_str),
                Some("error"),
                "{line} -> {response}"
            );
            assert!(
                parsed
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap()
                    .contains(needle),
                "{line} -> {response}"
            );
        }
    }

    #[test]
    fn zero_capacity_queue_answers_overloaded() {
        let service = Service::start(ServiceConfig {
            queue_capacity: 0,
            ..ServiceConfig::default()
        });
        let response = service.handle_line(&route_line("q5", "codar", GHZ3));
        let parsed = Json::parse(&response).unwrap();
        assert_eq!(
            parsed.get("status").and_then(Json::as_str),
            Some("overloaded"),
            "{response}"
        );
        let stats = Json::parse(&service.snapshot().render(Tier::Stats)).unwrap();
        assert_eq!(stats.get("overloaded").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn ndjson_stream_responds_in_order_and_stops_at_shutdown() {
        let service = Service::start(ServiceConfig::default());
        let input = format!(
            "{}\n\n{{\"type\":\"stats\",\"id\":1}}\n{{\"type\":\"shutdown\"}}\n\
             {{\"type\":\"stats\",\"id\":2}}\n",
            route_line("q5", "greedy", GHZ3)
        );
        let mut output = Vec::new();
        service
            .serve_ndjson(std::io::BufReader::new(input.as_bytes()), &mut output)
            .unwrap();
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // Three responses: route, stats, shutdown ack; the post-
        // shutdown stats line is never served.
        assert_eq!(lines.len(), 3, "{text}");
        assert!(lines[0].contains("\"router\":\"greedy\""));
        assert!(lines[1].starts_with("{\"id\":1,\"type\":\"stats\""));
        assert!(lines[2].contains("\"type\":\"shutdown\""));
    }

    #[test]
    fn sub_microscale_alpha_differences_get_distinct_cache_entries() {
        // Regression: codar-cal cache keys used to fold a 6-decimal
        // rounding of alpha, so two alphas closer than 1e-6 shared one
        // cache entry even though the router blends the exact f64 and
        // can route them differently. Keys now fold `alpha.to_bits()`.
        let service = Service::start(ServiceConfig::default());
        let ack = service.handle_line(
            "{\"type\":\"calibration\",\"action\":\"set\",\"device\":\"q5\",\
             \"synthetic\":{\"seed\":3,\"drift\":2}}",
        );
        assert!(ack.contains("\"status\":\"ok\""), "{ack}");
        for alpha in ["0.1234567", "0.12345674"] {
            let response = service.handle_line(&format!(
                "{{\"type\":\"route\",\"device\":\"q5\",\"router\":\"codar-cal\",\
                 \"alpha\":{alpha},\"circuit\":{}}}",
                escape(GHZ3)
            ));
            assert!(response.contains("\"status\":\"ok\""), "{response}");
        }
        let stats = service.cache_stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (0, 2),
            "both alphas round to the same 6-decimal string; they must \
             still be distinct cache entries"
        );
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn rejected_lines_echo_a_recoverable_id_without_reparsing() {
        let service = Service::start(ServiceConfig::default());
        // Recoverable: well-formed JSON object, well-formed id.
        let response = service.handle_line("{\"id\":7,\"type\":\"warp\"}");
        assert!(response.starts_with("{\"id\":7,"), "{response}");
        assert!(response.contains("unknown request type"), "{response}");
        // Unrecoverable ids (ill-typed, or no JSON at all) stay absent.
        for line in [
            "{\"id\":-1,\"type\":\"stats\"}",
            "{\"id\":1.5,\"type\":\"stats\"}",
            "{\"id\":7,\"type\"",
        ] {
            let response = service.handle_line(line);
            assert!(!response.contains("\"id\""), "{line} -> {response}");
            assert!(response.contains("\"status\":\"error\""), "{response}");
        }
        // The rejection itself carries the id — the parse-error path
        // must not pay a second full parse of a hostile line.
        let rejection = Request::parse_line("{\"id\":9,\"type\":\"warp\"}").unwrap_err();
        assert_eq!(rejection.id, Some(9));
    }

    /// Both tiers run [`accept_and_drain`]: a shutdown served on one
    /// connection stops the loop, and an idle connection gets the
    /// `draining` courtesy line, then a clean EOF, within the drain
    /// deadline.
    #[test]
    fn shutdown_on_one_connection_stops_and_drains_the_others() {
        use crate::proxy::{Proxy, ProxyConfig};
        use std::io::{BufRead as _, BufReader, Write as _};
        type Serve = Box<dyn FnOnce(TcpListener, Duration) -> std::io::Result<()> + Send>;
        let service = Service::start(ServiceConfig::default());
        // The proxy answers `stats` itself; its shutdown broadcast to
        // the refusing backend fails fast and is best-effort.
        let proxy = Proxy::start(ProxyConfig {
            backends: vec!["127.0.0.1:1".into()],
            probe_interval: Duration::from_secs(3600),
            ..ProxyConfig::default()
        })
        .unwrap();
        let tiers: [(&str, Serve); 2] = [
            (
                "daemon",
                Box::new(move |l, drain| service.serve_tcp(l, drain)),
            ),
            ("proxy", Box::new(move |l, drain| proxy.serve_tcp(l, drain))),
        ];
        for (tier, serve) in tiers {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
            let addr = listener.local_addr().unwrap();
            let drain = Duration::from_millis(300);
            let server = std::thread::spawn(move || serve(listener, drain));
            let mut idle = std::net::TcpStream::connect(addr).expect("connect idle");
            let mut idle_reader = BufReader::new(idle.try_clone().unwrap());
            let mut control = std::net::TcpStream::connect(addr).expect("connect control");
            let mut control_reader = BufReader::new(control.try_clone().unwrap());
            let mut line = String::new();

            // The idle connection serves a request first, proving its
            // thread is up before the shutdown arrives elsewhere.
            idle.write_all(b"{\"type\":\"stats\",\"id\":1}\n").unwrap();
            idle_reader.read_line(&mut line).unwrap();
            assert!(line.contains("\"status\":\"ok\""), "{tier}: {line}");

            line.clear();
            let shutdown_sent = Instant::now();
            control.write_all(b"{\"type\":\"shutdown\"}\n").unwrap();
            control_reader.read_line(&mut line).unwrap();
            assert!(line.contains("\"type\":\"shutdown\""), "{tier}: {line}");

            // The accept loop returns despite the idle connection still
            // being open: at the bounded drain deadline the idle client
            // is told goodbye and its socket is closed, instead of
            // keeping the tier alive forever.
            server
                .join()
                .unwrap()
                .unwrap_or_else(|e| panic!("{tier}: accept loop drains and exits: {e}"));
            assert!(
                shutdown_sent.elapsed() < drain + Duration::from_secs(2),
                "{tier}: drained in {:?}",
                shutdown_sent.elapsed()
            );

            // Regression (the old behavior silently abandoned the parked
            // connection): the client must receive one final well-formed
            // `error:"draining"` line, then a clean EOF — never bare
            // silence, never a torn frame.
            line.clear();
            let n = idle_reader.read_line(&mut line).unwrap();
            assert!(n > 0, "{tier}: drain must say goodbye, not just vanish");
            assert!(
                line.ends_with('\n'),
                "{tier}: drain line must be a whole frame"
            );
            let parsed = Json::parse(line.trim_end()).expect("drain line is valid JSON");
            assert_eq!(parsed.get("status").and_then(Json::as_str), Some("error"));
            assert!(
                parsed
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap()
                    .starts_with("draining"),
                "{tier}: {line}"
            );
            line.clear();
            let n = idle_reader.read_line(&mut line).unwrap();
            assert_eq!(
                n, 0,
                "{tier}: after the goodbye the stream is closed: {line}"
            );
        }
    }

    #[test]
    fn health_reports_readiness_and_flips_on_drain() {
        let service = Service::start(ServiceConfig::default());
        let health = Json::parse(&service.handle_line("{\"type\":\"health\",\"id\":3}")).unwrap();
        assert_eq!(health.get("id").and_then(Json::as_u64), Some(3));
        assert_eq!(health.get("ready").and_then(Json::as_bool), Some(true));
        assert_eq!(health.get("draining").and_then(Json::as_bool), Some(false));
        assert_eq!(health.get("queue_depth").and_then(Json::as_u64), Some(0));
        assert_eq!(
            health.get("queue_capacity").and_then(Json::as_u64),
            Some(64)
        );
        service.handle_line("{\"type\":\"shutdown\"}");
        let drained = Json::parse(&service.handle_line("{\"type\":\"health\"}")).unwrap();
        assert_eq!(drained.get("ready").and_then(Json::as_bool), Some(false));
        assert_eq!(drained.get("draining").and_then(Json::as_bool), Some(true));
        // Draining refuses new route work with a well-formed error
        // whose message leads with "draining" (the proxy's failover
        // cue) — it never queues the job.
        let refused = service.handle_line(&route_line("q5", "codar", GHZ3));
        let parsed = Json::parse(&refused).unwrap();
        assert_eq!(parsed.get("status").and_then(Json::as_str), Some("error"));
        assert!(
            parsed
                .get("error")
                .and_then(Json::as_str)
                .unwrap()
                .starts_with("draining"),
            "{refused}"
        );
    }

    #[test]
    fn metrics_are_flat_and_count_per_verb() {
        let service = Service::start(ServiceConfig::default());
        service.handle_line(&route_line("q5", "codar", GHZ3));
        service.handle_line(&route_line("q5", "codar", GHZ3)); // cache hit
        service.handle_line("{\"type\":\"stats\"}");
        service.handle_line("{\"type\":\"devices\"}");
        service.handle_line("{\"type\":\"health\"}");
        service.handle_line("not json at all");
        let body = service.handle_line("{\"type\":\"metrics\",\"id\":9}");
        let parsed = Json::parse(&body).unwrap();
        assert_eq!(parsed.get("status").and_then(Json::as_str), Some("ok"));
        // Flat: every top-level value is a scalar — a scraper never
        // recurses. (`stats` keeps its nested `cache` object.)
        match &parsed {
            Json::Obj(fields) => {
                for (key, value) in fields {
                    assert!(
                        !matches!(value, Json::Obj(_) | Json::Arr(_)),
                        "metrics field `{key}` is not a scalar"
                    );
                }
            }
            other => panic!("expected object, got {other:?}"),
        }
        let count = |key: &str| parsed.get(key).and_then(Json::as_u64);
        assert_eq!(count("requests"), Some(7));
        assert_eq!(count("verb_route"), Some(2));
        assert_eq!(count("verb_stats"), Some(1));
        assert_eq!(count("verb_devices"), Some(1));
        assert_eq!(count("verb_health"), Some(1));
        assert_eq!(count("verb_metrics"), Some(1), "counts itself");
        assert_eq!(count("errors"), Some(1), "the malformed line");
        assert_eq!(count("routed"), Some(1));
        assert_eq!(count("cache_hits"), Some(1));
        assert_eq!(count("cache_misses"), Some(1));
        assert_eq!(count("in_flight"), Some(0), "all work finished");
        assert_eq!(count("queue_depth"), Some(0));
        // The old `stats` shape is untouched: nested cache object, no
        // new fields.
        let stats = service.handle_line("{\"type\":\"stats\"}");
        assert!(stats.contains("\"cache\":{"), "{stats}");
        assert!(!stats.contains("verb_"), "{stats}");
        assert!(!stats.contains("in_flight"), "{stats}");
        service.handle_line("{\"type\":\"shutdown\"}");
    }

    #[test]
    fn fault_plan_delays_truncates_and_kills_the_stream() {
        use crate::faults::FaultPlan;
        // delay@1 serves normally (slowly); close:10@2 tears reply 2
        // after 10 bytes; the stream ends there.
        let service = Service::start(ServiceConfig {
            fault_plan: Some(FaultPlan::parse("delay:1@1;close:10@2").unwrap()),
            ..ServiceConfig::default()
        });
        let input = "{\"type\":\"stats\",\"id\":1}\n{\"type\":\"stats\",\"id\":2}\n\
                     {\"type\":\"stats\",\"id\":3}\n";
        let mut output = Vec::new();
        service
            .serve_ndjson(std::io::BufReader::new(input.as_bytes()), &mut output)
            .unwrap();
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<&str> = text.split('\n').collect();
        assert!(lines[0].contains("\"id\":1"), "{text}");
        assert_eq!(lines[1], "{\"id\":2,\"t", "10-byte torn frame: {text}");
        assert_eq!(lines.len(), 2, "the stream closed after the tear: {text}");

        // A kill fault stops the daemon mid-stream: replies before it,
        // nothing at or after it, and the killed flag latches so every
        // other stream of the same service stops too.
        let service = Service::start(ServiceConfig {
            fault_plan: Some(FaultPlan::parse("kill@2").unwrap()),
            ..ServiceConfig::default()
        });
        let mut output = Vec::new();
        service
            .serve_ndjson(std::io::BufReader::new(input.as_bytes()), &mut output)
            .unwrap();
        let text = String::from_utf8(output).unwrap();
        assert_eq!(text.lines().count(), 1, "{text}");
        assert!(service.fault_killed());
        let mut other = Vec::new();
        service
            .serve_ndjson(
                std::io::BufReader::new(&b"{\"type\":\"stats\"}\n"[..]),
                &mut other,
            )
            .unwrap();
        assert!(other.is_empty(), "killed daemons serve no stream");
    }

    #[test]
    fn tcp_round_trip_and_shutdown() {
        use std::io::{BufRead as _, BufReader, Write as _};
        let service = Service::start(ServiceConfig::default());
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().unwrap();
        let server = {
            let service = service.clone();
            std::thread::spawn(move || service.serve_tcp(listener, DEFAULT_DRAIN))
        };
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();

        stream
            .write_all(format!("{}\n", route_line("q20", "codar", GHZ3)).as_bytes())
            .unwrap();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"status\":\"ok\""), "{line}");

        line.clear();
        stream.write_all(b"{\"type\":\"shutdown\"}\n").unwrap();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"type\":\"shutdown\""), "{line}");
        server.join().unwrap().expect("accept loop exits cleanly");
    }
}
