//! `serve-hot`: the daemon in-process.
//!
//! One client thread calls `Service::handle_line` in a closed loop (it
//! sends the next request only after the reply to the previous one) on
//! a daemon with one worker thread, a 1024-entry cache in 8 shards and
//! no trace log. A run has one request stream per sub-seed of its seed
//! and is a sequence of rounds over the streams in turn; each round
//! starts a fresh `Service` with an empty cache, then times one stream.
//! Replies are checked after the round, outside the timed loop, and
//! every round of a stream must produce the same reply stream.
//!
//! The traced run alternates untraced rounds, the baseline of
//! `trace_overhead_pct` and the samples of `service.p99_us`, with
//! traced ones. A traced round times every `handle_line` call as a span
//! and, after the round, calls the stage functions `handle_line` runs on
//! the exact bytes each request carried: the envelope parse, the QASM
//! frontend, lowering and re-serialization, and on cache misses
//! (predicted by the client and checked against the cache counters) the
//! initial mapping, the route and both verifier checks. Queue wait and
//! the worker's phases are read from the daemon's `metrics` histograms.
//! The split of `handle_line` time into layers uses these timings as
//! estimates of its parts; what remains of `handle_line` is the
//! service's own time, and what remains of the round's wall time
//! outside `handle_line` is unattributed.

use crate::spans::SpanLog;
use crate::stream::{Generator, ServeSpec, Stream};
use crate::{set_up_repeatedly, stats, sub_seeds, Report};
use codar_arch::Device;
use codar_circuit::decompose::decompose_three_qubit_gates;
use codar_circuit::from_qasm::{circuit_from_flat, circuit_to_qasm};
use codar_engine::{RouteWorker, RouterKind, RouterVariant};
use codar_router::verify::{check_coupling, check_equivalence};
use codar_service::cache::{fnv1a_extend, FNV_OFFSET};
use codar_service::json::Json;
use codar_service::{Request, Service, ServiceConfig};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Daemon phases read from the `metrics` histograms.
const PHASES: [&str; 4] = [
    "queue_wait",
    "phase_route",
    "phase_verify",
    "phase_serialize",
];

fn config() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        cache_capacity: 1024,
        cache_shards: 8,
        trace_log: None,
        ..ServiceConfig::default()
    }
}

/// What one reply said, as far as the checks go.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Facts {
    ok: bool,
    weighted_depth: u64,
    swaps: u64,
}

fn facts(reply: &str) -> Facts {
    let Ok(json) = Json::parse(reply) else {
        return Facts::default();
    };
    Facts {
        ok: json.get("status").and_then(Json::as_str) == Some("ok"),
        weighted_depth: json
            .get("weighted_depth")
            .and_then(Json::as_u64)
            .unwrap_or(0),
        swaps: json.get("swaps").and_then(Json::as_u64).unwrap_or(0),
    }
}

fn route_ok(reply: &str, facts: &Facts) -> bool {
    facts.ok && reply.starts_with("{\"type\":\"route\"") && reply.contains("\"verified\":true")
}

fn set_up(spec: &ServeSpec, seed: u64, report: &mut Report) -> (Vec<Stream>, f64) {
    let started = Instant::now();
    drop(Device::presets());
    let catalog_ms = started.elapsed().as_secs_f64() * 1e3;
    let generator = Generator::new(spec);
    let streams: Vec<Stream> = sub_seeds(seed).map(|s| generator.stream(s)).collect();
    // Untimed warm-up on a throwaway service: process-wide lazy
    // initialisation is paid here, inside set-up.
    let service = Service::start(config());
    for op in &streams[0].warmup {
        let reply = service.handle_line(&op.line);
        if !facts(&reply).ok {
            report.fail(&format!("warm-up request failed: {reply}"));
        }
    }
    drop(service);
    (streams, catalog_ms)
}

/// One round's measurements.
struct Round {
    wall: Duration,
    /// `handle_line` duration per op.
    durations: Vec<Duration>,
    replies: Vec<String>,
    /// `(sum_us, samples)` per entry of [`PHASES`].
    phases: [(u64, u64); PHASES.len()],
    cache_hits: u64,
    cache_misses: u64,
}

fn run_round(stream: &Stream, mut log: Option<&mut SpanLog>) -> Round {
    let service = Service::start(config());
    let n = stream.ops.len();
    let mut durations = Vec::with_capacity(n);
    let mut replies = Vec::with_capacity(n);
    let root = log
        .as_deref_mut()
        .map(|log| log.open("bench.round", None, 0));
    let started = Instant::now();
    for (i, op) in stream.ops.iter().enumerate() {
        let from = Instant::now();
        let reply = service.handle_line(&op.line);
        let to = Instant::now();
        if let Some(log) = log.as_deref_mut() {
            log.record("service.handle_line", root, i as u64, from, to);
        }
        durations.push(to - from);
        replies.push(reply);
    }
    let wall = started.elapsed();
    if let (Some(log), Some(root)) = (log, root) {
        log.close(root);
    }
    let metrics = Json::parse(&service.handle_line("{\"type\":\"metrics\",\"hist\":true}"))
        .unwrap_or(Json::Null);
    let phases = PHASES.map(|name| {
        let read = |field: &str| {
            metrics
                .get(&format!("hist_{name}_{field}"))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        (read("sum_us"), read("total"))
    });
    let cache = service.cache_stats();
    drop(service);
    Round {
        wall,
        durations,
        replies,
        phases,
        cache_hits: cache.hits,
        cache_misses: cache.misses,
    }
}

/// The output checks of a round: every reply passes, and the reply
/// stream equals the first round's (`first` holds its FNV and facts).
/// Returns the facts of every reply.
fn check_round(
    round: &Round,
    first: &mut Option<(u64, Vec<Facts>)>,
    report: &mut Report,
) -> Vec<Facts> {
    let mut fnv = FNV_OFFSET;
    let mut all = Vec::with_capacity(round.replies.len());
    for reply in &round.replies {
        fnv = fnv1a_extend(fnv1a_extend(fnv, reply.as_bytes()), b"\n");
        let f = facts(reply);
        let ok = route_ok(reply, &f);
        if !ok {
            eprintln!(
                "failed reply: {}",
                reply.chars().take(200).collect::<String>()
            );
        }
        report.count(ok);
        all.push(f);
    }
    match first {
        None => *first = Some((fnv, all.clone())),
        Some((expected, _)) if *expected != fnv => {
            report.fail("reply stream differs between rounds of one seed");
        }
        Some(_) => {}
    }
    all
}

/// Totals of the traced rounds.
#[derive(Default)]
struct Traced {
    rounds: usize,
    wall: Duration,
    handle_line: Duration,
    routes: usize,
    hit_us: Vec<f64>,
    miss_us: Vec<f64>,
    phases: [(u64, u64); PHASES.len()],
    cache_hits: u64,
    cache_misses: u64,
    predicted_misses: u64,
    swaps: u64,
    routed: usize,
}

/// Calls the stage functions of every request of a traced round on its
/// exact bytes (see the module docs); cross-checks each replayed route
/// against the daemon's reply.
fn replay_round(
    spec: &ServeSpec,
    stream: &Stream,
    round: &Round,
    replies: &[Facts],
    log: &mut SpanLog,
    acc: &mut Traced,
    report: &mut Report,
) {
    let device = Device::by_name(spec.device).expect("preset device");
    let kind = RouterKind::parse(spec.router).expect("known router");
    assert!(
        matches!(kind, RouterKind::Codar),
        "the replay's route spans are codar's"
    );
    let variant = RouterVariant::of_kind(kind);
    let mut worker = RouteWorker::new();
    let mut seen = HashSet::new();
    let root = log.open("bench.replay", None, acc.rounds as u64);
    for (i, op) in stream.ops.iter().enumerate() {
        let at = Some(root);
        let op_id = i as u64;
        let handle_us = round.durations[i].as_secs_f64() * 1e6;
        let request = log
            .time("service.envelope", at, op_id, || {
                Request::parse_envelope(&op.line)
            })
            .expect("generated lines parse")
            .request;
        let Request::Route { qasm, .. } = request else {
            panic!("op {i} parsed as {request:?}");
        };
        acc.routes += 1;
        let flat = log
            .time("qasm.parse_flatten", at, op_id, || {
                codar_qasm::parse_and_flatten(&qasm)
            })
            .expect("generated circuits parse");
        let circuit = log.time("circuit.lower", at, op_id, || {
            decompose_three_qubit_gates(&circuit_from_flat(&flat))
        });
        log.time("circuit.write", at, op_id, || circuit_to_qasm(&circuit))
            .expect("suite circuits serialize");
        if !seen.insert(op.entry) {
            acc.hit_us.push(handle_us);
            continue;
        }
        acc.miss_us.push(handle_us);
        acc.predicted_misses += 1;
        let initial = log.time("core.mapping", at, op_id, || {
            worker.initial_mapping(&circuit, &device, config().seed)
        });
        let routed = log
            .time("core.route_codar", at, op_id, || {
                worker.route(&circuit, &device, &variant, Some(initial), None)
            })
            .expect("pool circuits fit the device");
        let coupling = log.time("core.verify_coupling", at, op_id, || {
            check_coupling(&routed.circuit, &device).is_ok()
        });
        let equivalent = log.time("core.verify_equiv", at, op_id, || {
            check_equivalence(&circuit, &routed).is_ok()
        });
        acc.swaps += routed.swaps_inserted as u64;
        acc.routed += 1;
        let served = replies[i];
        let replayed = Facts {
            ok: coupling && equivalent,
            weighted_depth: routed.weighted_depth,
            swaps: routed.swaps_inserted as u64,
        };
        if served != replayed {
            report.fail(&format!(
                "request {i}: reply {served:?} differs from the in-process replay {replayed:?}"
            ));
        }
    }
    log.close(root);
}

/// The rounds of one stream: the first reply stream (FNV and facts),
/// which every later round must reproduce, and each round's wall time
/// and per-op latencies (µs).
#[derive(Default)]
struct Runs {
    first: Option<(u64, Vec<Facts>)>,
    walls: Vec<f64>,
    op_us: Vec<Vec<f64>>,
}

impl Runs {
    /// Checks `round` and records it as an untraced round.
    fn add(&mut self, round: &Round, report: &mut Report) {
        check_round(round, &mut self.first, report);
        self.walls.push(round.wall.as_secs_f64());
        self.op_us.push(
            round
                .durations
                .iter()
                .map(|d| d.as_secs_f64() * 1e6)
                .collect(),
        );
    }

    /// The facts of the replies of the stream's first round.
    fn facts(&self) -> &[Facts] {
        let (_, facts) = self.first.as_ref().expect("the stream ran");
        facts
    }
}

/// Runs the workload for `seconds` (see the module docs).
pub fn run(
    spec: &ServeSpec,
    seed: u64,
    seconds: f64,
    trace: bool,
    report: &mut Report,
    log: &mut SpanLog,
) {
    let mut catalog_ms = Vec::new();
    let (streams, setup_s) = set_up_repeatedly(|| {
        let (streams, ms) = set_up(spec, seed, report);
        catalog_ms.push(ms);
        streams
    });
    report.set("setup_s", setup_s);
    report.set("arch.catalog_build_ms", stats::median(&catalog_ms));
    if trace {
        traced(spec, &streams, seconds, report, log);
    } else {
        untraced(spec, &streams, seed, seconds, report);
    }
}

/// Rounds over the streams in turn, every stream at least once, until
/// `seconds` have passed; then the end-to-end metrics. Every round of a
/// stream replays the same requests, so each request's latency is its
/// fastest over the stream's rounds (see [`crate`] on why the fastest).
/// The client waits for every reply, so throughput is the routes over
/// the sum of these latencies. Both are taken over all streams.
fn untraced(spec: &ServeSpec, streams: &[Stream], seed: u64, seconds: f64, report: &mut Report) {
    let clock = Instant::now();
    let mut runs: Vec<Runs> = streams.iter().map(|_| Runs::default()).collect();
    let (mut rounds, mut hits, mut probes) = (0, 0u64, 0u64);
    while rounds < streams.len() || clock.elapsed().as_secs_f64() < seconds {
        let k = rounds % streams.len();
        let round = run_round(&streams[k], None);
        runs[k].add(&round, report);
        hits += round.cache_hits;
        probes += round.cache_hits + round.cache_misses;
        rounds += 1;
    }
    let mut busy_us = 0.0;
    let mut per_request = Vec::new();
    for r in &runs {
        let per_op = stats::position_minima(&r.op_us);
        busy_us += per_op.iter().sum::<f64>();
        per_request.extend(per_op);
    }
    let req_per_s = per_request.len() as f64 / busy_us * 1e6;
    let p50 = stats::percentile(&per_request, 50.0).expect("route samples");
    let p90 = stats::percentile(&per_request, 90.0).expect("route samples");
    let wdepth_geomean = stats::geomean(
        runs.iter()
            .flat_map(Runs::facts)
            .map(|f| f.weighted_depth as f64),
    );
    eprintln!(
        "{} seed {seed}: {rounds} rounds over {} streams of {} routes (seeds {:?}), each round on a fresh daemon",
        spec.router,
        streams.len(),
        streams[0].ops.len(),
        sub_seeds(seed).collect::<Vec<_>>()
    );
    eprintln!("  serve.req_per_s               {req_per_s:.1} routes/s");
    for (name, p) in [("p50", p50), ("p90", p90)] {
        eprintln!(
            "  serve.{name}_us                  {:.1} us ({} of {} routes above; each route's fastest over rounds)",
            p.value,
            p.beyond,
            per_request.len()
        );
    }
    eprintln!(
        "  cache hit ratio               {:.4} ({hits} of {probes} probes)",
        stats::per(hits as f64, probes as usize)
    );
    eprintln!("  serve.wdepth_geomean          {wdepth_geomean} cycles");
    for (k, r) in runs.iter().enumerate() {
        let (fnv, _) = r.first.as_ref().expect("every stream ran");
        let walls: Vec<String> = r.walls.iter().map(|w| format!("{:.1}", w * 1e3)).collect();
        eprintln!(
            "  stream {k} reply fnv {fnv:016x}, wdepth sum {}, round walls (ms) {}",
            r.facts().iter().map(|f| f.weighted_depth).sum::<u64>(),
            walls.join(" ")
        );
    }
    report.set("throughput_per_s", req_per_s);
    report.set("p50_us", p50.value);
    report.set("p90_us", p90.value);
    report.set("wdepth_geomean", wdepth_geomean);
}

/// Pairs of rounds over the streams in turn, every stream at least
/// once, until `seconds` have passed: an untraced round, then a traced
/// one whose requests are replayed stage by stage. Then the per-layer
/// metrics.
fn traced(
    spec: &ServeSpec,
    streams: &[Stream],
    seconds: f64,
    report: &mut Report,
    log: &mut SpanLog,
) {
    let clock = Instant::now();
    let mut runs: Vec<Runs> = streams.iter().map(|_| Runs::default()).collect();
    let mut acc = Traced::default();
    while acc.rounds < streams.len() || clock.elapsed().as_secs_f64() < seconds {
        let k = acc.rounds % streams.len();
        let stream = &streams[k];
        let round = run_round(stream, None);
        runs[k].add(&round, report);

        let round = run_round(stream, Some(log));
        let replies = check_round(&round, &mut runs[k].first, report);
        replay_round(spec, stream, &round, &replies, log, &mut acc, report);
        acc.rounds += 1;
        acc.wall += round.wall;
        acc.handle_line += round.durations.iter().sum::<Duration>();
        acc.cache_hits += round.cache_hits;
        acc.cache_misses += round.cache_misses;
        for (total, (sum_us, n)) in acc.phases.iter_mut().zip(round.phases) {
            total.0 += sum_us;
            total.1 += n;
        }
    }
    if acc.predicted_misses != acc.cache_misses {
        eprintln!(
            "note: {} misses predicted, the cache counted {}",
            acc.predicted_misses, acc.cache_misses
        );
    }
    let route_us: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.op_us.iter().flatten())
        .copied()
        .collect();
    let p99 = stats::percentile(&route_us, 99.0).expect("route samples");
    eprintln!(
        "  service.p99_us                {:.1} us ({} above, n={})",
        p99.value,
        p99.beyond,
        route_us.len()
    );
    report.set("service.p99_us", p99.value);
    report_layers(&acc, log, report);
    report.set(
        "serve.wdepth_sum",
        runs.iter()
            .flat_map(Runs::facts)
            .map(|f| f.weighted_depth as f64)
            .sum::<f64>(),
    );
    let untraced_s: f64 = runs.iter().flat_map(|r| &r.walls).sum();
    report.set(
        "trace_overhead_pct",
        stats::pct(acc.wall.as_secs_f64() - untraced_s, untraced_s),
    );
    eprintln!(
        "traced: {} pairs of untraced and traced rounds, {} spans",
        acc.rounds,
        log.spans().len()
    );
}

/// Per-layer metrics and the wall-time reconciliation of the traced
/// rounds.
fn report_layers(acc: &Traced, log: &SpanLog, report: &mut Report) {
    let us = |name: &str| log.total(name).0 as f64 / 1e3;
    for name in [
        "service.envelope",
        "qasm.parse_flatten",
        "circuit.lower",
        "circuit.write",
        "core.mapping",
        "core.route_codar",
        "core.verify_coupling",
        "core.verify_equiv",
    ] {
        report.set(format!("{name}_us"), log.mean_us(name));
    }
    report.set("qasm.parse_calls", log.total("qasm.parse_flatten").1 as f64);
    report.set("service.hit_us", stats::mean(&acc.hit_us));
    report.set("service.miss_us", stats::mean(&acc.miss_us));
    let phase_mean = |i: usize| stats::per(acc.phases[i].0 as f64, acc.phases[i].1 as usize);
    report.set("service.queue_wait_us", phase_mean(0));
    report.set("service.worker_route_us", phase_mean(1));
    report.set("service.worker_verify_us", phase_mean(2));
    report.set("service.worker_serialize_us", phase_mean(3));
    let probes = acc.cache_hits + acc.cache_misses;
    eprintln!(
        "  service.cache_hit_ratio base: {} hits of {probes} cache probes",
        acc.cache_hits
    );
    report.set(
        "service.cache_hit_ratio",
        stats::per(acc.cache_hits as f64, probes as usize),
    );
    let route = us("core.route_codar");
    let verify = us("core.verify_coupling") + us("core.verify_equiv");
    report.set(
        "core.verify_to_route",
        if route > 0.0 { verify / route } else { 0.0 },
    );
    report.set("core.swaps_codar", stats::per(acc.swaps as f64, acc.routed));

    // Where the time inside `handle_line` went, per layer: the replayed
    // stage timings and the daemon's phase histograms stand for its
    // parts; the rest of `handle_line` is the service's own time.
    let phase_us = |i: usize| acc.phases[i].0 as f64;
    let qasm = us("qasm.parse_flatten");
    let circuit = us("circuit.lower") + us("circuit.write") + phase_us(3);
    let core = phase_us(1) + phase_us(2);
    let handle_line = acc.handle_line.as_secs_f64() * 1e6;
    let service_parts = us("service.envelope") + phase_us(0);
    let service_self = handle_line - (qasm + circuit + core + service_parts);
    report.set("service.self_us", stats::per(service_self, acc.routes));
    let wall = acc.wall.as_secs_f64() * 1e6;
    for (layer, value) in [
        ("qasm", qasm),
        ("circuit", circuit),
        ("core", core),
        ("engine", 0.0),
        ("service", service_parts + service_self),
    ] {
        report.set(format!("layer.{layer}_pct"), stats::pct(value, wall));
    }
    report.set(
        "service.unattributed_pct",
        stats::pct(wall - handle_line, wall),
    );
}
