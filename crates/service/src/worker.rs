//! The routing worker pool.
//!
//! A fixed number of worker threads pop [`RouteJob`]s off the bounded
//! queue, place each circuit and compile it with a per-worker
//! [`codar_engine::RouteWorker`] (one reusable scratch per thread; the
//! engine's `SuiteRunner` runs the same `compile`: route, **verify**
//! coupling compliance and semantic equivalence, optionally check by
//! simulation, score EPS), serialize the routed circuit back to QASM
//! and reply with a finished response body. Successful bodies are inserted
//! into the shared result cache before the reply is sent, so an
//! identical request that arrives next probes straight into a hit.
//!
//! Workers are also where the per-phase observability data is born:
//! every job's queue wait and routing phases (route, verify, simulate,
//! serialize) are measured against the serving thread's clock origin,
//! recorded into the shared phase histograms, and shipped back with
//! the reply as [`PhaseSample`]s so the serving thread can assemble
//! the request's span tree in one deterministic place.

use crate::cache::{RouteKey, ShardedCache};
use crate::metrics::ServiceMetrics;
use crate::protocol::{error_body, RouteOutcome};
use crate::queue::Bounded;
use crate::server::circuit_class;
use crate::trace::{phase_sample, PhaseSample};
use codar_arch::{CalibrationSnapshot, Device, FidelityModel};
use codar_circuit::from_qasm::circuit_to_qasm;
use codar_circuit::Circuit;
use codar_engine::{Compiled, RouteWorker, RouterKind, RouterVariant};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Instant;

/// One queued route request, ready to route.
#[derive(Debug)]
pub struct RouteJob {
    /// The request's identity (already probed: a miss). It carries the
    /// router, alpha and sim the worker runs. An `auto` key without a
    /// member is an explore job: the worker races every member, sets
    /// the winner as the member for the cache insert, and credits the
    /// win *before* the reply goes out, so the caller's next `auto`
    /// request already sees the leader.
    pub key: RouteKey,
    /// The parsed, ≤2-qubit-decomposed logical circuit.
    pub circuit: Circuit,
    /// Target device (shared; distance matrices are per-device).
    pub device: Arc<Device>,
    /// The device's active calibration snapshot at probe time (its
    /// version is already in `key`) with its EPS model, derived once at
    /// `calibration set` time and shared. `codar-cal` routes against
    /// the snapshot; any router's response reports EPS under it.
    pub calibration: Option<(Arc<CalibrationSnapshot>, Arc<FidelityModel>)>,
    /// When the serving thread received the request line — the zero of
    /// the request's trace timeline; phase offsets are measured
    /// against it.
    pub t0: Instant,
    /// When the job was pushed onto the queue (queue wait = pickup −
    /// enqueue).
    pub enqueued: Instant,
    /// Where the finished reply goes (the blocked caller).
    pub reply: mpsc::Sender<RouteReply>,
}

/// What a worker hands back: the response body plus the phase
/// measurements (queue wait first, then routing phases in execution
/// order). The *set* of phases is a deterministic function of the
/// request — only the `t_us`/`dur_us` values inside each sample are
/// wall-clock.
#[derive(Debug)]
pub struct RouteReply {
    /// The finished response body (no id/trace attached yet).
    pub body: String,
    /// Queue wait + routing phases, in execution order.
    pub phases: Vec<PhaseSample>,
}

/// Spawns the pool; threads exit when the queue is closed and drained.
pub fn spawn_pool(
    workers: usize,
    queue: &Arc<Bounded<RouteJob>>,
    cache: &Arc<ShardedCache>,
    metrics: &Arc<ServiceMetrics>,
    seed: u64,
) -> Vec<JoinHandle<()>> {
    (0..workers.max(1))
        .map(|i| {
            let queue = Arc::clone(queue);
            let cache = Arc::clone(cache);
            let metrics = Arc::clone(metrics);
            std::thread::Builder::new()
                .name(format!("codar-worker-{i}"))
                .spawn(move || {
                    let mut worker = RouteWorker::new();
                    while let Some(job) = queue.pop() {
                        let picked = Instant::now();
                        let queue_wait = phase_sample("queue_wait", job.t0, job.enqueued, picked);
                        metrics.hist_queue_wait.record(queue_wait.dur_us);
                        // The in-flight gauge spans pickup → reply
                        // handoff, so `metrics` can tell queued work
                        // (queue_depth) from work already on a core.
                        ServiceMetrics::bump(&metrics.in_flight);
                        // A panicking route must not kill the pool:
                        // later queued jobs would block their callers
                        // forever. Catch it, answer with an error, and
                        // rebuild the (possibly inconsistent) scratch.
                        let outcome =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                route_job(&mut worker, &job, seed)
                            }));
                        let (body, ok, mut phases, chosen) = outcome.unwrap_or_else(|_| {
                            worker = RouteWorker::new();
                            (
                                error_body("internal error: routing panicked"),
                                false,
                                Vec::new(),
                                None,
                            )
                        });
                        for phase in &phases {
                            if let Some(hist) = metrics.phase_histogram(phase.name) {
                                hist.record(phase.dur_us);
                            }
                        }
                        phases.insert(0, queue_wait);
                        if ok {
                            ServiceMetrics::bump(&metrics.routed);
                            // Explore jobs only learn their winner here,
                            // so the worker binds the key to it: the
                            // same key the serving thread probes with
                            // once this class has a leader.
                            let explore = job.key.explores();
                            let mut key = job.key;
                            if explore {
                                key.member = chosen;
                            }
                            cache.insert(&key, Arc::from(body.as_str()));
                            // Credit the win before the reply: the
                            // caller synchronizes on the reply channel,
                            // so its next `auto` request observes the
                            // updated table.
                            if let (true, Some(label)) = (explore, &key.member) {
                                let class = circuit_class(&job.circuit);
                                metrics.record_portfolio_win(job.device.name(), &class, label);
                            }
                        } else {
                            ServiceMetrics::bump(&metrics.errors);
                        }
                        // Decrement BEFORE the reply goes out: the
                        // caller synchronizes on the reply channel, so
                        // any request it serves afterwards (a `metrics`
                        // probe, say) observes the gauge already
                        // dropped. Decrementing after the send would
                        // leave the gauge to worker-thread scheduling
                        // and make `metrics` output nondeterministic.
                        ServiceMetrics::drop_one(&metrics.in_flight);
                        // A dropped receiver (client gone) is fine.
                        let _ = job.reply.send(RouteReply { body, phases });
                    }
                })
                .expect("spawn worker thread")
        })
        .collect()
}

/// Routes one job end to end; returns `(response body, success,
/// phases, chosen portfolio member)`. Failed jobs (router error,
/// verification failure, serialization error) produce error bodies and
/// are **never cached**; their phase list stops at the phase that
/// failed, which keeps the span structure a deterministic function of
/// the request. Portfolio (`auto`) jobs race their members through the
/// worker's one scratch, verifying each, inside the single `route`
/// phase, so the phase *set* is identical to a fixed router's.
fn route_job(
    worker: &mut RouteWorker,
    job: &RouteJob,
    seed: u64,
) -> (String, bool, Vec<PhaseSample>, Option<String>) {
    let mut phases: Vec<PhaseSample> = Vec::with_capacity(4);
    // The server checks fit before queueing; guard again here because
    // the placement builders assume it.
    if job.circuit.num_qubits() > job.device.num_qubits() {
        return (
            error_body(&format!(
                "routing failed: circuit uses {} qubits but {} has {}",
                job.circuit.num_qubits(),
                job.device.name(),
                job.device.num_qubits()
            )),
            false,
            phases,
            None,
        );
    }
    // The `route` phase includes the placement; each later phase
    // starts where the previous one ended.
    let mut from = Instant::now();
    let initial = worker.initial_mapping(&job.circuit, &job.device, seed);
    let alpha = job.key.alpha_bits.map(f64::from_bits);
    let variant = match (job.key.router, alpha) {
        // Explore jobs race the whole portfolio; exploit jobs route
        // just the leader their key is bound to. A leader that names no
        // member (it can only come from the member labels, but be
        // defensive) races them all under the exploit key.
        (RouterKind::Portfolio, Some(alpha)) => {
            let mut variant = RouterVariant::portfolio(alpha);
            if let Some(leader) = &job.key.member {
                if variant.members.iter().any(|m| &m.label == leader) {
                    variant.members.retain(|m| &m.label == leader);
                }
            }
            variant
        }
        (router, alpha) => {
            let mut variant = RouterVariant::of_kind(router);
            if let Some(alpha) = alpha {
                variant.codar.cal_alpha = alpha;
            }
            variant
        }
    };
    let compiled = worker.compile(
        &job.circuit,
        &job.device,
        &variant,
        Some(&initial),
        job.calibration
            .as_ref()
            .map(|(snapshot, model)| (snapshot.as_ref(), model.as_ref())),
        job.key.sim,
        |phase| {
            let now = Instant::now();
            phases.push(phase_sample(phase.name(), job.t0, from, now));
            from = now;
        },
    );
    let Compiled {
        routed,
        chosen,
        sim,
        eps,
    } = match compiled {
        Ok(compiled) => compiled,
        Err(e) => return (error_body(&e.message), false, phases, None),
    };
    let qasm = match circuit_to_qasm(&routed.circuit) {
        Ok(qasm) => qasm,
        Err(e) => {
            phases.push(phase_sample("serialize", job.t0, from, Instant::now()));
            return (
                error_body(&format!("cannot serialize routed circuit: {e}")),
                false,
                phases,
                None,
            );
        }
    };
    // With an active snapshot every route response (any router)
    // reports the routed circuit's EPS under it, alongside the
    // snapshot version the result is bound to.
    let calibration = job
        .calibration
        .as_ref()
        .zip(eps)
        .map(|((snapshot, _), eps)| (snapshot.version, eps));
    let outcome = RouteOutcome {
        device: job.device.name().to_string(),
        router: job.key.router,
        qubits: job.circuit.num_qubits(),
        input_gates: job.circuit.len(),
        weighted_depth: routed.weighted_depth,
        depth: routed.depth(),
        swaps: routed.swaps_inserted,
        output_gates: routed.gate_count(),
        calibration,
        // A requested backend is reported back even when `auto` lands
        // on dense, so a client always sees what ran: no silent
        // fallback.
        sim: sim.map(|resolved| resolved.name().to_string()),
        chosen: chosen.clone(),
        qasm,
    };
    let body = outcome.body();
    phases.push(phase_sample("serialize", job.t0, from, Instant::now()));
    (body, true, phases, chosen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use codar_engine::Backend;

    fn job_for(source: &str, router: RouterKind) -> (RouteJob, mpsc::Receiver<RouteReply>) {
        let circuit = codar_circuit::from_qasm::circuit_from_source(source).expect("parse");
        let (tx, rx) = mpsc::channel();
        let now = Instant::now();
        (
            RouteJob {
                key: RouteKey::new(source.to_string(), "q5", router, None, None),
                circuit,
                device: Arc::new(Device::ibm_q5_yorktown()),
                calibration: None,
                t0: now,
                enqueued: now,
                reply: tx,
            },
            rx,
        )
    }

    fn phase_names(phases: &[PhaseSample]) -> Vec<&'static str> {
        phases.iter().map(|p| p.name).collect()
    }

    #[test]
    fn routes_verify_and_report_metrics() {
        let (job, _rx) = job_for(
            "OPENQASM 2.0; include \"qelib1.inc\"; qreg q[4]; creg c[4]; \
             h q[0]; cx q[0], q[3]; cx q[1], q[2]; measure q -> c;",
            RouterKind::Codar,
        );
        let mut worker = RouteWorker::new();
        let (body, ok, phases, chosen) = route_job(&mut worker, &job, 0);
        assert!(ok, "{body}");
        assert_eq!(chosen, None, "fixed routers never report a winner");
        // No sim was requested, so the phase set is exactly the
        // sim-less pipeline, in execution order.
        assert_eq!(phase_names(&phases), ["route", "verify", "serialize"]);
        let parsed = Json::parse(&body).unwrap();
        assert_eq!(parsed.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(parsed.get("verified").and_then(Json::as_bool), Some(true));
        let qasm = parsed.get("qasm").and_then(Json::as_str).unwrap();
        // The routed QASM is itself valid and re-parses.
        codar_circuit::from_qasm::circuit_from_source(qasm).expect("routed QASM parses");
    }

    #[test]
    fn sim_requests_verify_and_report_the_resolved_backend() {
        // A Clifford circuit under `auto` resolves to the stabilizer
        // backend and the response says so.
        let (mut job, _rx) = job_for(
            "qreg q[4]; h q[0]; cx q[0], q[3]; cx q[1], q[2];",
            RouterKind::Codar,
        );
        job.key.sim = Some(Backend::Auto);
        let mut worker = RouteWorker::new();
        let (body, ok, phases, _) = route_job(&mut worker, &job, 0);
        assert!(ok, "{body}");
        // Sim requests add exactly one `simulate` phase between
        // verify and serialize.
        assert_eq!(
            phase_names(&phases),
            ["route", "verify", "simulate", "serialize"]
        );
        let parsed = Json::parse(&body).unwrap();
        assert_eq!(parsed.get("sim").and_then(Json::as_str), Some("stabilizer"));
        // An explicit dense request is honored and still reported —
        // the field is present exactly when the request asked.
        job.key.sim = Some(Backend::Dense);
        let (tx, _rx2) = mpsc::channel();
        job.reply = tx;
        let (body, ok, _, _) = route_job(&mut worker, &job, 0);
        assert!(ok, "{body}");
        let parsed = Json::parse(&body).unwrap();
        assert_eq!(parsed.get("sim").and_then(Json::as_str), Some("dense"));
        // A backend that cannot run the circuit is a clean error body
        // whose phase list stops at the failing phase.
        let (mut t_job, _rx3) = job_for("qreg q[3]; t q[0]; cx q[0], q[2];", RouterKind::Codar);
        t_job.key.sim = Some(Backend::Stabilizer);
        let (body, ok, phases, _) = route_job(&mut worker, &t_job, 0);
        assert!(!ok);
        assert!(body.contains("simulation check failed"), "{body}");
        assert_eq!(phase_names(&phases), ["route", "verify", "simulate"]);
    }

    #[test]
    fn router_errors_become_error_bodies_not_panics() {
        // 6 qubits cannot fit the 5-qubit Yorktown.
        let (job, _rx) = job_for("qreg q[6]; cx q[0], q[5];", RouterKind::Sabre);
        let mut worker = RouteWorker::new();
        let (body, ok, phases, _) = route_job(&mut worker, &job, 0);
        assert!(!ok);
        // The fit guard fires before any phase starts.
        assert!(phases.is_empty());
        let parsed = Json::parse(&body).unwrap();
        assert_eq!(parsed.get("status").and_then(Json::as_str), Some("error"));
        assert!(
            parsed
                .get("error")
                .and_then(Json::as_str)
                .unwrap()
                .contains("routing failed"),
            "{body}"
        );
    }

    #[test]
    fn portfolio_explore_jobs_finalize_key_and_credit_the_win() {
        let queue = Arc::new(Bounded::new(4));
        let cache = Arc::new(ShardedCache::new(8, 2));
        let metrics = Arc::new(ServiceMetrics::new());
        let handles = spawn_pool(1, &queue, &cache, &metrics, 0);
        let (job, rx) = job_for(
            "qreg q[4]; h q[0]; cx q[0], q[3]; cx q[1], q[2];",
            RouterKind::Portfolio,
        );
        let mut key = job.key.clone();
        queue.try_push(job).unwrap();
        let reply = rx.recv().expect("worker replies");
        let parsed = Json::parse(&reply.body).unwrap();
        assert_eq!(parsed.get("router").and_then(Json::as_str), Some("auto"));
        let chosen = parsed
            .get("chosen")
            .and_then(Json::as_str)
            .expect("explore replies carry the winner")
            .to_string();
        assert!(
            ["codar", "codar-cal", "greedy", "sabre"].contains(&chosen.as_str()),
            "{chosen}"
        );
        // The phase set matches a fixed router's — the member race
        // happens inside the single `route` phase.
        let names: Vec<_> = reply.phases.iter().map(|p| p.name).collect();
        assert_eq!(names, ["queue_wait", "route", "verify", "serialize"]);
        // The win was credited before the reply...
        assert_eq!(
            metrics
                .portfolio_leader("IBM Q5 Yorktown", "q4g2")
                .as_deref(),
            Some(chosen.as_str())
        );
        // ...and the body was cached under the winner-bound key, the
        // key an exploit probe builds.
        assert_eq!(cache.get(&key), None, "explore keys are never filled");
        key.member = Some(chosen);
        assert_eq!(cache.get(&key).as_deref(), Some(reply.body.as_str()));
        queue.close();
        for handle in handles {
            handle.join().expect("worker exits cleanly");
        }
    }

    #[test]
    fn pool_drains_queue_then_exits() {
        let queue = Arc::new(Bounded::new(16));
        let cache = Arc::new(ShardedCache::new(8, 2));
        let metrics = Arc::new(ServiceMetrics::new());
        let handles = spawn_pool(2, &queue, &cache, &metrics, 0);
        let mut receivers = Vec::new();
        for _ in 0..4 {
            let (job, rx) = job_for(
                "qreg q[3]; cx q[0], q[2]; cx q[1], q[2];",
                RouterKind::Codar,
            );
            queue.try_push(job).unwrap();
            receivers.push(rx);
        }
        for rx in receivers {
            let reply = rx.recv().expect("worker replies");
            assert!(reply.body.contains("\"status\":\"ok\""), "{}", reply.body);
            // Queue wait rides in front of the routing phases.
            assert_eq!(reply.phases[0].name, "queue_wait");
        }
        queue.close();
        for handle in handles {
            handle.join().expect("worker exits cleanly");
        }
        assert_eq!(ServiceMetrics::read(&metrics.routed), 4);
    }
}
