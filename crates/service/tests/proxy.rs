//! The sharded-tier contracts: shard count is invisible (byte-identical
//! response streams through 1, 2 and 4 backends), seeded kill+restart
//! runs replay byte-identically, and every transport fault kind —
//! delay, hang, refuse-accept, close-after-N, kill — still yields
//! exactly one well-formed reply per client line, byte-equal to a
//! direct single-daemon run. These are the determinism gate and fault
//! matrix the CI proxy smoke re-checks over real processes.

use codar_benchmarks::generators;
use codar_circuit::from_qasm::circuit_to_qasm;
use codar_service::fuzz::InvariantChecker;
use codar_service::json::{escape, Json};
use codar_service::protocol::error_body;
use codar_service::proxy::{shard_key, Proxy, ProxyConfig};
use codar_service::{FaultPlan, Service, ServiceConfig, ShardFleet};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A small deterministic circuit for request `pick` (3–5 qubits, so it
/// fits every catalog device).
fn circuit_qasm(pick: u64) -> String {
    let n = 3 + (pick % 3) as usize;
    let gates = 8 + (pick % 24) as usize;
    circuit_to_qasm(&generators::random_clifford_t(n, gates, pick % 7)).expect("serializes")
}

fn route_line(id: u64, device: &str, router: &str, pick: u64) -> String {
    format!(
        "{{\"type\":\"route\",\"id\":{id},\"device\":\"{device}\",\
         \"router\":\"{router}\",\"circuit\":{}}}",
        escape(&circuit_qasm(pick))
    )
}

/// Proxy config for in-process tests: prober parked (an hour) so fault
/// request indices count exactly the lines the tests send, and
/// microsecond backoff so retry storms don't slow the suite.
fn tier_config(backends: Vec<String>) -> ProxyConfig {
    ProxyConfig {
        backends,
        connect_timeout: Duration::from_millis(500),
        read_timeout: Duration::from_millis(2000),
        retries: 3,
        backoff_base: Duration::from_micros(100),
        backoff_cap: Duration::from_micros(400),
        probe_interval: Duration::from_secs(3600),
        seed: 7,
        trace_log: None,
    }
}

/// The deterministic forwarded-verb stream of the shard-count gate:
/// routes over a small circuit space (repeats → cache hits on the
/// owning shard), error paths and `devices` probes. No
/// stats/metrics/health — the proxy answers those itself, with its own
/// counters, so they are legitimately tier-dependent.
fn request_stream(seed: u64, range: std::ops::Range<u64>) -> Vec<String> {
    range
        .map(|i| {
            let x =
                (seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            match x % 10 {
                0..=6 => {
                    let device = ["q5", "q16", "q20"][(x / 10 % 3) as usize];
                    let router = ["codar", "sabre", "greedy"][(x / 30 % 3) as usize];
                    route_line(i, device, router, x / 90 % 6)
                }
                7 => format!(
                    "{{\"type\":\"route\",\"id\":{i},\"device\":\"nonexistent\",\"circuit\":\"x\"}}"
                ),
                8 => format!(
                    "{{\"type\":\"route\",\"id\":{i},\"device\":\"q5\",\"circuit\":\"qreg q[;\"}}"
                ),
                _ => format!("{{\"type\":\"devices\",\"id\":{i}}}"),
            }
        })
        .collect()
}

fn u64_field(body: &str, key: &str) -> u64 {
    Json::parse(body)
        .expect(body)
        .get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("no integer `{key}` in {body}"))
}

/// The determinism gate: the same request stream through a 1-, 2- and
/// 4-shard tier produces the response stream of a direct single
/// daemon, byte for byte and in order — clients cannot tell how many
/// shards answered, or that a proxy was there at all.
#[test]
fn shard_count_one_two_four_is_byte_invisible() {
    let base = ServiceConfig::default();
    let lines = request_stream(0xC0DA, 0..40);
    let direct = Service::start(base.clone());
    let reference: Vec<String> = lines.iter().map(|l| direct.handle_line(l)).collect();
    for shards in [1usize, 2, 4] {
        let mut fleet = ShardFleet::start(&base, &vec![None; shards], Duration::from_millis(300))
            .expect("fleet starts");
        let proxy = Proxy::start(tier_config(fleet.addrs())).expect("proxy starts");
        let mut conns = proxy.connections();
        let replies: Vec<String> = lines
            .iter()
            .map(|l| proxy.handle_line(l, &mut conns))
            .collect();
        assert_eq!(
            replies, reference,
            "{shards}-shard tier is not byte-transparent"
        );
        if shards == 4 {
            // The tier really spread the keyspace: more than one shard
            // served traffic (HRW would be pointless otherwise).
            let metrics = proxy.metrics_body();
            let spread = (0..shards)
                .filter(|i| u64_field(&metrics, &format!("backend_{i}_served")) > 0)
                .count();
            assert!(spread >= 2, "only {spread} of 4 shards served: {metrics}");
        }
        fleet.shutdown();
    }
}

/// One seeded kill+restart scenario: shard 1 is armed to die on its
/// first request, the stream runs, the dead shard is revived
/// supervisor-style mid-run, and the stream continues. Returns the full
/// in-order response stream.
fn kill_restart_run(before: &[String], after: &[String]) -> Vec<String> {
    let base = ServiceConfig::default();
    let plans = [
        None,
        Some(FaultPlan::parse("kill@1").expect("plan parses")),
        None,
    ];
    let mut fleet =
        ShardFleet::start(&base, &plans, Duration::from_millis(300)).expect("fleet starts");
    let proxy = Proxy::start(tier_config(fleet.addrs())).expect("proxy starts");
    let mut replies = Vec::new();
    let mut conns = proxy.connections();
    for line in before {
        replies.push(proxy.handle_line(line, &mut conns));
    }
    if !fleet.is_killed(1) {
        // Placement is port-dependent (ephemeral ports feed the HRW
        // hash), so on rare streams shard 1 never sees a request.
        // Retire it gracefully so the restart below has a dead shard
        // either way — the byte contract must hold regardless.
        let _ = fleet.service(1).handle_line("{\"type\":\"shutdown\"}");
    }
    fleet.restart(1).expect("shard 1 rebinds its port");
    proxy.set_alive(1, true);
    // Fresh pool: the old shard-1 connection died with the process.
    let mut conns = proxy.connections();
    for line in after {
        replies.push(proxy.handle_line(line, &mut conns));
    }
    fleet.shutdown();
    replies
}

/// The rerun gate: two full executions of the seeded kill+restart
/// scenario produce byte-identical response streams — and both match a
/// fault-free direct daemon, so the crash never leaked into a reply.
#[test]
fn seeded_kill_restart_reruns_are_byte_identical() {
    // Mostly-distinct circuits so the armed shard almost surely owns
    // some keys before the restart point.
    let before = request_stream(0xFA17, 0..30);
    let after = request_stream(0xFA17, 30..48);
    let first = kill_restart_run(&before, &after);
    let second = kill_restart_run(&before, &after);
    assert_eq!(first, second, "kill+restart reruns diverged");
    let direct = Service::start(ServiceConfig::default());
    let reference: Vec<String> = before
        .iter()
        .chain(after.iter())
        .map(|l| direct.handle_line(l))
        .collect();
    assert_eq!(first, reference, "crash recovery leaked into the bytes");
}

/// The fault matrix: each fault kind armed on one of two shards, a
/// stream aimed so the armed shard sees traffic, and every line must
/// come back as exactly one well-formed reply (the proxy-aware
/// invariant checker judges shape) byte-equal to a direct daemon.
/// Kill, torn frames and hangs must additionally show up as failovers.
#[test]
fn every_fault_kind_yields_one_well_formed_reply_per_line() {
    let base = ServiceConfig::default();
    let direct = Service::start(base.clone());
    for (spec, must_fail_over) in [
        ("delay:40@1", false),
        ("hang:600@1", true),
        ("refuse@1", false),
        ("close:5@1", true),
        ("kill@1", true),
    ] {
        let plans = [Some(FaultPlan::parse(spec).expect(spec)), None];
        let mut fleet =
            ShardFleet::start(&base, &plans, Duration::from_millis(300)).expect("fleet starts");
        let proxy = Proxy::start(ProxyConfig {
            // Shorter than the hang so it surfaces as a read timeout.
            read_timeout: Duration::from_millis(250),
            ..tier_config(fleet.addrs())
        })
        .expect("proxy starts");
        // Interleave lines owned by the armed shard with lines owned by
        // the clean one, so the fault definitely fires *and* traffic
        // keeps flowing around it.
        let pool: Vec<String> = (0..20).map(|i| route_line(i, "q20", "codar", i)).collect();
        let (armed, clean): (Vec<_>, Vec<_>) = pool
            .into_iter()
            .partition(|line| proxy.preferred_backend(line) == Some(0));
        assert!(
            !armed.is_empty() && !clean.is_empty(),
            "{spec}: 20 keys all landed on one shard"
        );
        let mut lines = Vec::new();
        for pair in armed.iter().zip(clean.iter()) {
            lines.push(pair.0.clone());
            lines.push(pair.1.clone());
        }
        let mut checker = InvariantChecker::new();
        let mut conns = proxy.connections();
        for line in &lines {
            let reply = proxy.handle_line(line, &mut conns);
            checker
                .check(line, &reply)
                .unwrap_or_else(|e| panic!("{spec}: invariant violation: {e}"));
            assert_eq!(
                reply,
                direct.handle_line(line),
                "{spec}: reply bytes diverged"
            );
        }
        let failovers = u64_field(&proxy.stats_body(), "failovers");
        if must_fail_over {
            assert!(failovers >= 1, "{spec}: expected a failover, saw none");
        }
        fleet.shutdown();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Retry idempotency: a request whose reply is killed mid-frame
    /// (close-after-N on the owning shard) is retried on the failover
    /// shard and answered byte-identically to a fault-free daemon —
    /// the client never learns its first attempt died.
    #[test]
    fn torn_reply_fails_over_to_byte_identical(seed in 0u64..10_000) {
        let base = ServiceConfig::default();
        // Route replies run hundreds of bytes; any cut this size tears
        // the frame rather than completing it.
        let cut = 1 + seed % 40;
        let plans = [Some(FaultPlan::parse(&format!("close:{cut}@1")).expect("plan parses")), None];
        let mut fleet = ShardFleet::start(&base, &plans, Duration::from_millis(300))
            .expect("fleet starts");
        let proxy = Proxy::start(tier_config(fleet.addrs())).expect("proxy starts");
        // Walk seed-derived circuits until one's canonical key lands on
        // the armed shard (placement hashes ephemeral ports, so the hit
        // must be found at runtime; each try lands there with p≈1/2).
        let mut aimed = None;
        for probe in 0..64u64 {
            let candidate = route_line(seed, "q16", "codar", seed.wrapping_mul(64) + probe);
            if proxy.preferred_backend(&candidate) == Some(0) {
                aimed = Some(candidate);
                break;
            }
        }
        let line = aimed.expect("64 candidate keys never landed on the armed shard");
        let direct = Service::start(base.clone());
        let expected = direct.handle_line(&line);
        let mut conns = proxy.connections();
        let reply = proxy.handle_line(&line, &mut conns);
        prop_assert_eq!(&reply, &expected, "failover reply diverged (cut {})", cut);
        prop_assert!(u64_field(&proxy.stats_body(), "failovers") >= 1,
            "the torn frame never registered as a failover");
        // And the retried key keeps answering from the survivor.
        let again = proxy.handle_line(&line, &mut conns);
        prop_assert_eq!(&again, &expected);
        fleet.shutdown();
    }
}

/// Picks (at runtime — placement hashes ephemeral ports) a route line
/// whose canonical key the fake backend at index 0 owns.
fn line_owned_by_backend_zero(proxy: &Proxy) -> String {
    for pick in 0..64 {
        let candidate = route_line(9, "q5", "codar", pick);
        if proxy.preferred_backend(&candidate) == Some(0) {
            return candidate;
        }
    }
    panic!("64 candidate keys never landed on backend 0");
}

/// The truncation sweep: a fake backend that cuts the canned reply at
/// every byte offset — including 0 (instant EOF) and full length (a
/// complete frame) — must never leak a torn or missing line to the
/// client: every offset yields the exact reference reply, served by
/// the fake itself only when the frame arrived whole.
#[test]
fn every_truncation_offset_is_survived() {
    let base = ServiceConfig::default();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake backend");
    let fake_addr = listener.local_addr().expect("fake addr").to_string();
    let mut fleet =
        ShardFleet::start(&base, &[None], Duration::from_millis(300)).expect("fleet starts");
    let proxy =
        Proxy::start(tier_config(vec![fake_addr, fleet.addrs()[0].clone()])).expect("proxy starts");
    let line = line_owned_by_backend_zero(&proxy);
    let direct = Service::start(base.clone());
    let expected = direct.handle_line(&line);
    let canned: Vec<u8> = format!("{expected}\n").into_bytes();
    let offset = Arc::new(AtomicUsize::new(0));
    {
        let offset = Arc::clone(&offset);
        let canned = canned.clone();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { break };
                let Ok(clone) = stream.try_clone() else {
                    continue;
                };
                let mut reader = BufReader::new(clone);
                let mut request = String::new();
                if reader.read_line(&mut request).is_err() {
                    continue;
                }
                let cut = offset.load(Ordering::SeqCst).min(canned.len());
                let mut writer = stream;
                let _ = writer.write_all(&canned[..cut]);
                let _ = writer.flush();
                // Dropping the stream closes it: a torn frame for every
                // cut short of the full canned reply.
            }
        });
    }
    for cut in 0..=canned.len() {
        offset.store(cut, Ordering::SeqCst);
        // Revive the fake (the previous iteration demoted it) and
        // start a fresh pool so it is dialed again.
        proxy.set_alive(0, true);
        proxy.set_alive(1, true);
        let mut conns = proxy.connections();
        let reply = proxy.handle_line(&line, &mut conns);
        assert_eq!(reply, expected, "offset {cut}/{} leaked", canned.len());
    }
    fleet.shutdown();
}

/// A backend answering well-formed `draining` refusals (what a real
/// shard's drain path emits) is taken out of rotation and the request
/// fails over — the refusal line itself never reaches the client.
#[test]
fn draining_refusal_fails_over_cleanly() {
    let base = ServiceConfig::default();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake backend");
    let fake_addr = listener.local_addr().expect("fake addr").to_string();
    let mut fleet =
        ShardFleet::start(&base, &[None], Duration::from_millis(300)).expect("fleet starts");
    let proxy =
        Proxy::start(tier_config(vec![fake_addr, fleet.addrs()[0].clone()])).expect("proxy starts");
    let line = line_owned_by_backend_zero(&proxy);
    std::thread::spawn(move || {
        let refusal = format!("{}\n", error_body("draining: going away"));
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            let Ok(clone) = stream.try_clone() else {
                continue;
            };
            let mut reader = BufReader::new(clone);
            let mut writer = stream;
            let mut request = String::new();
            while matches!(reader.read_line(&mut request), Ok(n) if n > 0) {
                if writer.write_all(refusal.as_bytes()).is_err() || writer.flush().is_err() {
                    break;
                }
                request.clear();
            }
        }
    });
    let direct = Service::start(base.clone());
    let expected = direct.handle_line(&line);
    let mut conns = proxy.connections();
    let reply = proxy.handle_line(&line, &mut conns);
    assert_eq!(reply, expected, "the draining refusal leaked to the client");
    assert!(
        !proxy.is_alive(0),
        "the draining backend stayed in rotation"
    );
    assert!(u64_field(&proxy.stats_body(), "retries") >= 1);
    fleet.shutdown();
}

/// `shutdown` through the proxy drains the whole deployment: every
/// backend sees the broadcast, the proxy acks it, and the tier stops.
#[test]
fn shutdown_broadcast_reaches_every_shard() {
    let base = ServiceConfig::default();
    let mut fleet = ShardFleet::start(&base, &[None, None, None], Duration::from_millis(300))
        .expect("fleet starts");
    let proxy = Proxy::start(tier_config(fleet.addrs())).expect("proxy starts");
    let mut conns = proxy.connections();
    let reply = proxy.handle_line("{\"type\":\"shutdown\",\"id\":1}", &mut conns);
    let parsed = Json::parse(&reply).expect(&reply);
    assert_eq!(parsed.get("status").and_then(Json::as_str), Some("ok"));
    assert!(proxy.shutdown_requested());
    for i in 0..3 {
        assert!(
            fleet.service(i).shutdown_requested(),
            "shard {i} missed the shutdown broadcast"
        );
    }
    fleet.shutdown();
}

/// A route line carrying `fields` (raw JSON members) for `circuit`.
/// `spaced` reorders the members and pads the JSON with whitespace.
fn keyed_line(id: Option<u64>, device: &str, fields: &str, circuit: &str, spaced: bool) -> String {
    let id = id.map_or(String::new(), |id| format!("\"id\":{id},"));
    let (device, circuit) = (escape(device), escape(circuit));
    if spaced {
        format!("{{ \"circuit\" : {circuit} , {fields} , {id} \"device\" : {device} , \"type\" : \"route\" }}")
    } else {
        format!("{{{id}\"type\":\"route\",\"device\":{device},{fields},\"circuit\":{circuit}}}")
    }
}

/// The daemon's route key and the proxy's shard key partition route
/// lines identically. Lines that differ only in formatting, `id`,
/// device case and device alias are one class in both tiers: a daemon
/// that served one line of a class answers every other line from its
/// cache, and the proxy gives them one shard key. Lines that differ in
/// router, alpha (where the router reads it), sim or circuit are
/// distinct classes in both: none hits another's cache entry, and their
/// shard keys differ.
#[test]
fn daemon_and_proxy_keys_partition_route_lines_identically() {
    let ghz = (
        "OPENQASM 2.0; include \"qelib1.inc\"; qreg q[3]; h q[0]; cx q[0], q[1]; cx q[1], q[2];",
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n\nqreg q[3];\n  h q[0];\n  cx q[0],q[1];\ncx q[1] ,q[2];\n",
    );
    let pair = (
        "qreg q[3]; h q[0]; cx q[0], q[2];",
        "qreg q[3];\nh q[0];\ncx q[0],q[2];",
    );
    // (request members, (circuit, the same circuit reformatted)).
    let classes = [
        ("\"router\":\"codar\"", ghz),
        ("\"router\":\"sabre\"", ghz),
        ("\"router\":\"codar-cal\"", ghz),
        ("\"router\":\"codar-cal\",\"alpha\":0.25", ghz),
        ("\"router\":\"auto\"", ghz),
        ("\"router\":\"auto\",\"alpha\":0.25", ghz),
        ("\"router\":\"codar\",\"sim\":\"auto\"", ghz),
        ("\"router\":\"codar\"", pair),
    ];
    let members = |(fields, (compact, reformatted)): (&str, (&str, &str))| -> Vec<String> {
        vec![
            keyed_line(None, "q20", fields, compact, false),
            keyed_line(Some(7), "q20", fields, compact, false),
            keyed_line(None, "q20", fields, reformatted, true),
            keyed_line(Some(3), "Q20", fields, reformatted, false),
            keyed_line(None, "IBM Q20 Tokyo", fields, compact, false),
            keyed_line(Some(9), "ibm q20 TOKYO", fields, reformatted, true),
        ]
    };
    let daemon = || {
        let service = Service::start(ServiceConfig::default());
        let reply = service.handle_line(
            "{\"type\":\"calibration\",\"action\":\"set\",\"device\":\"q20\",\
             \"synthetic\":{\"seed\":11,\"drift\":2}}",
        );
        assert!(reply.contains("\"status\":\"ok\""), "{reply}");
        service
    };
    // Send `line`; whether the daemon answered it from its cache.
    let hit = |service: &Service, line: &str| {
        let before = service.cache_stats().hits;
        let reply = service.handle_line(line);
        assert!(reply.contains("\"status\":\"ok\""), "{line} -> {reply}");
        service.cache_stats().hits > before
    };

    // Distinct classes: no representative hits an earlier one, and the
    // proxy keys them apart.
    let shared = daemon();
    let mut representatives: Vec<u64> = Vec::new();
    for class in classes {
        let line = &members(class)[0];
        assert!(
            !hit(&shared, line),
            "daemon merged `{line}` into an earlier class"
        );
        let key = shard_key(line);
        assert!(
            !representatives.contains(&key),
            "proxy merged `{line}` into an earlier class"
        );
        representatives.push(key);
    }
    // One class: every surface form hits the entry its representative
    // filled, and the proxy keys it identically.
    for (class, key) in classes.into_iter().zip(representatives) {
        let service = daemon();
        let lines = members(class);
        assert!(!hit(&service, &lines[0]));
        for line in &lines[1..] {
            assert!(
                hit(&service, line),
                "daemon split `{line}` from `{}`",
                lines[0]
            );
            assert_eq!(
                shard_key(line),
                key,
                "proxy split `{line}` from `{}`",
                lines[0]
            );
        }
    }
}
