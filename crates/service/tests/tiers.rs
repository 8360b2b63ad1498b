//! The tiered metrics bodies of both front ends. Each tier reports one
//! typed snapshot, and the three bodies are renderings of it: the
//! fields of `stats` are an ordered subsequence of `metrics` with equal
//! values (the daemon's nested `cache.x` read as `cache_x`), and plain
//! `metrics` is an ordered prefix of `hist`. The plain proxy bodies are
//! pinned byte for byte, as the golden fixtures pin the daemon's.

use codar_service::json::{escape, Json};
use codar_service::metrics::{Snapshot, Tier};
use codar_service::proxy::{Proxy, ProxyConfig};
use codar_service::{Service, ServiceConfig, ShardFleet};
use std::time::Duration;

const GHZ3: &str = "OPENQASM 2.0; include \"qelib1.inc\"; qreg q[3]; h q[0]; cx q[0], q[1]; \
                    cx q[1], q[2];";

fn route(device: &str, router: &str) -> String {
    format!(
        "{{\"type\":\"route\",\"device\":\"{device}\",\"router\":\"{router}\",\"circuit\":{}}}",
        escape(GHZ3)
    )
}

/// The body's fields after `"type"`, with nested groups flattened to
/// `group_field`.
fn flat_fields(body: &str) -> Vec<(String, Json)> {
    let Json::Obj(fields) = Json::parse(body).unwrap_or_else(|e| panic!("{e}: {body}")) else {
        panic!("not an object: {body}");
    };
    assert_eq!(fields[0].0, "type", "{body}");
    let mut flat = Vec::new();
    for (name, value) in fields.into_iter().skip(1) {
        match value {
            Json::Obj(group) => {
                flat.extend(
                    group
                        .into_iter()
                        .map(|(inner, v)| (format!("{name}_{inner}"), v)),
                );
            }
            value => flat.push((name, value)),
        }
    }
    flat
}

fn assert_tiers_nest(tier: &str, snapshot: &Snapshot) {
    let stats = flat_fields(&snapshot.render(Tier::Stats));
    let metrics = flat_fields(&snapshot.render(Tier::Metrics));
    let hist = flat_fields(&snapshot.render(Tier::Hist));
    // `stats` ⊂ `metrics`: every stats field appears, in order, with
    // the same value.
    let mut rest = metrics.iter();
    for field in &stats {
        assert!(
            rest.any(|m| m == field),
            "{tier}: stats field {field:?} is not in order in metrics {metrics:?}"
        );
    }
    // `metrics` is a prefix of `hist`, which adds fields.
    assert!(
        hist.len() > metrics.len() && hist[..metrics.len()] == metrics[..],
        "{tier}: metrics is not a prefix of hist\n{metrics:?}\n{hist:?}"
    );
    assert!(stats.len() < metrics.len(), "{tier}");
}

#[test]
fn stats_metrics_and_hist_nest_on_both_tiers() {
    let service = Service::start(ServiceConfig::default());
    for line in [
        route("q5", "codar"),
        route("q5", "codar"),
        route("q5", "auto"),
        "{\"type\":\"calibration\",\"action\":\"set\",\"device\":\"q5\",\
         \"synthetic\":{\"seed\":3,\"drift\":1}}"
            .to_string(),
        "not json".to_string(),
    ] {
        service.handle_line(&line);
    }
    let snapshot = service.snapshot();
    assert!(snapshot
        .render(Tier::Stats)
        .contains(",\"cache\":{\"capacity\":"));
    assert!(snapshot.render(Tier::Hist).contains("\"portfolio_wins_"));
    assert_tiers_nest("daemon", &snapshot);

    let mut fleet = ShardFleet::start(
        &ServiceConfig::default(),
        &[None, None],
        Duration::from_millis(300),
    )
    .expect("fleet starts");
    let proxy = Proxy::start(ProxyConfig {
        backends: fleet.addrs(),
        probe_interval: Duration::from_secs(3600),
        ..ProxyConfig::default()
    })
    .expect("proxy starts");
    let mut conns = proxy.connections();
    for line in [route("q5", "codar"), route("q20", "sabre")] {
        let reply = proxy.handle_line(&line, &mut conns);
        assert!(reply.contains("\"status\":\"ok\""), "{reply}");
    }
    assert_tiers_nest("proxy", &proxy.snapshot());
    fleet.shutdown();

    // The protocol verbs answer with these renderings: the replies'
    // field names match the snapshot's tier by tier.
    let names = |body: &str| -> Vec<String> {
        flat_fields(body)
            .into_iter()
            .map(|(name, _)| name)
            .collect()
    };
    for (line, tier) in [
        ("{\"type\":\"stats\"}", Tier::Stats),
        ("{\"type\":\"metrics\"}", Tier::Metrics),
        ("{\"type\":\"metrics\",\"hist\":true}", Tier::Hist),
    ] {
        assert_eq!(
            names(&service.handle_line(line)),
            names(&service.snapshot().render(tier)),
            "daemon {line}"
        );
        assert_eq!(
            names(&proxy.handle_line(line, &mut conns)),
            names(&proxy.snapshot().render(tier)),
            "proxy {line}"
        );
    }
}

/// A freshly started two-backend proxy's plain `stats` and `metrics`
/// replies, byte for byte. The backends are never contacted: the proxy
/// answers both verbs itself, and the prober is parked.
#[test]
fn fresh_two_backend_proxy_stats_and_metrics_bytes_are_pinned() {
    let proxy = Proxy::start(ProxyConfig {
        backends: vec!["127.0.0.1:1".into(), "127.0.0.1:2".into()],
        probe_interval: Duration::from_secs(3600),
        ..ProxyConfig::default()
    })
    .expect("proxy starts");
    let mut conns = proxy.connections();
    assert_eq!(
        proxy.handle_line("{\"type\":\"stats\"}", &mut conns),
        "{\"type\":\"stats\",\"status\":\"ok\",\"proxy\":true,\"requests\":1,\"forwarded\":0,\
         \"retries\":0,\"failovers\":0,\"overloaded\":0,\"backends_alive\":2,\"backends_total\":2}"
    );
    assert_eq!(
        proxy.handle_line("{\"type\":\"metrics\",\"id\":7}", &mut conns),
        "{\"id\":7,\"type\":\"metrics\",\"status\":\"ok\",\"proxy\":true,\"requests\":2,\
         \"forwarded\":0,\"retries\":0,\"failovers\":0,\"overloaded\":0,\"draining\":false,\
         \"backends_alive\":2,\"backends_total\":2,\"backend_0_alive\":true,\
         \"backend_0_served\":0,\"backend_1_alive\":true,\"backend_1_served\":0}"
    );
}
