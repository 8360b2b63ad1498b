//! Layered benchmark of the CODAR stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <batch-suite|serve-hot> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Everything runs in this one process: the engine on one thread, the
//! daemon in-process with a single worker thread behind one client
//! thread. The untraced run (`--trace 0`) prints the end-to-end metrics;
//! the traced run (`--trace 1`) times calls into each crate's public
//! functions and prints the per-layer metrics. A human-readable report
//! goes to stderr; the last line of stdout is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Any failed output
//! check makes the exit code 1.
//!
//! A run repeats the same operations (engine passes, request rounds)
//! many times, and an operation's time is the fastest of its repeats.
//! On a 2-vCPU virtual machine that shares its host, speed wanders by
//! up to 1.5× over tens of seconds to minutes, so a median over a run
//! is whichever speed the host had for most of that run. Other load
//! only ever adds time, and the fastest repeat is the one it touched
//! least: there, it halved the run-to-run spread of medians.

mod batch;
mod serve;
mod spans;
mod stats;
mod stream;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// End-to-end metrics, every one reported by every workload's untraced
/// run (`name`, `unit`). On `batch-suite` an operation is an engine job
/// and `wdepth_geomean` is over the codar rows; on `serve-hot` an
/// operation is a route request, its latency is `handle_line`'s as
/// the client sees it, and `wdepth_geomean` is over the route replies.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("p50_us", "us"),
    ("p90_us", "us"),
    ("peak_rss_mb", "MB"),
    ("wdepth_geomean", "cycles"),
];

/// Per-layer metrics of the traced run (`name`, `unit`). A workload
/// reports 0 for a layer function it never calls.
const PER_LAYER: [(&str, &str); 37] = [
    ("service.envelope_us", "us"),
    ("service.hit_us", "us"),
    ("service.miss_us", "us"),
    ("service.self_us", "us"),
    ("service.queue_wait_us", "us"),
    ("service.worker_route_us", "us"),
    ("service.worker_verify_us", "us"),
    ("service.worker_serialize_us", "us"),
    ("service.p99_us", "us"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.unattributed_pct", "%"),
    ("qasm.parse_flatten_us", "us"),
    ("qasm.parse_calls", "count"),
    ("circuit.lower_us", "us"),
    ("circuit.write_us", "us"),
    ("arch.catalog_build_ms", "ms"),
    ("core.mapping_us", "us"),
    ("core.route_codar_us", "us"),
    ("core.route_sabre_us", "us"),
    ("core.verify_coupling_us", "us"),
    ("core.verify_equiv_us", "us"),
    ("core.verify_to_route", "ratio"),
    ("core.swaps_codar", "count"),
    ("core.swaps_sabre", "count"),
    ("engine.jobs", "count"),
    ("engine.failures", "count"),
    ("engine.unattributed_pct", "%"),
    ("layer.qasm_pct", "%"),
    ("layer.circuit_pct", "%"),
    ("layer.core_pct", "%"),
    ("layer.engine_pct", "%"),
    ("layer.service_pct", "%"),
    ("trace_overhead_pct", "%"),
    ("batch.codar_wdepth_geomean", "cycles"),
    ("batch.sabre_wdepth_geomean", "cycles"),
    ("batch.codar_speedup_vs_sabre", "ratio"),
    ("serve.wdepth_sum", "cycles"),
];

/// Seeds per run: a run of `--seed s` uses the sub-seeds `4·s + k`,
/// k = 0..3, each for its own engine passes or request stream, so that
/// no single seed's inputs set a run's figures. Fewer sub-seeds give
/// each more repeats within a run, and so more chances of a fast one.
pub const SUB_SEEDS: u64 = 4;

/// The sub-seeds of a run of `seed`.
pub fn sub_seeds(seed: u64) -> impl Iterator<Item = u64> {
    (0..SUB_SEEDS).map(move |k| seed.wrapping_mul(SUB_SEEDS).wrapping_add(k))
}

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 21;

/// What a workload run found: its metrics and its output checks.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<String, f64>,
    /// Operations attempted (engine jobs, daemon requests).
    pub attempted: u64,
    /// Operations that failed an output check.
    pub failed: u64,
    checks_failed: bool,
}

impl Report {
    /// Records metric `name`.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Records a failed output check: the run will exit non-zero.
    pub fn fail(&mut self, message: &str) {
        eprintln!("CHECK FAILED: {message}");
        self.checks_failed = true;
    }

    /// Counts one operation and whether it passed its check.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    fn correct(&self) -> bool {
        !self.checks_failed && self.failed == 0 && self.attempted > 0
    }

    /// The result line: every metric of `table`, in table order.
    fn to_json(&self, table: &[(&'static str, &'static str)], fill_missing: bool) -> String {
        let mut metrics = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = match self.values.get(*name) {
                Some(v) => *v,
                None if fill_missing => 0.0,
                None => panic!("workload did not report end-to-end metric `{name}`"),
            };
            assert!(value.is_finite(), "metric `{name}` is {value}");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

/// Runs `set_up` [`SETUP_REPEATS`] times; returns the last result and
/// the median duration in seconds.
pub fn set_up_repeatedly<T>(mut set_up: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        last = Some(set_up());
        times.push(started.elapsed().as_secs_f64());
    }
    eprintln!("set-up times (s): {times:?}");
    (last.expect("at least one set-up"), stats::median(&times))
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <batch-suite|serve-hot> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    let mut log = spans::SpanLog::new();
    let started = Instant::now();
    match args.workload.as_str() {
        "batch-suite" => batch::run(args.seed, args.seconds, args.trace, &mut report, &mut log),
        "serve-hot" => serve::run(
            &stream::SERVE_HOT,
            args.seed,
            args.seconds,
            args.trace,
            &mut report,
            &mut log,
        ),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            std::process::exit(2);
        }
    }
    report.set("peak_rss_mb", peak_rss_mb());
    eprintln!(
        "run took {:.2} s; attempted {}, failed {}",
        started.elapsed().as_secs_f64(),
        report.attempted,
        report.failed
    );
    if args.trace {
        let dir = std::path::Path::new("perfbench/out");
        let path = dir.join(format!("{}-seed{}.spans.ndjson", args.workload, args.seed));
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, log.to_ndjson())) {
            Ok(()) => eprintln!("spans: {} written to {}", log.spans().len(), path.display()),
            Err(e) => eprintln!("spans: not written ({e})"),
        }
    }
    let line = if args.trace {
        report.to_json(&PER_LAYER, true)
    } else {
        report.to_json(&END_TO_END, false)
    };
    for (name, _) in if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    } {
        if let Some(v) = report.values.get(*name) {
            eprintln!("  {name:<30} {v}");
        }
    }
    println!("{line}");
    if !report.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codar_service::json::Json;

    /// The metric names and units in `BENCHMARK.json` at the repository
    /// root, in file order.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let Some(Json::Arr(items)) = json.get(section) else {
            panic!("`{section}` is not an array");
        };
        items
            .iter()
            .map(|m| {
                let field = |key| {
                    m.get(key)
                        .and_then(Json::as_str)
                        .expect("string")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn sub_seeds_of_different_seeds_are_disjoint() {
        let a: Vec<u64> = sub_seeds(1).collect();
        assert_eq!(a, (4..8).collect::<Vec<_>>());
        let b: Vec<u64> = sub_seeds(2).collect();
        assert!(a.iter().all(|s| !b.contains(s)));
    }

    #[test]
    fn reported_metrics_are_the_declared_ones() {
        assert_eq!(declared("end_to_end"), owned(&END_TO_END));
        assert_eq!(declared("per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn result_line_carries_every_metric_of_its_table() {
        let mut report = Report::default();
        for (name, _) in END_TO_END {
            report.set(name, 1.5);
        }
        report.count(true);
        let line = report.to_json(&END_TO_END, false);
        let json = Json::parse(&line).expect("result line is JSON");
        assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(json.get("attempted").and_then(Json::as_u64), Some(1));
        let metrics = json.get("metrics").expect("metrics");
        for (name, unit) in END_TO_END {
            let metric = metrics.get(name).expect("metric present");
            assert_eq!(metric.get("value").and_then(Json::as_f64), Some(1.5));
            assert_eq!(metric.get("unit").and_then(Json::as_str), Some(unit));
        }
        // A per-layer metric the workload never set reads 0.
        let traced = Json::parse(&report.to_json(&PER_LAYER, true)).expect("JSON");
        let envelope = traced
            .get("metrics")
            .and_then(|m| m.get("service.envelope_us"));
        assert_eq!(
            envelope.and_then(|m| m.get("value")).and_then(Json::as_f64),
            Some(0.0)
        );
    }
}
