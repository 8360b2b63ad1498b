//! `engine` — run the parallel suite-routing engine over the benchmark
//! suite and emit the deterministic summary.
//!
//! ```text
//! engine [--devices q16,q20] [--routers codar,sabre] [--threads N]
//!        [--seed S] [--limit K] [--sim auto|dense|stabilizer|sparse]
//!        [--json PATH] [--csv PATH] [--check-determinism]
//! ```
//!
//! `--check-determinism` runs the same matrix once on 1 thread and
//! once on N threads, asserts the two summaries are byte-identical,
//! and reports the measured wall-clock speedup.
//!
//! `--sim BACKEND` adds the simulation differential check to every
//! job: the routed circuit must reproduce the original's state on the
//! selected backend (`auto` picks stabilizer for Clifford circuits,
//! sparse for few-T ones, dense otherwise). Summary rows report the
//! backend that ran on every non-dense job; a failed check fails the
//! job, so the gates below apply.
//!
//! Every job is routed and verified ([`codar_engine::RouteWorker::compile`]).
//! Output files are gated on run health: if any job fails to route or
//! verify, the binary exits non-zero **before** writing `--json`/`--csv`.
//! Wall-clock figures are printed, never written: repeated timing is
//! `perfbench`'s job.

use codar_arch::Device;
use codar_bench::check_health;
use codar_benchmarks::suite::full_suite;
use codar_engine::{Backend, EngineConfig, RouterKind, SuiteResult, SuiteRunner};
use std::process::ExitCode;

struct Args {
    devices: Vec<Device>,
    routers: Vec<RouterKind>,
    threads: usize,
    seed: u64,
    limit: usize,
    json: Option<String>,
    csv: Option<String>,
    sim: Option<Backend>,
    check_determinism: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        devices: vec![Device::ibm_q16_melbourne(), Device::ibm_q20_tokyo()],
        routers: vec![RouterKind::Codar, RouterKind::Sabre],
        threads: 0,
        seed: 0,
        limit: usize::MAX,
        json: None,
        csv: None,
        sim: None,
        check_determinism: false,
    };
    let mut i = 0;
    let value = |args: &[String], i: usize, flag: &str| -> Result<String, String> {
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--devices" => {
                let names = value(args, i, "--devices")?;
                parsed.devices = names
                    .split(',')
                    .map(|name| {
                        Device::by_name(name.trim())
                            .ok_or_else(|| format!("unknown device `{name}`"))
                    })
                    .collect::<Result<_, _>>()?;
                i += 2;
            }
            "--routers" => {
                let names = value(args, i, "--routers")?;
                parsed.routers = names
                    .split(',')
                    .map(|name| {
                        RouterKind::parse(name.trim())
                            .ok_or_else(|| format!("unknown router `{name}`"))
                    })
                    .collect::<Result<_, _>>()?;
                i += 2;
            }
            "--threads" => {
                parsed.threads = value(args, i, "--threads")?
                    .parse()
                    .map_err(|e| format!("bad thread count: {e}"))?;
                i += 2;
            }
            "--seed" => {
                parsed.seed = value(args, i, "--seed")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?;
                i += 2;
            }
            "--limit" => {
                parsed.limit = value(args, i, "--limit")?
                    .parse()
                    .map_err(|e| format!("bad limit: {e}"))?;
                i += 2;
            }
            "--json" => {
                parsed.json = Some(value(args, i, "--json")?);
                i += 2;
            }
            "--csv" => {
                parsed.csv = Some(value(args, i, "--csv")?);
                i += 2;
            }
            "--sim" => {
                let name = value(args, i, "--sim")?;
                parsed.sim = Some(
                    Backend::parse(&name)
                        .ok_or_else(|| format!("unknown simulation backend `{name}`"))?,
                );
                i += 2;
            }
            "--check-determinism" => {
                parsed.check_determinism = true;
                i += 1;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if parsed.devices.is_empty() || parsed.routers.is_empty() {
        return Err("need at least one device and one router".into());
    }
    Ok(parsed)
}

fn run_once(args: &Args, threads: usize) -> SuiteResult {
    let entries: Vec<_> = full_suite().into_iter().take(args.limit).collect();
    let mut runner = SuiteRunner::new(EngineConfig {
        threads,
        seed: args.seed,
        routers: args.routers.clone(),
        ..EngineConfig::default()
    })
    .devices(args.devices.iter().cloned())
    .entries(entries);
    if let Some(backend) = args.sim {
        runner = runner.sim_backend(backend);
    }
    runner.run()
}

fn print_result(result: &SuiteResult) {
    println!(
        "{:<22}{:<16}{:>8}{:>10}{:>14}{:>8}{:>10}",
        "circuit", "device", "qubits", "router", "weighted D", "swaps", "verified"
    );
    for row in &result.summary.rows {
        println!(
            "{:<22}{:<16}{:>8}{:>10}{:>14}{:>8}{:>10}",
            row.circuit,
            row.device,
            row.num_qubits,
            row.router.name(),
            row.weighted_depth,
            row.swaps,
            if row.verified == Some(true) {
                "ok"
            } else {
                "FAILED"
            }
        );
    }
    println!();
    for (device, mean) in result.summary.mean_speedup_by_device() {
        println!("mean speedup (sabre/codar) on {device}: {mean:.3}");
    }
    println!(
        "{} jobs on {} threads in {:.2?} (sum of route times {:.2?}, pool speedup {:.2}x, \
         {:.1} circuits/sec)",
        result.stats.jobs,
        result.stats.threads,
        result.stats.wall,
        result.stats.total_route_time,
        result.stats.pool_speedup(),
        result.stats.circuits_per_sec(),
    );
    for t in &result.stats.per_router {
        println!(
            "  {:<20} {:>5} jobs, total {:.2?}, mean {:.2?}",
            t.router,
            t.jobs,
            t.total,
            t.mean()
        );
    }
}

fn run(args: &Args) -> Result<(), String> {
    if args.check_determinism {
        let single = run_once(args, 1);
        let parallel = run_once(args, args.threads);
        let (a, b) = (single.summary.to_json(), parallel.summary.to_json());
        if a != b {
            return Err("DETERMINISM VIOLATION: 1-thread and N-thread summaries differ".into());
        }
        print_result(&parallel);
        println!(
            "determinism check: {} summary bytes identical across 1 vs {} threads; \
             wall {:.2?} -> {:.2?} ({:.2}x speedup)",
            a.len(),
            parallel.stats.threads,
            single.stats.wall,
            parallel.stats.wall,
            single.stats.wall.as_secs_f64() / parallel.stats.wall.as_secs_f64().max(1e-9),
        );
        // Health gates the outputs: a run with failed jobs must exit
        // non-zero *without* emitting summary files.
        check_health(&single)?;
        check_health(&parallel)?;
        write_outputs(args, &parallel)
    } else {
        let result = run_once(args, args.threads);
        print_result(&result);
        check_health(&result)?;
        write_outputs(args, &result)
    }
}

fn write_outputs(args: &Args, result: &SuiteResult) -> Result<(), String> {
    if let Some(path) = &args.json {
        std::fs::write(path, result.summary.to_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    if let Some(path) = &args.csv {
        std::fs::write(path, result.summary.to_csv())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args).and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
