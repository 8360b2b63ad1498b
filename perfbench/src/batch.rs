//! `batch-suite`: the paper's compile experiment through the engine.
//!
//! Matrix: the suite entries with at most 20 qubits × {Q20 Tokyo,
//! Sycamore-54} × {codar, sabre}, from the shared reverse-traversal
//! initial mapping, with verification on: 260 jobs a pass, one engine
//! thread. The 36-qubit entries are left out because one 15000-gate
//! circuit's quadratic equivalence check would take most of a pass.
//!
//! The engine seed picks the initial mappings, and with them how much
//! routing and verification a pass costs. One seed's pass cost differs
//! from another's by more than the run-to-run noise, so a run cycles
//! through the engine seeds [`crate::sub_seeds`] derives from `--seed`
//! and reports figures over all of them: each sub-seed's pass wall time
//! and each job's latency are the fastest over its passes (see
//! [`crate`] on why the fastest).
//!
//! The untraced run times whole `SuiteRunner::run` passes. The traced
//! run replays every job the way the engine runs it, with one reused
//! `RouteWorker`, timing the initial mapping once per (entry, device)
//! so that no router is charged for it, and must reproduce the engine's
//! summary byte for byte.

use crate::spans::{SpanLog, LAYERS};
use crate::{set_up_repeatedly, stats, sub_seeds, Report};
use codar_arch::Device;
use codar_benchmarks::suite::{full_suite, SuiteEntry};
use codar_engine::{
    EngineConfig, RouteReport, RouteWorker, RouterKind, RouterVariant, SuiteRunner, Summary,
};
use codar_router::verify::{check_coupling, check_equivalence};
use codar_service::cache::{fnv1a_extend, FNV_OFFSET};
use std::time::{Duration, Instant};

const MAX_QUBITS: usize = 20;
const ENTRIES: usize = 65;
const JOBS_PER_PASS: usize = 260;
/// Suite entries in the set-up's warm-up matrix.
const WARMUP_ENTRIES: usize = 8;
const ROUTERS: [RouterKind; 2] = [RouterKind::Codar, RouterKind::Sabre];

/// One engine seed's runner and what its passes produced.
struct Cell {
    seed: u64,
    runner: SuiteRunner,
    /// The first pass's summary and its JSON; later passes must match.
    summary: Option<(Summary, String)>,
    /// Wall time of each pass.
    walls: Vec<Duration>,
    /// Per-pass job wall times (µs), in summary row order.
    job_us: Vec<Vec<f64>>,
}

struct Inputs {
    devices: Vec<Device>,
    entries: Vec<SuiteEntry>,
    cells: Vec<Cell>,
    catalog_ms: f64,
}

fn set_up(seed: u64, report: &mut Report) -> Inputs {
    let started = Instant::now();
    let devices = vec![Device::ibm_q20_tokyo(), Device::google_sycamore54()];
    let catalog_ms = started.elapsed().as_secs_f64() * 1e3;
    let entries: Vec<SuiteEntry> = full_suite()
        .into_iter()
        .filter(|e| e.num_qubits <= MAX_QUBITS)
        .collect();
    if entries.len() != ENTRIES {
        report.fail(&format!(
            "expected {ENTRIES} suite entries, got {}",
            entries.len()
        ));
    }
    let config = |seed| EngineConfig {
        threads: 1,
        seed,
        ..EngineConfig::default()
    };
    let cells = sub_seeds(seed)
        .map(|seed| Cell {
            seed,
            runner: SuiteRunner::new(config(seed))
                .devices(devices.clone())
                .entries(entries.clone()),
            summary: None,
            walls: Vec::new(),
            job_us: Vec::new(),
        })
        .collect();
    // Untimed warm-up on a throwaway runner: process-wide lazy
    // initialisation is paid here, inside set-up.
    let warm = SuiteRunner::new(config(seed))
        .devices(devices.clone())
        .entries(entries[..WARMUP_ENTRIES.min(entries.len())].to_vec())
        .run();
    if !warm.failures.is_empty() {
        report.fail(&format!("warm-up jobs failed: {:?}", warm.failures));
    }
    Inputs {
        devices,
        entries,
        cells,
        catalog_ms,
    }
}

/// Runs one engine pass of `cell` and checks its output: every job ran
/// and verified, and the summary JSON equals the cell's first pass.
fn engine_pass(cell: &mut Cell, report: &mut Report) -> Duration {
    let started = Instant::now();
    let result = cell.runner.run();
    let wall = started.elapsed();
    let summary = result.summary;
    let ran = summary.rows.len() + result.failures.len();
    if ran != JOBS_PER_PASS {
        report.fail(&format!("pass ran {ran} jobs, expected {JOBS_PER_PASS}"));
    }
    for row in &summary.rows {
        report.count(row.verified == Some(true));
    }
    for _ in &result.failures {
        report.count(false);
    }
    cell.walls.push(wall);
    cell.job_us.push(
        summary
            .rows
            .iter()
            .map(|r| r.wall.as_secs_f64() * 1e6)
            .collect(),
    );
    let json = summary.to_json();
    match &cell.summary {
        None => cell.summary = Some((summary, json)),
        Some((_, first)) if *first != json => report.fail(&format!(
            "engine seed {}: summary JSON differs between passes",
            cell.seed
        )),
        Some(_) => {}
    }
    wall
}

/// Output quality over every cell's summary: geometric-mean weighted
/// depth of the codar rows and of the sabre rows, and the geometric
/// mean of sabre/codar weighted depth per (circuit, device, seed).
fn quality(cells: &[Cell]) -> (f64, f64, f64) {
    let summaries: Vec<&Summary> = cells
        .iter()
        .filter_map(|c| c.summary.as_ref().map(|(s, _)| s))
        .collect();
    let depths = |variant: &str| {
        stats::geomean(
            summaries
                .iter()
                .flat_map(|s| &s.rows)
                .filter(|r| r.variant == variant)
                .map(|r| r.weighted_depth as f64),
        )
    };
    let speedup = stats::geomean(
        summaries
            .iter()
            .flat_map(|s| &s.comparisons)
            .map(|c| c.speedup()),
    );
    (depths("codar"), depths("sabre"), speedup)
}

/// Counters of the traced replay; `swaps` and `routed` are indexed like
/// [`ROUTERS`], and `failures` counts route errors and unverified jobs.
#[derive(Default)]
struct Replay {
    passes: usize,
    jobs: usize,
    failures: usize,
    swaps: [usize; 2],
    routed: [usize; 2],
}

/// Replays one pass of engine seed `seed` job by job, recording spans;
/// returns the summary JSON the replay assembles.
fn replay_pass(
    inputs: &Inputs,
    seed: u64,
    worker: &mut RouteWorker,
    log: &mut SpanLog,
    acc: &mut Replay,
) -> String {
    let variants = ROUTERS.map(RouterVariant::of_kind);
    let root = log.open("bench.pass", None, acc.passes as u64);
    let mut reports = Vec::with_capacity(JOBS_PER_PASS);
    let mut job_id = 0usize;
    for device in &inputs.devices {
        for entry in &inputs.entries {
            if entry.num_qubits > device.num_qubits() {
                continue;
            }
            let mapping = log.time("core.mapping", Some(root), job_id as u64, || {
                worker.initial_mapping(&entry.circuit, device, seed)
            });
            for (v, variant) in variants.iter().enumerate() {
                let op = job_id as u64;
                let job = log.open("engine.job", Some(root), op);
                let started = Instant::now();
                let initial = mapping.clone();
                let route_span = match variant.kind {
                    RouterKind::Codar => "core.route_codar",
                    _ => "core.route_sabre",
                };
                let routed = log.time(route_span, Some(job), op, || {
                    worker.route(&entry.circuit, device, variant, Some(initial), None)
                });
                job_id += 1;
                acc.jobs += 1;
                let routed = match routed {
                    Ok(routed) => routed,
                    Err(e) => {
                        acc.failures += 1;
                        log.close(job);
                        eprintln!("replay: {} on {}: {e}", entry.name, device.name());
                        continue;
                    }
                };
                let coupling = log.time("core.verify_coupling", Some(job), op, || {
                    check_coupling(&routed.circuit, device).is_ok()
                });
                let equivalent = log.time("core.verify_equiv", Some(job), op, || {
                    check_equivalence(&entry.circuit, &routed).is_ok()
                });
                if !(coupling && equivalent) {
                    acc.failures += 1;
                }
                acc.swaps[v] += routed.swaps_inserted;
                acc.routed[v] += 1;
                reports.push(RouteReport {
                    job_id: op as usize,
                    circuit: entry.name.clone(),
                    device: device.name().to_string(),
                    num_qubits: entry.num_qubits,
                    input_gates: entry.circuit.len(),
                    router: variant.kind,
                    variant: variant.label.clone(),
                    noise: None,
                    cal: None,
                    eps: None,
                    sim: None,
                    chosen: None,
                    weighted_depth: routed.weighted_depth,
                    depth: routed.depth(),
                    swaps: routed.swaps_inserted,
                    output_gates: routed.gate_count(),
                    verified: Some(coupling && equivalent),
                    fidelity: None,
                    routed: None,
                    wall: started.elapsed(),
                });
                log.close(job);
            }
        }
    }
    let json = log.time("engine.summary", Some(root), 0, || {
        Summary::from_reports(seed, reports).to_json()
    });
    log.close(root);
    acc.passes += 1;
    json
}

/// Runs the workload for `seconds` (see the module docs).
pub fn run(seed: u64, seconds: f64, trace: bool, report: &mut Report, log: &mut SpanLog) {
    let mut catalog_ms = Vec::new();
    let (mut inputs, setup_s) = set_up_repeatedly(|| {
        let inputs = set_up(seed, report);
        catalog_ms.push(inputs.catalog_ms);
        inputs
    });
    report.set("setup_s", setup_s);
    report.set("arch.catalog_build_ms", stats::median(&catalog_ms));
    if trace {
        traced(&mut inputs, seed, seconds, report, log);
    } else {
        untraced(&mut inputs, seed, seconds, report);
    }
}

/// Engine passes over the cells in turn, every cell at least once,
/// until `seconds` have passed; then the end-to-end metrics.
fn untraced(inputs: &mut Inputs, seed: u64, seconds: f64, report: &mut Report) {
    let clock = Instant::now();
    let mut passes = 0;
    while passes < inputs.cells.len() || clock.elapsed().as_secs_f64() < seconds {
        let cell = passes % inputs.cells.len();
        engine_pass(&mut inputs.cells[cell], report);
        passes += 1;
    }
    // Each cell's pass wall and job latencies are the fastest over its
    // passes; throughput and percentiles are taken over all cells.
    let mut pass_s = 0.0;
    let mut job_us = Vec::new();
    for cell in &inputs.cells {
        let walls: Vec<f64> = cell.walls.iter().map(Duration::as_secs_f64).collect();
        pass_s += stats::min(&walls);
        job_us.extend(stats::position_minima(&cell.job_us));
    }
    let jobs_per_s = job_us.len() as f64 / pass_s;
    let p50 = stats::percentile(&job_us, 50.0).expect("job samples");
    let p90 = stats::percentile(&job_us, 90.0).expect("job samples");
    let (codar, sabre, speedup) = quality(&inputs.cells);
    eprintln!(
        "batch-suite seed {seed}: {passes} passes of {JOBS_PER_PASS} jobs over engine seeds {:?}",
        sub_seeds(seed).collect::<Vec<_>>()
    );
    eprintln!("  batch.circuits_per_s          {jobs_per_s:.3} jobs/s");
    eprintln!(
        "  job latency                   p50 {:.1} us ({} above), p90 {:.1} us ({} above), n={}",
        p50.value,
        p50.beyond,
        p90.value,
        p90.beyond,
        job_us.len()
    );
    eprintln!("  batch.codar_wdepth_geomean    {codar} cycles");
    eprintln!("  batch.sabre_wdepth_geomean    {sabre} cycles");
    eprintln!("  batch.codar_speedup_vs_sabre  {speedup}");
    for cell in &inputs.cells {
        let (_, json) = cell.summary.as_ref().expect("every cell ran");
        let walls: Vec<String> = cell
            .walls
            .iter()
            .map(|w| format!("{:.1}", w.as_secs_f64() * 1e3))
            .collect();
        eprintln!(
            "  engine seed {:<4} summary fnv {:016x}, pass walls (ms) {}",
            cell.seed,
            fnv1a_extend(FNV_OFFSET, json.as_bytes()),
            walls.join(" ")
        );
    }
    report.set("throughput_per_s", jobs_per_s);
    report.set("p50_us", p50.value);
    report.set("p90_us", p90.value);
    report.set("wdepth_geomean", codar);
}

/// For every cell in turn, every cell at least once, until `seconds`
/// have passed: an engine pass, then its traced replay, which must
/// reproduce the pass's summary. Then the per-layer metrics.
fn traced(inputs: &mut Inputs, seed: u64, seconds: f64, report: &mut Report, log: &mut SpanLog) {
    let clock = Instant::now();
    let mut worker = RouteWorker::new();
    let mut acc = Replay::default();
    let mut untraced_wall = Duration::ZERO;
    let mut traced_wall = Duration::ZERO;
    while acc.passes < inputs.cells.len() || clock.elapsed().as_secs_f64() < seconds {
        let cell = acc.passes % inputs.cells.len();
        untraced_wall += engine_pass(&mut inputs.cells[cell], report);
        let cell_seed = inputs.cells[cell].seed;
        let started = Instant::now();
        let json = replay_pass(inputs, cell_seed, &mut worker, log, &mut acc);
        traced_wall += started.elapsed();
        let (_, expected) = inputs.cells[cell].summary.as_ref().expect("pass ran");
        if json != *expected {
            report.fail(&format!(
                "engine seed {cell_seed}: traced replay does not reproduce the engine summary"
            ));
        }
    }
    report.attempted += acc.jobs as u64;
    report.failed += acc.failures as u64;

    let traced_ns = log.total("bench.pass").0 as f64;
    let layers = log.layer_self_ns();
    for (layer, ns) in LAYERS.iter().zip(layers) {
        report.set(
            format!("layer.{layer}_pct"),
            stats::pct(ns as f64, traced_ns),
        );
    }
    let attributed: u64 = layers.iter().sum();
    report.set(
        "engine.unattributed_pct",
        stats::pct(traced_ns - attributed as f64, traced_ns),
    );
    report.set(
        "trace_overhead_pct",
        stats::pct(
            traced_wall.as_secs_f64() - untraced_wall.as_secs_f64(),
            untraced_wall.as_secs_f64(),
        ),
    );
    for name in [
        "core.mapping",
        "core.route_codar",
        "core.route_sabre",
        "core.verify_coupling",
        "core.verify_equiv",
    ] {
        report.set(format!("{name}_us"), log.mean_us(name));
    }
    let verify = log.total("core.verify_coupling").0 + log.total("core.verify_equiv").0;
    let route = log.total("core.route_codar").0 + log.total("core.route_sabre").0;
    report.set("core.verify_to_route", verify as f64 / route.max(1) as f64);
    report.set(
        "core.swaps_codar",
        stats::per(acc.swaps[0] as f64, acc.routed[0]),
    );
    report.set(
        "core.swaps_sabre",
        stats::per(acc.swaps[1] as f64, acc.routed[1]),
    );
    report.set("engine.jobs", acc.jobs as f64);
    report.set("engine.failures", acc.failures as f64);
    let (codar, sabre, speedup) = quality(&inputs.cells);
    report.set("batch.codar_wdepth_geomean", codar);
    report.set("batch.sabre_wdepth_geomean", sabre);
    report.set("batch.codar_speedup_vs_sabre", speedup);
    eprintln!(
        "batch-suite seed {seed} traced: {} engine passes, each replayed; {} spans",
        acc.passes,
        log.spans().len()
    );
}
