//! `codar` — command-line qubit mapper.
//!
//! ```text
//! codar devices
//! codar stats   <file.qasm>
//! codar route   <file.qasm> [--device q20] [--router NAME] [--optimize]
//!                          [--emit] [--seed N]
//! codar compare <file.qasm> [--device q20] [--seed N]
//! ```
//!
//! Reads OpenQASM 2.0 (with the embedded `qelib1.inc`), decomposes
//! 3-qubit gates, and compiles onto the chosen device model with the
//! engine's [`RouteWorker::compile`] — the step the batch engine and the
//! daemon run: route from the shared reverse-traversal placement, then
//! verify. It reports weighted depth / SWAP counts; `--emit` prints the
//! routed circuit as OpenQASM. `--router` takes any name
//! [`RouterKind::parse`] accepts (`codar`, `codar-cal`, `sabre`,
//! `greedy`, `auto`).

use codar_repro::arch::Device;
use codar_repro::circuit::decompose::decompose_three_qubit_gates;
use codar_repro::circuit::from_qasm::{circuit_from_source, circuit_to_qasm};
use codar_repro::circuit::optimize::optimize;
use codar_repro::circuit::stats::CircuitStats;
use codar_repro::circuit::Circuit;
use codar_repro::engine::{Compiled, RouteWorker, RouterKind, RouterVariant};
use std::process::ExitCode;

struct Options {
    device: Device,
    router: RouterKind,
    optimize: bool,
    emit: bool,
    seed: u64,
}

fn parse_flags(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        device: Device::ibm_q20_tokyo(),
        router: RouterKind::Codar,
        optimize: false,
        emit: false,
        seed: 0,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--device" => {
                let name = args.get(i + 1).ok_or("--device needs a value")?;
                options.device = Device::by_name(name)
                    .ok_or_else(|| format!("unknown device `{name}` (see `codar devices`)"))?;
                i += 2;
            }
            "--router" => {
                let name = args.get(i + 1).ok_or("--router needs a value")?;
                options.router =
                    RouterKind::parse(name).ok_or_else(|| format!("unknown router `{name}`"))?;
                i += 2;
            }
            "--seed" => {
                options.seed = args
                    .get(i + 1)
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?;
                i += 2;
            }
            "--optimize" => {
                options.optimize = true;
                i += 1;
            }
            "--emit" => {
                options.emit = true;
                i += 1;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(options)
}

fn load_circuit(path: &str, do_optimize: bool) -> Result<Circuit, String> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let circuit = circuit_from_source(&source).map_err(|e| format!("{path}: {e}"))?;
    let circuit = decompose_three_qubit_gates(&circuit);
    Ok(if do_optimize {
        optimize(&circuit)
    } else {
        circuit
    })
}

fn route_one(
    circuit: &Circuit,
    device: &Device,
    router: RouterKind,
    seed: u64,
) -> Result<Compiled, String> {
    let mut worker = RouteWorker::new();
    let initial = worker.initial_mapping(circuit, device, seed);
    worker
        .compile(
            circuit,
            device,
            &RouterVariant::of_kind(router),
            Some(&initial),
            None,
            None,
            |_| {},
        )
        .map_err(|e| e.message)
}

fn cmd_devices() {
    println!(
        "{:<12}{:<26}{:>8}{:>8}{:>10}",
        "alias", "device", "qubits", "edges", "diameter"
    );
    for (alias, device) in Device::presets() {
        println!(
            "{:<12}{:<26}{:>8}{:>8}{:>10}",
            alias,
            device.name(),
            device.num_qubits(),
            device.graph().edges().len(),
            device.distances().diameter()
        );
    }
}

fn cmd_stats(path: &str) -> Result<(), String> {
    let raw = load_circuit(path, false)?;
    println!("{path}:");
    print!("{}", CircuitStats::of(&raw));
    let optimized = optimize(&raw);
    if optimized.len() < raw.len() {
        println!(
            "(--optimize would remove {} gates)",
            raw.len() - optimized.len()
        );
    }
    Ok(())
}

fn cmd_route(path: &str, options: &Options) -> Result<(), String> {
    let circuit = load_circuit(path, options.optimize)?;
    if circuit.num_qubits() > options.device.num_qubits() {
        return Err(format!(
            "{} needs {} qubits but {} has {}",
            path,
            circuit.num_qubits(),
            options.device.name(),
            options.device.num_qubits()
        ));
    }
    let compiled = route_one(&circuit, &options.device, options.router, options.seed)?;
    let routed = &compiled.routed;
    println!(
        "{} on {} via {}:",
        path,
        options.device.name(),
        options.router.name()
    );
    if let Some(chosen) = &compiled.chosen {
        println!("  chosen router:   {chosen}");
    }
    println!("  input gates:     {}", circuit.len());
    println!("  output gates:    {}", routed.gate_count());
    println!("  swaps inserted:  {}", routed.swaps_inserted);
    println!("  weighted depth:  {}", routed.weighted_depth);
    println!("  depth:           {}", routed.depth());
    println!("  verified:        coupling + semantics OK");
    if options.emit {
        let qasm = circuit_to_qasm(&routed.circuit).map_err(|e| e.to_string())?;
        println!("\n{qasm}");
    }
    Ok(())
}

fn cmd_compare(path: &str, options: &Options) -> Result<(), String> {
    let circuit = load_circuit(path, options.optimize)?;
    println!(
        "{path} on {} (same initial mapping for all routers):",
        options.device.name()
    );
    println!(
        "{:<10}{:>14}{:>10}{:>12}",
        "router", "weighted D", "swaps", "gate count"
    );
    let mut results = Vec::new();
    for router in [RouterKind::Codar, RouterKind::Sabre, RouterKind::Greedy] {
        let routed = route_one(&circuit, &options.device, router, options.seed)?.routed;
        println!(
            "{:<10}{:>14}{:>10}{:>12}",
            router.name(),
            routed.weighted_depth,
            routed.swaps_inserted,
            routed.gate_count()
        );
        results.push((router, routed.weighted_depth));
    }
    if let (Some(codar), Some(sabre)) = (
        results.iter().find(|(r, _)| *r == RouterKind::Codar),
        results.iter().find(|(r, _)| *r == RouterKind::Sabre),
    ) {
        println!(
            "\nspeedup (sabre/codar): {:.3}",
            sabre.1 as f64 / codar.1.max(1) as f64
        );
    }
    Ok(())
}

fn usage() -> &'static str {
    "usage:\n  codar devices\n  codar stats <file.qasm>\n  codar route <file.qasm> [--device NAME] [--router codar|codar-cal|sabre|greedy|auto] [--optimize] [--emit] [--seed N]\n  codar compare <file.qasm> [--device NAME] [--optimize] [--seed N]"
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) => match (cmd.as_str(), rest.split_first()) {
            ("devices", _) => {
                cmd_devices();
                Ok(())
            }
            ("stats", Some((path, _))) => cmd_stats(path),
            ("route", Some((path, flags))) => {
                parse_flags(flags).and_then(|options| cmd_route(path, &options))
            }
            ("compare", Some((path, flags))) => {
                parse_flags(flags).and_then(|options| cmd_compare(path, &options))
            }
            _ => Err(usage().to_string()),
        },
        None => Err(usage().to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
