//! Tour of the maQAM device models: topology statistics and how the
//! same circuit routes onto each, including the non-superconducting
//! duration profiles of Table I.
//!
//! Run with: `cargo run --example architecture_tour`

use codar_repro::arch::{Device, GateDurations};
use codar_repro::benchmarks::generators;
use codar_repro::router::{CodarConfig, CodarRouter, InitialMapping, RouterScratch};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("maQAM device models\n");
    println!(
        "{:<22}{:>8}{:>8}{:>10}{:>10}",
        "device", "qubits", "edges", "diameter", "layout?"
    );
    let mut devices = Device::paper_architectures();
    devices.push(Device::linear(16));
    devices.push(Device::ring(16));
    devices.push(Device::ion_trap_all_to_all(11));
    for d in &devices {
        println!(
            "{:<22}{:>8}{:>8}{:>10}{:>10}",
            d.name(),
            d.num_qubits(),
            d.graph().edges().len(),
            d.distances().diameter(),
            if d.layout().is_some() { "yes" } else { "no" }
        );
    }

    // Route the same 10-qubit QFT everywhere it fits.
    let circuit = generators::qft(10);
    println!("\nrouting qft_10 with CODAR (identity initial mapping):");
    println!("{:<22}{:>12}{:>10}", "device", "weighted D", "swaps");
    let config = CodarConfig {
        initial_mapping: InitialMapping::Identity,
        ..CodarConfig::default()
    };
    let mut scratch = RouterScratch::new();
    for d in &devices {
        if d.num_qubits() < circuit.num_qubits() {
            continue;
        }
        let routed =
            CodarRouter::with_config(d, config.clone()).route(&circuit, None, &mut scratch)?;
        println!(
            "{:<22}{:>12}{:>10}",
            d.name(),
            routed.weighted_depth,
            routed.swaps_inserted
        );
    }

    // Different technologies = different duration maps (Table I).
    println!("\nsame circuit, same topology, different technology (grid 4x4):");
    for (name, tau) in [
        ("superconducting", GateDurations::superconducting()),
        ("ion trap", GateDurations::ion_trap()),
        ("neutral atom", GateDurations::neutral_atom()),
    ] {
        let device = Device::grid(4, 4).with_durations(tau);
        let routed = CodarRouter::with_config(&device, config.clone()).route(
            &circuit,
            None,
            &mut scratch,
        )?;
        println!(
            "  {:<18} weighted depth {:>6} ({} swaps)",
            name, routed.weighted_depth, routed.swaps_inserted
        );
    }
    Ok(())
}
