//! maQAM multi-technology demo: compile the same program for a
//! superconducting grid and for an ion trap, in each machine's native
//! basis and duration profile (Table I), and render the schedules.
//!
//! Run with: `cargo run --example ion_trap_demo`

use codar_repro::arch::{Device, GateDurations};
use codar_repro::circuit::decompose::translate_to_ion_basis;
use codar_repro::circuit::render::render_timeline;
use codar_repro::circuit::weighted_depth;
use codar_repro::router::{CodarConfig, CodarRouter, InitialMapping, RouterScratch};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small GHZ-plus-phases program.
    let mut program = codar_repro::benchmarks::ghz(4);
    program.t(3);
    program.cx(3, 0);

    // --- superconducting: route for coupling, keep the gate names ----
    let grid = Device::grid(2, 2);
    let config = CodarConfig {
        initial_mapping: InitialMapping::Identity,
        ..CodarConfig::default()
    };
    let routed =
        CodarRouter::with_config(&grid, config).route(&program, None, &mut RouterScratch::new())?;
    println!("superconducting 2x2 grid (1q=1, 2q=2, SWAP=6 cycles):");
    println!(
        "  {} gates, {} swaps, weighted depth {}",
        routed.gate_count(),
        routed.swaps_inserted,
        routed.weighted_depth
    );
    let tau = grid.durations().clone();
    print!("{}", render_timeline(&routed.circuit, |g| tau.of(g), 60));

    // --- ion trap: all-to-all coupling, native {r, rz, rxx} basis ----
    // No routing needed (complete graph); translate the basis instead.
    let ion_circuit = translate_to_ion_basis(&program);
    let ion_tau = GateDurations::ion_trap();
    println!("\nion trap, native basis (1q=1, XX=12 cycles — Table I ratio):");
    println!(
        "  {} native gates ({} XX interactions), weighted depth {}",
        ion_circuit.len(),
        ion_circuit.count_kind(codar_repro::circuit::GateKind::Rxx),
        weighted_depth(&ion_circuit, |g| ion_tau.of(g)),
    );
    print!("{}", render_timeline(&ion_circuit, |g| ion_tau.of(g), 60));

    println!("\nsame program, two technologies: the ion trap needs no SWAPs but");
    println!("pays 12x per entangling gate; the grid pays routing instead.");
    Ok(())
}
