//! Route an embedded OpenQASM benchmark (the published Cuccaro adder
//! with user-defined `majority`/`unmaj` gates) end-to-end: parse →
//! expand composite gates → decompose Toffolis → route on every paper
//! architecture → verify → re-emit QASM.
//!
//! Run with: `cargo run --example route_qasm`

use codar_repro::arch::Device;
use codar_repro::benchmarks::corpus;
use codar_repro::circuit::decompose::decompose_three_qubit_gates;
use codar_repro::engine::{RouteWorker, RouterKind, RouterVariant};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circuit = corpus::load(corpus::MAJ_ADDER_QASM)?;
    println!(
        "parsed maj_adder: {} qubits, {} gates (incl. {} Toffolis)",
        circuit.num_qubits(),
        circuit.len(),
        circuit.count_kind(codar_repro::circuit::GateKind::Ccx)
    );
    let routable = decompose_three_qubit_gates(&circuit);
    println!("after Toffoli decomposition: {} gates\n", routable.len());

    println!(
        "{:<22}{:>12}{:>12}{:>10}{:>10}{:>9}",
        "architecture", "codar WD", "sabre WD", "codar SW", "sabre SW", "speedup"
    );
    let mut worker = RouteWorker::new();
    for device in Device::paper_architectures() {
        let initial = worker.initial_mapping(&routable, &device, 0);
        // `compile` routes from the shared placement, then verifies
        // coupling compliance and equivalence.
        let mut compile = |kind| {
            let variant = RouterVariant::of_kind(kind);
            worker
                .compile(
                    &routable,
                    &device,
                    &variant,
                    Some(&initial),
                    None,
                    None,
                    |_| {},
                )
                .map(|compiled| compiled.routed)
                .map_err(|e| e.message)
        };
        let codar = compile(RouterKind::Codar)?;
        let sabre = compile(RouterKind::Sabre)?;
        println!(
            "{:<22}{:>12}{:>12}{:>10}{:>10}{:>9.3}",
            device.name(),
            codar.weighted_depth,
            sabre.weighted_depth,
            codar.swaps_inserted,
            sabre.swaps_inserted,
            sabre.weighted_depth as f64 / codar.weighted_depth as f64
        );
    }
    println!("\nall routed circuits verified: coupling-compliant and semantics-preserving");
    Ok(())
}
