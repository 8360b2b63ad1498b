//! A 127-qubit stabilizer run: prepare a GHZ state spanning the whole
//! IBM Eagle heavy-hex device, route it with CODAR, prove the routed
//! circuit exact-equivalent to the original with the tableau backend
//! (dense simulation stops at 26 qubits; the stabilizer engine does
//! not care), and sample the state.
//!
//! Run with: `cargo run --release --example stabilizer_127q`

use codar_repro::arch::Device;
use codar_repro::benchmarks::generators::ghz_ladder;
use codar_repro::engine::Backend;
use codar_repro::router::sabre::reverse_traversal_mapping;
use codar_repro::router::{CodarRouter, RouterScratch};
use codar_repro::sim::backend::{check_routed_equivalence_stabilizer, run_counts};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let device = Device::ibm_eagle127();
    let circuit = ghz_ladder(device.num_qubits());
    println!(
        "circuit: ghz_ladder, {} qubits, {} gates",
        circuit.num_qubits(),
        circuit.len()
    );

    // Route onto the heavy-hex coupling graph.
    let mut scratch = RouterScratch::new();
    let initial = reverse_traversal_mapping(&circuit, &device, 0, &mut scratch);
    let routed = CodarRouter::new(&device)
        .route(&circuit, Some(&initial), &mut scratch)
        .expect("the ladder spans exactly the device");
    println!(
        "routed on {}: {} gates, {} swaps, weighted depth {}",
        device,
        routed.circuit.len(),
        routed.swaps_inserted,
        routed.weighted_depth
    );

    // Exact routed-vs-original equivalence at full device width: embed
    // the original on the physical register, un-permute the routed
    // final mapping, compare canonical tableaus.
    let logical_of: Vec<Option<usize>> = (0..routed.circuit.num_qubits())
        .map(|phys| routed.final_mapping.logical_of(phys))
        .collect();
    check_routed_equivalence_stabilizer(&circuit, &routed.circuit, &logical_of)?;
    println!("stabilizer equivalence: routed circuit prepares the original state");

    // `auto` classifies the ladder as Clifford and picks the tableau.
    let (backend, counts) = run_counts(Backend::Auto, &circuit, 1000, 42)?;
    println!("sampled 1000 shots on the `{backend}` backend:");
    for (basis, count) in &counts {
        let label = if *basis == 0 {
            "|0…0⟩"
        } else {
            "|1…1⟩"
        };
        println!("  {label}  {count}");
    }
    Ok(())
}
