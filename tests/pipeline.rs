//! End-to-end pipeline tests: OpenQASM source → IR → decomposition →
//! routing on every paper architecture → verification → QASM emission.

use codar_repro::arch::Device;
use codar_repro::benchmarks::corpus;
use codar_repro::circuit::decompose::decompose_three_qubit_gates;
use codar_repro::circuit::from_qasm::{circuit_from_source, circuit_to_qasm};
use codar_repro::router::sabre::reverse_traversal_mapping;
use codar_repro::router::verify::{check_coupling, check_equivalence};
use codar_repro::router::{CodarRouter, RouterScratch, SabreRouter};

#[test]
fn every_corpus_program_routes_on_every_architecture() {
    for (name, src) in corpus::all() {
        let circuit = corpus::load(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let routable = decompose_three_qubit_gates(&circuit);
        for device in Device::paper_architectures() {
            if routable.num_qubits() > device.num_qubits() {
                continue;
            }
            let mut scratch = RouterScratch::new();
            let initial = reverse_traversal_mapping(&routable, &device, 0, &mut scratch);
            let codar = CodarRouter::new(&device)
                .route(&routable, Some(&initial), &mut scratch)
                .unwrap_or_else(|e| panic!("codar {name} on {}: {e}", device.name()));
            let sabre = SabreRouter::new(&device)
                .route(&routable, Some(&initial), &mut scratch)
                .unwrap_or_else(|e| panic!("sabre {name} on {}: {e}", device.name()));
            for routed in [&codar, &sabre] {
                check_coupling(&routed.circuit, &device)
                    .unwrap_or_else(|e| panic!("{name} on {}: {e}", device.name()));
                check_equivalence(&routable, routed)
                    .unwrap_or_else(|e| panic!("{name} on {}: {e}", device.name()));
            }
        }
    }
}

#[test]
fn routed_circuit_survives_qasm_round_trip() {
    let circuit = corpus::load(corpus::QFT4_QASM).expect("embedded source parses");
    let device = Device::ibm_q20_tokyo();
    let routed = CodarRouter::new(&device)
        .route(&circuit, None, &mut RouterScratch::new())
        .expect("fits");
    let qasm = circuit_to_qasm(&routed.circuit).expect("emittable");
    let reparsed = circuit_from_source(&qasm).expect("round trip parses");
    assert_eq!(reparsed.gates(), routed.circuit.gates());
}

#[test]
fn suite_subset_full_pipeline() {
    // A representative slice of the 71-benchmark suite through both
    // routers with verification (the full sweep is the fig8 binary).
    let device = Device::ibm_q20_tokyo();
    let suite = codar_repro::benchmarks::full_suite();
    let names = [
        "qft_8", "adder_3", "ising_8", "random_6", "bv_7", "grover_4",
    ];
    for name in names {
        let entry = suite
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("{name} in suite"));
        let mut scratch = RouterScratch::new();
        let initial = reverse_traversal_mapping(&entry.circuit, &device, 1, &mut scratch);
        let codar = CodarRouter::new(&device)
            .route(&entry.circuit, Some(&initial), &mut scratch)
            .expect("fits");
        let sabre = SabreRouter::new(&device)
            .route(&entry.circuit, Some(&initial), &mut scratch)
            .expect("fits");
        for routed in [&codar, &sabre] {
            check_coupling(&routed.circuit, &device).expect("coupling");
            check_equivalence(&entry.circuit, routed).expect("equivalence");
            // Weighted depth of a routed circuit can never beat the
            // coupling-free lower bound of the original program.
            let tau = device.durations().clone();
            let lower =
                codar_repro::circuit::schedule::busy_time_lower_bound(&entry.circuit, |g| {
                    tau.of(g)
                });
            assert!(
                routed.weighted_depth >= lower,
                "{name}: {} < lower bound {lower}",
                routed.weighted_depth
            );
        }
    }
}

#[test]
fn whole_suite_is_loadable_and_sized() {
    let suite = codar_repro::benchmarks::full_suite();
    assert_eq!(suite.len(), 71);
    let total_gates: usize = suite.iter().map(|e| e.circuit.len()).sum();
    assert!(
        total_gates > 35_000,
        "suite totals only {total_gates} gates"
    );
    let largest = suite.iter().map(|e| e.circuit.len()).max().unwrap_or(0);
    assert!(largest >= 15_000, "largest benchmark only {largest} gates");
}
