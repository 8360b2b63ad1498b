//! Every device preset can host routed programs: the fidelity-suite
//! algorithms route onto each preset (where they fit) with full
//! verification, exercising heavy-hex, octagonal, diagonal-lattice and
//! bow-tie topologies alongside the paper's four.

use codar_repro::arch::Device;
use codar_repro::benchmarks::suite::fidelity_suite;
use codar_repro::router::sabre::reverse_traversal_mapping;
use codar_repro::router::verify::{check_coupling, check_equivalence};
use codar_repro::router::{CodarRouter, GreedyRouter, RouterScratch, SabreRouter};

#[test]
fn every_preset_routes_the_fidelity_suite() {
    for (alias, device) in Device::presets() {
        for entry in fidelity_suite() {
            if entry.num_qubits > device.num_qubits() {
                continue;
            }
            let mut scratch = RouterScratch::new();
            let initial = reverse_traversal_mapping(&entry.circuit, &device, 0, &mut scratch);
            let routed = CodarRouter::new(&device)
                .route(&entry.circuit, Some(&initial), &mut scratch)
                .unwrap_or_else(|e| panic!("{alias}/{}: {e}", entry.name));
            check_coupling(&routed.circuit, &device)
                .unwrap_or_else(|e| panic!("{alias}/{}: {e}", entry.name));
            check_equivalence(&entry.circuit, &routed)
                .unwrap_or_else(|e| panic!("{alias}/{}: {e}", entry.name));
        }
    }
}

#[test]
fn all_three_routers_agree_on_validity() {
    let device = Device::ibm_falcon27();
    let suite = fidelity_suite();
    let entry = suite.iter().find(|e| e.name == "qft_5").expect("qft_5");
    let mut scratch = RouterScratch::new();
    let initial = reverse_traversal_mapping(&entry.circuit, &device, 3, &mut scratch);
    let codar = CodarRouter::new(&device)
        .route(&entry.circuit, Some(&initial), &mut scratch)
        .expect("codar routes");
    let sabre = SabreRouter::new(&device)
        .route(&entry.circuit, Some(&initial), &mut scratch)
        .expect("sabre routes");
    let greedy = GreedyRouter::new(&device)
        .route(&entry.circuit, Some(&initial), &mut scratch)
        .expect("greedy routes");
    for routed in [&codar, &sabre, &greedy] {
        check_coupling(&routed.circuit, &device).expect("coupling");
        check_equivalence(&entry.circuit, routed).expect("equivalence");
    }
    // Heuristic routers should not lose to the naive baseline by much;
    // typically they win. Allow slack but catch gross regressions.
    assert!(codar.weighted_depth <= greedy.weighted_depth * 2);
    assert!(sabre.weighted_depth <= greedy.weighted_depth * 2);
}

#[test]
fn heavy_hex_sparse_topology_is_routable_end_to_end() {
    // Heavy-hex graphs have degree <= 3 and long detours; a ring
    // workload is a worst case for them.
    let device = Device::ibm_falcon27();
    let mut ring = codar_repro::circuit::Circuit::new(12);
    for i in 0..12usize {
        ring.cx(i, (i + 1) % 12);
    }
    let mut scratch = RouterScratch::new();
    let initial = reverse_traversal_mapping(&ring, &device, 0, &mut scratch);
    let routed = CodarRouter::new(&device)
        .route(&ring, Some(&initial), &mut scratch)
        .expect("fits");
    check_coupling(&routed.circuit, &device).expect("coupling");
    check_equivalence(&ring, &routed).expect("equivalence");
}
