//! Property-based tests (proptest): router invariants over random
//! circuits and architectures.

use codar_repro::arch::{CouplingGraph, Device, DistanceMatrix};
use codar_repro::circuit::{Circuit, GateKind};
use codar_repro::router::verify::{check_coupling, check_equivalence};
use codar_repro::router::{CodarConfig, CodarRouter, InitialMapping, RouterScratch, SabreRouter};
use proptest::prelude::*;

/// Strategy: a random circuit over `n` qubits with 1q, 2q and barrier
/// operations.
fn random_circuit(n: usize, max_gates: usize) -> impl Strategy<Value = Circuit> {
    let gate = (0..10u8, 0..n, 0..n, 0.0..std::f64::consts::PI);
    proptest::collection::vec(gate, 1..max_gates).prop_map(move |ops| {
        let mut c = Circuit::new(n);
        for (kind, a, b, angle) in ops {
            let b = if a == b { (a + 1) % n } else { b };
            match kind {
                0 => c.h(a),
                1 => c.t(a),
                2 => c.rz(angle, a),
                3 => c.x(a),
                4 => c.cx(a, b),
                5 => c.cz(a, b),
                6 => c.cu1(angle, a, b),
                7 => c.rzz(angle, a, b),
                8 => c.barrier(
                    vec![a, b]
                        .into_iter()
                        .collect::<std::collections::BTreeSet<_>>()
                        .into_iter()
                        .collect(),
                ),
                _ => c.cx(b, a),
            }
        }
        c
    })
}

/// Strategy: a random connected coupling graph over `n` qubits
/// (spanning tree + extra edges).
fn random_connected_graph(n: usize) -> impl Strategy<Value = CouplingGraph> {
    let parents = proptest::collection::vec(0usize..n, n - 1);
    let extras = proptest::collection::vec((0usize..n, 0usize..n), 0..n);
    (parents, extras).prop_map(move |(parents, extras)| {
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for (i, p) in parents.iter().enumerate() {
            let child = i + 1;
            edges.push((child, p % child.max(1)));
        }
        for (a, b) in extras {
            if a != b {
                edges.push((a, b));
            }
        }
        CouplingGraph::new(n, &edges)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn codar_output_is_always_valid(circuit in random_circuit(5, 40)) {
        let device = Device::grid(2, 3);
        let config = CodarConfig {
            initial_mapping: InitialMapping::Identity,
            ..CodarConfig::default()
        };
        let routed = CodarRouter::with_config(&device, config)
            .route(&circuit, None, &mut RouterScratch::new())
            .expect("5 qubits fit a 6-qubit grid");
        check_coupling(&routed.circuit, &device).expect("coupling respected");
        check_equivalence(&circuit, &routed).expect("semantics preserved");
        // Swap accounting is consistent.
        prop_assert_eq!(
            routed.circuit.count_kind(GateKind::Swap),
            routed.swaps_inserted
        );
        // Non-swap gate count is preserved.
        prop_assert_eq!(
            routed.circuit.len() - routed.swaps_inserted,
            circuit.len()
        );
    }

    #[test]
    fn sabre_output_is_always_valid(circuit in random_circuit(5, 40)) {
        let device = Device::grid(2, 3);
        let routed = SabreRouter::new(&device)
            .route(&circuit, None, &mut RouterScratch::new())
            .expect("5 qubits fit a 6-qubit grid");
        check_coupling(&routed.circuit, &device).expect("coupling respected");
        check_equivalence(&circuit, &routed).expect("semantics preserved");
    }

    #[test]
    fn codar_handles_random_topologies(
        circuit in random_circuit(6, 25),
        graph in random_connected_graph(6),
    ) {
        let device = Device::from_graph("random", graph);
        let config = CodarConfig {
            initial_mapping: InitialMapping::Identity,
            ..CodarConfig::default()
        };
        let routed = CodarRouter::with_config(&device, config)
            .route(&circuit, None, &mut RouterScratch::new())
            .expect("connected topology always routes");
        check_coupling(&routed.circuit, &device).expect("coupling respected");
        check_equivalence(&circuit, &routed).expect("semantics preserved");
    }

    #[test]
    fn distance_matrix_is_a_metric(graph in random_connected_graph(8)) {
        let d = DistanceMatrix::new(&graph);
        for a in 0..8usize {
            prop_assert_eq!(d.get(a, a), 0);
            for b in 0..8usize {
                prop_assert_eq!(d.get(a, b), d.get(b, a));
                // Adjacent iff distance 1.
                prop_assert_eq!(graph.are_adjacent(a, b), d.get(a, b) == 1);
                for c in 0..8usize {
                    prop_assert!(d.get(a, c) <= d.get(a, b) + d.get(b, c));
                }
            }
        }
    }

    #[test]
    fn weighted_depth_dominates_lower_bound(circuit in random_circuit(5, 40)) {
        let device = Device::grid(2, 3);
        let tau = device.durations().clone();
        let config = CodarConfig {
            initial_mapping: InitialMapping::Identity,
            ..CodarConfig::default()
        };
        let routed = CodarRouter::with_config(&device, config)
            .route(&circuit, None, &mut RouterScratch::new())
            .expect("fits");
        let lower = codar_repro::circuit::schedule::busy_time_lower_bound(
            &circuit,
            |g| tau.of(g),
        );
        prop_assert!(routed.weighted_depth >= lower);
        // And the reported depth equals re-scheduling the output.
        let again = codar_repro::circuit::weighted_depth(&routed.circuit, |g| tau.of(g));
        prop_assert_eq!(routed.weighted_depth, again);
    }

    #[test]
    fn qasm_round_trip_of_random_circuits(circuit in random_circuit(4, 30)) {
        // Strip barriers of duplicate qubits etc. already guaranteed by
        // the builder; emit → parse → compare.
        let qasm = codar_repro::circuit::from_qasm::circuit_to_qasm(&circuit)
            .expect("every generated kind is emittable");
        let reparsed = codar_repro::circuit::from_qasm::circuit_from_source(&qasm)
            .expect("emitted QASM parses");
        prop_assert_eq!(circuit.gates(), reparsed.gates());
    }
}
