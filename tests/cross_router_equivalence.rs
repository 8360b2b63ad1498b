//! Cross-router equivalence: for random circuits, CODAR- and
//! SABRE-routed outputs must both pass `codar_router::verify` **and**
//! simulate to the same measurement distribution as the original
//! logical circuit (via `codar_sim`, un-permuting the final mapping).
//!
//! This is stronger than the structural check alone: it catches any
//! disagreement between the verifier's mapping bookkeeping and what
//! the inserted SWAPs physically do to the state.

use codar_repro::arch::Device;
use codar_repro::benchmarks::generators::{ghz_ladder, syndrome_cycle};
use codar_repro::circuit::Circuit;
use codar_repro::router::sabre::reverse_traversal_mapping;
use codar_repro::router::verify::{check_coupling, check_equivalence};
use codar_repro::router::{CodarRouter, RoutedCircuit, RouterScratch, SabreRouter};
use codar_repro::sim::backend::check_routed_equivalence_stabilizer;
use codar_repro::sim::exec::run_ideal;
use proptest::prelude::*;

const EPS: f64 = 1e-9;

/// Strategy: a random *unitary* circuit (no measurements, so ideal
/// simulation yields the exact measurement distribution).
fn random_unitary_circuit(n: usize, max_gates: usize) -> impl Strategy<Value = Circuit> {
    let gate = (0u8..12, 0..n, 0..n, 0.0..std::f64::consts::PI);
    proptest::collection::vec(gate, 1..max_gates).prop_map(move |ops| {
        let mut c = Circuit::new(n);
        for (kind, a, b, angle) in ops {
            let b = if a == b { (a + 1) % n } else { b };
            match kind {
                0 => c.h(a),
                1 => c.t(a),
                2 => c.s(a),
                3 => c.x(a),
                4 => c.rz(angle, a),
                5 => c.rx(angle, a),
                6 => c.ry(angle, a),
                7 => c.cx(a, b),
                8 => c.cz(a, b),
                9 => c.cu1(angle, a, b),
                10 => c.rzz(angle, a, b),
                _ => c.swap(a, b),
            }
        }
        c
    })
}

/// Measurement distribution of the *logical* circuit encoded in a
/// routed physical circuit: simulates the physical circuit and folds
/// every physical basis state onto logical bitstrings through the
/// final mapping. Physical qubits holding no logical qubit must stay
/// in |0> (they only ever participate in router-inserted SWAPs).
fn logical_distribution(routed: &RoutedCircuit, num_logical: usize) -> Vec<f64> {
    let state = run_ideal(&routed.circuit);
    let phys_n = routed.circuit.num_qubits();
    let mut dist = vec![0.0; 1 << num_logical];
    for idx in 0..(1usize << phys_n) {
        let p = state.probability_of(idx);
        if p <= 0.0 {
            continue;
        }
        for phys in 0..phys_n {
            if routed.final_mapping.logical_of(phys).is_none() {
                assert_eq!(
                    (idx >> phys) & 1,
                    0,
                    "unmapped physical qubit {phys} left |0> (p={p})"
                );
            }
        }
        let mut logical_idx = 0usize;
        for l in 0..num_logical {
            logical_idx |= ((idx >> routed.final_mapping.phys_of(l)) & 1) << l;
        }
        dist[logical_idx] += p;
    }
    dist
}

/// Distribution of the original logical circuit, padded to nothing —
/// simulated directly on its own qubits.
fn reference_distribution(circuit: &Circuit) -> Vec<f64> {
    let state = run_ideal(circuit);
    (0..(1usize << circuit.num_qubits()))
        .map(|idx| state.probability_of(idx))
        .collect()
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// The physical→logical mapping slice the stabilizer check consumes,
/// read off the routed circuit's final mapping.
fn logical_of(routed: &RoutedCircuit) -> Vec<Option<usize>> {
    (0..routed.circuit.num_qubits())
        .map(|phys| routed.final_mapping.logical_of(phys))
        .collect()
}

/// Whole-device-scale equivalence: the dense distribution checks above
/// stop at a handful of qubits, but the stabilizer backend compares
/// canonical tableaus exactly at any width. Route Clifford workloads
/// that fill the *entire* device — Q20 Tokyo, the 6×6 grid, and the
/// 127-qubit Eagle heavy-hex — with both routers and prove each routed
/// circuit still prepares the original state.
#[test]
fn routed_clifford_circuits_verify_at_whole_device_scale() {
    for device in [
        Device::ibm_q20_tokyo(),
        Device::grid(6, 6),
        Device::ibm_eagle127(),
    ] {
        let n = device.num_qubits();
        // Both workloads span every qubit of the device: the log-depth
        // GHZ ladder and repetition-code syndrome extraction (distance
        // chosen so data + ancilla chains fill the register).
        let circuits = [
            ("ghz_ladder", ghz_ladder(n)),
            ("syndrome_cycle", syndrome_cycle(n.div_ceil(2), 2)),
        ];
        for (name, circuit) in circuits {
            let mut scratch = RouterScratch::new();
            let initial = reverse_traversal_mapping(&circuit, &device, 0, &mut scratch);
            let codar = CodarRouter::new(&device)
                .route(&circuit, Some(&initial), &mut scratch)
                .expect("fits the device");
            let sabre = SabreRouter::new(&device)
                .route(&circuit, Some(&initial), &mut scratch)
                .expect("fits the device");
            for (router, routed) in [("codar", &codar), ("sabre", &sabre)] {
                check_coupling(&routed.circuit, &device)
                    .unwrap_or_else(|e| panic!("{router} {name} on {device}: coupling {e}"));
                check_routed_equivalence_stabilizer(&circuit, &routed.circuit, &logical_of(routed))
                    .unwrap_or_else(|e| panic!("{router} {name} on {device}: {e}"));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline property: verify passes for both routers and all
    /// three distributions (logical, CODAR-routed, SABRE-routed) agree.
    #[test]
    fn codar_and_sabre_agree_with_the_logical_circuit(
        circuit in random_unitary_circuit(5, 30),
        seed in 0u64..64,
    ) {
        let device = Device::grid(2, 3);
        let mut scratch = RouterScratch::new();
        let initial = reverse_traversal_mapping(&circuit, &device, seed, &mut scratch);
        let codar = CodarRouter::new(&device)
            .route(&circuit, Some(&initial), &mut scratch)
            .expect("5 qubits fit a 6-qubit grid");
        let sabre = SabreRouter::new(&device)
            .route(&circuit, Some(&initial), &mut scratch)
            .expect("5 qubits fit a 6-qubit grid");

        // Both outputs satisfy the structural contract...
        check_coupling(&codar.circuit, &device).expect("codar respects coupling");
        check_coupling(&sabre.circuit, &device).expect("sabre respects coupling");
        check_equivalence(&circuit, &codar).expect("codar preserves semantics");
        check_equivalence(&circuit, &sabre).expect("sabre preserves semantics");

        // ...and the physics agrees: identical measurement distributions.
        let reference = reference_distribution(&circuit);
        let codar_dist = logical_distribution(&codar, circuit.num_qubits());
        let sabre_dist = logical_distribution(&sabre, circuit.num_qubits());
        let codar_err = max_abs_diff(&reference, &codar_dist);
        let sabre_err = max_abs_diff(&reference, &sabre_dist);
        prop_assert!(
            codar_err < EPS,
            "codar distribution diverges by {codar_err:e}"
        );
        prop_assert!(
            sabre_err < EPS,
            "sabre distribution diverges by {sabre_err:e}"
        );
        // Sanity: the distributions are distributions.
        prop_assert!((codar_dist.iter().sum::<f64>() - 1.0).abs() < EPS);
        prop_assert!((sabre_dist.iter().sum::<f64>() - 1.0).abs() < EPS);
    }

    /// Same property on a sparser topology (a line forces long SWAP
    /// chains, stressing the mapping bookkeeping harder).
    #[test]
    fn routers_agree_on_a_line_topology(
        circuit in random_unitary_circuit(4, 20),
        seed in 0u64..32,
    ) {
        let device = Device::linear(5);
        let mut scratch = RouterScratch::new();
        let initial = reverse_traversal_mapping(&circuit, &device, seed, &mut scratch);
        let codar = CodarRouter::new(&device)
            .route(&circuit, Some(&initial), &mut scratch)
            .expect("fits");
        let sabre = SabreRouter::new(&device)
            .route(&circuit, Some(&initial), &mut scratch)
            .expect("fits");
        check_equivalence(&circuit, &codar).expect("codar preserves semantics");
        check_equivalence(&circuit, &sabre).expect("sabre preserves semantics");
        let reference = reference_distribution(&circuit);
        let codar_err = max_abs_diff(&reference, &logical_distribution(&codar, 4));
        let sabre_err = max_abs_diff(&reference, &logical_distribution(&sabre, 4));
        prop_assert!(codar_err < EPS, "codar diverges by {codar_err:e}");
        prop_assert!(sabre_err < EPS, "sabre diverges by {sabre_err:e}");
    }
}
