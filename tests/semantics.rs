//! Semantic preservation, checked by full state-vector simulation:
//! a routed circuit, undone through its tracked mapping, must implement
//! exactly the same unitary as the original program.

use codar_repro::arch::Device;
use codar_repro::circuit::{Circuit, GateKind};
use codar_repro::router::verify::reconstruct_logical;
use codar_repro::router::{CodarConfig, CodarRouter, InitialMapping, RouterScratch, SabreRouter};
use codar_repro::sim::exec::run_ideal;
use codar_repro::sim::StateVector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Prepends a seeded random product-state preparation so circuits are
/// compared on a non-trivial input, then simulates both and compares.
fn assert_same_unitary(original: &Circuit, reconstructed: &Circuit, seed: u64) {
    assert_eq!(original.num_qubits(), reconstructed.num_qubits());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut prep = Circuit::new(original.num_qubits());
    for q in 0..original.num_qubits() {
        prep.add(
            GateKind::U3,
            vec![q],
            vec![
                rng.gen::<f64>() * 3.0,
                rng.gen::<f64>() * 3.0,
                rng.gen::<f64>() * 3.0,
            ],
        );
    }
    let run = |circuit: &Circuit| -> StateVector {
        let mut all = prep.clone();
        for g in circuit.gates() {
            all.push(g.clone());
        }
        run_ideal(&all)
    };
    let a = run(original);
    let b = run(reconstructed);
    let fidelity = a.fidelity_with(&b);
    assert!(
        (fidelity - 1.0).abs() < 1e-9,
        "states diverge: fidelity {fidelity}"
    );
}

fn interesting_circuits() -> Vec<(&'static str, Circuit)> {
    let mut qft5 = Circuit::new(5);
    for i in 0..5usize {
        qft5.h(i);
        for j in i + 1..5 {
            qft5.cu1(std::f64::consts::PI / (1 << (j - i)) as f64, j, i);
        }
    }
    let mut commuting = Circuit::new(5);
    commuting.cx(1, 0);
    commuting.cx(2, 0);
    commuting.cx(3, 0);
    commuting.cx(4, 0);
    commuting.t(1);
    commuting.cx(0, 4);
    let mut mixed = Circuit::new(6);
    mixed.h(0);
    mixed.cx(0, 5);
    mixed.cz(5, 1);
    mixed.rzz(0.4, 1, 4);
    mixed.cx(4, 2);
    mixed.swap(2, 3);
    mixed.add(GateKind::Cu3, vec![3, 0], vec![0.1, 0.2, 0.3]);
    mixed.cx(0, 3);
    vec![("qft5", qft5), ("commuting", commuting), ("mixed", mixed)]
}

#[test]
fn codar_preserves_unitaries_on_line() {
    let device = Device::linear(6);
    for (name, circuit) in interesting_circuits() {
        let config = CodarConfig {
            initial_mapping: InitialMapping::Identity,
            ..CodarConfig::default()
        };
        let routed = CodarRouter::with_config(&device, config)
            .route(&circuit, None, &mut RouterScratch::new())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let reconstructed = reconstruct_logical(
            &routed.circuit,
            &routed.initial_mapping,
            circuit.num_qubits(),
            &routed.inserted_swap_indices,
        )
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_same_unitary(&circuit, &reconstructed, 42);
    }
}

#[test]
fn codar_preserves_unitaries_on_grid_with_spare_qubits() {
    let device = Device::grid(3, 3);
    for (name, circuit) in interesting_circuits() {
        let routed = CodarRouter::new(&device)
            .route(&circuit, None, &mut RouterScratch::new())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let reconstructed = reconstruct_logical(
            &routed.circuit,
            &routed.initial_mapping,
            circuit.num_qubits(),
            &routed.inserted_swap_indices,
        )
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_same_unitary(&circuit, &reconstructed, 7);
    }
}

#[test]
fn sabre_preserves_unitaries() {
    let device = Device::grid(2, 3);
    for (name, circuit) in interesting_circuits() {
        let routed = SabreRouter::new(&device)
            .route(&circuit, None, &mut RouterScratch::new())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let reconstructed = reconstruct_logical(
            &routed.circuit,
            &routed.initial_mapping,
            circuit.num_qubits(),
            &routed.inserted_swap_indices,
        )
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_same_unitary(&circuit, &reconstructed, 13);
    }
}

#[test]
fn ablated_codar_variants_preserve_unitaries() {
    let device = Device::grid(2, 3);
    let (_, circuit) = interesting_circuits().remove(2);
    for (flag, config) in [
        (
            "no durations",
            CodarConfig {
                initial_mapping: InitialMapping::Identity,
                enable_duration_awareness: false,
                ..CodarConfig::default()
            },
        ),
        (
            "no commutativity",
            CodarConfig {
                initial_mapping: InitialMapping::Identity,
                enable_commutativity: false,
                ..CodarConfig::default()
            },
        ),
        (
            "no hfine",
            CodarConfig {
                initial_mapping: InitialMapping::Identity,
                enable_hfine: false,
                ..CodarConfig::default()
            },
        ),
    ] {
        let routed = CodarRouter::with_config(&device, config)
            .route(&circuit, None, &mut RouterScratch::new())
            .unwrap_or_else(|e| panic!("{flag}: {e}"));
        let reconstructed = reconstruct_logical(
            &routed.circuit,
            &routed.initial_mapping,
            circuit.num_qubits(),
            &routed.inserted_swap_indices,
        )
        .unwrap_or_else(|e| panic!("{flag}: {e}"));
        assert_same_unitary(&circuit, &reconstructed, 99);
    }
}

#[test]
fn toffoli_decomposition_survives_routing() {
    // ccx → {1q, cx} → routed → reconstructed must still be a Toffoli.
    let mut original = Circuit::new(3);
    original.ccx(0, 1, 2);
    let decomposed = codar_repro::circuit::decompose::decompose_three_qubit_gates(&original);
    let device = Device::linear(3);
    let config = CodarConfig {
        initial_mapping: InitialMapping::Identity,
        ..CodarConfig::default()
    };
    let routed = CodarRouter::with_config(&device, config)
        .route(&decomposed, None, &mut RouterScratch::new())
        .expect("fits");
    let reconstructed = reconstruct_logical(
        &routed.circuit,
        &routed.initial_mapping,
        3,
        &routed.inserted_swap_indices,
    )
    .expect("valid");
    // Compare against the *original* Toffoli semantics.
    assert_same_unitary(&original, &reconstructed, 5);
}
