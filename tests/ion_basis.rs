//! The ion-trap native basis (Table I): `r(θ,φ)` + Mølmer–Sørensen
//! `rxx`, and the CNOT-via-XX construction, verified by simulation.

use codar_repro::circuit::decompose::translate_to_ion_basis;
use codar_repro::circuit::{Circuit, GateKind};
use codar_repro::sim::exec::run_ideal;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn assert_equivalent(a: &Circuit, b: &Circuit, seed: u64) {
    assert_eq!(a.num_qubits(), b.num_qubits());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut prep = Circuit::new(a.num_qubits());
    for q in 0..a.num_qubits() {
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
    let run = |c: &Circuit| {
        let mut all = prep.clone();
        for g in c.gates() {
            all.push(g.clone());
        }
        run_ideal(&all)
    };
    let f = run(a).fidelity_with(&run(b));
    assert!((f - 1.0).abs() < 1e-9, "fidelity {f}");
}

#[test]
fn r_gate_specializes_to_rx_and_ry() {
    for theta in [0.3, 1.2, -0.8] {
        let mut rx = Circuit::new(1);
        rx.rx(theta, 0);
        let mut r0 = Circuit::new(1);
        r0.add(GateKind::R, vec![0], vec![theta, 0.0]);
        assert_equivalent(&rx, &r0, 1);

        let mut ry = Circuit::new(1);
        ry.ry(theta, 0);
        let mut r90 = Circuit::new(1);
        r90.add(
            GateKind::R,
            vec![0],
            vec![theta, std::f64::consts::FRAC_PI_2],
        );
        assert_equivalent(&ry, &r90, 2);
    }
}

#[test]
fn rxx_matches_h_conjugated_rzz() {
    let theta = 0.9;
    let mut direct = Circuit::new(2);
    direct.add(GateKind::Rxx, vec![0, 1], vec![theta]);
    let mut conjugated = Circuit::new(2);
    conjugated.h(0);
    conjugated.h(1);
    conjugated.rzz(theta, 0, 1);
    conjugated.h(0);
    conjugated.h(1);
    assert_equivalent(&direct, &conjugated, 3);
}

#[test]
fn cnot_via_xx_is_exact() {
    // Table I / Sec. III-A: "CNOT gate can be implemented by a one-XX
    // and four-R".
    let mut cnot = Circuit::new(2);
    cnot.cx(0, 1);
    let ion = translate_to_ion_basis(&cnot);
    assert_eq!(ion.count_kind(GateKind::Rxx), 1);
    assert_eq!(ion.count_kind(GateKind::R), 4);
    assert_eq!(ion.count_kind(GateKind::Cx), 0);
    assert_equivalent(&cnot, &ion, 4);
}

#[test]
fn whole_programs_translate_exactly() {
    let mut qft3 = Circuit::new(3);
    for i in 0..3usize {
        qft3.h(i);
        for j in i + 1..3 {
            qft3.cu1(std::f64::consts::PI / (1 << (j - i)) as f64, j, i);
        }
    }
    let ion = translate_to_ion_basis(&qft3);
    for g in ion.gates() {
        assert!(
            matches!(g.kind, GateKind::R | GateKind::Rz | GateKind::Rxx),
            "non-native gate {g} survived translation"
        );
    }
    assert_equivalent(&qft3, &ion, 5);

    let mut mixed = Circuit::new(3);
    mixed.h(0);
    mixed.ccx(0, 1, 2);
    mixed.swap(1, 2);
    mixed.t(2);
    let ion = translate_to_ion_basis(&mixed);
    assert_equivalent(&mixed, &ion, 6);
}

#[test]
fn ion_translation_composes_with_routing() {
    use codar_repro::arch::Device;
    use codar_repro::router::{CodarConfig, CodarRouter, InitialMapping, RouterScratch};
    // Route first (swaps become cx triples? no — swap is 2q and legal on
    // the device), then translate for execution on an ion chain with
    // all-to-all coupling: routing on the superconducting device, ion
    // translation for the trap — each stage checked by simulation.
    let mut circuit = Circuit::new(4);
    circuit.h(0);
    circuit.cx(0, 3);
    circuit.t(3);
    circuit.cx(3, 1);
    let device = Device::linear(4);
    let config = CodarConfig {
        initial_mapping: InitialMapping::Identity,
        ..CodarConfig::default()
    };
    let routed = CodarRouter::with_config(&device, config)
        .route(&circuit, None, &mut RouterScratch::new())
        .expect("fits");
    let logical = codar_repro::router::verify::reconstruct_logical(
        &routed.circuit,
        &routed.initial_mapping,
        4,
        &routed.inserted_swap_indices,
    )
    .expect("valid");
    let ion = translate_to_ion_basis(&logical);
    assert_equivalent(&circuit, &ion, 7);
}

#[test]
fn rxx_commutes_with_x_rotations() {
    use codar_repro::circuit::commutes;
    use codar_repro::circuit::Gate;
    let ms = Gate::new(GateKind::Rxx, vec![0, 1], vec![0.5]);
    let rx = Gate::new(GateKind::Rx, vec![0], vec![0.3]);
    let rz = Gate::new(GateKind::Rz, vec![0], vec![0.3]);
    assert!(commutes(&ms, &rx));
    assert!(!commutes(&ms, &rz));
    let ms2 = Gate::new(GateKind::Rxx, vec![1, 2], vec![0.25]);
    assert!(commutes(&ms, &ms2));
}
