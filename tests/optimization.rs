//! Simulator-verified correctness of the optimization passes: every
//! pass must preserve the circuit's unitary (up to global phase).

use codar_repro::circuit::optimize::{
    cancel_inverse_pairs, fuse_single_qubit_gates, merge_rotations, optimize,
};
use codar_repro::circuit::{Circuit, GateKind};
use codar_repro::sim::exec::run_ideal;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn assert_equivalent(a: &Circuit, b: &Circuit, seed: u64) {
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
    assert!(
        (f - 1.0).abs() < 1e-9,
        "pass changed semantics: fidelity {f}"
    );
}

fn random_unitary_circuit(n: usize, gates: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    for _ in 0..gates {
        match rng.gen_range(0..12) {
            0 => c.h(rng.gen_range(0..n)),
            1 => c.t(rng.gen_range(0..n)),
            2 => c.tdg(rng.gen_range(0..n)),
            3 => c.s(rng.gen_range(0..n)),
            4 => c.sdg(rng.gen_range(0..n)),
            5 => c.x(rng.gen_range(0..n)),
            6 => c.rz(rng.gen::<f64>() * 6.0 - 3.0, rng.gen_range(0..n)),
            7 => c.rx(rng.gen::<f64>() * 6.0 - 3.0, rng.gen_range(0..n)),
            8 => c.ry(rng.gen::<f64>() * 6.0 - 3.0, rng.gen_range(0..n)),
            _ => {
                let a = rng.gen_range(0..n);
                let b = (a + rng.gen_range(1..n)) % n;
                if rng.gen_bool(0.5) {
                    c.cx(a, b);
                } else {
                    c.cz(a, b);
                }
            }
        }
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn cancel_preserves_unitary(seed in 0u64..5000) {
        let c = random_unitary_circuit(4, 40, seed);
        assert_equivalent(&c, &cancel_inverse_pairs(&c), seed);
    }

    #[test]
    fn merge_preserves_unitary(seed in 0u64..5000) {
        let c = random_unitary_circuit(4, 40, seed);
        assert_equivalent(&c, &merge_rotations(&c), seed);
    }

    #[test]
    fn fuse_preserves_unitary(seed in 0u64..5000) {
        let c = random_unitary_circuit(4, 40, seed);
        assert_equivalent(&c, &fuse_single_qubit_gates(&c), seed);
    }

    #[test]
    fn optimize_preserves_unitary(seed in 0u64..5000) {
        let c = random_unitary_circuit(4, 60, seed);
        let o = optimize(&c);
        prop_assert!(o.len() <= c.len());
        assert_equivalent(&c, &o, seed);
    }
}

#[test]
fn fusion_handles_dense_rotation_ladders() {
    // A long alternating-axis ladder exercises the matrix accumulation
    // order (each new gate multiplies on the left).
    let mut c = Circuit::new(1);
    for k in 0..20 {
        match k % 3 {
            0 => c.rx(0.1 * (k + 1) as f64, 0),
            1 => c.ry(0.2 * (k + 1) as f64, 0),
            _ => c.rz(0.3 * (k + 1) as f64, 0),
        }
    }
    let fused = fuse_single_qubit_gates(&c);
    assert_eq!(fused.len(), 1);
    assert_equivalent(&c, &fused, 77);
}

#[test]
fn optimization_before_routing_helps() {
    // Redundancy-laden circuit: optimization should reduce the routed
    // weighted depth (or at least never increase the input size).
    use codar_repro::arch::Device;
    use codar_repro::router::{CodarConfig, CodarRouter, InitialMapping, RouterScratch};
    let mut c = Circuit::new(4);
    for _ in 0..5 {
        c.h(0);
        c.h(0);
        c.cx(0, 3);
        c.cx(0, 3);
        c.rz(0.3, 2);
        c.rz(-0.3, 2);
    }
    c.cx(0, 3);
    let optimized = optimize(&c);
    assert_eq!(optimized.len(), 1);
    let device = Device::linear(4);
    let config = CodarConfig {
        initial_mapping: InitialMapping::Identity,
        ..CodarConfig::default()
    };
    let raw = CodarRouter::with_config(&device, config.clone())
        .route(&c, None, &mut RouterScratch::new())
        .expect("fits");
    let opt = CodarRouter::with_config(&device, config)
        .route(&optimized, None, &mut RouterScratch::new())
        .expect("fits");
    assert!(opt.weighted_depth < raw.weighted_depth);
}
