//! Property tests for the calibration-aware `codar-cal` variant.
//!
//! Across random circuits × the full 8-device catalog × random
//! synthetic/drifted snapshots × alpha ∈ {0, 0.25, 0.5, 1.0}:
//!
//! * every route satisfies the coupling constraints and is
//!   semantically equivalent to its input (verification),
//! * fresh and reused scratches produce gate-for-gate identical
//!   results (the engine-worker reuse contract),
//! * `alpha = 0` is gate-for-gate identical to plain CODAR — the
//!   differential reduction, here on random inputs (the committed
//!   suite is covered by `crates/engine/tests/cal_differential.rs`).

use codar_arch::{CalibrationSnapshot, Device};
use codar_benchmarks::generators;
use codar_router::verify::{check_coupling, check_equivalence};
use codar_router::{CodarConfig, CodarRouter, Mapping, RoutedCircuit, RouterScratch};
use proptest::prelude::*;

const ALPHAS: [f64; 4] = [0.0, 0.25, 0.5, 1.0];

/// The full 8-device catalog.
fn catalog() -> Vec<Device> {
    Device::presets().into_iter().map(|(_, d)| d).collect()
}

/// A deterministic random circuit sized to fit every catalog device.
fn random_circuit(seed: u64) -> codar_circuit::Circuit {
    let n = 3 + (seed % 3) as usize; // 3..=5 qubits fits the 5-qubit device
    let gates = 10 + (seed % 40) as usize;
    generators::random_clifford_t(n, gates, seed)
}

/// A random snapshot: seeded synthetic calibration, drifted 0..3 times.
fn random_snapshot(device: &Device, seed: u64) -> CalibrationSnapshot {
    let mut snapshot = CalibrationSnapshot::synthetic(device, seed);
    for _ in 0..(seed % 3) {
        snapshot = snapshot.drifted(seed ^ 0x5ca1ab1e);
    }
    snapshot
}

fn assert_identical(a: &RoutedCircuit, b: &RoutedCircuit, context: &str) {
    assert_eq!(
        a.circuit.gates(),
        b.circuit.gates(),
        "gates diverge: {context}"
    );
    assert_eq!(
        a.start_times, b.start_times,
        "start times diverge: {context}"
    );
    assert_eq!(
        a.weighted_depth, b.weighted_depth,
        "depths diverge: {context}"
    );
    assert_eq!(
        a.final_mapping, b.final_mapping,
        "mappings diverge: {context}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// codar-cal routes verify (coupling + equivalence) for every
    /// device and alpha, and scratch reuse stays invisible.
    #[test]
    fn codar_cal_verifies_across_catalog_and_alphas(seed in 0u64..1000) {
        let circuit = random_circuit(seed);
        let mut shared = RouterScratch::new();
        for device in catalog() {
            let snapshot = random_snapshot(&device, seed);
            for alpha in ALPHAS {
                let config = CodarConfig {
                    cal_alpha: alpha,
                    ..CodarConfig::default()
                };
                let initial = Mapping::identity(circuit.num_qubits(), device.num_qubits());
                let router = CodarRouter::with_config(&device, config).with_snapshot(&snapshot);
                let context = format!(
                    "seed {seed}, alpha {alpha}, snapshot v{} on {}",
                    snapshot.version,
                    device.name()
                );
                let fresh = router
                    .route(&circuit, Some(&initial), &mut RouterScratch::new())
                    .expect("fits");
                check_coupling(&fresh.circuit, &device).expect(&context);
                check_equivalence(&circuit, &fresh).expect(&context);
                let reused = router
                    .route(&circuit, Some(&initial), &mut shared)
                    .expect("fits");
                assert_identical(&fresh, &reused, &context);
            }
        }
    }

    /// alpha = 0 with any snapshot reduces gate-for-gate to plain
    /// CODAR on every catalog device.
    #[test]
    fn alpha_zero_reduces_to_plain_codar(seed in 0u64..1000) {
        let circuit = random_circuit(seed);
        let mut shared = RouterScratch::new();
        for device in catalog() {
            let snapshot = random_snapshot(&device, seed.wrapping_mul(31));
            let initial = Mapping::identity(circuit.num_qubits(), device.num_qubits());
            let plain = CodarRouter::new(&device)
                .route(&circuit, Some(&initial), &mut shared)
                .expect("fits");
            let zero = CodarRouter::new(&device)
                .with_snapshot(&snapshot)
                .route(&circuit, Some(&initial), &mut shared)
                .expect("fits");
            assert_identical(
                &plain,
                &zero,
                &format!("seed {seed} on {}", device.name()),
            );
        }
    }

    /// Snapshot reuse across *different* devices through one scratch:
    /// stale penalty tables from a big device must never leak into a
    /// smaller device's routing.
    #[test]
    fn penalty_tables_do_not_leak_across_devices(seed in 0u64..500) {
        let circuit = random_circuit(seed);
        let mut shared = RouterScratch::new();
        // Big device first (fills a large penalty table)...
        let big = Device::google_bristlecone72();
        let big_snapshot = random_snapshot(&big, seed);
        let config = CodarConfig { cal_alpha: 1.0, ..CodarConfig::default() };
        CodarRouter::with_config(&big, config.clone())
            .with_snapshot(&big_snapshot)
            .route(
                &circuit,
                Some(&Mapping::identity(circuit.num_qubits(), big.num_qubits())),
                &mut shared,
            )
            .expect("fits");
        // ...then a small one: identical to a fresh-scratch route.
        let small = Device::ibm_q5_yorktown();
        let small_snapshot = random_snapshot(&small, seed ^ 7);
        let initial = Mapping::identity(circuit.num_qubits(), small.num_qubits());
        let reused = CodarRouter::with_config(&small, config.clone())
            .with_snapshot(&small_snapshot)
            .route(&circuit, Some(&initial), &mut shared)
            .expect("fits");
        let fresh = CodarRouter::with_config(&small, config)
            .with_snapshot(&small_snapshot)
            .route(&circuit, Some(&initial), &mut RouterScratch::new())
            .expect("fits");
        assert_identical(&fresh, &reused, &format!("seed {seed} big→small"));
    }
}
