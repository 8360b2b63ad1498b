//! Differential test of SABRE's reverse-traversal placement: the
//! output-free passes over one DAG walked both ways must give exactly
//! the placement of the original construction. The oracle below
//! rebuilds that construction from the public API: a forward
//! [`SabreRouter::route`] from the seeded random start, then a route of
//! `circuit.reversed()` from that pass's final mapping, falling back to
//! the identity when either pass fails.
//!
//! Inputs are the suite entries on every preset they fit, random
//! circuits with barriers (also operand-free ones) and single-qubit
//! runs, and a disconnected device, where the fallback is taken. The
//! pass is shared with the SABRE route, so two FNVs of
//! [`SabreRouter::route`] output are pinned as well.

use codar_arch::{CouplingGraph, Device};
use codar_benchmarks::suite::full_suite;
use codar_circuit::Circuit;
use codar_router::sabre::reverse_traversal_mapping;
use codar_router::{
    InitialMapping, Mapping, RoutedCircuit, RouterScratch, SabreConfig, SabreRouter,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Placement seeds: the small ones, the engine's seed range and one
/// far away.
const SEEDS: [u64; 9] = [0, 1, 7, 28, 29, 30, 31, 1234, 9_999_991];

/// The placement as two full SABRE routes, the second over the
/// reversed circuit.
fn oracle(circuit: &Circuit, device: &Device, seed: u64, scratch: &mut RouterScratch) -> Mapping {
    let identity = Mapping::identity(circuit.num_qubits(), device.num_qubits());
    let router = SabreRouter::with_config(
        device,
        SabreConfig {
            seed,
            ..SabreConfig::default()
        },
    );
    let start = InitialMapping::Random { seed }.build(circuit, device, scratch);
    let Ok(forward) = router.route(circuit, Some(&start), scratch) else {
        return identity;
    };
    match router.route(&circuit.reversed(), Some(&forward.final_mapping), scratch) {
        Ok(backward) => backward.final_mapping,
        Err(_) => identity,
    }
}

/// Asserts the placement equals the oracle's, through one shared
/// scratch for the placement and another for the oracle.
fn agree(
    circuit: &Circuit,
    device: &Device,
    seed: u64,
    shared: &mut RouterScratch,
    reference: &mut RouterScratch,
    context: &str,
) -> Mapping {
    let placed = reverse_traversal_mapping(circuit, device, seed, shared);
    let expected = oracle(circuit, device, seed, reference);
    assert_eq!(placed, expected, "{context}, seed {seed}");
    placed
}

#[test]
fn suite_placements_match_the_oracle() {
    let suite = full_suite();
    let mut shared = RouterScratch::new();
    let mut reference = RouterScratch::new();
    let mut cases = 0;
    for (name, device) in Device::presets() {
        for entry in suite.iter().filter(|e| e.num_qubits <= device.num_qubits()) {
            for seed in SEEDS {
                let context = format!("{} on {name}", entry.name);
                agree(
                    &entry.circuit,
                    &device,
                    seed,
                    &mut shared,
                    &mut reference,
                    &context,
                );
                cases += 1;
            }
        }
    }
    assert_eq!(
        cases,
        9 * 479,
        "the sweep covers every fitting (entry, preset)"
    );
}

/// A random circuit of barriers, single-qubit runs and two-qubit gates.
fn random_circuit(rng: &mut StdRng, n: usize) -> Circuit {
    let mut c = Circuit::with_bits(n, n);
    let two_qubit = rng.gen_bool(0.8);
    for _ in 0..rng.gen_range(1..60usize) {
        let q = rng.gen_range(0..n);
        match rng.gen_range(0..8u32) {
            0 => {
                let mut qubits: Vec<usize> = (0..n).collect();
                qubits.shuffle(rng);
                qubits.truncate(rng.gen_range(0..=n));
                c.barrier(qubits);
            }
            1 => {
                for _ in 0..rng.gen_range(1..12) {
                    c.t(q);
                }
            }
            2 => c.measure(q, q),
            3 => c.h(q),
            _ if two_qubit && n >= 2 => {
                let a = q;
                let b = (a + rng.gen_range(1..n)) % n;
                if rng.gen_bool(0.2) {
                    c.swap(a, b);
                } else {
                    c.cx(a, b);
                }
            }
            _ => c.x(q),
        }
    }
    c
}

#[test]
fn random_placements_match_the_oracle() {
    let mut rng = StdRng::seed_from_u64(20);
    let mut shared = RouterScratch::new();
    let mut reference = RouterScratch::new();
    for round in 0..120 {
        let circuit = random_circuit(&mut rng, 1 + round % 7);
        for (name, device) in Device::presets() {
            if circuit.num_qubits() > device.num_qubits() {
                continue;
            }
            for seed in [round as u64, 31] {
                let context = format!("round {round} on {name}");
                agree(
                    &circuit,
                    &device,
                    seed,
                    &mut shared,
                    &mut reference,
                    &context,
                );
            }
        }
    }
}

/// Two components: a gate across them cannot be routed, so both the
/// placement and the oracle fall back to the identity.
#[test]
fn disconnected_device_falls_back_to_the_identity() {
    let graph = CouplingGraph::new(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
    let device = Device::from_graph("split", graph);
    let mut rng = StdRng::seed_from_u64(3);
    let mut shared = RouterScratch::new();
    let mut reference = RouterScratch::new();
    let mut fallbacks = 0;
    for round in 0..40 {
        let n = 2 + round % 5;
        let circuit = random_circuit(&mut rng, n);
        for seed in SEEDS {
            let placed = agree(
                &circuit,
                &device,
                seed,
                &mut shared,
                &mut reference,
                &format!("round {round} on split"),
            );
            let start = InitialMapping::Random { seed }.build(&circuit, &device, &mut shared);
            if SabreRouter::new(&device)
                .route(&circuit, Some(&start), &mut shared)
                .is_err()
            {
                assert_eq!(
                    placed,
                    Mapping::identity(n, 6),
                    "round {round}, seed {seed}"
                );
                fallbacks += 1;
            }
        }
    }
    assert!(fallbacks > 0, "the fallback was exercised");
}

fn fnv(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn fnv_route(hash: &mut u64, routed: &RoutedCircuit) {
    fnv(hash, routed.circuit.len() as u64);
    for gate in routed.circuit.gates() {
        fnv(hash, gate.kind as u64);
        fnv(hash, gate.qubits.len() as u64);
        for &q in &gate.qubits {
            fnv(hash, q as u64);
        }
        for &p in &gate.params {
            fnv(hash, p.to_bits());
        }
        fnv(hash, gate.classical_bit.map_or(u64::MAX, |b| b as u64));
    }
    for &i in &routed.inserted_swap_indices {
        fnv(hash, i as u64);
    }
    for mapping in [&routed.initial_mapping, &routed.final_mapping] {
        for &p in mapping.assignment() {
            fnv(hash, p as u64);
        }
    }
    for &t in &routed.start_times {
        fnv(hash, t);
    }
    fnv(hash, routed.weighted_depth);
}

/// 64-bit FNV-1a of SABRE's routed gates, SWAP positions, initial and
/// final mappings, `start_times` and `weighted_depth` over the suite
/// entries with at most 20 qubits, each from SABRE's own placement.
fn sabre_suite_fingerprint(device: &Device) -> u64 {
    let mut scratch = RouterScratch::new();
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for entry in full_suite().into_iter().filter(|e| e.num_qubits <= 20) {
        let routed = SabreRouter::new(device)
            .route(&entry.circuit, None, &mut scratch)
            .unwrap_or_else(|e| panic!("{} on {}: {e}", entry.name, device.name()));
        fnv_route(&mut hash, &routed);
    }
    hash
}

/// The fingerprints the two-route placement and the emitting pass
/// produced before they were merged into one pass. A change here means
/// SABRE's routed bytes changed.
const SABRE_Q20_FNV: u64 = 0x37c9_71f5_40e9_8d3b;
const SABRE_SYCAMORE_FNV: u64 = 0x498e_aaa5_93e8_4650;

#[test]
fn sabre_routes_keep_their_bytes() {
    assert_eq!(
        sabre_suite_fingerprint(&Device::ibm_q20_tokyo()),
        SABRE_Q20_FNV,
        "SABRE's routed suite bytes on Q20 changed"
    );
    assert_eq!(
        sabre_suite_fingerprint(&Device::google_sycamore54()),
        SABRE_SYCAMORE_FNV,
        "SABRE's routed suite bytes on Sycamore-54 changed"
    );
}
