//! Scratch-reuse equivalence properties: the optimized, scratch-backed
//! router hot paths must produce **gate-for-gate identical**
//! [`RoutedCircuit`]s whether the scratch is fresh per call (equal to
//! the seed implementation — pinned by the golden summaries) or reused
//! across many circuits and devices (the engine-worker behavior). Each
//! property also routes once from the router's own placement
//! (`initial = None`) and once from that same placement built
//! explicitly and passed in: the two must agree too. Identity covers
//! the routed gate sequence, the inserted SWAPs, the start times and
//! the weighted depth.

use codar_arch::Device;
use codar_benchmarks::generators;
use codar_router::sabre::{reverse_traversal_mapping, SabreCounters};
use codar_router::{
    CodarConfig, CodarRouter, GreedyRouter, InitialMapping, Mapping, RoutedCircuit, RouterScratch,
    SabreRouter,
};
use proptest::prelude::*;

/// The full 8-device catalog.
fn catalog() -> Vec<Device> {
    Device::presets().into_iter().map(|(_, d)| d).collect()
}

/// A deterministic random circuit drawn from the generator the
/// benchmark suite uses, sized to fit every catalog device.
fn random_circuit(seed: u64) -> codar_circuit::Circuit {
    let n = 3 + (seed % 3) as usize; // 3..=5 qubits fits the 5-qubit device
    let gates = 10 + (seed % 40) as usize;
    generators::random_clifford_t(n, gates, seed)
}

fn assert_identical(fresh: &RoutedCircuit, reused: &RoutedCircuit, context: &str) {
    assert_eq!(
        fresh.circuit.gates(),
        reused.circuit.gates(),
        "gate sequences diverge: {context}"
    );
    assert_eq!(
        fresh.swaps_inserted, reused.swaps_inserted,
        "swap counts diverge: {context}"
    );
    assert_eq!(
        fresh.inserted_swap_indices, reused.inserted_swap_indices,
        "swap positions diverge: {context}"
    );
    assert_eq!(
        fresh.start_times, reused.start_times,
        "start times diverge: {context}"
    );
    assert_eq!(
        fresh.weighted_depth, reused.weighted_depth,
        "weighted depths diverge: {context}"
    );
    assert_eq!(
        fresh.final_mapping, reused.final_mapping,
        "final mappings diverge: {context}"
    );
}

/// The counters a scratch gained between two readings.
fn counters_since(before: SabreCounters, after: SabreCounters) -> SabreCounters {
    SabreCounters {
        placement_passes: after.placement_passes - before.placement_passes,
        swap_rounds: after.swap_rounds - before.swap_rounds,
        candidates_scored: after.candidates_scored - before.candidates_scored,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// CODAR: fresh scratch per call == one scratch shared across the
    /// whole circuit×device matrix; own placement == the same
    /// placement passed in.
    #[test]
    fn codar_scratch_reuse_is_invisible(seed in 0u64..1000) {
        let circuit = random_circuit(seed);
        let mut shared = RouterScratch::new();
        for device in catalog() {
            let initial = Mapping::identity(circuit.num_qubits(), device.num_qubits());
            let router = CodarRouter::new(&device);
            let fresh = router
                .route(&circuit, Some(&initial), &mut RouterScratch::new())
                .expect("fits");
            let reused = router.route(&circuit, Some(&initial), &mut shared).expect("fits");
            let context = format!("codar seed {seed} on {}", device.name());
            assert_identical(&fresh, &reused, &context);
            let explicit =
                router.config().initial_mapping.build(&circuit, &device, &mut RouterScratch::new());
            let own = router.route(&circuit, None, &mut shared).expect("fits");
            let given = router.route(&circuit, Some(&explicit), &mut shared).expect("fits");
            assert_identical(&own, &given, &format!("{context}, own placement"));
        }
    }

    /// SABRE: same property, including the reverse-traversal initial
    /// mapping (two extra routing passes through the same scratch) and
    /// the SABRE work counters.
    #[test]
    fn sabre_scratch_reuse_is_invisible(seed in 0u64..1000) {
        let circuit = random_circuit(seed);
        let mut shared = RouterScratch::new();
        for device in catalog() {
            let router = SabreRouter::new(&device);
            let mut fresh_scratch = RouterScratch::new();
            let fresh = router.route(&circuit, None, &mut fresh_scratch).expect("fits");
            let before = shared.sabre_counters();
            let reused = router.route(&circuit, None, &mut shared).expect("fits");
            let context = format!("sabre seed {seed} on {}", device.name());
            assert_identical(&fresh, &reused, &context);
            assert_eq!(
                counters_since(before, shared.sabre_counters()),
                fresh_scratch.sabre_counters(),
                "counters diverge: {context}"
            );
            let explicit = reverse_traversal_mapping(
                &circuit,
                &device,
                router.config().seed,
                &mut RouterScratch::new(),
            );
            let given = router.route(&circuit, Some(&explicit), &mut shared).expect("fits");
            assert_identical(&reused, &given, &format!("{context}, own placement"));
        }
    }

    /// Greedy: same property (trivially, but it pins the API contract).
    #[test]
    fn greedy_scratch_reuse_is_invisible(seed in 0u64..1000) {
        let circuit = random_circuit(seed);
        let mut shared = RouterScratch::new();
        for device in catalog() {
            let initial = Mapping::identity(circuit.num_qubits(), device.num_qubits());
            let router = GreedyRouter::new(&device);
            let fresh = router
                .route(&circuit, Some(&initial), &mut RouterScratch::new())
                .expect("fits");
            let reused = router.route(&circuit, Some(&initial), &mut shared).expect("fits");
            let context = format!("greedy seed {seed} on {}", device.name());
            assert_identical(&fresh, &reused, &context);
            // The greedy router's default placement is the identity.
            let explicit =
                InitialMapping::Identity.build(&circuit, &device, &mut RouterScratch::new());
            let own = router.route(&circuit, None, &mut shared).expect("fits");
            let given = router.route(&circuit, Some(&explicit), &mut shared).expect("fits");
            assert_identical(&own, &given, &format!("{context}, own placement"));
        }
    }

    /// Ablation configurations go through the same scratch-backed loop;
    /// reuse must stay invisible with mechanisms disabled too.
    #[test]
    fn codar_ablations_scratch_reuse_is_invisible(seed in 0u64..1000) {
        let circuit = random_circuit(seed);
        let device = Device::ibm_q20_tokyo();
        let mut shared = RouterScratch::new();
        for (duration, commutativity, hfine) in
            [(false, true, true), (true, false, true), (true, true, false)]
        {
            let config = CodarConfig {
                enable_duration_awareness: duration,
                enable_commutativity: commutativity,
                enable_hfine: hfine,
                ..CodarConfig::default()
            };
            let initial = Mapping::identity(circuit.num_qubits(), device.num_qubits());
            let router = CodarRouter::with_config(&device, config);
            let fresh = router
                .route(&circuit, Some(&initial), &mut RouterScratch::new())
                .expect("fits");
            let reused = router.route(&circuit, Some(&initial), &mut shared).expect("fits");
            let context = format!("ablation ({duration},{commutativity},{hfine}) seed {seed}");
            assert_identical(&fresh, &reused, &context);
            let explicit =
                router.config().initial_mapping.build(&circuit, &device, &mut RouterScratch::new());
            let own = router.route(&circuit, None, &mut shared).expect("fits");
            let given = router.route(&circuit, Some(&explicit), &mut shared).expect("fits");
            assert_identical(&own, &given, &format!("{context}, own placement"));
        }
    }
}
