//! Differential test of the commutative front: the incremental
//! [`CommutativeFront`] must expose exactly the CF set the original
//! per-emission rescan does, after every emission, and CODAR's routed
//! output must stay byte-identical. The oracle below is the original
//! front, kept verbatim as the reference the incremental one is proven
//! against.
//!
//! Inputs are deterministic random circuits plus adversarial cases:
//! barriers (also operand-free ones) and `id`, identical twins (`h;h`,
//! `rz(θ);rz(θ)`, `u3(θ,0,0.0)` vs `u3(θ,0,-0.0)`), `r(θ, φ)` at φ = 0
//! and π/2, and commuting runs longer than the window. Each is swept over
//! windows {1, 2, 3, 16} with commutativity on and off, under random
//! emission orders: mostly CF gates (the legal ones), sometimes any
//! pending gate.

use codar_arch::Device;
use codar_benchmarks::suite::full_suite;
use codar_circuit::{Circuit, GateKind};
use codar_router::front::CommutativeFront;
use codar_router::{CodarConfig, CodarRouter, RoutedCircuit, RouterScratch};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::f64::consts::FRAC_PI_2;

/// The commutative front as it stood before the incremental one
/// replaced it.
#[allow(dead_code)]
mod oracle {
    use codar_circuit::{commutes, Circuit};
    use std::collections::VecDeque;

    /// Default per-qubit lookahead window for the CF scan.
    pub const DEFAULT_WINDOW: usize = 16;

    /// Tracks the pending portion of a circuit and computes its CF set.
    ///
    /// The per-queue locally-CF scan is cached and invalidated only when a
    /// gate is emitted from that queue, and the merged CF set itself is
    /// cached between emissions, so the common case (repeated CF queries
    /// between emissions) returns a slice without recomputing — or
    /// allocating — anything. All buffers (per-queue caches, the qualify
    /// counters, the merged set) are reused across recomputations, so a
    /// routing loop in steady state allocates nothing here.
    #[derive(Debug, Clone)]
    pub struct CommutativeFront {
        queues: Vec<VecDeque<usize>>,
        pending: Vec<bool>,
        num_pending: usize,
        window: usize,
        commutativity: bool,
        // cache[q] = locally-CF gate indices of queue q, stale when dirty.
        cache: Vec<QueueCache>,
        // How many of a gate's queues qualify it; zeroed outside cf_gates.
        qualify: Vec<u32>,
        // The merged CF set, valid while `cf_valid`.
        cf: Vec<usize>,
        cf_valid: bool,
        // Pending gates with no qubit operands (always CF).
        zero_qubit: Vec<usize>,
    }

    /// Reusable per-queue locally-CF cache entry.
    #[derive(Debug, Clone, Default)]
    struct QueueCache {
        gates: Vec<usize>,
        valid: bool,
    }

    impl CommutativeFront {
        /// Builds the tracker with every gate of `circuit` pending.
        ///
        /// With `commutativity = false` the CF set degrades to the plain
        /// data-dependence front layer (the ablation case).
        pub fn new(circuit: &Circuit, commutativity: bool, window: usize) -> Self {
            assert!(window >= 1, "window must be at least 1");
            let mut queues = vec![VecDeque::new(); circuit.num_qubits()];
            for (i, gate) in circuit.gates().iter().enumerate() {
                for &q in &gate.qubits {
                    queues[q].push_back(i);
                }
            }
            let cache = vec![QueueCache::default(); circuit.num_qubits()];
            let zero_qubit = (0..circuit.len())
                .filter(|&i| circuit.gates()[i].qubits.is_empty())
                .collect();
            CommutativeFront {
                queues,
                pending: vec![true; circuit.len()],
                num_pending: circuit.len(),
                window,
                commutativity,
                cache,
                qualify: vec![0; circuit.len()],
                cf: Vec::new(),
                cf_valid: false,
                zero_qubit,
            }
        }

        fn refresh_queue_cache(&mut self, q: usize, circuit: &Circuit) {
            let queue = &self.queues[q];
            let limit = queue.len().min(self.window);
            let entry = &mut self.cache[q];
            entry.gates.clear();
            for pos in 0..limit {
                let g = queue[pos];
                let locally_cf = if self.commutativity {
                    (0..pos).all(|earlier| {
                        commutes(&circuit.gates()[queue[earlier]], &circuit.gates()[g])
                    })
                } else {
                    pos == 0
                };
                if locally_cf {
                    entry.gates.push(g);
                }
            }
            entry.valid = true;
        }

        /// Number of gates not yet emitted.
        pub fn num_pending(&self) -> usize {
            self.num_pending
        }

        /// True when every gate has been emitted.
        pub fn is_done(&self) -> bool {
            self.num_pending == 0
        }

        /// Whether gate `i` is still pending.
        pub fn is_pending(&self, i: usize) -> bool {
            self.pending[i]
        }

        /// Computes the current CF set, in program order, returning a
        /// cached slice (recomputed only after an emission invalidated it).
        ///
        /// A gate qualifies iff it is *locally CF* in every queue it belongs
        /// to: within the scan window and commuting with every earlier entry
        /// of that queue. Gates with no qubit operands qualify trivially.
        pub fn cf_gates(&mut self, circuit: &Circuit) -> &[usize] {
            if self.cf_valid {
                return &self.cf;
            }
            // Refresh stale per-queue caches.
            for q in 0..self.queues.len() {
                if !self.cache[q].valid {
                    self.refresh_queue_cache(q, circuit);
                }
            }
            // Count, per gate, how many of its queues expose it as locally
            // CF; it joins the front exactly when the count reaches its
            // operand count (each queue contributes at most one increment).
            self.cf.clear();
            for entry in &self.cache {
                for &g in &entry.gates {
                    self.qualify[g] += 1;
                    if self.qualify[g] as usize == circuit.gates()[g].qubits.len() {
                        self.cf.push(g);
                    }
                }
            }
            // Zero the counters we touched (only those — no O(circuit) pass).
            for entry in &self.cache {
                for &g in &entry.gates {
                    self.qualify[g] = 0;
                }
            }
            // Gates with no qubit operands (possible only for synthetic
            // barriers) are always CF.
            self.cf.extend_from_slice(&self.zero_qubit);
            self.cf.sort_unstable();
            self.cf_valid = true;
            &self.cf
        }

        /// Emits gate `i`: removes it from all queues (invalidating their
        /// CF caches and the merged set).
        ///
        /// # Panics
        ///
        /// Panics if the gate was already emitted.
        pub fn emit(&mut self, i: usize, circuit: &Circuit) {
            assert!(self.pending[i], "gate {i} was already emitted");
            self.pending[i] = false;
            self.num_pending -= 1;
            self.cf_valid = false;
            let qubits = &circuit.gates()[i].qubits;
            if qubits.is_empty() {
                let pos = self
                    .zero_qubit
                    .iter()
                    .position(|&g| g == i)
                    .expect("pending zero-operand gate must be tracked");
                self.zero_qubit.remove(pos);
                return;
            }
            for &q in qubits {
                let pos = self.queues[q]
                    .iter()
                    .position(|&g| g == i)
                    .expect("pending gate must be in its qubit queues");
                self.queues[q].remove(pos);
                self.cache[q].valid = false;
            }
        }
    }
}

/// Drives both fronts through one emission order and compares their
/// CF sets after every emission. Every few emissions it also checks
/// `take_joined` against the set difference since the last snapshot.
fn agree(circuit: &Circuit, commutativity: bool, window: usize, rng: &mut StdRng) {
    let context = |step: usize| {
        format!("window {window}, commutativity {commutativity}, step {step}:\n{circuit:?}")
    };
    let mut front = CommutativeFront::new(circuit, commutativity, window);
    let mut reference = oracle::CommutativeFront::new(circuit, commutativity, window);
    let mut snapshot = Vec::new();
    let mut joined = Vec::new();
    front.snapshot(circuit, &mut snapshot);
    let mut step = 0;
    loop {
        let expected = reference.cf_gates(circuit).to_vec();
        assert_eq!(front.cf_gates(circuit), expected, "{}", context(step));
        if rng.gen_bool(0.3) {
            front.take_joined(circuit, &mut joined);
            let new: Vec<usize> = expected
                .iter()
                .copied()
                .filter(|g| !snapshot.contains(g))
                .collect();
            assert_eq!(joined, new, "joined gates, {}", context(step));
            front.snapshot(circuit, &mut snapshot);
        }
        if reference.is_done() {
            assert!(front.is_done());
            break;
        }
        let g = if rng.gen_bool(0.9) {
            assert!(!expected.is_empty(), "a pending circuit has a CF gate");
            expected[rng.gen_range(0..expected.len())]
        } else {
            let pending: Vec<usize> = (0..circuit.len())
                .filter(|&i| reference.is_pending(i))
                .collect();
            pending[rng.gen_range(0..pending.len())]
        };
        front.emit(g, circuit);
        reference.emit(g, circuit);
        assert_eq!(front.num_pending(), reference.num_pending());
        step += 1;
    }
}

fn sweep(circuit: &Circuit, rng: &mut StdRng) {
    for window in [1, 2, 3, 16] {
        for commutativity in [true, false] {
            agree(circuit, commutativity, window, rng);
        }
    }
}

/// A random circuit over the gates whose commutation is subtle.
fn random_circuit(rng: &mut StdRng, n: usize) -> Circuit {
    let mut c = Circuit::with_bits(n, n);
    let len = rng.gen_range(4..48usize);
    let pair = |rng: &mut StdRng| {
        let a = rng.gen_range(0..n);
        let b = (a + rng.gen_range(1..n)) % n;
        (a, b)
    };
    for _ in 0..len {
        let q = rng.gen_range(0..n);
        match rng.gen_range(0..18u32) {
            0 => c.add(GateKind::Id, vec![q], vec![]),
            1 => {
                c.h(q);
                c.h(q);
            }
            2 => {
                let phi = [0.0, FRAC_PI_2, 0.7][rng.gen_range(0..3usize)];
                c.add(GateKind::R, vec![q], vec![0.4, phi]);
            }
            3 => {
                let zero = if rng.gen_bool(0.5) { 0.0 } else { -0.0 };
                c.add(GateKind::U3, vec![q], vec![0.4, 0.0, zero]);
                if rng.gen_bool(0.3) {
                    c.h(q);
                }
                c.add(GateKind::U3, vec![q], vec![0.4, 0.0, -zero]);
            }
            4 => {
                let mut qubits: Vec<usize> = (0..n).collect();
                qubits.shuffle(rng);
                qubits.truncate(rng.gen_range(0..=n));
                c.barrier(qubits);
            }
            5 => c.measure(q, q),
            6 => {
                let (a, b) = pair(rng);
                c.swap(a, b);
            }
            7 => {
                let (a, b) = pair(rng);
                c.add(GateKind::Cy, vec![a, b], vec![]);
            }
            8 | 9 => {
                let (a, b) = pair(rng);
                c.cx(a, b);
            }
            10 => {
                // A diagonal run, often longer than the window.
                for _ in 0..rng.gen_range(1..24) {
                    c.t(q);
                }
            }
            11 => c.x(q),
            12 => c.h(q),
            13 => {
                let theta = [0.3, 0.3, 0.5][rng.gen_range(0..3usize)];
                c.rz(theta, q);
                c.rz(theta, q);
            }
            14 if n >= 3 => {
                let (a, b) = pair(rng);
                let t = (0..n).find(|&t| t != a && t != b).unwrap();
                c.ccx(a, b, t);
            }
            15 => {
                // CNOTs sharing a target, a run past the window.
                let t = q;
                for _ in 0..rng.gen_range(1..20) {
                    let a = (t + rng.gen_range(1..n)) % n;
                    c.cx(a, t);
                }
            }
            16 => c.add(GateKind::Reset, vec![q], vec![]),
            _ => {
                let (a, b) = pair(rng);
                c.cz(a, b);
            }
        }
    }
    c
}

/// Hand-written adversarial circuits.
fn adversarial() -> Vec<Circuit> {
    let mut cases = Vec::new();
    // Barriers and id, including an operand-free barrier.
    let mut c = Circuit::new(3);
    c.t(0);
    c.add(GateKind::Id, vec![0], vec![]);
    c.barrier(vec![0, 1]);
    c.add(GateKind::Id, vec![1], vec![]);
    c.barrier(vec![]);
    c.t(0);
    c.add(GateKind::Id, vec![2], vec![]);
    c.barrier(vec![2]);
    c.add(GateKind::Id, vec![2], vec![]);
    cases.push(c);
    // Identical twins, alone and split by a non-twin of the same class.
    let mut c = Circuit::new(2);
    c.h(0);
    c.h(0);
    c.h(0);
    c.rz(0.25, 1);
    c.rz(0.25, 1);
    c.add(GateKind::U3, vec![0], vec![0.4, 0.0, 0.0]);
    c.add(GateKind::U3, vec![0], vec![0.4, 0.0, -0.0]);
    c.add(GateKind::U3, vec![0], vec![0.4, 0.0, 0.0]);
    c.h(0);
    c.add(GateKind::U3, vec![0], vec![0.4, 0.0, -0.0]);
    c.swap(0, 1);
    c.swap(0, 1);
    c.measure(0, 0);
    c.measure(0, 0);
    cases.push(c);
    // Twins that share two wires: Arbitrary on both.
    let mut c = Circuit::new(3);
    c.swap(0, 1);
    c.swap(0, 1);
    c.swap(1, 2);
    c.swap(0, 1);
    cases.push(c);
    // r(θ, φ) at φ = 0 (X axis) and φ = π/2 (Y axis) around CX and CY
    // targets.
    let mut c = Circuit::new(2);
    c.cx(0, 1);
    c.add(GateKind::R, vec![1], vec![0.4, 0.0]);
    c.add(GateKind::Cy, vec![0, 1], vec![]);
    c.add(GateKind::R, vec![1], vec![0.4, FRAC_PI_2]);
    c.add(GateKind::R, vec![1], vec![0.4, FRAC_PI_2]);
    c.add(GateKind::R, vec![1], vec![0.4, 0.0]);
    c.cx(0, 1);
    cases.push(c);
    // Commuting runs longer than every window: diagonals on one wire,
    // shared-target CNOTs, shared-control CNOTs, then a blocker.
    let mut c = Circuit::new(4);
    for i in 0..40 {
        c.rz(0.1 * i as f64, 0);
        c.t(0);
    }
    for i in 0..30 {
        c.cx(1 + i % 2, 3);
    }
    for i in 0..30 {
        c.cx(0, 1 + i % 3);
    }
    c.h(0);
    c.h(3);
    cases.push(c);
    cases
}

#[test]
fn adversarial_cases_agree_with_the_oracle() {
    let mut rng = StdRng::seed_from_u64(18);
    for circuit in adversarial() {
        for _ in 0..8 {
            sweep(&circuit, &mut rng);
        }
    }
}

#[test]
fn random_circuits_agree_with_the_oracle() {
    let mut rng = StdRng::seed_from_u64(7);
    for round in 0..150 {
        let n = 2 + round % 5;
        let circuit = random_circuit(&mut rng, n);
        sweep(&circuit, &mut rng);
    }
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
    for &t in &routed.start_times {
        fnv(hash, t);
    }
    fnv(hash, routed.weighted_depth);
}

/// 64-bit FNV-1a of CODAR's routed gates, `start_times` and
/// `weighted_depth` over the suite entries with at most 20 qubits on
/// Q20 Tokyo and Sycamore-54, each from CODAR's own placement.
fn codar_suite_fingerprint() -> u64 {
    let devices = [Device::ibm_q20_tokyo(), Device::google_sycamore54()];
    let mut scratch = RouterScratch::new();
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for entry in full_suite().into_iter().filter(|e| e.num_qubits <= 20) {
        for device in &devices {
            let routed = CodarRouter::new(device)
                .route(&entry.circuit, None, &mut scratch)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", entry.name, device.name()));
            fnv_route(&mut hash, &routed);
        }
    }
    hash
}

/// The same fingerprint over random circuits (three-qubit gates
/// dropped) on every preset they fit, with commutativity on and off.
/// Only barriers take zero cycles, so only around them can a gate that
/// an emission made CF launch in the same clock event: these circuits
/// are full of them, the suite has few.
fn codar_random_fingerprint() -> u64 {
    let mut rng = StdRng::seed_from_u64(11);
    let mut scratch = RouterScratch::new();
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for round in 0..40 {
        let drawn = random_circuit(&mut rng, 2 + round % 5);
        let mut circuit = Circuit::with_bits(drawn.num_qubits(), drawn.num_bits());
        for gate in drawn.gates() {
            if gate.kind == GateKind::Barrier || gate.qubits.len() <= 2 {
                circuit.push(gate.clone());
            }
        }
        for (_, device) in Device::presets() {
            if circuit.num_qubits() > device.num_qubits() {
                continue;
            }
            for enable_commutativity in [true, false] {
                let config = CodarConfig {
                    enable_commutativity,
                    ..CodarConfig::default()
                };
                let routed = CodarRouter::with_config(&device, config)
                    .route(&circuit, None, &mut scratch)
                    .unwrap_or_else(|e| panic!("{circuit:?} on {}: {e}", device.name()));
                fnv_route(&mut hash, &routed);
            }
        }
    }
    hash
}

/// The fingerprints the original front produced. A change here means
/// CODAR's routed bytes changed.
const CODAR_SUITE_FNV: u64 = 0x72c2_b191_ca97_7767;
const CODAR_RANDOM_FNV: u64 = 0x595a_9b47_00ec_a4eb;

#[test]
fn codar_routes_keep_their_bytes() {
    assert_eq!(
        codar_suite_fingerprint(),
        CODAR_SUITE_FNV,
        "CODAR's routed suite bytes changed"
    );
    assert_eq!(
        codar_random_fingerprint(),
        CODAR_RANDOM_FNV,
        "CODAR's routed random-circuit bytes changed"
    );
}
