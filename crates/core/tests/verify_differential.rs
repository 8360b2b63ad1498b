//! Differential test of the route verifier: `check_equivalence` must
//! accept and reject exactly the routes the pairwise definition does,
//! with the same error. The oracle below is the original O(n²) checker,
//! kept verbatim as the reference the per-wire pass is proven against.
//!
//! Inputs are deterministic random circuits over the gates whose
//! commutation is subtle (`id`, back-to-back `h`, `r(θ, φ)` at φ = 0,
//! π/2 and elsewhere, `rz(±0.0)`, barriers, measures, user `swap`s,
//! `cy`), routed by codar, greedy and sabre on every preset device.
//! Each route is checked as is and under mutations that must sometimes
//! break it: adjacent transpositions, a gate moved a few places, a
//! dropped inserted SWAP, a
//! duplicated and an off-by-one inserted-swap index, and two swapped
//! initial-mapping entries.

use codar_arch::Device;
use codar_circuit::{Circuit, GateKind};
use codar_router::verify::check_equivalence;
use codar_router::{CodarRouter, GreedyRouter, Mapping, RoutedCircuit, RouterScratch, SabreRouter};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::f64::consts::FRAC_PI_2;

/// The quadratic reference checker, as it stood before the per-wire
/// pass replaced it.
mod oracle {
    use codar_circuit::{commutes, Circuit, Gate, GateKind};
    use codar_router::{Mapping, RouteError, RoutedCircuit};

    /// Undoes the routing: walks the physical circuit, tracking the
    /// physical→logical correspondence through the *router-inserted* SWAPs
    /// (given by output index in `inserted`, ascending), and returns the
    /// circuit re-expressed on logical qubits with those SWAPs removed.
    /// SWAP gates that came from the input program are kept as gates.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::Verification`] if a non-SWAP gate touches a
    /// physical qubit that holds no logical qubit.
    pub fn reconstruct_logical(
        routed: &Circuit,
        initial: &Mapping,
        logical_qubits: usize,
        inserted: &[usize],
    ) -> Result<Circuit, RouteError> {
        let mut pi = initial.clone();
        let mut out = Circuit::with_bits(logical_qubits, routed.num_bits());
        let mut inserted_iter = inserted.iter().peekable();
        for (i, gate) in routed.gates().iter().enumerate() {
            if inserted_iter.peek() == Some(&&i) {
                inserted_iter.next();
                if gate.kind != GateKind::Swap {
                    return Err(RouteError::Verification(format!(
                        "inserted-swap index {i} does not point at a SWAP (found {gate})"
                    )));
                }
                pi.apply_swap(gate.qubits[0], gate.qubits[1]);
                continue;
            }
            let logical: Option<Vec<usize>> =
                gate.qubits.iter().map(|&p| pi.logical_of(p)).collect();
            let Some(logical) = logical else {
                // Barriers may legitimately cover unoccupied qubits; drop
                // those operands instead of failing.
                if gate.kind == GateKind::Barrier {
                    let kept: Vec<usize> = gate
                        .qubits
                        .iter()
                        .filter_map(|&p| pi.logical_of(p))
                        .collect();
                    out.push(Gate::barrier(kept));
                    continue;
                }
                return Err(RouteError::Verification(format!(
                    "gate {gate} touches an unoccupied physical qubit"
                )));
            };
            let mut mapped = gate.clone();
            mapped.qubits = logical;
            out.push(mapped);
        }
        Ok(out)
    }

    /// Checks that `routed` implements `original` exactly, up to
    /// commutation-safe reordering and the tracked qubit movement.
    ///
    /// The check reconstructs the logical circuit (see
    /// [`reconstruct_logical`]), matches each original gate to its k-th
    /// identical occurrence, and verifies that every *non-commuting* pair of
    /// gates appears in the same relative order — which implies the two
    /// circuits denote the same operator. O(n²) in gate count; intended for
    /// tests and experiment validation, not hot loops.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::Verification`] describing the first mismatch.
    pub fn check_equivalence(original: &Circuit, routed: &RoutedCircuit) -> Result<(), RouteError> {
        let logical = reconstruct_logical(
            &routed.circuit,
            &routed.initial_mapping,
            original.num_qubits(),
            &routed.inserted_swap_indices,
        )?;
        if logical.len() != original.len() {
            return Err(RouteError::Verification(format!(
                "gate count mismatch: original {} vs reconstructed {}",
                original.len(),
                logical.len()
            )));
        }
        // Match each reconstructed gate to an original occurrence.
        let key = |g: &Gate| {
            (
                g.kind,
                g.qubits.clone(),
                g.params.iter().map(|p| p.to_bits()).collect::<Vec<u64>>(),
                g.classical_bit,
            )
        };
        let mut occurrence: std::collections::HashMap<_, std::collections::VecDeque<usize>> =
            std::collections::HashMap::new();
        for (i, g) in original.gates().iter().enumerate() {
            occurrence.entry(key(g)).or_default().push_back(i);
        }
        // position_in_original[j] = index of the original gate that the j-th
        // reconstructed gate realizes.
        let mut position_in_original = Vec::with_capacity(logical.len());
        for g in logical.gates() {
            let Some(queue) = occurrence.get_mut(&key(g)) else {
                return Err(RouteError::Verification(format!(
                    "reconstructed gate {g} does not occur in the original circuit"
                )));
            };
            let Some(idx) = queue.pop_front() else {
                return Err(RouteError::Verification(format!(
                    "gate {g} occurs more often in the routed circuit"
                )));
            };
            position_in_original.push(idx);
        }
        // Every non-commuting pair must keep its original relative order.
        for j in 0..logical.len() {
            for k in j + 1..logical.len() {
                let a = &logical.gates()[j];
                let b = &logical.gates()[k];
                if !commutes(a, b) && position_in_original[j] > position_in_original[k] {
                    return Err(RouteError::Verification(format!(
                        "non-commuting gates reordered: {a} (orig #{}) now precedes {b} (orig #{})",
                        position_in_original[j], position_in_original[k]
                    )));
                }
            }
        }
        Ok(())
    }
}

/// A random circuit on `n` qubits, weighted towards gates that share
/// wires and towards the commutation rules' edge cases.
fn random_circuit(rng: &mut StdRng, n: usize) -> Circuit {
    let mut c = Circuit::with_bits(n, n);
    let len = rng.gen_range(4..40usize);
    let pair = |rng: &mut StdRng| {
        let a = rng.gen_range(0..n);
        let b = (a + rng.gen_range(1..n)) % n;
        (a, b)
    };
    for _ in 0..len {
        let q = rng.gen_range(0..n);
        match rng.gen_range(0..14u32) {
            0 => c.add(GateKind::Id, vec![q], vec![]),
            1 => {
                c.h(q);
                c.h(q);
            }
            2 => {
                let phi = [0.0, FRAC_PI_2, 0.7][rng.gen_range(0..3usize)];
                c.add(GateKind::R, vec![q], vec![0.4, phi]);
            }
            // Signed-zero twins: equal under `==`, distinct by bits.
            // u3 acts arbitrarily, so the twins may trade places only
            // because they are the same unitary; the h between them
            // may not move past either.
            3 => {
                let zero = if rng.gen_bool(0.5) { 0.0 } else { -0.0 };
                if rng.gen_bool(0.5) {
                    c.rz(zero, q);
                } else {
                    c.add(GateKind::U3, vec![q], vec![0.4, 0.0, zero]);
                    c.h(q);
                    c.add(GateKind::U3, vec![q], vec![0.4, 0.0, -zero]);
                }
            }
            4 => {
                let mut qubits: Vec<usize> = (0..n).collect();
                qubits.shuffle(rng);
                qubits.truncate(rng.gen_range(1..=n));
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
            10 => c.t(q),
            11 => c.x(q),
            12 => c.h(q),
            _ => {
                let (a, b) = pair(rng);
                c.cz(a, b);
            }
        }
    }
    c
}

/// The codar, greedy and sabre routes of `circuit` on `device`, from
/// one random initial mapping.
fn routes(rng: &mut StdRng, circuit: &Circuit, device: &Device) -> Vec<RoutedCircuit> {
    let physical = device.num_qubits();
    let mut slots: Vec<usize> = (0..physical).collect();
    slots.shuffle(rng);
    slots.truncate(circuit.num_qubits());
    let initial = Mapping::from_assignment(slots, physical);
    vec![
        CodarRouter::new(device).route(circuit, Some(&initial), &mut RouterScratch::new()),
        GreedyRouter::new(device).route(circuit, Some(&initial), &mut RouterScratch::new()),
        SabreRouter::new(device).route(circuit, Some(&initial), &mut RouterScratch::new()),
    ]
    .into_iter()
    .map(|r| r.expect("a connected device routes every ≤ 2-qubit circuit"))
    .collect()
}

/// Rebuilds `routed` from the old gates listed in `order`, in that
/// order, carrying the inserted-swap marks along; an old gate left out
/// is dropped.
fn reorder(routed: &RoutedCircuit, order: &[usize]) -> RoutedCircuit {
    let mut circuit = Circuit::with_bits(routed.circuit.num_qubits(), routed.circuit.num_bits());
    for &old in order {
        circuit.push(routed.circuit.gates()[old].clone());
    }
    let inserted = order
        .iter()
        .enumerate()
        .filter(|(_, old)| routed.inserted_swap_indices.contains(old))
        .map(|(new, _)| new)
        .collect();
    RoutedCircuit {
        circuit,
        inserted_swap_indices: inserted,
        ..routed.clone()
    }
}

/// Mutated copies of `routed`; some stay valid, most do not.
fn mutations(rng: &mut StdRng, routed: &RoutedCircuit) -> Vec<RoutedCircuit> {
    let mut out = Vec::new();
    let len = routed.circuit.len();
    if len >= 2 {
        // Adjacent transpositions: one inverted pair each.
        for _ in 0..2 {
            let mut order: Vec<usize> = (0..len).collect();
            let i = rng.gen_range(0..len - 1);
            order.swap(i, i + 1);
            out.push(reorder(routed, &order));
        }
        // One gate moved up to 4 places either way: it may overtake
        // several gates, so a route can hold many reordered pairs.
        let mut order: Vec<usize> = (0..len).collect();
        let from = rng.gen_range(0..len);
        let to = (from + rng.gen_range(0..9usize))
            .saturating_sub(4)
            .min(len - 1);
        let gate = order.remove(from);
        order.insert(to, gate);
        out.push(reorder(routed, &order));
        // A u3 moved ahead of its twin and the h between them.
        let u3s: Vec<usize> = (1..len)
            .filter(|&i| routed.circuit.gates()[i].kind == GateKind::U3)
            .collect();
        if !u3s.is_empty() {
            let from = u3s[rng.gen_range(0..u3s.len())];
            let mut order: Vec<usize> = (0..len).collect();
            let gate = order.remove(from);
            order.insert(from.saturating_sub(rng.gen_range(1..5usize)), gate);
            out.push(reorder(routed, &order));
        }
    }
    let swaps = routed.inserted_swap_indices.len();
    if swaps > 0 {
        let dropped = routed.inserted_swap_indices[rng.gen_range(0..swaps)];
        let order: Vec<usize> = (0..len).filter(|&i| i != dropped).collect();
        out.push(reorder(routed, &order));

        let mut duplicated = routed.clone();
        let which = rng.gen_range(0..swaps);
        duplicated
            .inserted_swap_indices
            .insert(which, routed.inserted_swap_indices[which]);
        out.push(duplicated);

        let mut shifted = routed.clone();
        let index = &mut shifted.inserted_swap_indices[rng.gen_range(0..swaps)];
        *index = if *index + 1 < len {
            *index + 1
        } else {
            *index - 1
        };
        shifted.inserted_swap_indices.sort_unstable();
        out.push(shifted);
    }
    let mut remapped = routed.clone();
    let logical = remapped.initial_mapping.num_logical();
    let a = remapped.initial_mapping.phys_of(rng.gen_range(0..logical));
    let b = remapped.initial_mapping.phys_of(rng.gen_range(0..logical));
    remapped.initial_mapping.apply_swap(a, b);
    out.push(remapped);
    out
}

/// The error family of a verifier message.
fn family(message: &str) -> &'static str {
    const FAMILIES: [&str; 6] = [
        "reordered",
        "gate count mismatch",
        "does not occur",
        "occurs more often",
        "unoccupied",
        "inserted-swap index",
    ];
    FAMILIES
        .into_iter()
        .find(|f| message.contains(f))
        .unwrap_or_else(|| panic!("unknown verifier error: {message}"))
}

/// Rounds of one circuit per preset device: about 100 cases a round.
const ROUNDS: usize = 120;

#[test]
fn fast_checker_agrees_with_the_quadratic_oracle() {
    let devices = Device::presets();
    let mut rng = StdRng::seed_from_u64(0xC0DA);
    let (mut accepted, mut rejected) = (0usize, 0usize);
    let mut families = std::collections::BTreeMap::new();
    for round in 0..ROUNDS {
        for (name, device) in &devices {
            let n = 2 + round % 4; // 2..=5 qubits fit every preset
            let circuit = random_circuit(&mut rng, n);
            for routed in routes(&mut rng, &circuit, device) {
                let mut cases = mutations(&mut rng, &routed);
                cases.push(routed);
                for case in cases {
                    let fast = check_equivalence(&circuit, &case).map_err(|e| e.to_string());
                    let reference =
                        oracle::check_equivalence(&circuit, &case).map_err(|e| e.to_string());
                    assert_eq!(
                        fast, reference,
                        "verifiers disagree on {name} ({} router)\n{circuit:?}\n{case:?}",
                        case.router
                    );
                    match reference {
                        Ok(()) => accepted += 1,
                        Err(message) => {
                            rejected += 1;
                            *families.entry(family(&message)).or_insert(0usize) += 1;
                        }
                    }
                }
            }
        }
    }
    assert_eq!(families.len(), 6, "every error family must occur");
    let total = accepted + rejected;
    eprintln!("{total} cases: {accepted} accepted, {rejected} rejected; {families:?}");
    assert!(
        4 * accepted >= total,
        "too few accepts: {accepted} of {total}"
    );
    assert!(
        4 * rejected >= total,
        "too few rejects: {rejected} of {total}"
    );
}
