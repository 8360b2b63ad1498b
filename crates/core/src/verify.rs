//! Validity and equivalence checks for routed circuits.
//!
//! Routing must (a) respect the coupling graph and (b) preserve the
//! program's semantics up to the tracked qubit permutation. Both checks
//! run on every engine job and every daemon miss: the coupling check is
//! O(n) and the equivalence check O(n·arity + n log n) in gate count n.

use std::cmp::Ordering;

use crate::error::RouteError;
use crate::mapping::Mapping;
use crate::result::RoutedCircuit;
use codar_arch::Device;
use codar_circuit::{commutes, Circuit, Gate, GateKind, QubitId, WireClass};

/// Checks that `device` can execute every gate of `circuit`: each
/// operand is one of the device's physical qubits, and each gate other
/// than a barrier acts on one qubit or on a coupled pair.
///
/// # Errors
///
/// Returns [`RouteError::Verification`] naming the first offending gate.
pub fn check_coupling(circuit: &Circuit, device: &Device) -> Result<(), RouteError> {
    let physical = device.num_qubits();
    for (i, gate) in circuit.gates().iter().enumerate() {
        if let Some(p) = gate.qubits.iter().find(|&&p| p >= physical) {
            return Err(RouteError::Verification(format!(
                "gate #{i} ({gate}) acts on physical qubit {p}, but the device has {physical}"
            )));
        }
        if gate.kind == GateKind::Barrier {
            continue;
        }
        match gate.qubits[..] {
            [a, b] if !device.graph().are_adjacent(a, b) => {
                return Err(RouteError::Verification(format!(
                    "gate #{i} ({gate}) acts on uncoupled physical qubits"
                )));
            }
            [_, _, _, ..] => {
                return Err(RouteError::Verification(format!(
                    "gate #{i} ({gate}) acts on {} qubits; no device couples more than two",
                    gate.qubits.len()
                )));
            }
            _ => {}
        }
    }
    Ok(())
}

/// A gate of a routed circuit re-expressed on logical qubits. It borrows
/// the physical gate's parameters and the walker's operand buffer, so
/// walking a circuit allocates nothing per gate.
#[derive(Clone, Copy)]
struct LogicalGate<'a> {
    kind: GateKind,
    qubits: &'a [QubitId],
    params: &'a [f64],
    classical_bit: Option<usize>,
}

impl<'a> LogicalGate<'a> {
    fn of(gate: &'a Gate) -> Self {
        LogicalGate {
            kind: gate.kind,
            qubits: &gate.qubits,
            params: &gate.params,
            classical_bit: gate.classical_bit,
        }
    }

    fn to_gate(self) -> Gate {
        Gate {
            kind: self.kind,
            qubits: self.qubits.to_vec(),
            params: self.params.to_vec(),
            classical_bit: self.classical_bit,
        }
    }

    /// Orders gates by identity: kind, operands, parameter bits, then
    /// classical bit. `Equal` means the same gate bit for bit, so
    /// `rz(0.0)` and `rz(-0.0)` differ.
    fn cmp_identity(self, other: LogicalGate<'_>) -> Ordering {
        self.kind
            .cmp(&other.kind)
            .then_with(|| self.qubits.cmp(other.qubits))
            .then_with(|| param_bits(self.params).cmp(param_bits(other.params)))
            .then_with(|| self.classical_bit.cmp(&other.classical_bit))
    }

    /// A 64-bit hash of the identity. Ordering by it first settles most
    /// comparisons of distinct gates with one integer compare.
    fn fingerprint(self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        let mut mix = |word: u64| h = (h ^ word).wrapping_mul(0x0000_0100_0000_01b3);
        mix(self.kind as u64);
        self.qubits.iter().for_each(|&q| mix(q as u64));
        param_bits(self.params).for_each(&mut mix);
        mix(self.classical_bit.map_or(u64::MAX, |b| b as u64));
        h
    }
}

fn param_bits(params: &[f64]) -> impl Iterator<Item = u64> + '_ {
    params.iter().map(|p| p.to_bits())
}

/// The walk behind [`reconstruct_logical`]: hands each gate that is not
/// an inserted SWAP to `visit`, re-expressed on logical qubits.
fn walk_logical(
    routed: &Circuit,
    initial: &Mapping,
    inserted: &[usize],
    mut visit: impl FnMut(LogicalGate<'_>),
) -> Result<(), RouteError> {
    let mut pi = initial.clone();
    let mut operands = Vec::new();
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
        operands.clear();
        for &p in &gate.qubits {
            match pi.logical_of(p) {
                Some(l) => operands.push(l),
                None if gate.kind == GateKind::Barrier => {}
                None => {
                    return Err(RouteError::Verification(format!(
                        "gate {gate} touches an unoccupied physical qubit"
                    )))
                }
            }
        }
        visit(LogicalGate {
            qubits: &operands,
            ..LogicalGate::of(gate)
        });
    }
    Ok(())
}

/// Undoes the routing: walks the physical circuit, tracking the
/// physical→logical correspondence through the *router-inserted* SWAPs
/// (given by output index in `inserted`, ascending), and returns the
/// circuit re-expressed on logical qubits with those SWAPs removed.
/// SWAP gates that came from the input program are kept as gates; a
/// barrier keeps only the operands that hold a logical qubit.
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
    let mut out = Circuit::with_bits(logical_qubits, routed.num_bits());
    walk_logical(routed, initial, inserted, |gate| out.push(gate.to_gate()))?;
    Ok(out)
}

/// The original circuit's gates grouped by identity, with one cursor per
/// group: the k-th reconstructed occurrence of a gate realizes its k-th
/// occurrence in the original.
struct Occurrences<'a> {
    gates: &'a [Gate],
    fingerprint: fn(LogicalGate<'_>) -> u64,
    /// (fingerprint, original index), sorted. Within one fingerprint the
    /// gates are ordered by index, and, if `collided`, by identity first.
    sorted: Vec<(u64, usize)>,
    /// Whether gates that differ share a fingerprint. If not, a group is
    /// exactly a run of one fingerprint.
    collided: bool,
    /// `taken[s]`: how many gates of the group starting at `sorted[s]`
    /// have been matched.
    taken: Vec<usize>,
}

impl<'a> Occurrences<'a> {
    fn new(gates: &'a [Gate]) -> Self {
        Self::with_fingerprint(gates, |gate| gate.fingerprint())
    }

    fn with_fingerprint(gates: &'a [Gate], fingerprint: fn(LogicalGate<'_>) -> u64) -> Self {
        let identity = |a: usize, b: usize| {
            LogicalGate::of(&gates[a]).cmp_identity(LogicalGate::of(&gates[b]))
        };
        let mut sorted: Vec<(u64, usize)> = gates
            .iter()
            .enumerate()
            .map(|(i, g)| (fingerprint(LogicalGate::of(g)), i))
            .collect();
        sorted.sort_unstable();
        let collided = sorted
            .windows(2)
            .any(|w| w[0].0 == w[1].0 && identity(w[0].1, w[1].1).is_ne());
        if collided {
            // Stable, so identical gates keep their index order.
            sorted.sort_by(|&(fa, a), &(fb, b)| fa.cmp(&fb).then_with(|| identity(a, b)));
        }
        Occurrences {
            gates,
            fingerprint,
            taken: vec![0; sorted.len()],
            sorted,
            collided,
        }
    }

    /// Matches `gate` to the earliest unmatched identical original gate
    /// and returns that gate's index.
    fn take(&mut self, gate: LogicalGate<'_>) -> Result<usize, RouteError> {
        let fingerprint = (self.fingerprint)(gate);
        let identity = |i: usize| LogicalGate::of(&self.gates[i]).cmp_identity(gate);
        let start = self.sorted.partition_point(|&(f, i)| {
            f < fingerprint || (self.collided && f == fingerprint && identity(i).is_lt())
        });
        let in_group = |s: usize| {
            self.sorted
                .get(s)
                .is_some_and(|&(f, i)| f == fingerprint && (!self.collided || identity(i).is_eq()))
        };
        if !in_group(start) || identity(self.sorted[start].1).is_ne() {
            return Err(RouteError::Verification(format!(
                "reconstructed gate {} does not occur in the original circuit",
                gate.to_gate()
            )));
        }
        let next = start + self.taken[start];
        if !in_group(next) {
            return Err(RouteError::Verification(format!(
                "gate {} occurs more often in the routed circuit",
                gate.to_gate()
            )));
        }
        self.taken[start] += 1;
        Ok(self.sorted[next].1)
    }
}

/// Checks that `routed` implements `original` exactly, up to
/// commutation-safe reordering and the tracked qubit movement.
///
/// The check walks the routed circuit back onto logical qubits (as
/// [`reconstruct_logical`] does), matches each gate to its k-th
/// identical occurrence in the original, and verifies that every
/// *non-commuting* pair of gates appears in the same relative order —
/// which implies the two circuits denote the same operator. Gates on
/// disjoint qubits always commute, so the order check is one pass over
/// per-wire state; the whole check is O(n·arity + n log n) in gate
/// count n.
///
/// # Errors
///
/// Returns [`RouteError::Verification`] describing the first mismatch.
pub fn check_equivalence(original: &Circuit, routed: &RoutedCircuit) -> Result<(), RouteError> {
    let gates = original.gates();
    let mut occurrences = Occurrences::new(gates);
    // position[j] = index of the original gate that the j-th
    // reconstructed gate realizes.
    let mut position = Vec::with_capacity(gates.len());
    let mut reconstructed = 0usize;
    let mut mismatch = None;
    walk_logical(
        &routed.circuit,
        &routed.initial_mapping,
        &routed.inserted_swap_indices,
        |gate| {
            reconstructed += 1;
            if mismatch.is_none() {
                match occurrences.take(gate) {
                    Ok(i) => position.push(i),
                    Err(e) => mismatch = Some(e),
                }
            }
        },
    )?;
    if reconstructed != gates.len() {
        return Err(RouteError::Verification(format!(
            "gate count mismatch: original {} vs reconstructed {reconstructed}",
            gates.len()
        )));
    }
    if let Some(e) = mismatch {
        return Err(e);
    }
    check_order(gates, &position, original.num_qubits())
}

/// Checks that no pair of non-commuting gates was reordered: there is
/// no j < k with `position[j] > position[k]` and
/// `!commutes(gates[position[j]], gates[position[k]])`. After matching,
/// the j-th reconstructed gate *is* `gates[position[j]]`.
///
/// One backward pass keeps, per wire × class, the smallest original
/// position among the gates already passed (the later ones). Gate j has
/// a reordered partner iff on one of its wires a conflicting class holds
/// a smaller position, unless that partner is an identical unitary: for
/// such rare candidates (equal under `==` yet told apart by parameter
/// bits, like `u3(θ,0,0.0)` and `u3(θ,0,-0.0)`) the later gates are
/// rescanned exactly. The pass reports the same pair the pairwise definition
/// meets first: the smallest such j, then its smallest k.
fn check_order(gates: &[Gate], position: &[usize], wires: usize) -> Result<(), RouteError> {
    let reordered_after = |j: usize| {
        let a = &gates[position[j]];
        (j + 1..position.len())
            .find(|&k| position[k] < position[j] && !commutes(a, &gates[position[k]]))
    };
    const CLASSES: usize = WireClass::COUNT;
    let mut earliest = vec![usize::MAX; wires * CLASSES];
    let mut first = None;
    for (j, &pj) in position.iter().enumerate().rev() {
        let a = &gates[pj];
        let mut suspect = false;
        let mut confirmed = false;
        'wires: for &q in &a.qubits {
            let conflicting = WireClass::of(a, q).conflict_mask();
            let row = &earliest[q * CLASSES..(q + 1) * CLASSES];
            for (other, &pk) in row.iter().enumerate() {
                if pk < pj && conflicting & (1 << other) != 0 {
                    if !commutes(a, &gates[pk]) {
                        confirmed = true;
                        break 'wires;
                    }
                    suspect = true;
                }
            }
        }
        if confirmed || (suspect && reordered_after(j).is_some()) {
            first = Some(j);
        }
        for &q in &a.qubits {
            let slot = &mut earliest[q * CLASSES + WireClass::of(a, q).index()];
            *slot = (*slot).min(pj);
        }
    }
    let Some(j) = first else {
        return Ok(());
    };
    let k = reordered_after(j).expect("the pass found a reordered partner");
    Err(RouteError::Verification(format!(
        "non-commuting gates reordered: {} (orig #{}) now precedes {} (orig #{})",
        gates[position[j]], position[j], gates[position[k]], position[k]
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use codar_circuit::schedule::Time;

    fn wrap(original: &Circuit, physical: Circuit, initial: Mapping) -> RoutedCircuit {
        let _ = original;
        // In these hand-built fixtures every SWAP is router-inserted.
        let inserted: Vec<usize> = physical
            .gates()
            .iter()
            .enumerate()
            .filter(|(_, g)| g.kind == GateKind::Swap)
            .map(|(i, _)| i)
            .collect();
        RoutedCircuit {
            start_times: vec![0; physical.len()],
            weighted_depth: 0 as Time,
            swaps_inserted: inserted.len(),
            inserted_swap_indices: inserted,
            initial_mapping: initial.clone(),
            final_mapping: initial,
            circuit: physical,
            router: "test",
        }
    }

    #[test]
    fn coupling_check_flags_bad_gate() {
        let device = Device::linear(3);
        let mut c = Circuit::new(3);
        c.cx(0, 2);
        let err = check_coupling(&c, &device).unwrap_err();
        assert!(err.to_string().contains("uncoupled"));
        let mut ok = Circuit::new(3);
        ok.cx(0, 1);
        check_coupling(&ok, &device).unwrap();
    }

    #[test]
    fn coupling_check_flags_three_qubit_gate() {
        let device = Device::linear(3);
        let mut c = Circuit::new(3);
        c.ccx(0, 1, 2);
        let err = check_coupling(&c, &device).unwrap_err();
        assert!(err.to_string().contains("acts on 3 qubits"), "{err}");
        // A barrier spans any number of qubits.
        let mut fence = Circuit::new(3);
        fence.barrier(vec![0, 1, 2]);
        check_coupling(&fence, &device).unwrap();
    }

    #[test]
    fn coupling_check_flags_qubit_beyond_device() {
        let device = Device::linear(3);
        let mut c = Circuit::new(5);
        c.cx(1, 4);
        let err = check_coupling(&c, &device).unwrap_err();
        assert!(err.to_string().contains("physical qubit 4"), "{err}");
        let mut single = Circuit::new(5);
        single.h(3);
        assert!(check_coupling(&single, &device).is_err());
    }

    #[test]
    fn occurrence_matching_survives_fingerprint_collisions() {
        // With every fingerprint equal, groups are told apart by identity
        // alone; matching must not change.
        let mut c = Circuit::new(2);
        for i in 0..12 {
            match i % 4 {
                0 => c.h(0),
                1 => c.cx(0, 1),
                2 => c.rz(0.0, 1),
                _ => c.rz(-0.0, 1),
            }
        }
        let mut queries: Vec<Gate> = c.gates().iter().rev().cloned().collect();
        queries.push(Gate::new(GateKind::H, vec![0], vec![])); // one too many
        queries.push(Gate::new(GateKind::X, vec![0], vec![])); // absent
        let outcomes = |mut occurrences: Occurrences<'_>| -> Vec<Result<usize, String>> {
            queries
                .iter()
                .map(|g| {
                    occurrences
                        .take(LogicalGate::of(g))
                        .map_err(|e| e.to_string())
                })
                .collect()
        };
        let hashed = outcomes(Occurrences::new(c.gates()));
        let collided = Occurrences::with_fingerprint(c.gates(), |_| 7);
        assert!(collided.collided);
        assert!(!Occurrences::new(c.gates()).collided);
        assert_eq!(outcomes(collided), hashed);
        assert_eq!(
            hashed[0],
            Ok(3),
            "FIFO: rz(-0.0) takes its first occurrence"
        );
        assert!(hashed[12]
            .as_ref()
            .unwrap_err()
            .contains("occurs more often"));
        assert!(hashed[13].as_ref().unwrap_err().contains("does not occur"));
    }

    #[test]
    fn reconstruction_inverts_a_swap() {
        // Physical: swap(1,2); cx(0,1)  with identity init
        // Logical q2 moves to phys 1, so cx(0,1) realizes cx(0,2).
        let mut phys = Circuit::new(3);
        phys.swap(1, 2);
        phys.cx(0, 1);
        let logical = reconstruct_logical(&phys, &Mapping::identity(3, 3), 3, &[0]).unwrap();
        assert_eq!(logical.len(), 1);
        assert_eq!(logical.gates()[0].qubits, vec![0, 2]);
    }

    #[test]
    fn user_swaps_survive_reconstruction() {
        // The same physical circuit, but the SWAP belongs to the input
        // program: it must stay a gate and the CX maps back unchanged.
        let mut phys = Circuit::new(3);
        phys.swap(1, 2);
        phys.cx(0, 1);
        let logical = reconstruct_logical(&phys, &Mapping::identity(3, 3), 3, &[]).unwrap();
        assert_eq!(logical.len(), 2);
        assert_eq!(logical.gates()[0].kind, GateKind::Swap);
        assert_eq!(logical.gates()[1].qubits, vec![0, 1]);
    }

    #[test]
    fn equivalence_accepts_faithful_routing() {
        let mut original = Circuit::new(3);
        original.cx(0, 2);
        original.h(0);
        let mut phys = Circuit::new(3);
        phys.swap(1, 2);
        phys.cx(0, 1);
        phys.h(0);
        let routed = wrap(&original, phys, Mapping::identity(3, 3));
        check_equivalence(&original, &routed).unwrap();
    }

    #[test]
    fn equivalence_accepts_commuting_reorder() {
        // Original: cx(1,0); cx(2,0)  (share target: commute)
        let mut original = Circuit::new(3);
        original.cx(1, 0);
        original.cx(2, 0);
        let mut phys = Circuit::new(3);
        phys.cx(2, 0); // reordered — allowed
        phys.cx(1, 0);
        let routed = wrap(&original, phys, Mapping::identity(3, 3));
        check_equivalence(&original, &routed).unwrap();
    }

    #[test]
    fn equivalence_rejects_noncommuting_reorder() {
        let mut original = Circuit::new(2);
        original.h(0);
        original.t(0);
        let mut phys = Circuit::new(2);
        phys.t(0);
        phys.h(0);
        let routed = wrap(&original, phys, Mapping::identity(2, 2));
        let err = check_equivalence(&original, &routed).unwrap_err();
        assert!(err.to_string().contains("reordered"));
    }

    #[test]
    fn equivalence_names_the_first_reordered_pair() {
        // h(0) and t(1) both moved behind an x on their wire. A scan for
        // the first gate with an earlier partner would stop at h(0) and
        // name x(0); the pairwise definition names the first gate with
        // a later partner, x(1), and the checker must agree with it.
        let mut original = Circuit::new(2);
        original.h(0);
        original.t(1);
        original.x(0);
        original.x(1);
        let mut phys = Circuit::new(2);
        phys.x(1);
        phys.x(0);
        phys.h(0);
        phys.t(1);
        let routed = wrap(&original, phys, Mapping::identity(2, 2));
        let err = check_equivalence(&original, &routed).unwrap_err();
        assert_eq!(
            err.to_string(),
            "verification failed: non-commuting gates reordered: x q[1] (orig #3) \
             now precedes t q[1] (orig #1)"
        );
    }

    #[test]
    fn equivalence_accepts_reordered_signed_zero_twins() {
        // u3(0,0,0.0) and u3(0,0,-0.0) are distinct occurrences (their
        // parameter bits differ) but equal unitaries, so they commute
        // and may swap places.
        let mut original = Circuit::new(1);
        original.add(GateKind::U3, vec![0], vec![0.0, 0.0, 0.0]);
        original.add(GateKind::U3, vec![0], vec![0.0, 0.0, -0.0]);
        let mut phys = Circuit::new(1);
        phys.add(GateKind::U3, vec![0], vec![0.0, 0.0, -0.0]);
        phys.add(GateKind::U3, vec![0], vec![0.0, 0.0, 0.0]);
        let routed = wrap(&original, phys, Mapping::identity(1, 1));
        check_equivalence(&original, &routed).unwrap();

        // Original u3(+0) h u3(-0), routed u3(-0) u3(+0) h: u3(-0)'s
        // earliest later partner is its twin, which commutes, but h
        // also moved behind it and must still be found.
        let mut original = Circuit::new(1);
        original.add(GateKind::U3, vec![0], vec![0.0, 0.0, 0.0]);
        original.h(0);
        original.add(GateKind::U3, vec![0], vec![0.0, 0.0, -0.0]);
        let mut phys = Circuit::new(1);
        phys.add(GateKind::U3, vec![0], vec![0.0, 0.0, -0.0]);
        phys.add(GateKind::U3, vec![0], vec![0.0, 0.0, 0.0]);
        phys.h(0);
        let routed = wrap(&original, phys, Mapping::identity(1, 1));
        let err = check_equivalence(&original, &routed).unwrap_err();
        assert!(
            err.to_string().contains("(orig #2) now precedes h"),
            "{err}"
        );
    }

    #[test]
    fn equivalence_rejects_missing_gate() {
        let mut original = Circuit::new(2);
        original.h(0);
        original.t(0);
        let mut phys = Circuit::new(2);
        phys.h(0);
        let routed = wrap(&original, phys, Mapping::identity(2, 2));
        assert!(check_equivalence(&original, &routed).is_err());
    }

    #[test]
    fn equivalence_rejects_wrong_qubit() {
        let mut original = Circuit::new(2);
        original.h(0);
        let mut phys = Circuit::new(2);
        phys.h(1);
        let routed = wrap(&original, phys, Mapping::identity(2, 2));
        assert!(check_equivalence(&original, &routed).is_err());
    }

    #[test]
    fn unoccupied_qubit_in_gate_is_error() {
        // 1 logical on 2 physical; gate on phys 1 (empty) is invalid.
        let mut phys = Circuit::new(2);
        phys.h(1);
        let err = reconstruct_logical(&phys, &Mapping::identity(1, 2), 1, &[]).unwrap_err();
        assert!(err.to_string().contains("unoccupied"));
    }

    #[test]
    fn barrier_over_unoccupied_qubits_is_tolerated() {
        let mut phys = Circuit::new(3);
        phys.barrier(vec![0, 2]); // phys 2 unoccupied
        let logical = reconstruct_logical(&phys, &Mapping::identity(1, 3), 1, &[]).unwrap();
        assert_eq!(logical.gates()[0].qubits, vec![0]);
    }
}
