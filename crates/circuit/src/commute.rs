//! Structural gate commutation rules (paper Sec. IV-B).
//!
//! The paper resolves commutation of gates sharing qubits "by checking the
//! relevant unitary operators ÂB̂ = B̂Â". For the `qelib1` gate family every
//! gate factors per qubit into one of a few *action classes*; two gates
//! commute whenever, on every shared qubit, their action classes commute.
//! This is the standard structural criterion (cf. Qiskit's commutation
//! analysis) and it is **sound** (never claims commutation that does not
//! hold) for the controlled-gate family used here, while capturing the
//! cases that matter for lookahead, e.g. two CNOTs sharing a control or
//! sharing a target.
//!
//! # Examples
//!
//! ```
//! use codar_circuit::{commutes, Gate, GateKind};
//!
//! let a = Gate::new(GateKind::Cx, vec![1, 3], vec![]);
//! let b = Gate::new(GateKind::Cx, vec![2, 3], vec![]);
//! // Both act on q3 as X-type targets, so they commute (paper's example).
//! assert!(commutes(&a, &b));
//!
//! let c = Gate::new(GateKind::Cx, vec![3, 2], vec![]);
//! // a targets q3, c controls on q3: they do not commute.
//! assert!(!commutes(&a, &c));
//! ```

use crate::gate::{Gate, GateKind, QubitId};

/// How a gate acts on one of its qubit operands, up to commutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QubitAction {
    /// Acts as the identity (commutes with everything).
    Identity,
    /// Diagonal in the Z basis (Z, S, T, Rz, U1, CZ/CRZ/CU1/RZZ on either
    /// qubit, the control of any controlled gate).
    ZDiagonal,
    /// An X-axis action (X, Rx, the target of CX/CCX).
    XAxis,
    /// A Y-axis action (Y, Ry, the target of CY).
    YAxis,
    /// Anything else (H, U2/U3, SWAP, measure, reset, …).
    Arbitrary,
}

impl QubitAction {
    /// Whether two single-qubit action classes commute.
    ///
    /// Conservative: `Arbitrary` commutes with nothing but `Identity`.
    pub const fn commutes_with(self, other: QubitAction) -> bool {
        use QubitAction::*;
        matches!(
            (self, other),
            (Identity, _)
                | (_, Identity)
                | (ZDiagonal, ZDiagonal)
                | (XAxis, XAxis)
                | (YAxis, YAxis)
        )
    }
}

/// The action classes in discriminant order, so `ACTIONS[a as usize] == a`.
const ACTIONS: [QubitAction; 5] = [
    QubitAction::Identity,
    QubitAction::ZDiagonal,
    QubitAction::XAxis,
    QubitAction::YAxis,
    QubitAction::Arbitrary,
];

/// How a gate acts on one of its wires, up to commutation: one of the
/// five [`QubitAction`]s, or [`WireClass::FENCE`] for a barrier, which
/// conflicts with every class including `Identity`.
///
/// Two gates that are not identical unitaries commute iff their classes
/// conflict on no shared wire (that is [`commutes`]). Identical gates
/// have equal classes on every wire, so the identical-unitary exception
/// only matters for a class that conflicts with itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WireClass(u8);

impl WireClass {
    /// A barrier's class: it conflicts with everything.
    pub const FENCE: WireClass = WireClass(ACTIONS.len() as u8);
    /// Number of distinct classes; [`WireClass::index`] is below it.
    pub const COUNT: usize = ACTIONS.len() + 1;

    /// `CONFLICTS[a]` has bit `b` set iff classes `a` and `b` conflict.
    const CONFLICTS: [u8; WireClass::COUNT] = {
        let mut table = [0u8; WireClass::COUNT];
        let fence = 1 << ACTIONS.len();
        let mut a = 0;
        while a < ACTIONS.len() {
            table[a] = fence;
            let mut b = 0;
            while b < ACTIONS.len() {
                if !ACTIONS[a].commutes_with(ACTIONS[b]) {
                    table[a] |= 1 << b;
                }
                b += 1;
            }
            a += 1;
        }
        table[ACTIONS.len()] = (1 << WireClass::COUNT) - 1;
        table
    };

    /// The class of `gate` on `qubit` (which must be an operand).
    ///
    /// # Panics
    ///
    /// Panics if `qubit` is not an operand of `gate`.
    pub fn of(gate: &Gate, qubit: QubitId) -> WireClass {
        if gate.kind == GateKind::Barrier {
            WireClass::FENCE
        } else {
            WireClass(action_on(gate, qubit) as u8)
        }
    }

    /// A dense index in `0..WireClass::COUNT`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// This class as a one-bit set, for masks over classes.
    #[inline]
    pub fn bit(self) -> u8 {
        1 << self.0
    }

    /// The set (as a mask of [`WireClass::bit`]s) of classes this one
    /// conflicts with.
    #[inline]
    pub fn conflict_mask(self) -> u8 {
        WireClass::CONFLICTS[self.index()]
    }

    /// Whether two gates sharing a wire in these classes fail to commute
    /// there (unless they are identical unitaries).
    #[inline]
    pub fn conflicts(self, other: WireClass) -> bool {
        self.conflict_mask() & other.bit() != 0
    }
}

/// Classifies how `gate` acts on `qubit` (which must be an operand).
///
/// # Panics
///
/// Panics if `qubit` is not an operand of `gate`.
pub fn action_on(gate: &Gate, qubit: QubitId) -> QubitAction {
    let pos = gate
        .qubits
        .iter()
        .position(|&q| q == qubit)
        .expect("qubit is not an operand of this gate");
    match gate.kind {
        GateKind::Id => QubitAction::Identity,
        GateKind::Z
        | GateKind::S
        | GateKind::Sdg
        | GateKind::T
        | GateKind::Tdg
        | GateKind::Rz
        | GateKind::U1 => QubitAction::ZDiagonal,
        GateKind::X | GateKind::Rx => QubitAction::XAxis,
        GateKind::Y | GateKind::Ry => QubitAction::YAxis,
        GateKind::H | GateKind::U2 | GateKind::U3 => QubitAction::Arbitrary,
        // r(θ, φ): an X rotation at φ = 0, a Y rotation at φ = π/2,
        // otherwise a general axis in the XY plane.
        GateKind::R => {
            let phi = gate.params[1].rem_euclid(std::f64::consts::PI);
            if phi.abs() < 1e-12 {
                QubitAction::XAxis
            } else if (phi - std::f64::consts::FRAC_PI_2).abs() < 1e-12 {
                QubitAction::YAxis
            } else {
                QubitAction::Arbitrary
            }
        }
        // The Mølmer–Sørensen interaction is X-diagonal on both qubits.
        GateKind::Rxx => QubitAction::XAxis,
        // Fully diagonal two-qubit gates.
        GateKind::Cz | GateKind::Crz | GateKind::Cu1 | GateKind::Rzz => QubitAction::ZDiagonal,
        // Controlled gates: control is Z-diagonal, target depends on gate.
        GateKind::Cx => {
            if pos == 0 {
                QubitAction::ZDiagonal
            } else {
                QubitAction::XAxis
            }
        }
        GateKind::Cy => {
            if pos == 0 {
                QubitAction::ZDiagonal
            } else {
                QubitAction::YAxis
            }
        }
        GateKind::Ch | GateKind::Cu3 => {
            if pos == 0 {
                QubitAction::ZDiagonal
            } else {
                QubitAction::Arbitrary
            }
        }
        GateKind::Ccx => {
            if pos <= 1 {
                QubitAction::ZDiagonal
            } else {
                QubitAction::XAxis
            }
        }
        GateKind::Cswap => {
            if pos == 0 {
                QubitAction::ZDiagonal
            } else {
                QubitAction::Arbitrary
            }
        }
        GateKind::Swap => QubitAction::Arbitrary,
        GateKind::Measure | GateKind::Reset | GateKind::Barrier => QubitAction::Arbitrary,
    }
}

/// Decides whether two gates commute.
///
/// * Gates on disjoint qubits always commute.
/// * Identical unitary gates commute.
/// * Otherwise, the gates commute iff their [`WireClass`]es conflict on
///   no shared qubit; a [`GateKind::Barrier`] is a [`WireClass::FENCE`],
///   so it commutes with nothing that shares a qubit with it.
pub fn commutes(a: &Gate, b: &Gate) -> bool {
    if !a.overlaps(b) {
        return true;
    }
    // Identical unitary operations trivially commute (A·A = A·A); this
    // matters for e.g. back-to-back Hadamards, which the action classes
    // below would conservatively reject.
    if a.kind.is_unitary() && a == b {
        return true;
    }
    a.qubits
        .iter()
        .all(|&q| !b.acts_on(q) || !WireClass::of(a, q).conflicts(WireClass::of(b, q)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cx(c: QubitId, t: QubitId) -> Gate {
        Gate::new(GateKind::Cx, vec![c, t], vec![])
    }

    fn g1(kind: GateKind, q: QubitId) -> Gate {
        let params = vec![0.3; kind.num_params()];
        Gate::new(kind, vec![q], params)
    }

    #[test]
    fn disjoint_gates_commute() {
        assert!(commutes(&cx(0, 1), &cx(2, 3)));
        assert!(commutes(&g1(GateKind::H, 0), &g1(GateKind::H, 1)));
    }

    #[test]
    fn paper_example_shared_target_cnots_commute() {
        // Sec. IV-B: CX q1,q3 and CX q2,q3 are both CF gates.
        assert!(commutes(&cx(1, 3), &cx(2, 3)));
    }

    #[test]
    fn shared_control_cnots_commute() {
        assert!(commutes(&cx(0, 1), &cx(0, 2)));
    }

    #[test]
    fn control_target_conflict_does_not_commute() {
        assert!(!commutes(&cx(0, 1), &cx(1, 2)));
        assert!(!commutes(&cx(1, 2), &cx(0, 1)));
    }

    #[test]
    fn opposite_direction_cnots_do_not_commute() {
        assert!(!commutes(&cx(0, 1), &cx(1, 0)));
    }

    #[test]
    fn diagonal_commutes_with_control() {
        for kind in [
            GateKind::Z,
            GateKind::S,
            GateKind::T,
            GateKind::Rz,
            GateKind::U1,
        ] {
            assert!(commutes(&g1(kind, 0), &cx(0, 1)), "{kind} vs control");
            assert!(!commutes(&g1(kind, 1), &cx(0, 1)), "{kind} vs target");
        }
    }

    #[test]
    fn x_commutes_with_target() {
        assert!(commutes(&g1(GateKind::X, 1), &cx(0, 1)));
        assert!(commutes(&g1(GateKind::Rx, 1), &cx(0, 1)));
        assert!(!commutes(&g1(GateKind::X, 0), &cx(0, 1)));
    }

    #[test]
    fn h_commutes_with_nothing_shared() {
        assert!(!commutes(&g1(GateKind::H, 0), &cx(0, 1)));
        assert!(!commutes(&g1(GateKind::H, 1), &cx(0, 1)));
        assert!(!commutes(&g1(GateKind::H, 0), &g1(GateKind::T, 0)));
    }

    #[test]
    fn cz_commutes_symmetrically_with_cx_control() {
        let czg = Gate::new(GateKind::Cz, vec![0, 1], vec![]);
        // CZ is diagonal; CX control on 0 is diagonal, target on 1 is X.
        assert!(commutes(&czg, &cx(0, 2))); // share q0: diag/diag
        assert!(!commutes(&czg, &cx(2, 1))); // share q1: diag/X
    }

    #[test]
    fn rzz_acts_diagonally_on_both() {
        let rzz = Gate::new(GateKind::Rzz, vec![0, 1], vec![0.5]);
        assert!(commutes(&rzz, &g1(GateKind::T, 0)));
        assert!(commutes(&rzz, &g1(GateKind::T, 1)));
        let rzz2 = Gate::new(GateKind::Rzz, vec![1, 2], vec![0.25]);
        assert!(commutes(&rzz, &rzz2));
    }

    #[test]
    fn ccx_controls_and_target() {
        let t = Gate::new(GateKind::Ccx, vec![0, 1, 2], vec![]);
        assert!(commutes(&t, &g1(GateKind::T, 0)));
        assert!(commutes(&t, &g1(GateKind::T, 1)));
        assert!(commutes(&t, &g1(GateKind::X, 2)));
        assert!(!commutes(&t, &g1(GateKind::X, 0)));
        // Two Toffolis sharing controls commute.
        let t2 = Gate::new(GateKind::Ccx, vec![0, 1, 3], vec![]);
        assert!(commutes(&t, &t2));
        // Control of one is target of the other: no.
        let t3 = Gate::new(GateKind::Ccx, vec![2, 3, 4], vec![]);
        assert!(!commutes(&t, &t3));
    }

    #[test]
    fn cx_and_ccx_same_target_commute() {
        let a = cx(0, 2);
        let b = Gate::new(GateKind::Ccx, vec![1, 3, 2], vec![]);
        assert!(commutes(&a, &b));
    }

    #[test]
    fn swap_conservative() {
        let s = Gate::new(GateKind::Swap, vec![0, 1], vec![]);
        assert!(!commutes(&s, &cx(0, 2)));
        assert!(!commutes(&s, &g1(GateKind::T, 1)));
        assert!(commutes(&s, &cx(2, 3)));
    }

    #[test]
    fn barrier_blocks_shared() {
        let b = Gate::barrier(vec![0, 1]);
        assert!(!commutes(&b, &g1(GateKind::Id, 0)));
        assert!(commutes(&b, &g1(GateKind::T, 2)));
    }

    #[test]
    fn identity_commutes_with_everything_shared() {
        assert!(commutes(&g1(GateKind::Id, 0), &g1(GateKind::H, 0)));
        assert!(commutes(&g1(GateKind::Id, 1), &cx(0, 1)));
    }

    #[test]
    fn measure_does_not_commute_when_shared() {
        let m = Gate::measure(0, 0);
        assert!(!commutes(&m, &g1(GateKind::T, 0)));
        assert!(commutes(&m, &g1(GateKind::T, 1)));
    }

    #[test]
    fn identical_gates_commute() {
        let h = g1(GateKind::H, 0);
        assert!(commutes(&h, &h));
        let s = Gate::new(GateKind::Swap, vec![0, 1], vec![]);
        assert!(commutes(&s, &s));
        // Same kind but different params: not identical, stays blocked.
        let r1 = Gate::new(GateKind::U3, vec![0], vec![0.1, 0.2, 0.3]);
        let r2 = Gate::new(GateKind::U3, vec![0], vec![0.4, 0.5, 0.6]);
        assert!(!commutes(&r1, &r2));
        // Identical measures to the same bit are order-independent, but
        // measurement is non-unitary: stay conservative.
        let m = Gate::measure(0, 0);
        assert!(!commutes(&m, &m));
    }

    #[test]
    fn class_indices_follow_action_discriminants() {
        for (i, &action) in ACTIONS.iter().enumerate() {
            assert_eq!(action as usize, i);
        }
    }

    #[test]
    fn wire_class_conflicts_match_actions_and_fence() {
        let classes: Vec<WireClass> = (0..WireClass::COUNT as u8).map(WireClass).collect();
        for &a in &classes {
            for &b in &classes {
                let expected = a == WireClass::FENCE
                    || b == WireClass::FENCE
                    || !ACTIONS[a.index()].commutes_with(ACTIONS[b.index()]);
                assert_eq!(a.conflicts(b), expected, "{a:?} vs {b:?}");
            }
        }
        let barrier = Gate::barrier(vec![0, 1]);
        assert_eq!(WireClass::of(&barrier, 1), WireClass::FENCE);
        assert!(WireClass::FENCE.conflicts(WireClass::of(&g1(GateKind::Id, 0), 0)));
    }

    #[test]
    fn commutation_is_symmetric() {
        let samples = [
            cx(0, 1),
            cx(1, 0),
            cx(0, 2),
            cx(2, 1),
            g1(GateKind::T, 0),
            g1(GateKind::X, 1),
            g1(GateKind::H, 2),
            Gate::new(GateKind::Cz, vec![0, 1], vec![]),
            Gate::new(GateKind::Swap, vec![1, 2], vec![]),
            Gate::new(GateKind::Ccx, vec![0, 1, 2], vec![]),
        ];
        for a in &samples {
            for b in &samples {
                assert_eq!(commutes(a, b), commutes(b, a), "{a} vs {b}");
            }
        }
    }
}
