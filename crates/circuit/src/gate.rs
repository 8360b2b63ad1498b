//! The gate set of the circuit IR.
//!
//! [`GateKind`] mirrors the primitive gates of `qelib1.inc` (as produced by
//! the `codar-qasm` frontend) plus the non-unitary operations `measure`,
//! `reset` and `barrier`, and the router-inserted `swap`.

use std::fmt;

/// Index of a qubit within a circuit (logical) or device (physical).
pub type QubitId = usize;

/// Every operation kind the IR understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GateKind {
    /// Identity / explicit idle.
    Id,
    /// Pauli-X.
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
    /// Hadamard.
    H,
    /// Phase gate S = diag(1, i).
    S,
    /// S†.
    Sdg,
    /// T = diag(1, e^{iπ/4}).
    T,
    /// T†.
    Tdg,
    /// X rotation `rx(θ)`.
    Rx,
    /// Y rotation `ry(θ)`.
    Ry,
    /// Z rotation `rz(φ)` (≡ `u1` up to global phase).
    Rz,
    /// Ion-trap native rotation `r(θ, φ)` about the axis
    /// `cos(φ)X + sin(φ)Y` (Table I's `R^θ_α`).
    R,
    /// Diagonal phase gate `u1(λ)`.
    U1,
    /// `u2(φ, λ)` = `U(π/2, φ, λ)`.
    U2,
    /// Full single-qubit unitary `u3(θ, φ, λ)` (the OpenQASM builtin `U`).
    U3,
    /// Controlled-NOT.
    Cx,
    /// Controlled-Y.
    Cy,
    /// Controlled-Z.
    Cz,
    /// Controlled-Hadamard.
    Ch,
    /// Controlled `rz(λ)`.
    Crz,
    /// Controlled `u1(λ)`.
    Cu1,
    /// Controlled `u3(θ, φ, λ)`.
    Cu3,
    /// Ising interaction `rzz(θ)` (diagonal two-qubit gate).
    Rzz,
    /// Ion-trap native Mølmer–Sørensen interaction `rxx(θ)` =
    /// exp(−iθ/2·X⊗X) (Table I's `XX`).
    Rxx,
    /// SWAP of two qubits (inserted by routing; 3 back-to-back CNOTs).
    Swap,
    /// Toffoli.
    Ccx,
    /// Fredkin (controlled SWAP).
    Cswap,
    /// Z-basis measurement (classical destination tracked separately).
    Measure,
    /// Reset to |0⟩.
    Reset,
    /// Scheduling barrier (variable arity, zero duration).
    Barrier,
}

impl GateKind {
    /// Number of qubit operands, or `None` for variable arity (`Barrier`).
    pub fn arity(self) -> Option<usize> {
        match self {
            GateKind::Barrier => None,
            GateKind::Ccx | GateKind::Cswap => Some(3),
            GateKind::Cx
            | GateKind::Cy
            | GateKind::Cz
            | GateKind::Ch
            | GateKind::Crz
            | GateKind::Cu1
            | GateKind::Cu3
            | GateKind::Rzz
            | GateKind::Rxx
            | GateKind::Swap => Some(2),
            _ => Some(1),
        }
    }

    /// Number of real parameters.
    pub fn num_params(self) -> usize {
        match self {
            GateKind::Rx
            | GateKind::Ry
            | GateKind::Rz
            | GateKind::U1
            | GateKind::Crz
            | GateKind::Cu1
            | GateKind::Rzz
            | GateKind::Rxx => 1,
            GateKind::U2 | GateKind::R => 2,
            GateKind::U3 | GateKind::Cu3 => 3,
            _ => 0,
        }
    }

    /// True for unitary gate operations (not measure/reset/barrier).
    pub fn is_unitary(self) -> bool {
        !matches!(
            self,
            GateKind::Measure | GateKind::Reset | GateKind::Barrier
        )
    }

    /// True for 2-qubit unitary gates (the ones constrained by coupling).
    pub fn is_two_qubit(self) -> bool {
        self.arity() == Some(2)
    }

    /// The OpenQASM surface name.
    pub fn name(self) -> &'static str {
        match self {
            GateKind::Id => "id",
            GateKind::X => "x",
            GateKind::Y => "y",
            GateKind::Z => "z",
            GateKind::H => "h",
            GateKind::S => "s",
            GateKind::Sdg => "sdg",
            GateKind::T => "t",
            GateKind::Tdg => "tdg",
            GateKind::Rx => "rx",
            GateKind::Ry => "ry",
            GateKind::Rz => "rz",
            GateKind::R => "r",
            GateKind::U1 => "u1",
            GateKind::U2 => "u2",
            GateKind::U3 => "u3",
            GateKind::Cx => "cx",
            GateKind::Cy => "cy",
            GateKind::Cz => "cz",
            GateKind::Ch => "ch",
            GateKind::Crz => "crz",
            GateKind::Cu1 => "cu1",
            GateKind::Cu3 => "cu3",
            GateKind::Rzz => "rzz",
            GateKind::Rxx => "rxx",
            GateKind::Swap => "swap",
            GateKind::Ccx => "ccx",
            GateKind::Cswap => "cswap",
            GateKind::Measure => "measure",
            GateKind::Reset => "reset",
            GateKind::Barrier => "barrier",
        }
    }

    /// All unitary gate kinds (useful for exhaustive property tests).
    pub fn all_unitary() -> &'static [GateKind] {
        &[
            GateKind::Id,
            GateKind::X,
            GateKind::Y,
            GateKind::Z,
            GateKind::H,
            GateKind::S,
            GateKind::Sdg,
            GateKind::T,
            GateKind::Tdg,
            GateKind::Rx,
            GateKind::Ry,
            GateKind::Rz,
            GateKind::R,
            GateKind::U1,
            GateKind::U2,
            GateKind::U3,
            GateKind::Cx,
            GateKind::Cy,
            GateKind::Cz,
            GateKind::Ch,
            GateKind::Crz,
            GateKind::Cu1,
            GateKind::Cu3,
            GateKind::Rzz,
            GateKind::Rxx,
            GateKind::Swap,
            GateKind::Ccx,
            GateKind::Cswap,
        ]
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// One operation in a circuit: a gate kind, its qubit operands and its
/// evaluated real parameters.
///
/// For `Measure` the classical destination bit is stored in
/// [`Gate::classical_bit`]; for conditional gates the condition is not
/// modelled (routing is condition-independent).
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// The operation kind.
    pub kind: GateKind,
    /// Qubit operands; controls precede targets (e.g. `cx [control, target]`).
    pub qubits: Vec<QubitId>,
    /// Evaluated parameters, length [`GateKind::num_params`].
    pub params: Vec<f64>,
    /// Classical destination for `Measure`; `None` otherwise.
    pub classical_bit: Option<usize>,
}

impl Gate {
    /// Creates a gate, checking arity and parameter count.
    ///
    /// # Panics
    ///
    /// Panics if the operand or parameter count does not match `kind`,
    /// or if a qubit operand is repeated.
    pub fn new(kind: GateKind, qubits: Vec<QubitId>, params: Vec<f64>) -> Self {
        if let Some(arity) = kind.arity() {
            assert_eq!(
                qubits.len(),
                arity,
                "gate {kind} expects {arity} qubits, got {}",
                qubits.len()
            );
        }
        assert_eq!(
            params.len(),
            kind.num_params(),
            "gate {kind} expects {} parameters, got {}",
            kind.num_params(),
            params.len()
        );
        for (i, a) in qubits.iter().enumerate() {
            for b in &qubits[i + 1..] {
                assert_ne!(a, b, "gate {kind} has repeated qubit operand {a}");
            }
        }
        Gate {
            kind,
            qubits,
            params,
            classical_bit: None,
        }
    }

    /// Creates a measurement of `qubit` into classical `bit`.
    pub fn measure(qubit: QubitId, bit: usize) -> Self {
        Gate {
            kind: GateKind::Measure,
            qubits: vec![qubit],
            params: vec![],
            classical_bit: Some(bit),
        }
    }

    /// Creates a barrier over `qubits`.
    ///
    /// # Panics
    ///
    /// Panics when an operand repeats, as [`Gate::new`] does: the DAG,
    /// the routers' fronts and the verifier all assume distinct operands.
    pub fn barrier(qubits: Vec<QubitId>) -> Self {
        let mut sorted = qubits.clone();
        sorted.sort_unstable();
        if let Some(pair) = sorted.windows(2).find(|pair| pair[0] == pair[1]) {
            panic!("barrier has repeated qubit operand {}", pair[0]);
        }
        Gate {
            kind: GateKind::Barrier,
            qubits,
            params: vec![],
            classical_bit: None,
        }
    }

    /// True when this gate is a 2-qubit unitary (coupling-constrained).
    pub fn is_two_qubit(&self) -> bool {
        self.kind.is_two_qubit()
    }

    /// True when `qubit` is an operand of this gate.
    pub fn acts_on(&self, qubit: QubitId) -> bool {
        self.qubits.contains(&qubit)
    }

    /// Whether this gate shares at least one qubit with `other`.
    pub fn overlaps(&self, other: &Gate) -> bool {
        self.qubits.iter().any(|q| other.qubits.contains(q))
    }

    /// Returns the gate with every qubit operand remapped through `f`.
    pub fn map_qubits(&self, mut f: impl FnMut(QubitId) -> QubitId) -> Gate {
        Gate {
            kind: self.kind,
            qubits: self.qubits.iter().map(|&q| f(q)).collect(),
            params: self.params.clone(),
            classical_bit: self.classical_bit,
        }
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind)?;
        if !self.params.is_empty() {
            write!(f, "(")?;
            for (i, p) in self.params.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{p}")?;
            }
            write!(f, ")")?;
        }
        write!(f, " ")?;
        for (i, q) in self.qubits.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "q[{q}]")?;
        }
        if let Some(bit) = self.classical_bit {
            write!(f, " -> c[{bit}]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arities() {
        assert_eq!(GateKind::H.arity(), Some(1));
        assert_eq!(GateKind::Cx.arity(), Some(2));
        assert_eq!(GateKind::Ccx.arity(), Some(3));
        assert_eq!(GateKind::Barrier.arity(), None);
    }

    #[test]
    fn param_counts() {
        assert_eq!(GateKind::Rz.num_params(), 1);
        assert_eq!(GateKind::U2.num_params(), 2);
        assert_eq!(GateKind::U3.num_params(), 3);
        assert_eq!(GateKind::Cx.num_params(), 0);
    }

    #[test]
    #[should_panic(expected = "expects 2 qubits")]
    fn wrong_arity_panics() {
        Gate::new(GateKind::Cx, vec![0], vec![]);
    }

    #[test]
    #[should_panic(expected = "repeated qubit")]
    fn repeated_operand_panics() {
        Gate::new(GateKind::Cx, vec![1, 1], vec![]);
    }

    #[test]
    #[should_panic(expected = "barrier has repeated qubit operand 3")]
    fn repeated_barrier_operand_panics() {
        Gate::barrier(vec![3, 0, 1, 2, 4, 5, 6, 7, 8, 3]);
    }

    #[test]
    #[should_panic(expected = "parameters")]
    fn wrong_params_panics() {
        Gate::new(GateKind::Rz, vec![0], vec![]);
    }

    #[test]
    fn display_forms() {
        let g = Gate::new(GateKind::Cx, vec![0, 2], vec![]);
        assert_eq!(g.to_string(), "cx q[0], q[2]");
        let m = Gate::measure(1, 3);
        assert_eq!(m.to_string(), "measure q[1] -> c[3]");
        let r = Gate::new(GateKind::Rz, vec![0], vec![0.5]);
        assert_eq!(r.to_string(), "rz(0.5) q[0]");
    }

    #[test]
    fn overlaps_and_acts_on() {
        let a = Gate::new(GateKind::Cx, vec![0, 1], vec![]);
        let b = Gate::new(GateKind::Cx, vec![1, 2], vec![]);
        let c = Gate::new(GateKind::H, vec![3], vec![]);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(a.acts_on(0));
        assert!(!a.acts_on(2));
    }

    #[test]
    fn map_qubits_relabels() {
        let g = Gate::new(GateKind::Cx, vec![0, 1], vec![]);
        let h = g.map_qubits(|q| q + 10);
        assert_eq!(h.qubits, vec![10, 11]);
        assert_eq!(h.kind, GateKind::Cx);
    }

    #[test]
    fn all_unitary_is_consistent() {
        for &k in GateKind::all_unitary() {
            assert!(k.is_unitary());
            assert!(k.arity().is_some());
        }
    }

    #[test]
    fn unitary_classification() {
        assert!(!GateKind::Measure.is_unitary());
        assert!(!GateKind::Barrier.is_unitary());
        assert!(GateKind::Swap.is_unitary());
    }
}
