//! Semantic analysis: lowering a parsed [`Program`] to a flat sequence of
//! primitive operations on globally-numbered qubits.
//!
//! The lowering performs:
//!
//! * register resolution — quantum registers are concatenated in
//!   declaration order into one global qubit numbering (classical
//!   registers likewise into a global bit numbering),
//! * whole-register broadcast — `h q;` becomes one `h` per element, and
//!   `cx q, r;` (equal sizes) becomes element-wise `cx`,
//! * composite-gate expansion — user-defined `gate` bodies are inlined
//!   recursively with parameter substitution, stopping at the
//!   [`PrimitiveGate`] set (the `qelib1.inc` standard library gates plus
//!   the builtins `U` and `CX`),
//! * constant folding of parameter expressions to `f64`.
//!
//! Classical conditions (`if (c == n) …`) are flattened to their guarded
//! operation: qubit mapping must produce hardware-compliant circuits for
//! either branch, so conditions are irrelevant to routing (they are
//! recorded in the flat ops' `conditional` field for completeness).

use crate::ast::{Argument, Expr, GateBodyStmt, GateCall, GateDef, Program, Statement};
use crate::error::{QasmError, QasmErrorKind};
use std::collections::HashMap;

/// The standard `qelib1.inc` gate library, as distributed with the
/// OpenQASM 2.0 paper: every gate is ultimately defined in terms of the
/// builtins `U` and `CX`.
///
/// Every gate it defines is a [`PrimitiveGate`] with the same qubit and
/// parameter counts, and the lowering stops at primitives before it
/// looks up any definition. So `include "qelib1.inc";` is accepted
/// without lowering this text: its definitions could never be read.
/// The text is kept as the reference the tests check that claim against.
pub const QELIB1: &str = r#"
// Quantum Experience (QE) Standard Header
gate u3(theta,phi,lambda) q { U(theta,phi,lambda) q; }
gate u2(phi,lambda) q { U(pi/2,phi,lambda) q; }
gate u1(lambda) q { U(0,0,lambda) q; }
gate cx c,t { CX c,t; }
gate id a { U(0,0,0) a; }
gate u0(gamma) q { U(0,0,0) q; }
gate x a { u3(pi,0,pi) a; }
gate y a { u3(pi,pi/2,pi/2) a; }
gate z a { u1(pi) a; }
gate h a { u2(0,pi) a; }
gate s a { u1(pi/2) a; }
gate sdg a { u1(-pi/2) a; }
gate t a { u1(pi/4) a; }
gate tdg a { u1(-pi/4) a; }
gate rx(theta) a { u3(theta,-pi/2,pi/2) a; }
gate ry(theta) a { u3(theta,0,0) a; }
gate rz(phi) a { u1(phi) a; }
gate cz a,b { h b; cx a,b; h b; }
gate cy a,b { sdg b; cx a,b; s b; }
gate swap a,b { cx a,b; cx b,a; cx a,b; }
gate ch a,b { h b; sdg b; cx a,b; h b; t b; cx a,b; t b; h b; s b; x b; s a; }
gate ccx a,b,c
{
  h c;
  cx b,c; tdg c;
  cx a,c; t c;
  cx b,c; tdg c;
  cx a,c; t b; t c; h c;
  cx a,b; t a; tdg b;
  cx a,b;
}
gate cswap a,b,c { cx c,b; ccx a,b,c; cx c,b; }
gate crz(lambda) a,b
{
  u1(lambda/2) b;
  cx a,b;
  u1(-lambda/2) b;
  cx a,b;
}
gate cu1(lambda) a,b
{
  u1(lambda/2) a;
  cx a,b;
  u1(-lambda/2) b;
  cx a,b;
  u1(lambda/2) b;
}
gate cu3(theta,phi,lambda) c,t
{
  u1((lambda-phi)/2) t;
  cx c,t;
  u3(-theta/2,0,-(phi+lambda)/2) t;
  cx c,t;
  u3(theta/2,phi,0) t;
}
gate rzz(theta) a,b { cx a,b; u1(theta) b; cx a,b; }
"#;

/// The primitive gate set the lowering stops at.
///
/// These are the gates of `qelib1.inc` plus the OpenQASM builtins and
/// the ion-trap gates `r` and `rxx`. The circuit IR (crate
/// `codar-circuit`) understands exactly this set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PrimitiveGate {
    /// Builtin single-qubit unitary `U(theta, phi, lambda)`.
    U,
    /// Identity / idle.
    Id,
    /// Generic 1-qubit rotations `u1`, `u2`, `u3`.
    U1,
    /// `u2(phi, lambda)`.
    U2,
    /// `u3(theta, phi, lambda)`.
    U3,
    /// Pauli-X.
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
    /// Hadamard.
    H,
    /// Phase gate `S`.
    S,
    /// Inverse phase gate.
    Sdg,
    /// T gate (π/8).
    T,
    /// Inverse T gate.
    Tdg,
    /// X rotation `rx(theta)`.
    Rx,
    /// Y rotation `ry(theta)`.
    Ry,
    /// Z rotation `rz(phi)`.
    Rz,
    /// Ion-trap rotation `r(theta, phi)` about an axis in the XY plane.
    R,
    /// Controlled-NOT (both the builtin `CX` and library `cx`).
    Cx,
    /// Controlled-Y.
    Cy,
    /// Controlled-Z.
    Cz,
    /// Controlled-Hadamard.
    Ch,
    /// Controlled phase `crz(lambda)`.
    Crz,
    /// Controlled `u1(lambda)`.
    Cu1,
    /// Controlled `u3(theta, phi, lambda)`.
    Cu3,
    /// SWAP.
    Swap,
    /// Toffoli (CCX).
    Ccx,
    /// Fredkin (controlled SWAP).
    Cswap,
    /// Ising ZZ interaction `rzz(theta)`.
    Rzz,
    /// Mølmer–Sørensen XX interaction `rxx(theta)`.
    Rxx,
}

impl PrimitiveGate {
    /// Looks up a primitive gate by its OpenQASM surface name.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "U" => PrimitiveGate::U,
            "id" | "u0" => PrimitiveGate::Id,
            "u1" => PrimitiveGate::U1,
            "u2" => PrimitiveGate::U2,
            "u3" => PrimitiveGate::U3,
            "x" => PrimitiveGate::X,
            "y" => PrimitiveGate::Y,
            "z" => PrimitiveGate::Z,
            "h" => PrimitiveGate::H,
            "s" => PrimitiveGate::S,
            "sdg" => PrimitiveGate::Sdg,
            "t" => PrimitiveGate::T,
            "tdg" => PrimitiveGate::Tdg,
            "rx" => PrimitiveGate::Rx,
            "ry" => PrimitiveGate::Ry,
            "rz" => PrimitiveGate::Rz,
            "r" => PrimitiveGate::R,
            "CX" | "cx" => PrimitiveGate::Cx,
            "cy" => PrimitiveGate::Cy,
            "cz" => PrimitiveGate::Cz,
            "ch" => PrimitiveGate::Ch,
            "crz" => PrimitiveGate::Crz,
            "cu1" => PrimitiveGate::Cu1,
            "cu3" => PrimitiveGate::Cu3,
            "swap" => PrimitiveGate::Swap,
            "ccx" => PrimitiveGate::Ccx,
            "cswap" => PrimitiveGate::Cswap,
            "rzz" => PrimitiveGate::Rzz,
            "rxx" => PrimitiveGate::Rxx,
            _ => return None,
        })
    }

    /// The OpenQASM surface name.
    pub fn name(self) -> &'static str {
        match self {
            PrimitiveGate::U => "U",
            PrimitiveGate::Id => "id",
            PrimitiveGate::U1 => "u1",
            PrimitiveGate::U2 => "u2",
            PrimitiveGate::U3 => "u3",
            PrimitiveGate::X => "x",
            PrimitiveGate::Y => "y",
            PrimitiveGate::Z => "z",
            PrimitiveGate::H => "h",
            PrimitiveGate::S => "s",
            PrimitiveGate::Sdg => "sdg",
            PrimitiveGate::T => "t",
            PrimitiveGate::Tdg => "tdg",
            PrimitiveGate::Rx => "rx",
            PrimitiveGate::Ry => "ry",
            PrimitiveGate::Rz => "rz",
            PrimitiveGate::R => "r",
            PrimitiveGate::Cx => "cx",
            PrimitiveGate::Cy => "cy",
            PrimitiveGate::Cz => "cz",
            PrimitiveGate::Ch => "ch",
            PrimitiveGate::Crz => "crz",
            PrimitiveGate::Cu1 => "cu1",
            PrimitiveGate::Cu3 => "cu3",
            PrimitiveGate::Swap => "swap",
            PrimitiveGate::Ccx => "ccx",
            PrimitiveGate::Cswap => "cswap",
            PrimitiveGate::Rzz => "rzz",
            PrimitiveGate::Rxx => "rxx",
        }
    }

    /// Number of qubit operands this gate takes.
    pub fn num_qubits(self) -> usize {
        match self {
            PrimitiveGate::U
            | PrimitiveGate::Id
            | PrimitiveGate::U1
            | PrimitiveGate::U2
            | PrimitiveGate::U3
            | PrimitiveGate::X
            | PrimitiveGate::Y
            | PrimitiveGate::Z
            | PrimitiveGate::H
            | PrimitiveGate::S
            | PrimitiveGate::Sdg
            | PrimitiveGate::T
            | PrimitiveGate::Tdg
            | PrimitiveGate::Rx
            | PrimitiveGate::Ry
            | PrimitiveGate::Rz
            | PrimitiveGate::R => 1,
            PrimitiveGate::Cx
            | PrimitiveGate::Cy
            | PrimitiveGate::Cz
            | PrimitiveGate::Ch
            | PrimitiveGate::Crz
            | PrimitiveGate::Cu1
            | PrimitiveGate::Cu3
            | PrimitiveGate::Swap
            | PrimitiveGate::Rzz
            | PrimitiveGate::Rxx => 2,
            PrimitiveGate::Ccx | PrimitiveGate::Cswap => 3,
        }
    }

    /// Number of real parameters this gate takes.
    pub fn num_params(self) -> usize {
        match self {
            PrimitiveGate::U | PrimitiveGate::U3 | PrimitiveGate::Cu3 => 3,
            PrimitiveGate::U2 | PrimitiveGate::R => 2,
            PrimitiveGate::U1
            | PrimitiveGate::Rx
            | PrimitiveGate::Ry
            | PrimitiveGate::Rz
            | PrimitiveGate::Crz
            | PrimitiveGate::Cu1
            | PrimitiveGate::Rzz
            | PrimitiveGate::Rxx => 1,
            _ => 0,
        }
    }
}

impl std::fmt::Display for PrimitiveGate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// A single lowered operation on globally-numbered qubits/bits.
#[derive(Debug, Clone, PartialEq)]
pub enum FlatOp {
    /// A primitive gate application.
    Gate {
        /// Which primitive gate.
        gate: PrimitiveGate,
        /// Evaluated parameters (length = `gate.num_params()`).
        params: Vec<f64>,
        /// Global qubit indices (length = `gate.num_qubits()`).
        qubits: Vec<usize>,
        /// Classical condition `(creg_name, value)` when lowered from an
        /// `if` statement; ignored by routing.
        conditional: Option<(String, u64)>,
    },
    /// A measurement `qubit -> bit`.
    Measure {
        /// Global qubit index.
        qubit: usize,
        /// Global classical bit index.
        bit: usize,
    },
    /// Reset of a qubit to |0⟩.
    Reset {
        /// Global qubit index.
        qubit: usize,
    },
    /// Synchronization barrier over the given qubits.
    Barrier {
        /// Global qubit indices.
        qubits: Vec<usize>,
    },
}

/// A lowered OpenQASM program: flat primitive operations over a single
/// global qubit numbering.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FlatProgram {
    /// Total number of qubits (sum of all `qreg` sizes).
    pub num_qubits: usize,
    /// Total number of classical bits (sum of all `creg` sizes).
    pub num_bits: usize,
    /// Names and sizes of quantum registers in declaration order.
    pub qregs: Vec<(String, usize)>,
    /// Names and sizes of classical registers in declaration order.
    pub cregs: Vec<(String, usize)>,
    /// The lowered operations in program order.
    pub ops: Vec<FlatOp>,
}

/// Declared registers, keyed by names borrowed from the program.
struct RegisterTable<'a> {
    // name -> (global offset, size)
    qregs: HashMap<&'a str, (usize, usize)>,
    cregs: HashMap<&'a str, (usize, usize)>,
}

/// Resolves `register[index]` against one register table; `kind` names
/// the register kind in error messages.
fn resolve(
    table: &HashMap<&str, (usize, usize)>,
    kind: &str,
    register: &str,
    index: Option<u64>,
) -> Result<usize, QasmError> {
    let (offset, size) = table.get(register).ok_or_else(|| {
        QasmError::new(
            QasmErrorKind::Semantic,
            format!("undeclared {kind} register `{register}`"),
        )
    })?;
    let idx = index.ok_or_else(|| {
        QasmError::new(
            QasmErrorKind::Semantic,
            format!("expected indexed reference for `{register}`"),
        )
    })? as usize;
    if idx >= *size {
        return Err(QasmError::new(
            QasmErrorKind::Semantic,
            format!("index {idx} out of range for `{register}[{size}]`"),
        ));
    }
    Ok(offset + idx)
}

impl RegisterTable<'_> {
    fn qubit(&self, register: &str, index: Option<u64>) -> Result<usize, QasmError> {
        resolve(&self.qregs, "quantum", register, index)
    }

    fn bit(&self, register: &str, index: Option<u64>) -> Result<usize, QasmError> {
        resolve(&self.cregs, "classical", register, index)
    }

    fn qreg_size(&self, name: &str) -> Option<usize> {
        self.qregs.get(name).map(|&(_, s)| s)
    }

    fn creg_size(&self, name: &str) -> Option<usize> {
        self.cregs.get(name).map(|&(_, s)| s)
    }
}

/// Lowering state. Every table borrows its names and gate definitions
/// from the program being lowered, so expanding a composite gate copies
/// nothing of its body.
struct Lowering<'a> {
    regs: RegisterTable<'a>,
    gatedefs: HashMap<&'a str, &'a GateDef>,
    opaques: HashMap<&'a str, (usize, usize)>, // name -> (#params, #qargs)
    flat: FlatProgram,
}

const MAX_EXPANSION_DEPTH: usize = 64;

/// The most operations one program may lower to. Each nested gate
/// definition that calls the previous one twice doubles the expansion,
/// so a few hundred bytes of source could otherwise lower to millions
/// of gates. Far above every suite and corpus program.
const MAX_LOWERED_OPS: usize = 1 << 20;

/// Evaluates a constant parameter expression given bindings for formal
/// parameter names.
///
/// # Errors
///
/// Returns a semantic [`QasmError`] if the expression references an
/// unbound parameter name.
pub fn eval_expr(expr: &Expr, env: &HashMap<&str, f64>) -> Result<f64, QasmError> {
    Ok(match expr {
        Expr::Real(x) => *x,
        Expr::Int(x) => *x as f64,
        Expr::Pi => std::f64::consts::PI,
        Expr::Param(name) => *env.get(name.as_str()).ok_or_else(|| {
            QasmError::new(
                QasmErrorKind::Semantic,
                format!("unbound parameter `{name}` in expression"),
            )
        })?,
        Expr::Binary(op, a, b) => {
            let a = eval_expr(a, env)?;
            let b = eval_expr(b, env)?;
            match op {
                crate::ast::BinaryOp::Add => a + b,
                crate::ast::BinaryOp::Sub => a - b,
                crate::ast::BinaryOp::Mul => a * b,
                crate::ast::BinaryOp::Div => a / b,
                crate::ast::BinaryOp::Pow => a.powf(b),
            }
        }
        Expr::Neg(a) => -eval_expr(a, env)?,
        Expr::Call(f, a) => f.apply(eval_expr(a, env)?),
    })
}

impl<'a> Lowering<'a> {
    fn new() -> Self {
        Lowering {
            regs: RegisterTable {
                qregs: HashMap::new(),
                cregs: HashMap::new(),
            },
            gatedefs: HashMap::new(),
            opaques: HashMap::new(),
            flat: FlatProgram::default(),
        }
    }

    fn run(mut self, program: &'a Program) -> Result<FlatProgram, QasmError> {
        for stmt in &program.statements {
            self.lower_statement(stmt, None)?;
        }
        Ok(self.flat)
    }

    fn lower_statement(
        &mut self,
        stmt: &'a Statement,
        conditional: Option<&(String, u64)>,
    ) -> Result<(), QasmError> {
        match stmt {
            Statement::Include(file) => {
                // qelib1.inc's gates are all primitives, which lowering
                // resolves before any definition (see `QELIB1`), so the
                // include has nothing to register. Other includes are
                // unsupported because the frontend is filesystem-free.
                if file == "qelib1.inc" {
                    Ok(())
                } else {
                    Err(QasmError::new(
                        QasmErrorKind::Semantic,
                        format!("cannot resolve include \"{file}\" (only qelib1.inc is embedded)"),
                    ))
                }
            }
            Statement::QReg { name, size } => {
                if self.regs.qregs.contains_key(name.as_str()) {
                    return Err(QasmError::new(
                        QasmErrorKind::Semantic,
                        format!("duplicate quantum register `{name}`"),
                    ));
                }
                let offset = self.flat.num_qubits;
                self.flat.num_qubits = declare(offset, *size, "qubits")?;
                self.regs.qregs.insert(name, (offset, *size as usize));
                self.flat.qregs.push((name.clone(), *size as usize));
                Ok(())
            }
            Statement::CReg { name, size } => {
                if self.regs.cregs.contains_key(name.as_str()) {
                    return Err(QasmError::new(
                        QasmErrorKind::Semantic,
                        format!("duplicate classical register `{name}`"),
                    ));
                }
                let offset = self.flat.num_bits;
                self.flat.num_bits = declare(offset, *size, "classical bits")?;
                self.regs.cregs.insert(name, (offset, *size as usize));
                self.flat.cregs.push((name.clone(), *size as usize));
                Ok(())
            }
            Statement::GateDef(def) => {
                self.gatedefs.insert(&def.name, def);
                Ok(())
            }
            Statement::Opaque {
                name,
                params,
                qargs,
            } => {
                self.opaques.insert(name, (params.len(), qargs.len()));
                Ok(())
            }
            Statement::GateCall(call) => self.lower_call_broadcast(call, conditional),
            Statement::Measure { src, dst } => self.lower_measure(src, dst),
            Statement::Reset(arg) => {
                for q in self.broadcast_qubits(arg)? {
                    self.push(FlatOp::Reset { qubit: q })?;
                }
                Ok(())
            }
            Statement::Barrier(args) => {
                let mut qubits = Vec::new();
                for arg in args {
                    qubits.extend(self.broadcast_qubits(arg)?);
                }
                distinct_operands("barrier", &qubits)?;
                self.push(FlatOp::Barrier { qubits })
            }
            Statement::If { creg, value, then } => {
                if self.regs.creg_size(creg).is_none() {
                    return Err(QasmError::new(
                        QasmErrorKind::Semantic,
                        format!("undeclared classical register `{creg}` in if"),
                    ));
                }
                self.lower_statement(then, Some(&(creg.clone(), *value)))
            }
        }
    }

    /// Appends one lowered operation, or fails once the program holds
    /// [`MAX_LOWERED_OPS`]: expansion stops before it allocates more.
    fn push(&mut self, op: FlatOp) -> Result<(), QasmError> {
        if self.flat.ops.len() == MAX_LOWERED_OPS {
            return Err(QasmError::new(
                QasmErrorKind::Semantic,
                format!("program lowers to more than {MAX_LOWERED_OPS} operations"),
            ));
        }
        self.flat.ops.push(op);
        Ok(())
    }

    /// Expands an argument into all the global qubit indices it denotes
    /// (one for indexed refs, the whole register otherwise).
    fn broadcast_qubits(&self, arg: &Argument) -> Result<std::ops::Range<usize>, QasmError> {
        match arg.index {
            Some(_) => {
                let q = self.regs.qubit(&arg.register, arg.index)?;
                Ok(q..q + 1)
            }
            None => {
                let &(offset, size) =
                    self.regs.qregs.get(arg.register.as_str()).ok_or_else(|| {
                        QasmError::new(
                            QasmErrorKind::Semantic,
                            format!("undeclared quantum register `{}`", arg.register),
                        )
                    })?;
                Ok(offset..offset + size)
            }
        }
    }

    fn lower_measure(&mut self, src: &Argument, dst: &Argument) -> Result<(), QasmError> {
        match (src.index, dst.index) {
            (Some(_), Some(_)) => {
                let qubit = self.regs.qubit(&src.register, src.index)?;
                let bit = self.regs.bit(&dst.register, dst.index)?;
                self.push(FlatOp::Measure { qubit, bit })
            }
            (None, None) => {
                let qsize = self.regs.qreg_size(&src.register).ok_or_else(|| {
                    QasmError::new(
                        QasmErrorKind::Semantic,
                        format!("undeclared quantum register `{}`", src.register),
                    )
                })?;
                let csize = self.regs.creg_size(&dst.register).ok_or_else(|| {
                    QasmError::new(
                        QasmErrorKind::Semantic,
                        format!("undeclared classical register `{}`", dst.register),
                    )
                })?;
                if qsize != csize {
                    return Err(QasmError::new(
                        QasmErrorKind::Semantic,
                        format!(
                            "register size mismatch in measure: {}[{qsize}] -> {}[{csize}]",
                            src.register, dst.register
                        ),
                    ));
                }
                for i in 0..qsize as u64 {
                    let qubit = self.regs.qubit(&src.register, Some(i))?;
                    let bit = self.regs.bit(&dst.register, Some(i))?;
                    self.push(FlatOp::Measure { qubit, bit })?;
                }
                Ok(())
            }
            _ => Err(QasmError::new(
                QasmErrorKind::Semantic,
                "measure must be register->register or element->element",
            )),
        }
    }

    /// Lowers a top-level gate call, broadcasting whole-register operands.
    fn lower_call_broadcast(
        &mut self,
        call: &GateCall,
        conditional: Option<&(String, u64)>,
    ) -> Result<(), QasmError> {
        // Determine broadcast width: all whole-register args must agree.
        let mut width: Option<usize> = None;
        for arg in &call.args {
            if arg.index.is_none() {
                let size = self.regs.qreg_size(&arg.register).ok_or_else(|| {
                    QasmError::new(
                        QasmErrorKind::Semantic,
                        format!("undeclared quantum register `{}`", arg.register),
                    )
                })?;
                match width {
                    None => width = Some(size),
                    Some(w) if w == size => {}
                    Some(w) => {
                        return Err(QasmError::new(
                            QasmErrorKind::Semantic,
                            format!("broadcast size mismatch in `{}`: {w} vs {size}", call.name),
                        ))
                    }
                }
            }
        }
        let params: Vec<f64> = call
            .params
            .iter()
            .map(|e| eval_expr(e, &HashMap::new()))
            .collect::<Result<_, _>>()?;
        let repeats = width.unwrap_or(1);
        for i in 0..repeats as u64 {
            let qubits: Vec<usize> = call
                .args
                .iter()
                .map(|arg| self.regs.qubit(&arg.register, arg.index.or(Some(i))))
                .collect::<Result<_, _>>()?;
            self.emit_call(&call.name, &params, &qubits, conditional, 0)?;
        }
        Ok(())
    }

    /// Emits a call on concrete qubits, expanding user-defined gates.
    fn emit_call(
        &mut self,
        name: &str,
        params: &[f64],
        qubits: &[usize],
        conditional: Option<&(String, u64)>,
        depth: usize,
    ) -> Result<(), QasmError> {
        if depth > MAX_EXPANSION_DEPTH {
            return Err(QasmError::new(
                QasmErrorKind::Semantic,
                format!("gate expansion exceeds depth {MAX_EXPANSION_DEPTH} (recursive definition of `{name}`?)"),
            ));
        }
        distinct_operands(name, qubits)?;
        if let Some(gate) = PrimitiveGate::from_name(name) {
            if gate.num_qubits() != qubits.len() {
                return Err(QasmError::new(
                    QasmErrorKind::Semantic,
                    format!(
                        "gate `{name}` expects {} qubits, got {}",
                        gate.num_qubits(),
                        qubits.len()
                    ),
                ));
            }
            if gate.num_params() != params.len() {
                // `u0(gamma)` folds to Id which takes 0 params; tolerate
                // parameter loss only for Id.
                if !(gate == PrimitiveGate::Id) {
                    return Err(QasmError::new(
                        QasmErrorKind::Semantic,
                        format!(
                            "gate `{name}` expects {} parameters, got {}",
                            gate.num_params(),
                            params.len()
                        ),
                    ));
                }
            }
            let params = if gate == PrimitiveGate::Id {
                Vec::new()
            } else {
                params.to_vec()
            };
            return self.push(FlatOp::Gate {
                gate,
                params,
                qubits: qubits.to_vec(),
                conditional: conditional.cloned(),
            });
        }
        if let Some(&(nparams, nqargs)) = self.opaques.get(name) {
            return Err(QasmError::new(
                QasmErrorKind::Semantic,
                format!(
                    "cannot lower opaque gate `{name}` ({nparams} params, {nqargs} qubits): no definition available"
                ),
            ));
        }
        let Some(def) = self.gatedefs.get(name).copied() else {
            return Err(QasmError::new(
                QasmErrorKind::Semantic,
                format!("unknown gate `{name}`"),
            ));
        };
        if def.qargs.len() != qubits.len() {
            return Err(QasmError::new(
                QasmErrorKind::Semantic,
                format!(
                    "gate `{name}` expects {} qubits, got {}",
                    def.qargs.len(),
                    qubits.len()
                ),
            ));
        }
        if def.params.len() != params.len() {
            return Err(QasmError::new(
                QasmErrorKind::Semantic,
                format!(
                    "gate `{name}` expects {} parameters, got {}",
                    def.params.len(),
                    params.len()
                ),
            ));
        }
        let param_env: HashMap<&str, f64> = def
            .params
            .iter()
            .map(|s| s.as_str())
            .zip(params.iter().copied())
            .collect();
        let qubit_env: HashMap<&str, usize> = def
            .qargs
            .iter()
            .map(|s| s.as_str())
            .zip(qubits.iter().copied())
            .collect();
        for stmt in &def.body {
            match stmt {
                GateBodyStmt::Call(inner) => {
                    let inner_params: Vec<f64> = inner
                        .params
                        .iter()
                        .map(|e| eval_expr(e, &param_env))
                        .collect::<Result<_, _>>()?;
                    let inner_qubits: Vec<usize> = inner
                        .args
                        .iter()
                        .map(|a| {
                            if a.index.is_some() {
                                Err(QasmError::new(
                                    QasmErrorKind::Semantic,
                                    format!("indexed reference `{a}` not allowed inside gate body"),
                                ))
                            } else {
                                qubit_env.get(a.register.as_str()).copied().ok_or_else(|| {
                                    QasmError::new(
                                        QasmErrorKind::Semantic,
                                        format!(
                                            "unbound qubit argument `{}` in gate `{name}`",
                                            a.register
                                        ),
                                    )
                                })
                            }
                        })
                        .collect::<Result<_, _>>()?;
                    self.emit_call(
                        &inner.name,
                        &inner_params,
                        &inner_qubits,
                        conditional,
                        depth + 1,
                    )?;
                }
                GateBodyStmt::Barrier(args) => {
                    let qubits: Vec<usize> = args
                        .iter()
                        .map(|a| {
                            qubit_env.get(a.register.as_str()).copied().ok_or_else(|| {
                                QasmError::new(
                                    QasmErrorKind::Semantic,
                                    format!(
                                        "unbound qubit argument `{}` in gate `{name}`",
                                        a.register
                                    ),
                                )
                            })
                        })
                        .collect::<Result<_, _>>()?;
                    distinct_operands("barrier", &qubits)?;
                    self.push(FlatOp::Barrier { qubits })?;
                }
            }
        }
        Ok(())
    }
}

/// The register total after declaring `size` more `what` on top of
/// `total`, or an error when it would not fit in a `usize`.
fn declare(total: usize, size: u64, what: &str) -> Result<usize, QasmError> {
    usize::try_from(size)
        .ok()
        .and_then(|size| total.checked_add(size))
        .ok_or_else(|| {
            QasmError::new(
                QasmErrorKind::Semantic,
                format!("registers declare more than {} {what}", usize::MAX),
            )
        })
}

/// Rejects an operation that names one qubit twice (`cx q[0],q[0]`,
/// `barrier q, q[0]`): every layer below assumes distinct operands.
/// Barriers can span whole registers, so long operand lists are checked
/// by sorting rather than pairwise.
fn distinct_operands(name: &str, qubits: &[usize]) -> Result<(), QasmError> {
    let repeated = if qubits.len() <= 8 {
        (1..qubits.len()).any(|i| qubits[..i].contains(&qubits[i]))
    } else {
        let mut sorted = qubits.to_vec();
        sorted.sort_unstable();
        sorted.windows(2).any(|pair| pair[0] == pair[1])
    };
    if repeated {
        return Err(QasmError::new(
            QasmErrorKind::Semantic,
            format!("gate `{name}` applied with repeated qubit operand"),
        ));
    }
    Ok(())
}

/// Lowers a parsed program to a [`FlatProgram`].
///
/// `include "qelib1.inc";` is accepted and lowers nothing: all `qelib1`
/// gate names are primitives (not expanded to `U`/`CX`), which preserves
/// gate identities for duration assignment and commutativity analysis
/// downstream.
///
/// # Errors
///
/// Returns a semantic [`QasmError`] for undeclared registers,
/// out-of-range indices, arity mismatches, broadcast size mismatches,
/// repeated qubit operands, unknown gates, non-embedded includes,
/// over-deep (recursive) gate expansions, register totals past
/// `usize::MAX`, and programs that lower to more than 2^20 operations.
pub fn flatten(program: &Program) -> Result<FlatProgram, QasmError> {
    Lowering::new().run(program)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(src: &str) -> FlatProgram {
        crate::parse_and_flatten(src).unwrap()
    }

    fn flat_err(src: &str) -> QasmError {
        crate::parse_and_flatten(src).unwrap_err()
    }

    #[test]
    fn lowers_simple_circuit() {
        let f = flat("OPENQASM 2.0; include \"qelib1.inc\"; qreg q[2]; h q[0]; cx q[0],q[1];");
        assert_eq!(f.num_qubits, 2);
        assert_eq!(
            f.ops,
            vec![
                FlatOp::Gate {
                    gate: PrimitiveGate::H,
                    params: vec![],
                    qubits: vec![0],
                    conditional: None
                },
                FlatOp::Gate {
                    gate: PrimitiveGate::Cx,
                    params: vec![],
                    qubits: vec![0, 1],
                    conditional: None
                },
            ]
        );
    }

    #[test]
    fn concatenates_registers() {
        let f = flat("include \"qelib1.inc\"; qreg a[2]; qreg b[3]; x b[0];");
        assert_eq!(f.num_qubits, 5);
        match &f.ops[0] {
            FlatOp::Gate { qubits, .. } => assert_eq!(qubits, &vec![2]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn broadcasts_single_qubit_gate() {
        let f = flat("include \"qelib1.inc\"; qreg q[3]; h q;");
        assert_eq!(f.ops.len(), 3);
    }

    #[test]
    fn broadcasts_two_qubit_gate_elementwise() {
        let f = flat("include \"qelib1.inc\"; qreg a[2]; qreg b[2]; cx a, b;");
        assert_eq!(f.ops.len(), 2);
        match (&f.ops[0], &f.ops[1]) {
            (FlatOp::Gate { qubits: q0, .. }, FlatOp::Gate { qubits: q1, .. }) => {
                assert_eq!(q0, &vec![0, 2]);
                assert_eq!(q1, &vec![1, 3]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn broadcast_mixed_register_and_index() {
        let f = flat("include \"qelib1.inc\"; qreg a[3]; qreg b[1]; cx a, b[0];");
        assert_eq!(f.ops.len(), 3);
        for (i, op) in f.ops.iter().enumerate() {
            match op {
                FlatOp::Gate { qubits, .. } => assert_eq!(qubits, &vec![i, 3]),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn broadcast_size_mismatch_is_error() {
        let e = flat_err("include \"qelib1.inc\"; qreg a[2]; qreg b[3]; cx a, b;");
        assert!(e.to_string().contains("broadcast size mismatch"));
    }

    #[test]
    fn expands_user_defined_gate() {
        let f = flat(
            "include \"qelib1.inc\"; qreg q[3]; \
             gate majority a,b,c { cx c,b; cx c,a; ccx a,b,c; } \
             majority q[0], q[1], q[2];",
        );
        let gates: Vec<PrimitiveGate> = f
            .ops
            .iter()
            .map(|op| match op {
                FlatOp::Gate { gate, .. } => *gate,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(
            gates,
            vec![PrimitiveGate::Cx, PrimitiveGate::Cx, PrimitiveGate::Ccx]
        );
    }

    #[test]
    fn expands_parameterized_gate_with_substitution() {
        let f = flat(
            "include \"qelib1.inc\"; qreg q[1]; \
             gate half(theta) a { rz(theta/2) a; } \
             half(pi) q[0];",
        );
        match &f.ops[0] {
            FlatOp::Gate { gate, params, .. } => {
                assert_eq!(*gate, PrimitiveGate::Rz);
                assert!((params[0] - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn qelib_gates_stay_primitive() {
        // ccx must NOT be decomposed during lowering; it is a primitive of
        // the IR (decomposition is a separate, explicit circuit pass).
        let f = flat("include \"qelib1.inc\"; qreg q[3]; ccx q[0],q[1],q[2];");
        assert_eq!(f.ops.len(), 1);
    }

    #[test]
    fn measure_broadcast() {
        let f = flat("include \"qelib1.inc\"; qreg q[2]; creg c[2]; measure q -> c;");
        assert_eq!(
            f.ops,
            vec![
                FlatOp::Measure { qubit: 0, bit: 0 },
                FlatOp::Measure { qubit: 1, bit: 1 },
            ]
        );
    }

    #[test]
    fn measure_size_mismatch_is_error() {
        let e = flat_err("qreg q[2]; creg c[3]; measure q -> c;");
        assert!(e.to_string().contains("size mismatch"));
    }

    #[test]
    fn conditional_is_recorded() {
        let f = flat("include \"qelib1.inc\"; qreg q[1]; creg c[1]; if (c == 1) x q[0];");
        match &f.ops[0] {
            FlatOp::Gate { conditional, .. } => {
                assert_eq!(conditional, &Some(("c".to_string(), 1)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn barrier_collects_qubits() {
        let f = flat("include \"qelib1.inc\"; qreg q[3]; barrier q[0], q[2];");
        assert_eq!(f.ops, vec![FlatOp::Barrier { qubits: vec![0, 2] }]);
    }

    #[test]
    fn barrier_whole_register() {
        let f = flat("qreg q[3]; barrier q;");
        assert_eq!(
            f.ops,
            vec![FlatOp::Barrier {
                qubits: vec![0, 1, 2]
            }]
        );
    }

    #[test]
    fn reset_broadcast() {
        let f = flat("qreg q[2]; reset q;");
        assert_eq!(f.ops.len(), 2);
    }

    #[test]
    fn rejects_unknown_gate() {
        let e = flat_err("qreg q[1]; foo q[0];");
        assert!(e.to_string().contains("unknown gate"));
    }

    #[test]
    fn rejects_out_of_range_index() {
        let e = flat_err("include \"qelib1.inc\"; qreg q[2]; x q[5];");
        assert!(e.to_string().contains("out of range"));
    }

    #[test]
    fn rejects_duplicate_register() {
        let e = flat_err("qreg q[2]; qreg q[3];");
        assert!(e.to_string().contains("duplicate"));
    }

    #[test]
    fn rejects_repeated_operand() {
        let e = flat_err("include \"qelib1.inc\"; qreg q[2]; cx q[0], q[0];");
        assert!(e.to_string().contains("repeated"));
    }

    #[test]
    fn rejects_register_totals_past_usize() {
        let e = flat_err("qreg a[18446744073709551615]; qreg b[2]; h b[0];");
        assert_eq!(*e.kind(), QasmErrorKind::Semantic);
        assert!(
            e.to_string()
                .contains("registers declare more than 18446744073709551615 qubits"),
            "{e}"
        );
        let e = flat_err("creg a[18446744073709551615]; creg b[1];");
        assert!(e.to_string().contains("classical bits"), "{e}");
        // One register of the largest size still declares.
        let program = crate::parse("qreg a[18446744073709551615];").unwrap();
        assert_eq!(flatten(&program).unwrap().num_qubits, usize::MAX);
    }

    /// Definition `gN` calls `g(N-1)` twice, so 21 levels would lower
    /// to 2^21 gates; lowering stops at the cap instead.
    #[test]
    fn caps_the_lowered_operation_count() {
        let nested = |levels: usize| {
            let mut source = String::from("qreg q[1]; gate g0 a { h a; }");
            for level in 1..=levels {
                let inner = level - 1;
                source.push_str(&format!(" gate g{level} a {{ g{inner} a; g{inner} a; }}"));
            }
            source.push_str(&format!(" g{levels} q[0];"));
            source
        };
        assert_eq!(flat(&nested(4)).ops.len(), 16);
        let e = flat_err(&nested(21));
        assert_eq!(*e.kind(), QasmErrorKind::Semantic);
        assert!(
            e.to_string()
                .contains("program lowers to more than 1048576 operations"),
            "{e}"
        );
    }

    #[test]
    fn rejects_repeated_barrier_operands() {
        for source in [
            "qreg q[2]; barrier q[0], q[0];",
            "qreg q[2]; barrier q, q[0];",
            "qreg q[12]; barrier q, q[11];",
            "qreg q[2]; gate g a { barrier a, a; } g q[0];",
        ] {
            let e = flat_err(source);
            assert!(
                e.to_string()
                    .contains("gate `barrier` applied with repeated qubit operand"),
                "{source}: {e}"
            );
        }
        flat("qreg q[2]; qreg r[1]; barrier q, r[0]; barrier q[1];");
    }

    #[test]
    fn rejects_recursive_gate() {
        let e = flat_err("qreg q[1]; gate loop a { loop a; } loop q[0];");
        assert!(e.to_string().contains("depth"));
    }

    #[test]
    fn rejects_unresolvable_include() {
        let e = flat_err("include \"mylib.inc\"; qreg q[1];");
        assert!(e.to_string().contains("mylib.inc"));
    }

    #[test]
    fn rejects_wrong_arity() {
        let e = flat_err("include \"qelib1.inc\"; qreg q[2]; h q[0], q[1];");
        assert!(e.to_string().contains("expects"));
    }

    #[test]
    fn rejects_wrong_param_count() {
        let e = flat_err("include \"qelib1.inc\"; qreg q[1]; rz q[0];");
        assert!(e.to_string().contains("parameters"));
    }

    #[test]
    fn opaque_cannot_be_lowered() {
        let e = flat_err("qreg q[1]; opaque mystery a; mystery q[0];");
        assert!(e.to_string().contains("opaque"));
    }

    #[test]
    fn eval_expr_constants() {
        let env = HashMap::new();
        assert_eq!(eval_expr(&Expr::Int(3), &env).unwrap(), 3.0);
        assert!((eval_expr(&Expr::Pi, &env).unwrap() - std::f64::consts::PI).abs() < 1e-15);
    }

    #[test]
    fn eval_expr_unbound_param_is_error() {
        let env = HashMap::new();
        assert!(eval_expr(&Expr::Param("theta".into()), &env).is_err());
    }

    #[test]
    fn u_builtin_without_include() {
        // U and CX work without qelib1.
        let f = flat("OPENQASM 2.0; qreg q[2]; U(0, 0, pi) q[0]; CX q[0], q[1];");
        assert_eq!(f.ops.len(), 2);
        match &f.ops[0] {
            FlatOp::Gate { gate, params, .. } => {
                assert_eq!(*gate, PrimitiveGate::U);
                assert_eq!(params.len(), 3);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// The include arm lowers nothing for `qelib1.inc` because every
    /// library gate resolves as a primitive of the same shape before any
    /// definition is looked up. A non-primitive gate added to `QELIB1`
    /// fails here instead of silently lowering differently.
    #[test]
    fn every_qelib1_gate_is_a_primitive_of_the_same_shape() {
        let lib = crate::parse(QELIB1).unwrap();
        let mut defs = 0;
        for stmt in &lib.statements {
            let Statement::GateDef(def) = stmt else {
                panic!("qelib1 holds only gate definitions, found {stmt:?}");
            };
            defs += 1;
            let gate = PrimitiveGate::from_name(&def.name)
                .unwrap_or_else(|| panic!("qelib1 gate `{}` is not a primitive", def.name));
            assert_eq!(gate.num_qubits(), def.qargs.len(), "{}", def.name);
            // `u0(gamma)` lowers to Id, whose parameter is dropped under
            // emit_call's Id tolerance.
            if def.name == "u0" {
                assert_eq!((gate, def.params.len()), (PrimitiveGate::Id, 1));
            } else {
                assert_eq!(gate.num_params(), def.params.len(), "{}", def.name);
            }
        }
        assert_eq!(defs, 27);
    }

    #[test]
    fn primitive_arities_consistent() {
        for name in [
            "u1", "u2", "u3", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "rx", "ry", "rz", "cx",
            "cy", "cz", "ch", "crz", "cu1", "cu3", "swap", "ccx", "cswap", "rzz", "id",
        ] {
            let g = PrimitiveGate::from_name(name).unwrap();
            assert!(g.num_qubits() >= 1 && g.num_qubits() <= 3);
            // names round-trip except aliases (u0 -> id, CX -> cx)
            assert_eq!(PrimitiveGate::from_name(g.name()), Some(g));
        }
    }
}
