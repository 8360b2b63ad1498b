//! OpenQASM 2.0 frontend for the CODAR reproduction.
//!
//! This crate provides a complete, dependency-free OpenQASM 2.0 toolchain:
//!
//! * [`lexer`] — a hand-written lexer producing spanned [`token::Token`]s,
//! * [`parser`] — a recursive-descent parser producing an [`ast::Program`],
//! * [`semantic`] — semantic analysis that resolves registers, expands
//!   user-defined composite gates and broadcasts register operands, yielding
//!   a flat sequence of primitive operations ([`semantic::FlatProgram`]),
//! * [`writer`] — pretty-printing of programs back to OpenQASM source.
//!
//! Programs that `include "qelib1.inc";` need no filesystem access:
//! every gate of the standard library (see [`semantic::QELIB1`]) is a
//! [`PrimitiveGate`] with the same qubit and parameter counts, so the
//! include is accepted without lowering the library text.
//!
//! # Examples
//!
//! ```
//! use codar_qasm::parse_and_flatten;
//!
//! # fn main() -> Result<(), codar_qasm::QasmError> {
//! let src = r#"
//!     OPENQASM 2.0;
//!     include "qelib1.inc";
//!     qreg q[2];
//!     creg c[2];
//!     h q[0];
//!     cx q[0], q[1];
//!     measure q -> c;
//! "#;
//! let flat = parse_and_flatten(src)?;
//! assert_eq!(flat.num_qubits, 2);
//! assert_eq!(flat.ops.len(), 4); // h, cx, measure, measure
//! # Ok(())
//! # }
//! ```

pub mod ast;
pub mod error;
pub mod generate;
pub mod lexer;
pub mod parser;
pub mod semantic;
pub mod token;
pub mod writer;

pub use ast::Program;
pub use error::{QasmError, QasmErrorKind};
pub use semantic::{FlatOp, FlatProgram, PrimitiveGate};

/// Parses OpenQASM 2.0 source into an AST.
///
/// # Errors
///
/// Returns a [`QasmError`] describing the first lexical or syntactic
/// problem encountered, with line/column information.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), codar_qasm::QasmError> {
/// let program = codar_qasm::parse("OPENQASM 2.0; qreg q[1]; U(0,0,0) q[0];")?;
/// assert_eq!(program.statements.len(), 2);
/// # Ok(())
/// # }
/// ```
pub fn parse(source: &str) -> Result<Program, QasmError> {
    let tokens = lexer::lex(source)?;
    parser::parse_tokens(&tokens)
}

/// Parses OpenQASM 2.0 source and lowers it to a flat primitive-operation
/// sequence in a single call.
///
/// This is the entry point used by the rest of the reproduction: the
/// returned [`FlatProgram`] indexes qubits by a single global numbering
/// (quantum registers concatenated in declaration order).
///
/// # Errors
///
/// Returns a [`QasmError`] on lexical, syntactic or semantic problems
/// (undeclared registers, out-of-range indices, arity mismatches,
/// recursive gate definitions, …).
pub fn parse_and_flatten(source: &str) -> Result<FlatProgram, QasmError> {
    let program = parse(source)?;
    semantic::flatten(&program)
}
