//! Quantum circuit intermediate representation for the CODAR reproduction.
//!
//! The IR is a flat gate list over logical qubits, with supporting passes:
//!
//! * [`gate`] — the gate set and per-gate metadata,
//! * [`circuit`] — the [`Circuit`] container and builder API,
//! * [`from_qasm`] — conversion from the OpenQASM frontend,
//! * [`dag`] — dependency DAG (per-qubit program order),
//! * [`commute`] — structural gate commutation rules (paper Sec. IV-B),
//! * [`decompose`] — lowering of 3-qubit gates to the `{1q, CX}` basis,
//! * [`schedule`] — ASAP scheduling and *weighted depth* (the paper's
//!   execution-time metric),
//! * [`stats`] — circuit statistics.
//!
//! # Examples
//!
//! ```
//! use codar_circuit::Circuit;
//!
//! let mut c = Circuit::new(3);
//! c.h(0);
//! c.cx(0, 1);
//! c.cx(1, 2);
//! assert_eq!(c.len(), 3);
//! assert_eq!(c.two_qubit_gate_count(), 2);
//! ```

pub mod circuit;
pub mod commute;
pub mod dag;
pub mod decompose;
pub mod from_qasm;
pub mod gate;
pub mod interaction;
pub mod optimize;
pub mod render;
pub mod schedule;
pub mod stats;

pub use circuit::Circuit;
pub use commute::{commutes, QubitAction, WireClass};
pub use dag::CircuitDag;
pub use gate::{Gate, GateKind, QubitId};
pub use schedule::{weighted_depth, Schedule};
