//! Umbrella crate for the CODAR reproduction.
//!
//! Re-exports the workspace crates under one roof so examples and
//! integration tests can `use codar_repro::...`. See the individual
//! crates for full documentation:
//!
//! * [`qasm`] — OpenQASM 2.0 frontend,
//! * [`circuit`] — circuit IR, DAG, commutativity, scheduling,
//! * [`arch`] — maQAM devices, coupling graphs, durations,
//! * [`router`] — the CODAR remapper and the SABRE baseline,
//! * [`sim`] — noisy state-vector simulation,
//! * [`benchmarks`] — benchmark generators and the 71-circuit suite,
//! * [`engine`] — the parallel suite-routing engine every paper
//!   experiment runs on (see `ARCHITECTURE.md`),
//! * [`service`] — the online routing daemon (`coded`) and its
//!   deterministic load generator (`loadgen`).
//!
//! # Examples
//!
//! ```
//! use codar_repro::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let circuit = codar_repro::benchmarks::qft(4);
//! let device = Device::ibm_q20_tokyo();
//! let routed = CodarRouter::new(&device).route(&circuit, None, &mut RouterScratch::new())?;
//! assert!(routed.weighted_depth > 0);
//! # Ok(())
//! # }
//! ```

pub use codar_arch as arch;
pub use codar_benchmarks as benchmarks;
pub use codar_circuit as circuit;
pub use codar_engine as engine;
pub use codar_qasm as qasm;
pub use codar_router as router;
pub use codar_service as service;
pub use codar_sim as sim;

/// Convenience prelude importing the most common types.
pub mod prelude {
    pub use codar_arch::{Device, GateDurations};
    pub use codar_circuit::{Circuit, Gate, GateKind};
    pub use codar_router::{CodarRouter, RoutedCircuit, RouterScratch, SabreRouter};
    pub use codar_sim::{NoiseModel, StateVector};
}
