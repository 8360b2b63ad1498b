//! CODAR — COntext-sensitive and Duration-Aware Remapping (paper Sec. IV)
//! — and the SABRE baseline it is evaluated against.
//!
//! The qubit mapping problem: logical circuits apply two-qubit gates
//! between arbitrary qubit pairs, but NISQ hardware only couples certain
//! physical pairs. A *remapper* inserts SWAPs (and tracks the evolving
//! logical→physical mapping) so every two-qubit gate lands on a coupled
//! pair. CODAR additionally knows that
//!
//! 1. gates occupy qubits for *different durations* (a CX takes ~2× a
//!    single-qubit gate; a SWAP 6×), tracked by per-qubit **locks**
//!    ([`locks`]), and
//! 2. gates that *commute* with every predecessor can be considered
//!    logically executable, enlarging the lookahead window
//!    ([`front`], the **commutative front**),
//!
//! which lets it pick SWAPs that start earlier and overlap with the
//! program context, minimizing the *weighted depth* (execution time).
//!
//! # Modules
//!
//! * [`mapping`] — the dynamic logical↔physical mapping `π`,
//! * [`locks`] — qubit locks `tend` (Sec. IV-A),
//! * [`front`] — commutative-front maintenance (Sec. IV-B),
//! * [`heuristic`] — the SWAP priority `⟨Hbasic, Hfine⟩` (Sec. IV-D)
//!   and the calibration blend backing the `codar-cal` variant,
//! * [`codar`] — the CODAR event loop (Sec. IV-C, Fig. 4),
//! * [`sabre`] — the SABRE baseline (Li et al., ASPLOS 2019),
//! * [`scratch`] — reusable buffers keeping the router hot loops
//!   allocation-free in steady state,
//! * [`verify`] — routed-circuit validity and equivalence checks,
//! * [`result`] — the [`RoutedCircuit`] output type.
//!
//! # Examples
//!
//! ```
//! use codar_arch::Device;
//! use codar_circuit::Circuit;
//! use codar_router::{CodarRouter, RouterScratch, SabreRouter};
//!
//! # fn main() -> Result<(), codar_router::RouteError> {
//! let mut qft4 = Circuit::new(4);
//! for i in 0..4 {
//!     qft4.h(i);
//!     for j in i + 1..4 {
//!         qft4.cu1(std::f64::consts::PI / (1 << (j - i)) as f64, j, i);
//!     }
//! }
//! let device = Device::linear(4);
//! // `None`: each router builds its own initial placement. One scratch
//! // serves both calls.
//! let mut scratch = RouterScratch::new();
//! let codar = CodarRouter::new(&device).route(&qft4, None, &mut scratch)?;
//! let sabre = SabreRouter::new(&device).route(&qft4, None, &mut scratch)?;
//! // Both results satisfy the coupling constraints...
//! codar_router::verify::check_coupling(&codar.circuit, &device)?;
//! codar_router::verify::check_coupling(&sabre.circuit, &device)?;
//! // ...and CODAR's schedule is no slower here.
//! assert!(codar.weighted_depth <= sabre.weighted_depth);
//! # Ok(())
//! # }
//! ```

pub mod codar;
pub mod error;
pub mod front;
pub mod greedy;
pub mod heuristic;
pub mod locks;
pub mod mapping;
pub mod result;
pub mod sabre;
pub mod scratch;
pub mod verify;

pub use codar::{CodarConfig, CodarRouter};
pub use error::RouteError;
pub use greedy::GreedyRouter;
pub use mapping::{InitialMapping, Mapping};
pub use result::RoutedCircuit;
pub use sabre::{SabreConfig, SabreRouter};
pub use scratch::RouterScratch;
