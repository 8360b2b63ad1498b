//! maQAM — the Multi-architecture Adaptive Quantum Abstract Machine
//! (paper Sec. III).
//!
//! A [`Device`] bundles the *static structure* `As = (QH, G, M, τ, D)` of
//! the paper's Table II:
//!
//! * the coupling graph `M` ([`CouplingGraph`]) over physical qubits `QH`,
//! * the gate duration map `τ` ([`GateDurations`]),
//! * the all-pairs shortest distance map `D` ([`DistanceMatrix`]),
//! * optional 2-D coordinates ([`layout`]) used by CODAR's fine
//!   heuristic `Hfine`.
//!
//! Device presets reproduce the four architectures of the paper's
//! evaluation — IBM Q16 Melbourne, IBM Q20 Tokyo, the Enfield 6×6 grid
//! and Google's 54-qubit Sycamore — plus generic linear/ring/grid
//! generators, and the technology parameter presets of Table I.
//!
//! # Examples
//!
//! ```
//! use codar_arch::Device;
//!
//! let device = Device::ibm_q20_tokyo();
//! assert_eq!(device.num_qubits(), 20);
//! assert!(device.graph().are_adjacent(0, 1));
//! ```

pub mod calibration;
pub mod devices;
pub mod distance;
pub mod duration;
pub mod fidelity_model;
pub mod graph;
pub mod json;
pub mod layout;
pub mod technology;

pub use calibration::{CalibrationSnapshot, EdgeCalibration, QubitCalibration};
pub use devices::Device;
pub use distance::DistanceMatrix;
pub use duration::GateDurations;
pub use fidelity_model::{selection_score, FidelityModel};
pub use graph::{CouplingGraph, PhysQubit};
pub use layout::Layout2d;
pub use technology::{Technology, TechnologyParams};
