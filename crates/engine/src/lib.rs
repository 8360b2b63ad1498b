//! # codar-engine — parallel suite-routing engine
//!
//! The CODAR evaluation is an embarrassingly parallel matrix: every
//! (circuit, device, router, noise-regime) cell routes and simulates
//! independently. This crate is the chassis that exploits that: a
//! [`SuiteRunner`] expands the job matrix ([`job::build_matrix`]),
//! fans it across a `std::thread` worker pool, and folds the per-job
//! [`RouteReport`]s into a [`Summary`] whose JSON/CSV serializations
//! are **byte-identical for any thread count** — timing lives in the
//! separate [`RunStats`]. Each job is one [`RouteWorker::compile`], the
//! compile step the daemon (`codar-service`) and the `codar` CLI run
//! too: route, verify, simulate (on the sim axis), score EPS.
//!
//! Every paper experiment is a run of this engine:
//!
//! | Experiment | Matrix |
//! |---|---|
//! | Fig. 8 speedups (`fig8`) | suite × 4 architectures × {codar, sabre} |
//! | Fig. 9 fidelity (`fig9`) | 7 algorithms × Q20 × {codar, sabre} × 2 noise regimes |
//! | Table I calibration (`table1`) | calibration set × Table-I devices × {codar, sabre} |
//! | Success probability (`success`) | suite × Q20 × {codar, sabre}, routed circuits kept |
//! | Ablations (`sweep`) | suite × device catalog × 4 CODAR [`RouterVariant`]s |
//! | Initial mappings (`mappings`) | suite × Q20 × 5 placement [`RouterVariant`]s |
//!
//! Key properties:
//!
//! * **Shared device caches** — each [`codar_arch::Device`] (and with
//!   it the all-pairs distance matrix it precomputes) is built once
//!   and shared behind an `Arc` by every job on that device.
//! * **Paper protocol** — CODAR and SABRE route each cell from the
//!   *same* reverse-traversal initial mapping, as in the paper's
//!   Fig. 8 setup (switchable via
//!   [`EngineConfig::shared_initial_mapping`] for mapping studies).
//! * **Built-in verification** — every routed circuit is checked for
//!   coupling compliance and semantic equivalence before it is
//!   reported; a job that fails the check is a [`JobFailure`].
//! * **Determinism** — job ids key all output; reports are sorted; and
//!   noise-simulation jobs derive their RNG seed from job identity,
//!   so scheduling order never leaks into the summary.
//!
//! # Examples
//!
//! Route a small subset of the suite on two devices with both routers
//! and print the Fig. 8-style speedups:
//!
//! ```
//! use codar_arch::Device;
//! use codar_benchmarks::suite::full_suite;
//! use codar_engine::{EngineConfig, SuiteRunner};
//!
//! let entries: Vec<_> = full_suite().into_iter().take(6).collect();
//! let result = SuiteRunner::new(EngineConfig::default())
//!     .device(Device::ibm_q16_melbourne())
//!     .device(Device::ibm_q20_tokyo())
//!     .entries(entries)
//!     .run();
//! assert!(result.failures.is_empty());
//! for (device, mean) in result.summary.mean_speedup_by_device() {
//!     println!("{device}: mean speedup {mean:.3}");
//! }
//! let json = result.summary.to_json(); // byte-stable across thread counts
//! assert!(json.contains("\"comparisons\""));
//! ```
//!
//! An ablation is the same run with custom router variants:
//!
//! ```
//! use codar_arch::Device;
//! use codar_benchmarks::suite::full_suite;
//! use codar_engine::{EngineConfig, RouterVariant, SuiteRunner};
//! use codar_router::CodarConfig;
//!
//! let entries: Vec<_> = full_suite().into_iter().take(3).collect();
//! let result = SuiteRunner::new(EngineConfig::default())
//!     .device(Device::ibm_q20_tokyo())
//!     .entries(entries)
//!     .variant(RouterVariant::codar("full", CodarConfig::default()))
//!     .variant(RouterVariant::codar(
//!         "no hfine",
//!         CodarConfig { enable_hfine: false, ..CodarConfig::default() },
//!     ))
//!     .run();
//! assert_eq!(result.summary.rows.len(), 6); // 3 circuits x 2 variants
//! ```

#![warn(missing_docs)]

pub mod job;
pub mod report;
pub mod runner;
pub mod worker;

pub use job::{
    CalKind, CalibrationSpec, EngineConfig, JobSpec, NoiseSpec, RouterKind, RouterVariant,
    DEFAULT_PORTFOLIO_ALPHA,
};
pub use report::{Comparison, FidelityStats, RouteReport, RouterTiming, RunStats, Summary};
pub use runner::{JobFailure, SuiteResult, SuiteRunner};
pub use worker::{CompileError, Compiled, Phase, PortfolioOutcome, RouteWorker};

// The simulation-axis selector, re-exported so engine callers (the
// experiment binaries, the service) need no direct codar-sim import.
pub use codar_sim::{Backend, SimBackend};
