//! # codar-service — the online routing daemon
//!
//! Everything else in this workspace runs CODAR as an offline batch
//! job; this crate serves it: `coded` accepts OpenQASM circuits over a
//! line-delimited JSON protocol (TCP, or NDJSON on stdin so tests and
//! CI need no port), routes them with the paper's routers on a
//! fixed-size worker pool, **verifies** every result before replying,
//! and memoizes finished responses in a sharded LRU cache — real
//! workloads repeat circuits heavily, and a content-addressed cache
//! turns those repeats into O(1) lookups. `loadgen` is the matching
//! deterministic client: it replays a seeded circuit mix and reports
//! latency percentiles plus the cache hit rate.
//!
//! Module map (the request lifecycle, in order):
//!
//! * [`protocol`] — request parsing and response bodies (NDJSON),
//! * [`cache`] — the sharded LRU result cache and its FNV keying,
//! * [`queue`] — the bounded request queue (backpressure, never
//!   unbounded memory),
//! * [`worker`] — the routing pool (per-thread scratch, verification),
//! * [`server`] — [`Service`]: lifecycle wiring, stdin/TCP front ends,
//! * [`proxy`] — the sharded front tier: rendezvous-hashed fan-out
//!   over N `coded` backends with health probes, bounded retry and
//!   failover (`codar-proxy`),
//! * [`faults`] — deterministic transport-fault injection: seeded
//!   [`FaultPlan`]s consumed by `coded --fault-plan` and the
//!   in-process [`ShardFleet`] harness,
//! * [`metrics`] — daemon counters, latency histograms and summaries,
//! * [`trace`] — structured request tracing: span trees, per-thread
//!   rings, the NDJSON trace log (`--trace-log`, the `trace` verb and
//!   the `codar-trace` merge tool),
//! * [`loadgen`] — the deterministic load generator,
//! * [`soak`] — seeded long-run mixed traffic under the fuzz
//!   invariants (`loadgen --soak`),
//! * [`fuzz`] — grammar-aware corpus generation and the protocol
//!   invariant checker (the `codar-fuzz` bin),
//! * [`json`] — the workspace's one JSON reader and string escaper,
//!   re-exported from `codar_arch::json`.
//!
//! # Determinism contract
//!
//! Route responses are **cache-transparent**: for the same request
//! stream, a cache-enabled daemon, a cache-disabled daemon and a fresh
//! rerun all emit byte-identical route response lines (asserted by
//! property tests and the e2e gate). Only `stats` responses reveal the
//! cache.
//!
//! # Examples
//!
//! In-process round trip (exactly what the daemon does per line):
//!
//! ```
//! use codar_service::{Service, ServiceConfig};
//!
//! let service = Service::start(ServiceConfig::default());
//! let response = service.handle_line(
//!     "{\"type\":\"route\",\"device\":\"q20\",\"circuit\":\
//!      \"OPENQASM 2.0; include \\\"qelib1.inc\\\"; qreg q[3]; h q[0]; \
//!      cx q[0], q[2];\"}",
//! );
//! assert!(response.contains("\"status\":\"ok\""));
//! assert!(response.contains("\"verified\":true"));
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod faults;
pub mod fuzz;
pub use codar_arch::json;
pub mod loadgen;
pub mod metrics;
pub mod protocol;
pub mod proxy;
pub mod queue;
pub mod server;
pub mod soak;
pub mod trace;
pub mod worker;

pub use cache::{CacheStats, ShardedCache};
pub use faults::{FaultKind, FaultPlan, ShardFleet};
pub use loadgen::{LoadgenConfig, LoadgenReport, TcpTransport, Transport};
pub use metrics::{LatencySummary, LATENCY_SCHEMA_VERSION};
pub use protocol::{Envelope, ParseRejection, Request};
pub use proxy::{Proxy, ProxyConfig};
pub use server::{Service, ServiceConfig};
pub use soak::{SoakConfig, SoakError, SoakReport};
pub use trace::{normalize_line, PhaseSample, TraceCtx, TraceRecorder};

/// Schema version of the deterministic loadgen summary JSON. Bump on
/// any shape change.
pub const LOADGEN_SUMMARY_VERSION: u32 = 1;
