//! Reusable working memory for the router hot loops.
//!
//! Both routers rebuild the same small vectors (CF snapshots, physical
//! endpoint pairs, candidate SWAP edges, BFS frontiers) on every
//! scheduler tick. [`RouterScratch`] owns those buffers so a router —
//! or an engine worker routing thousands of circuits — pays the
//! allocations once and reuses the capacity forever after: the inner
//! loops are allocation-free in steady state.
//!
//! One scratch serves every router ([`crate::CodarRouter`],
//! [`crate::SabreRouter`], [`crate::GreedyRouter`]) and any sequence of
//! circuits and devices: buffers grow on demand and are cleared (or
//! stamp-invalidated) at each use, never between calls. Reusing a
//! scratch across calls cannot change results — the scratch-threading
//! property tests route with fresh and shared scratches and assert
//! gate-for-gate identical outputs.
//!
//! Portfolio routing leans on this directly: one worker routes the
//! *same* circuit under every member variant back to back — CODAR,
//! calibration-blended CODAR, greedy, SABRE — through one scratch, with
//! no fresh allocation per member. That interleaving (router A dirties
//! buffers router B then reads) is exactly the pattern
//! [`RouterScratch`]'s clear-or-stamp discipline makes safe, and
//! the `interleaved_router_kinds_share_one_scratch` test pins it.

use crate::front::FrontCounters;
use crate::heuristic::{PairDistIndex, SwapScorer};
use crate::sabre::SabreCounters;
use std::collections::VecDeque;

/// Reusable buffers for the router inner loops (see the module docs).
///
/// # Examples
///
/// ```
/// use codar_arch::Device;
/// use codar_circuit::Circuit;
/// use codar_router::{CodarRouter, Mapping, RouterScratch};
///
/// # fn main() -> Result<(), codar_router::RouteError> {
/// let device = Device::linear(3);
/// let router = CodarRouter::new(&device);
/// let mut scratch = RouterScratch::new();
/// for _ in 0..3 {
///     let mut c = Circuit::new(3);
///     c.cx(0, 2);
///     let routed = router.route(&c, Some(&Mapping::identity(3, 3)), &mut scratch)?;
///     assert_eq!(routed.swaps_inserted, 1);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct RouterScratch {
    /// Physical operands of the gate under consideration.
    pub(crate) phys: Vec<usize>,
    /// Snapshot of the CF set (so the front can be mutated while
    /// iterating).
    pub(crate) cf: Vec<usize>,
    /// Two-qubit subset of the CF set.
    pub(crate) cf_two_qubit: Vec<usize>,
    /// Physical endpoint pairs of the CF two-qubit gates.
    pub(crate) cf_pairs: Vec<(usize, usize)>,
    /// The non-adjacent (blocked) subset of `cf_pairs`.
    pub(crate) blocked: Vec<(usize, usize)>,
    /// Candidate SWAP edges, in first-seen order.
    pub(crate) candidates: Vec<(usize, usize)>,
    /// Stamp per edge id (`a * N + b`): equals `stamp` iff the edge is
    /// already in `candidates` this round — O(1) dedup, no clearing.
    pub(crate) edge_stamp: Vec<u64>,
    /// Stamp per gate id: equals `stamp` iff the gate was visited by
    /// this round's extended-set BFS.
    pub(crate) gate_stamp: Vec<u64>,
    /// Current round number for the stamp vectors.
    pub(crate) stamp: u64,
    /// Incremental `⟨Hbasic, Hfine⟩` scorer (CODAR).
    pub(crate) scorer: SwapScorer,
    /// Per-edge calibration penalty (`a * N + b`, normalized `a < b`),
    /// refilled from the attached snapshot at the top of each
    /// calibration-aware route call; only edge slots are ever read.
    pub(crate) cal_penalty: Vec<i64>,
    /// Executable subset of the front layer (SABRE).
    pub(crate) executable: Vec<usize>,
    /// Extended (lookahead) set (SABRE).
    pub(crate) extended: Vec<usize>,
    /// BFS frontier for the extended-set scan (SABRE).
    pub(crate) bfs_queue: VecDeque<usize>,
    /// Per-qubit decay factors (SABRE).
    pub(crate) decay: Vec<f64>,
    /// Physical endpoint pairs of the front gates (SABRE).
    pub(crate) front_pairs: Vec<(usize, usize)>,
    /// Physical endpoint pairs of the extended-set gates (SABRE).
    pub(crate) extended_pairs: Vec<(usize, usize)>,
    /// Incremental distance sums over `front_pairs` (SABRE).
    pub(crate) front_index: PairDistIndex,
    /// Incremental distance sums over `extended_pairs` (SABRE).
    pub(crate) extended_index: PairDistIndex,
    /// Commutative-front counters summed over CODAR routes.
    pub(crate) front_counters: FrontCounters,
    /// SABRE pass counters summed over placements and SABRE routes.
    pub(crate) sabre_counters: SabreCounters,
}

impl RouterScratch {
    /// An empty scratch; every buffer grows on first use.
    pub fn new() -> Self {
        RouterScratch::default()
    }

    /// The commutative-front work counters summed over every CODAR route
    /// through this scratch. They are deterministic: equal routes add
    /// equal counts, whatever the scratch saw before.
    pub fn front_counters(&self) -> FrontCounters {
        self.front_counters
    }

    /// The SABRE work counters summed over every reverse-traversal
    /// placement and SABRE route through this scratch: placement passes,
    /// SWAP rounds and candidates scored. Deterministic, like
    /// [`RouterScratch::front_counters`].
    pub fn sabre_counters(&self) -> SabreCounters {
        self.sabre_counters
    }

    /// Sizes the per-device buffers and starts a fresh stamp round.
    pub(crate) fn begin_device(&mut self, num_qubits: usize) {
        if self.edge_stamp.len() < num_qubits * num_qubits {
            self.edge_stamp.resize(num_qubits * num_qubits, 0);
        }
        if self.decay.len() < num_qubits {
            self.decay.resize(num_qubits, 1.0);
        }
    }

    /// Sizes the calibration-penalty table (called only by
    /// calibration-aware routes; the table is then refilled for every
    /// edge of the current device, so stale entries are never read).
    pub(crate) fn begin_calibration(&mut self, num_qubits: usize) {
        if self.cal_penalty.len() < num_qubits * num_qubits {
            self.cal_penalty.resize(num_qubits * num_qubits, 0);
        }
    }

    /// Sizes the per-circuit buffers.
    pub(crate) fn begin_circuit(&mut self, num_gates: usize) {
        if self.gate_stamp.len() < num_gates {
            self.gate_stamp.resize(num_gates, 0);
        }
    }

    /// Starts a new stamp round, making every `edge_stamp`/`gate_stamp`
    /// entry read as "unseen" without touching the vectors.
    #[inline]
    pub(crate) fn next_stamp(&mut self) -> u64 {
        self.stamp += 1;
        self.stamp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_invalidate_without_clearing() {
        let mut scratch = RouterScratch::new();
        scratch.begin_device(4);
        let s1 = scratch.next_stamp();
        scratch.edge_stamp[5] = s1;
        assert_eq!(scratch.edge_stamp[5], s1);
        let s2 = scratch.next_stamp();
        assert_ne!(scratch.edge_stamp[5], s2, "old stamp reads as unseen");
    }

    /// The portfolio access pattern: every router kind (including a
    /// calibration-aware route, which fills `cal_penalty`) interleaved
    /// through ONE scratch must produce the same circuits as fresh
    /// scratches per call — no router may read another's leftovers.
    #[test]
    fn interleaved_router_kinds_share_one_scratch() {
        use crate::{CodarRouter, GreedyRouter, Mapping, SabreRouter};
        use codar_arch::{CalibrationSnapshot, Device};
        use codar_circuit::Circuit;

        let device = Device::ibm_q20_tokyo();
        let snapshot = CalibrationSnapshot::synthetic(&device, 11).drifted(1);
        let mut circuit = Circuit::new(6);
        for i in 0..5 {
            circuit.h(i);
            circuit.cx(i, i + 1);
        }
        circuit.cx(0, 5);
        circuit.cx(2, 4);
        let initial = Mapping::identity(6, device.num_qubits());

        let mut shared = RouterScratch::new();
        for _round in 0..2 {
            let plain = CodarRouter::new(&device)
                .route(&circuit, Some(&initial), &mut shared)
                .unwrap();
            let cal = CodarRouter::new(&device)
                .with_snapshot(&snapshot)
                .route(&circuit, Some(&initial), &mut shared)
                .unwrap();
            let sabre = SabreRouter::new(&device)
                .route(&circuit, Some(&initial), &mut shared)
                .unwrap();
            let greedy = GreedyRouter::new(&device)
                .route(&circuit, Some(&initial), &mut shared)
                .unwrap();
            // Each result equals a fresh-scratch route of the same call.
            let fresh_plain = CodarRouter::new(&device)
                .route(&circuit, Some(&initial), &mut RouterScratch::new())
                .unwrap();
            assert_eq!(plain.circuit.gates(), fresh_plain.circuit.gates());
            let fresh_cal = CodarRouter::new(&device)
                .with_snapshot(&snapshot)
                .route(&circuit, Some(&initial), &mut RouterScratch::new())
                .unwrap();
            assert_eq!(cal.circuit.gates(), fresh_cal.circuit.gates());
            let fresh_sabre = SabreRouter::new(&device)
                .route(&circuit, Some(&initial), &mut RouterScratch::new())
                .unwrap();
            assert_eq!(sabre.circuit.gates(), fresh_sabre.circuit.gates());
            let fresh_greedy = GreedyRouter::new(&device)
                .route(&circuit, Some(&initial), &mut RouterScratch::new())
                .unwrap();
            assert_eq!(greedy.circuit.gates(), fresh_greedy.circuit.gates());
        }
    }

    #[test]
    fn buffers_grow_monotonically() {
        let mut scratch = RouterScratch::new();
        scratch.begin_device(3);
        scratch.begin_device(7);
        assert_eq!(scratch.edge_stamp.len(), 49);
        assert_eq!(scratch.decay.len(), 7);
        scratch.begin_device(2); // never shrinks
        assert_eq!(scratch.edge_stamp.len(), 49);
        scratch.begin_circuit(10);
        assert!(scratch.gate_stamp.len() >= 10);
    }
}
