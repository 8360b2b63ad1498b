//! The SABRE baseline router (Li, Ding, Xie — "Tackling the Qubit
//! Mapping Problem for NISQ-Era Quantum Devices", ASPLOS 2019).
//!
//! SABRE is the best-known heuristic the paper compares against (Sec. V).
//! It is duration-unaware: it maintains a data-dependence *front layer*
//! `F`, executes every executable gate in `F`, and otherwise applies the
//! SWAP minimizing
//!
//! ```text
//! H = 1/|F| Σ_{g∈F} D[π(g.q1)][π(g.q2)]
//!   + W · 1/|E| Σ_{g∈E} D[π(g.q1)][π(g.q2)]
//! ```
//!
//! scaled by a per-qubit *decay* factor that discourages consecutive
//! SWAPs on the same qubits (improving parallelism). `E` is a bounded
//! *extended set* of lookahead successors. The *reverse traversal*
//! technique runs the router forward and backward to derive a good
//! initial mapping; the paper (and this reproduction) feeds the same
//! initial mapping to both SABRE and CODAR for a fair comparison.

use crate::codar::initial_placement;
use crate::error::RouteError;
use crate::mapping::{InitialMapping, Mapping};
use crate::result::RoutedCircuit;
use crate::scratch::RouterScratch;
use codar_arch::Device;
use codar_circuit::dag::{Direction, FrontTracker};
use codar_circuit::schedule::Schedule;
use codar_circuit::{Circuit, CircuitDag, GateKind};

/// Tuning knobs for [`SabreRouter`], defaulting to the published values.
#[derive(Debug, Clone)]
pub struct SabreConfig {
    /// Weight `W` of the extended set in the cost function.
    pub extended_set_weight: f64,
    /// Maximum size of the extended set `E`.
    pub extended_set_size: usize,
    /// Additive decay increment per SWAP on a qubit.
    pub decay_delta: f64,
    /// Number of SWAP selections after which decay factors reset.
    pub decay_reset_interval: usize,
    /// Seed for the reverse-traversal initial mapping.
    pub seed: u64,
}

impl Default for SabreConfig {
    fn default() -> Self {
        SabreConfig {
            extended_set_weight: 0.5,
            extended_set_size: 20,
            decay_delta: 0.001,
            decay_reset_interval: 5,
            seed: 0,
        }
    }
}

/// The SABRE router bound to a device.
///
/// # Examples
///
/// ```
/// use codar_arch::Device;
/// use codar_circuit::Circuit;
/// use codar_router::{Mapping, RouterScratch, SabreRouter};
///
/// # fn main() -> Result<(), codar_router::RouteError> {
/// let mut c = Circuit::new(3);
/// c.cx(0, 2);
/// let device = Device::linear(3);
/// let identity = Mapping::identity(3, 3);
/// let routed =
///     SabreRouter::new(&device).route(&c, Some(&identity), &mut RouterScratch::new())?;
/// assert!(routed.swaps_inserted >= 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SabreRouter<'d> {
    device: &'d Device,
    config: SabreConfig,
}

impl<'d> SabreRouter<'d> {
    /// Creates a router with the published default parameters.
    pub fn new(device: &'d Device) -> Self {
        SabreRouter {
            device,
            config: SabreConfig::default(),
        }
    }

    /// Creates a router with an explicit configuration.
    pub fn with_config(device: &'d Device, config: SabreConfig) -> Self {
        SabreRouter { device, config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SabreConfig {
        &self.config
    }

    /// Routes `circuit`, from `initial` when given and otherwise from a
    /// reverse-traversal placement seeded with [`SabreConfig::seed`],
    /// reusing `scratch` (see [`crate::CodarRouter::route`]).
    ///
    /// # Errors
    ///
    /// As for [`crate::CodarRouter::route`].
    pub fn route(
        &self,
        circuit: &Circuit,
        initial: Option<&Mapping>,
        scratch: &mut RouterScratch,
    ) -> Result<RoutedCircuit, RouteError> {
        let strategy = InitialMapping::SabreReverseTraversal {
            seed: self.config.seed,
        };
        let initial = initial_placement(circuit, self.device, initial, &strategy, scratch)?;
        let dag = CircuitDag::new(circuit);
        let mut out = Emitted {
            circuit: Circuit::with_bits(self.device.num_qubits(), circuit.num_bits()),
            swaps: Vec::new(),
        };
        let final_mapping = self.route_core(
            circuit,
            &dag,
            Direction::Forward,
            initial.clone(),
            scratch,
            Some(&mut out),
        )?;
        let tau = self.device.durations();
        let schedule = Schedule::asap(&out.circuit, |g| tau.of(g));
        Ok(RoutedCircuit {
            weighted_depth: schedule.makespan,
            start_times: schedule.start,
            circuit: out.circuit,
            swaps_inserted: out.swaps.len(),
            inserted_swap_indices: out.swaps,
            initial_mapping: initial,
            final_mapping,
            router: "sabre",
        })
    }

    /// One SABRE pass over `dag`, walked in `direction` from `pi`.
    /// Returns the final mapping; when `out` is given, also writes the
    /// physical circuit and the output indices of the inserted SWAPs
    /// into it. The placement passes leave it out.
    ///
    /// The pass reuses `scratch` for every per-tick collection
    /// (executable set, extended-set BFS, candidate edges, endpoint
    /// pairs) and scores each candidate once through the incremental
    /// [`crate::heuristic::PairDistIndex`] sums. The distance totals are
    /// exact integers, so every score is bit-identical to a
    /// per-candidate re-summation, and the SWAP is the least candidate
    /// under the `(score, edge)` order.
    fn route_core(
        &self,
        circuit: &Circuit,
        dag: &CircuitDag,
        direction: Direction,
        mut pi: Mapping,
        scratch: &mut RouterScratch,
        mut out: Option<&mut Emitted>,
    ) -> Result<Mapping, RouteError> {
        let config = &self.config;
        let graph = self.device.graph();
        let dist = self.device.distances();
        let num_qubits = self.device.num_qubits();
        let mut tracker = FrontTracker::new(dag, direction);
        scratch.begin_device(num_qubits);
        scratch.begin_circuit(circuit.len());
        scratch.decay[..num_qubits].fill(1.0);
        let mut swaps = 0usize;
        let mut swaps_since_reset = 0usize;
        // Safety valve: SABRE provably terminates with decay in practice,
        // but we bound the run to fail loudly instead of hanging.
        let budget = 1000 + circuit.len() * (dist.diameter().max(1) as usize) * 8;

        while !tracker.is_done() {
            // Execute every executable gate in the front layer.
            let mut executed = false;
            loop {
                scratch.executable.clear();
                for &g in tracker.front() {
                    let gate = &circuit.gates()[g];
                    let ok = match gate.kind {
                        GateKind::Barrier => true,
                        _ if gate.qubits.len() == 2 => graph
                            .are_adjacent(pi.phys_of(gate.qubits[0]), pi.phys_of(gate.qubits[1])),
                        _ => true,
                    };
                    if ok {
                        scratch.executable.push(g);
                    }
                }
                if scratch.executable.is_empty() {
                    break;
                }
                for &g in &scratch.executable {
                    if let Some(out) = out.as_deref_mut() {
                        let mut mapped = circuit.gates()[g].clone();
                        for q in mapped.qubits.iter_mut() {
                            *q = pi.phys_of(*q);
                        }
                        out.circuit.push(mapped);
                    }
                    tracker.resolve(g, dag);
                }
                executed = true;
            }
            if tracker.is_done() {
                break;
            }
            if executed {
                // Gate progress resets the decay window (as in the paper's
                // reference implementation).
                scratch.decay[..num_qubits].fill(1.0);
                swaps_since_reset = 0;
            }

            // All front gates are blocked two-qubit gates now. Collect the
            // extended set: successors of the front, breadth-first, bounded.
            let front = tracker.front();
            let stamp = scratch.next_stamp();
            scratch.extended.clear();
            scratch.bfs_queue.clear();
            for &g in front {
                scratch.gate_stamp[g] = stamp;
                scratch.bfs_queue.push_back(g);
            }
            while let Some(g) = scratch.bfs_queue.pop_front() {
                if scratch.extended.len() >= config.extended_set_size {
                    break;
                }
                for &s in dag.successors_in(g, direction) {
                    let s = s as usize;
                    if scratch.gate_stamp[s] != stamp {
                        scratch.gate_stamp[s] = stamp;
                        if circuit.gates()[s].qubits.len() == 2 {
                            scratch.extended.push(s);
                        }
                        scratch.bfs_queue.push_back(s);
                    }
                }
            }

            // Candidate SWAPs: edges touching any front gate's endpoints,
            // stamp-deduplicated in O(1) each.
            let stamp = scratch.next_stamp();
            scratch.candidates.clear();
            for &g in front {
                for &q in &circuit.gates()[g].qubits {
                    let p = pi.phys_of(q);
                    for &nb in graph.neighbors(p) {
                        let edge = (p.min(nb), p.max(nb));
                        let id = edge.0 * num_qubits + edge.1;
                        if scratch.edge_stamp[id] != stamp {
                            scratch.edge_stamp[id] = stamp;
                            scratch.candidates.push(edge);
                        }
                    }
                }
            }
            debug_assert!(
                !scratch.candidates.is_empty(),
                "front gates always touch edges"
            );

            // Physical endpoint pairs of the front and extended gates,
            // indexed once; each candidate then pays only for the pairs it
            // actually moves.
            scratch.front_pairs.clear();
            for &g in front {
                let q = &circuit.gates()[g].qubits;
                if q.len() == 2 {
                    scratch
                        .front_pairs
                        .push((pi.phys_of(q[0]), pi.phys_of(q[1])));
                }
            }
            scratch.extended_pairs.clear();
            for &g in &scratch.extended {
                let q = &circuit.gates()[g].qubits;
                scratch
                    .extended_pairs
                    .push((pi.phys_of(q[0]), pi.phys_of(q[1])));
            }
            scratch
                .front_index
                .begin_round(&scratch.front_pairs, dist, num_qubits);
            scratch
                .extended_index
                .begin_round(&scratch.extended_pairs, dist, num_qubits);

            let front_len = front.len().max(1) as f64;
            let extended_len = scratch.extended.len();
            let score = |edge: (usize, usize)| -> f64 {
                let f_sum = scratch
                    .front_index
                    .sum_through(edge, &scratch.front_pairs, dist);
                let f_term = f_sum as f64 / front_len;
                let e_term: f64 = if extended_len == 0 {
                    0.0
                } else {
                    let e_sum =
                        scratch
                            .extended_index
                            .sum_through(edge, &scratch.extended_pairs, dist);
                    config.extended_set_weight * e_sum as f64 / extended_len as f64
                };
                let decay_factor = scratch.decay[edge.0].max(scratch.decay[edge.1]);
                decay_factor * (f_term + e_term)
            };

            let (&first, rest) = scratch
                .candidates
                .split_first()
                .expect("candidates is non-empty");
            let mut best = first;
            let mut best_score = score(best);
            for &edge in rest {
                let edge_score = score(edge);
                let order = best_score
                    .partial_cmp(&edge_score)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| best.cmp(&edge));
                if order == std::cmp::Ordering::Greater {
                    best = edge;
                    best_score = edge_score;
                }
            }
            scratch.sabre_counters.swap_rounds += 1;
            scratch.sabre_counters.candidates_scored += scratch.candidates.len() as u64;

            if let Some(out) = out.as_deref_mut() {
                out.swaps.push(out.circuit.len());
                out.circuit
                    .add(GateKind::Swap, vec![best.0, best.1], vec![]);
            }
            swaps += 1;
            pi.apply_swap(best.0, best.1);
            scratch.decay[best.0] += config.decay_delta;
            scratch.decay[best.1] += config.decay_delta;
            swaps_since_reset += 1;
            if swaps_since_reset >= config.decay_reset_interval {
                scratch.decay[..num_qubits].fill(1.0);
                swaps_since_reset = 0;
            }
            if swaps > budget {
                // A disconnected pair is the only way to make no progress.
                let g = tracker.front()[0];
                let q = &circuit.gates()[g].qubits;
                return Err(RouteError::Disconnected {
                    a: pi.phys_of(q[0]),
                    b: pi.phys_of(q[1]),
                });
            }
        }
        Ok(pi)
    }
}

/// What an emitting [`SabreRouter::route_core`] writes: the physical circuit
/// and the output indices of its inserted SWAPs.
struct Emitted {
    circuit: Circuit,
    swaps: Vec<usize>,
}

/// Deterministic work counters of SABRE passes. They depend only on the
/// circuit, the device, the configuration and the starting mapping.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SabreCounters {
    /// Passes run to build a reverse-traversal placement.
    pub placement_passes: u64,
    /// SWAP selections, in placement and routing passes alike.
    pub swap_rounds: u64,
    /// Candidate SWAPs scored over those selections.
    pub candidates_scored: u64,
}

/// SABRE's reverse-traversal initial mapping (shared by both routers in
/// the experiments, as in the paper).
///
/// Routes the circuit forward from a seeded random placement, then
/// backward from the resulting final mapping, and returns that pass's
/// final mapping: it reflects where the *early* gates of the forward
/// circuit want their qubits. Both passes walk one DAG and emit no
/// circuit; the backward one visits the gates exactly as a forward pass
/// over the reversed circuit would.
///
/// Falls back to the identity mapping where a pass fails (a gate
/// across a disconnected device). Both passes reuse `scratch`.
pub fn reverse_traversal_mapping(
    circuit: &Circuit,
    device: &Device,
    seed: u64,
    scratch: &mut RouterScratch,
) -> Mapping {
    let router = SabreRouter::with_config(
        device,
        SabreConfig {
            seed,
            ..SabreConfig::default()
        },
    );
    let dag = CircuitDag::new(circuit);
    let mut pi = InitialMapping::Random { seed }.build(circuit, device, scratch);
    for direction in [Direction::Forward, Direction::Backward] {
        scratch.sabre_counters.placement_passes += 1;
        pi = match router.route_core(circuit, &dag, direction, pi, scratch, None) {
            Ok(after) => after,
            Err(_) => return Mapping::identity(circuit.num_qubits(), device.num_qubits()),
        };
    }
    pi
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{check_coupling, check_equivalence};
    use codar_arch::Device;

    fn route_identity(device: &Device, circuit: &Circuit) -> RoutedCircuit {
        route_identity_through(device, circuit, &mut RouterScratch::new())
    }

    fn route_identity_through(
        device: &Device,
        circuit: &Circuit,
        scratch: &mut RouterScratch,
    ) -> RoutedCircuit {
        let identity = Mapping::identity(circuit.num_qubits(), device.num_qubits());
        SabreRouter::new(device)
            .route(circuit, Some(&identity), scratch)
            .unwrap()
    }

    #[test]
    fn adjacent_gates_pass_through() {
        let device = Device::linear(3);
        let mut c = Circuit::new(3);
        c.h(0);
        c.cx(0, 1);
        c.cx(1, 2);
        let r = route_identity(&device, &c);
        assert_eq!(r.swaps_inserted, 0);
        check_coupling(&r.circuit, &device).unwrap();
    }

    #[test]
    fn distant_gate_gets_routed() {
        let device = Device::linear(5);
        let mut c = Circuit::new(5);
        c.cx(0, 4);
        let r = route_identity(&device, &c);
        assert!(r.swaps_inserted >= 3);
        check_coupling(&r.circuit, &device).unwrap();
        check_equivalence(&c, &r).unwrap();
    }

    /// From the identity, a 0–4 gate on a line takes three SWAP rounds
    /// over nine candidates in all, each scored once. From its own
    /// placement, the route counts the placement's two passes and their
    /// rounds too.
    #[test]
    fn sabre_counters_count_each_candidate_once() {
        let device = Device::linear(5);
        let mut c = Circuit::new(5);
        c.cx(0, 4);
        let mut scratch = RouterScratch::new();
        route_identity_through(&device, &c, &mut scratch);
        assert_eq!(
            scratch.sabre_counters(),
            SabreCounters {
                placement_passes: 0,
                swap_rounds: 3,
                candidates_scored: 9,
            }
        );
        let mut scratch = RouterScratch::new();
        SabreRouter::new(&device)
            .route(&c, None, &mut scratch)
            .unwrap();
        assert_eq!(
            scratch.sabre_counters(),
            SabreCounters {
                placement_passes: 2,
                swap_rounds: 2,
                candidates_scored: 7,
            }
        );
    }

    #[test]
    fn preserves_gate_order_semantics() {
        let device = Device::grid(2, 3);
        let mut c = Circuit::new(5);
        c.h(0);
        c.cx(0, 4);
        c.cx(4, 2);
        c.t(2);
        c.cx(2, 0);
        c.measure(0, 0);
        let r = route_identity(&device, &c);
        check_coupling(&r.circuit, &device).unwrap();
        check_equivalence(&c, &r).unwrap();
    }

    #[test]
    fn reverse_traversal_is_deterministic() {
        let device = Device::ibm_q20_tokyo();
        let mut c = Circuit::new(6);
        for i in 0..5 {
            c.cx(i, i + 1);
        }
        c.cx(0, 5);
        let a = reverse_traversal_mapping(&c, &device, 42, &mut RouterScratch::new());
        let b = reverse_traversal_mapping(&c, &device, 42, &mut RouterScratch::new());
        assert_eq!(a, b);
    }

    #[test]
    fn reverse_traversal_differs_by_seed() {
        let device = Device::ibm_q20_tokyo();
        let mut c = Circuit::new(6);
        for i in 0..5 {
            c.cx(i, i + 1);
        }
        let a = reverse_traversal_mapping(&c, &device, 1, &mut RouterScratch::new());
        let b = reverse_traversal_mapping(&c, &device, 2, &mut RouterScratch::new());
        // Different seeds usually give different placements; at minimum
        // both are valid injective mappings.
        let check = |m: &Mapping| {
            let mut seen = std::collections::BTreeSet::new();
            for l in 0..6 {
                assert!(seen.insert(m.phys_of(l)));
            }
        };
        check(&a);
        check(&b);
    }

    #[test]
    fn qft_on_tokyo_is_compliant() {
        let device = Device::ibm_q20_tokyo();
        let mut c = Circuit::new(8);
        for i in 0..8usize {
            c.h(i);
            for j in i + 1..8 {
                c.cu1(0.5, j, i);
            }
        }
        let r = SabreRouter::new(&device)
            .route(&c, None, &mut RouterScratch::new())
            .unwrap();
        check_coupling(&r.circuit, &device).unwrap();
        check_equivalence(&c, &r).unwrap();
    }

    #[test]
    fn barrier_handled() {
        let device = Device::linear(3);
        let mut c = Circuit::new(3);
        c.h(0);
        c.barrier(vec![0, 1, 2]);
        c.cx(0, 2);
        let r = route_identity(&device, &c);
        check_coupling(&r.circuit, &device).unwrap();
        assert_eq!(r.circuit.count_kind(GateKind::Barrier), 1);
    }

    #[test]
    fn disconnected_is_error() {
        let graph = codar_arch::CouplingGraph::new(4, &[(0, 1), (2, 3)]);
        let device = Device::from_graph("split", graph);
        let mut c = Circuit::new(4);
        c.cx(0, 3);
        let err = SabreRouter::new(&device)
            .route(
                &c,
                Some(&Mapping::identity(4, 4)),
                &mut RouterScratch::new(),
            )
            .unwrap_err();
        assert!(matches!(err, RouteError::Disconnected { .. }));
    }

    #[test]
    fn weighted_depth_consistent_with_schedule() {
        let device = Device::linear(4);
        let mut c = Circuit::new(4);
        c.cx(0, 3);
        c.t(1);
        let r = route_identity(&device, &c);
        let tau = device.durations().clone();
        assert_eq!(
            r.weighted_depth,
            codar_circuit::weighted_depth(&r.circuit, |g| tau.of(g))
        );
    }
}
