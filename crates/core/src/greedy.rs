//! A naive greedy baseline router, for calibration.
//!
//! Processes gates strictly in program order; whenever a two-qubit gate
//! lands on uncoupled physical qubits, it immediately walks one operand
//! toward the other along a shortest path, inserting SWAPs — no
//! lookahead, no context, no duration model. This is the "obvious"
//! router the heuristic literature improves on; having it in-tree
//! calibrates how much of CODAR's/SABRE's win comes from lookahead at
//! all (see the `sweep` ablations for CODAR's own mechanisms).

use crate::codar::initial_placement;
use crate::error::RouteError;
use crate::mapping::{InitialMapping, Mapping};
use crate::result::RoutedCircuit;
use crate::scratch::RouterScratch;
use codar_arch::Device;
use codar_circuit::schedule::Schedule;
use codar_circuit::{Circuit, GateKind};

/// The greedy shortest-path router.
///
/// # Examples
///
/// ```
/// use codar_arch::Device;
/// use codar_circuit::Circuit;
/// use codar_router::{greedy::GreedyRouter, Mapping, RouterScratch};
///
/// # fn main() -> Result<(), codar_router::RouteError> {
/// let mut c = Circuit::new(4);
/// c.cx(0, 3);
/// let device = Device::linear(4);
/// let identity = Mapping::identity(4, 4);
/// let routed =
///     GreedyRouter::new(&device).route(&c, Some(&identity), &mut RouterScratch::new())?;
/// assert_eq!(routed.swaps_inserted, 2); // walks q0 next to q3
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GreedyRouter<'d> {
    device: &'d Device,
    initial_mapping: InitialMapping,
}

impl<'d> GreedyRouter<'d> {
    /// Creates a greedy router (identity initial mapping by default —
    /// the naive baseline has no mapping search either).
    pub fn new(device: &'d Device) -> Self {
        GreedyRouter {
            device,
            initial_mapping: InitialMapping::Identity,
        }
    }

    /// Overrides the initial mapping strategy.
    pub fn with_initial_mapping(mut self, initial_mapping: InitialMapping) -> Self {
        self.initial_mapping = initial_mapping;
        self
    }

    /// Routes `circuit`, from `initial` when given and otherwise from
    /// the configured initial-mapping strategy (built through
    /// `scratch`; the greedy walk itself needs no buffers).
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
        let initial = initial_placement(
            circuit,
            self.device,
            initial,
            &self.initial_mapping,
            scratch,
        )?;
        let graph = self.device.graph();
        let dist = self.device.distances();
        let mut pi = initial.clone();
        let mut out = Circuit::with_bits(self.device.num_qubits(), circuit.num_bits());
        let mut inserted_swaps: Vec<usize> = Vec::new();
        for gate in circuit.gates() {
            if gate.qubits.len() == 2 && gate.kind != GateKind::Barrier {
                let (a, b) = (pi.phys_of(gate.qubits[0]), pi.phys_of(gate.qubits[1]));
                if !dist.connected(a, b) {
                    return Err(RouteError::Disconnected { a, b });
                }
                // Walk `a` to a neighbor of `b` along one shortest path.
                let path = dist
                    .shortest_path(graph, a, b)
                    .expect("connectivity checked above");
                for window in path.windows(2).take(path.len().saturating_sub(2)) {
                    let (x, y) = (window[0], window[1]);
                    inserted_swaps.push(out.len());
                    out.add(GateKind::Swap, vec![x, y], vec![]);
                    pi.apply_swap(x, y);
                }
            }
            let mut mapped = gate.clone();
            for q in mapped.qubits.iter_mut() {
                *q = pi.phys_of(*q);
            }
            out.push(mapped);
        }
        let tau = self.device.durations();
        let schedule = Schedule::asap(&out, |g| tau.of(g));
        Ok(RoutedCircuit {
            weighted_depth: schedule.makespan,
            start_times: schedule.start,
            circuit: out,
            swaps_inserted: inserted_swaps.len(),
            inserted_swap_indices: inserted_swaps,
            initial_mapping: initial,
            final_mapping: pi,
            router: "greedy",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{check_coupling, check_equivalence};
    use crate::CodarRouter;

    #[test]
    fn adjacent_gates_untouched() {
        let device = Device::linear(3);
        let mut c = Circuit::new(3);
        c.cx(0, 1);
        c.cx(1, 2);
        let r = GreedyRouter::new(&device)
            .route(&c, None, &mut RouterScratch::new())
            .expect("fits");
        assert_eq!(r.swaps_inserted, 0);
        check_coupling(&r.circuit, &device).expect("coupling");
    }

    #[test]
    fn walks_shortest_path() {
        let device = Device::linear(5);
        let mut c = Circuit::new(5);
        c.cx(0, 4);
        let r = GreedyRouter::new(&device)
            .route(&c, None, &mut RouterScratch::new())
            .expect("fits");
        assert_eq!(r.swaps_inserted, 3);
        check_coupling(&r.circuit, &device).expect("coupling");
        check_equivalence(&c, &r).expect("equivalent");
    }

    #[test]
    fn preserves_semantics_on_interleaved_program() {
        let device = Device::grid(2, 3);
        let mut c = Circuit::new(5);
        c.h(0);
        c.cx(0, 4);
        c.t(4);
        c.cx(4, 1);
        c.cx(1, 3);
        c.measure(3, 0);
        let r = GreedyRouter::new(&device)
            .route(&c, None, &mut RouterScratch::new())
            .expect("fits");
        check_coupling(&r.circuit, &device).expect("coupling");
        check_equivalence(&c, &r).expect("equivalent");
    }

    #[test]
    fn codar_beats_greedy_on_structured_circuits() {
        let device = Device::ibm_q20_tokyo();
        let mut qft = Circuit::new(10);
        for i in 0..10usize {
            qft.h(i);
            for j in i + 1..10 {
                qft.cu1(0.5, j, i);
            }
        }
        let initial = Mapping::identity(10, device.num_qubits());
        let mut scratch = RouterScratch::new();
        let greedy = GreedyRouter::new(&device)
            .route(&qft, Some(&initial), &mut scratch)
            .expect("fits");
        let codar = CodarRouter::new(&device)
            .route(&qft, Some(&initial), &mut scratch)
            .expect("fits");
        assert!(
            codar.weighted_depth < greedy.weighted_depth,
            "codar {} vs greedy {}",
            codar.weighted_depth,
            greedy.weighted_depth
        );
    }

    #[test]
    fn disconnected_is_error() {
        let graph = codar_arch::CouplingGraph::new(4, &[(0, 1), (2, 3)]);
        let device = Device::from_graph("split", graph);
        let mut c = Circuit::new(4);
        c.cx(0, 2);
        assert!(matches!(
            GreedyRouter::new(&device).route(&c, None, &mut RouterScratch::new()),
            Err(RouteError::Disconnected { .. })
        ));
    }

    #[test]
    fn barrier_and_1q_pass_through() {
        let device = Device::linear(3);
        let mut c = Circuit::new(3);
        c.barrier(vec![0, 1, 2]);
        c.h(1);
        let r = GreedyRouter::new(&device)
            .route(&c, None, &mut RouterScratch::new())
            .expect("fits");
        assert_eq!(r.gate_count(), 2);
        assert_eq!(r.swaps_inserted, 0);
    }
}
