//! Dependency DAG over a circuit's gates.
//!
//! Edges follow per-qubit program order: gate *v* depends on gate *u*
//! when *u* is the most recent earlier gate touching one of *v*'s qubits.
//! This is the structure SABRE's front layer is computed on; CODAR's
//! commutative front is computed separately (it relaxes these edges by
//! commutation, see `codar-router`).
//!
//! The edge relation is symmetric in time: *u* is the last gate before
//! *v* on a shared qubit exactly when *v* is the next gate after *u* on
//! it. So the DAG of the reversed circuit is this DAG with its edges
//! turned around, and a [`FrontTracker`] walking [`Direction::Backward`]
//! visits the gates exactly as a forward walk of the reversed circuit
//! would, without building either.

use crate::circuit::Circuit;

/// An immutable dependency DAG for a [`Circuit`], stored as flat
/// adjacency arrays for both edge directions.
///
/// # Examples
///
/// ```
/// use codar_circuit::dag::{Direction, FrontTracker};
/// use codar_circuit::{Circuit, CircuitDag};
///
/// let mut c = Circuit::new(3);
/// c.cx(0, 1);
/// c.cx(1, 2);
/// c.h(0);
/// let dag = CircuitDag::new(&c);
/// // cx(1,2) depends on cx(0,1); h(0) also depends on cx(0,1).
/// assert_eq!(dag.predecessors(1), &[0]);
/// assert_eq!(dag.predecessors(2), &[0]);
/// assert_eq!(dag.successors(0), &[1, 2]);
/// assert_eq!(FrontTracker::new(&dag, Direction::Forward).front(), &[0]);
/// assert_eq!(FrontTracker::new(&dag, Direction::Backward).front(), &[2, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct CircuitDag {
    // Gate i's predecessors are pred_edges[pred_start[i]..pred_start[i + 1]]
    // in descending index; its successors are laid out alike, ascending.
    pred_start: Vec<u32>,
    pred_edges: Vec<u32>,
    succ_start: Vec<u32>,
    succ_edges: Vec<u32>,
}

/// Which way a walk over a [`CircuitDag`] goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Program order: a gate is ready once its predecessors are resolved.
    Forward,
    /// Reverse program order: predecessors act as successors, and the
    /// walk is the forward walk of the reversed circuit.
    Backward,
}

impl CircuitDag {
    /// Builds the DAG for `circuit` in O(gates × arity).
    ///
    /// # Panics
    ///
    /// Panics if the circuit has more than `u32::MAX` gates or edges.
    pub fn new(circuit: &Circuit) -> Self {
        let n = circuit.len();
        let index = |i: usize| u32::try_from(i).expect("gate and edge counts fit in u32");
        let arity: usize = circuit.gates().iter().map(|g| g.qubits.len()).sum();
        let mut pred_start = Vec::with_capacity(n + 1);
        let mut pred_edges = Vec::with_capacity(arity);
        let mut succ_start = vec![0u32; n + 1];
        let mut last_on_qubit: Vec<Option<u32>> = vec![None; circuit.num_qubits()];
        pred_start.push(0);
        for (i, gate) in circuit.gates().iter().enumerate() {
            let start = pred_edges.len();
            for &q in &gate.qubits {
                if let Some(p) = last_on_qubit[q] {
                    if !pred_edges[start..].contains(&p) {
                        pred_edges.push(p);
                        succ_start[p as usize + 1] += 1;
                    }
                }
                last_on_qubit[q] = Some(index(i));
            }
            pred_edges[start..].sort_unstable_by(|a, b| b.cmp(a));
            pred_start.push(index(pred_edges.len()));
        }
        // Counts to offsets; then each gate's successors are filled in
        // ascending order, using succ_start[p] as p's write cursor.
        for i in 0..n {
            succ_start[i + 1] += succ_start[i];
        }
        let mut succ_edges = vec![0u32; pred_edges.len()];
        for i in 0..n {
            for &p in &pred_edges[pred_start[i] as usize..pred_start[i + 1] as usize] {
                succ_edges[succ_start[p as usize] as usize] = index(i);
                succ_start[p as usize] += 1;
            }
        }
        // Each cursor now holds the next gate's start: shift them back.
        succ_start.copy_within(0..n, 1);
        succ_start[0] = 0;
        CircuitDag {
            pred_start,
            pred_edges,
            succ_start,
            succ_edges,
        }
    }

    /// Number of nodes (gates).
    pub fn len(&self) -> usize {
        self.pred_start.len() - 1
    }

    /// True when the DAG has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Direct predecessors of gate `i`, in descending index.
    pub fn predecessors(&self, i: usize) -> &[u32] {
        &self.pred_edges[self.pred_start[i] as usize..self.pred_start[i + 1] as usize]
    }

    /// Direct successors of gate `i`, in ascending index.
    pub fn successors(&self, i: usize) -> &[u32] {
        &self.succ_edges[self.succ_start[i] as usize..self.succ_start[i + 1] as usize]
    }

    /// The gates that follow gate `i` on a walk in `direction`: its
    /// successors forward, its predecessors backward. Backward they come
    /// in descending index, the order in which the reversed circuit's
    /// DAG lists the same gates as successors.
    pub fn successors_in(&self, i: usize, direction: Direction) -> &[u32] {
        match direction {
            Direction::Forward => self.successors(i),
            Direction::Backward => self.predecessors(i),
        }
    }
}

/// Tracks how many unresolved dependencies each gate has, supporting
/// incremental front-layer maintenance during routing, in either
/// [`Direction`].
#[derive(Debug, Clone)]
pub struct FrontTracker {
    direction: Direction,
    remaining: Vec<u32>,
    front: Vec<usize>,
    unresolved: usize,
}

impl FrontTracker {
    /// Creates a tracker with nothing resolved. Walking backward, the
    /// initial front lists the gates in descending index, as the forward
    /// front of the reversed circuit does.
    pub fn new(dag: &CircuitDag, direction: Direction) -> Self {
        let before = |i: usize| match direction {
            Direction::Forward => dag.predecessors(i),
            Direction::Backward => dag.successors(i),
        };
        let remaining: Vec<u32> = (0..dag.len()).map(|i| before(i).len() as u32).collect();
        let ready = |&i: &usize| remaining[i] == 0;
        let front = match direction {
            Direction::Forward => (0..dag.len()).filter(ready).collect(),
            Direction::Backward => (0..dag.len()).rev().filter(ready).collect(),
        };
        FrontTracker {
            direction,
            remaining,
            front,
            unresolved: dag.len(),
        }
    }

    /// The current front layer (gates whose predecessors in the walk's
    /// direction are all resolved).
    pub fn front(&self) -> &[usize] {
        &self.front
    }

    /// True when every gate has been resolved.
    pub fn is_done(&self) -> bool {
        self.unresolved == 0
    }

    /// Marks gate `i` (which must be in the front) as executed and
    /// promotes any successors that become ready.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not currently in the front layer.
    pub fn resolve(&mut self, i: usize, dag: &CircuitDag) {
        let pos = self
            .front
            .iter()
            .position(|&g| g == i)
            .expect("gate to resolve must be in the front layer");
        self.front.swap_remove(pos);
        self.unresolved -= 1;
        for &s in dag.successors_in(i, self.direction) {
            let s = s as usize;
            self.remaining[s] -= 1;
            if self.remaining[s] == 0 {
                self.front.push(s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> Circuit {
        let mut c = Circuit::new(3);
        c.cx(0, 1); // 0
        c.cx(1, 2); // 1 depends on 0
        c.cx(0, 2); // 2 depends on 0 (q0) and 1 (q2)
        c
    }

    #[test]
    fn builds_expected_edges() {
        let c = chain();
        let dag = CircuitDag::new(&c);
        assert_eq!(dag.predecessors(0), &[] as &[u32]);
        assert_eq!(dag.predecessors(1), &[0]);
        assert_eq!(dag.predecessors(2), &[1, 0], "descending");
        assert_eq!(dag.successors(0), &[1, 2]);
        assert_eq!(dag.successors(1), &[2]);
        assert_eq!(dag.successors(2), &[] as &[u32]);
    }

    #[test]
    fn no_duplicate_edges_for_two_shared_qubits() {
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        c.cx(1, 0); // shares both qubits with the first
        let dag = CircuitDag::new(&c);
        assert_eq!(dag.predecessors(1), &[0]);
        assert_eq!(dag.successors(0), &[1]);
    }

    #[test]
    fn parallel_gates_are_both_front() {
        let mut c = Circuit::new(4);
        c.cx(0, 1);
        c.cx(2, 3);
        let dag = CircuitDag::new(&c);
        assert_eq!(FrontTracker::new(&dag, Direction::Forward).front(), &[0, 1]);
        assert_eq!(
            FrontTracker::new(&dag, Direction::Backward).front(),
            &[1, 0]
        );
    }

    #[test]
    fn empty_circuit() {
        let dag = CircuitDag::new(&Circuit::new(2));
        assert!(dag.is_empty());
        assert!(FrontTracker::new(&dag, Direction::Backward).is_done());
    }

    #[test]
    fn front_tracker_walks_the_dag() {
        let c = chain();
        let dag = CircuitDag::new(&c);
        let mut tracker = FrontTracker::new(&dag, Direction::Forward);
        assert_eq!(tracker.front(), &[0]);
        tracker.resolve(0, &dag);
        assert_eq!(tracker.front(), &[1]);
        tracker.resolve(1, &dag);
        assert_eq!(tracker.front(), &[2]);
        assert!(!tracker.is_done());
        tracker.resolve(2, &dag);
        assert!(tracker.is_done());
    }

    /// Every front a backward walk shows, mapped to reversed-circuit
    /// indices, is the front a forward walk of the reversed circuit
    /// shows, in the same order.
    #[test]
    fn backward_walk_is_the_reversed_forward_walk() {
        let mut c = Circuit::new(4);
        c.h(3);
        c.cx(0, 1);
        c.cx(2, 3);
        c.barrier(vec![0, 1, 2, 3]);
        c.cx(1, 2);
        c.t(0);
        c.cx(3, 0);
        c.barrier(vec![]);
        c.h(1);
        let n = c.len();
        let dag = CircuitDag::new(&c);
        let reversed = c.reversed();
        let reversed_dag = CircuitDag::new(&reversed);
        let mut backward = FrontTracker::new(&dag, Direction::Backward);
        let mut forward = FrontTracker::new(&reversed_dag, Direction::Forward);
        while !forward.is_done() {
            let mirrored: Vec<usize> = backward.front().iter().map(|&g| n - 1 - g).collect();
            assert_eq!(mirrored, forward.front());
            let next = forward.front()[forward.front().len() - 1];
            forward.resolve(next, &reversed_dag);
            backward.resolve(n - 1 - next, &dag);
        }
        assert!(backward.is_done());
    }

    #[test]
    #[should_panic(expected = "front layer")]
    fn resolving_non_front_gate_panics() {
        let c = chain();
        let dag = CircuitDag::new(&c);
        let mut tracker = FrontTracker::new(&dag, Direction::Forward);
        tracker.resolve(2, &dag);
    }

    #[test]
    fn barrier_creates_dependencies() {
        let mut c = Circuit::new(2);
        c.h(0); // 0
        c.barrier(vec![0, 1]); // 1
        c.h(1); // 2
        let dag = CircuitDag::new(&c);
        assert_eq!(dag.predecessors(1), &[0]);
        assert_eq!(dag.predecessors(2), &[1]);
    }
}
