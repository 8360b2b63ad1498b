//! Commutative-front maintenance (paper Sec. IV-B, Definition 1).
//!
//! A pending gate is a *commutative forward (CF) gate* iff it commutes
//! with every pending gate that precedes it in program order. CF gates
//! can be moved to the head of the remaining sequence, i.e. they are
//! logically executable right now. Compared to a plain data-dependence
//! front layer, the CF set exposes more context to the SWAP search —
//! e.g. `CX q1,q3; CX q2,q3` are *both* CF because CNOTs sharing a
//! target commute.
//!
//! Implementation: pending gates are kept in per-qubit queues in program
//! order. A gate commutes trivially with anything it shares no qubit
//! with, so it is CF iff, in each of its queues, it sits within a scan
//! window and commutes with every earlier entry.
//!
//! Each queue entry carries the gate's [`WireClass`] on that queue's
//! wire, computed once in [`CommutativeFront::new`]. A queue only tests
//! classes on its own wire: a conflict on another shared wire `r` is
//! caught in queue `r`, where the earlier gate sits inside the window
//! whenever the later one does. So an entry is *locally CF* iff its
//! class conflicts with no earlier class in the window, except with an
//! identical unitary twin (which has the same class, so only a class
//! that conflicts with itself needs the exact fallback scan).
//!
//! Emission only removes entries, and removing an entry can only make
//! later entries locally CF (they move up and have fewer predecessors).
//! So local CF-ness and the merged CF set are maintained incrementally:
//! an emission marks its queues dirty, and a refresh walks the window
//! once, O(window), with a running mask of the classes seen, promoting
//! the entries that became locally CF. A gate joins the CF set when all
//! of its queues expose it, and the set stays sorted in program order.

use codar_circuit::{Circuit, WireClass};

/// Default per-qubit lookahead window for the CF scan.
pub const DEFAULT_WINDOW: usize = 16;

/// Deterministic work counters of a [`CommutativeFront`]. They depend
/// only on the circuit, the configuration and the emission order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontCounters {
    /// Queue positions visited by refreshes.
    pub positions: u64,
    /// Exact identical-twin scans (a position whose only conflict is
    /// with its own class, on a unitary gate).
    pub twin_fallbacks: u64,
    /// Insertions into and removals from the merged CF set.
    pub cf_updates: u64,
}

impl std::ops::AddAssign for FrontCounters {
    fn add_assign(&mut self, other: FrontCounters) {
        self.positions += other.positions;
        self.twin_fallbacks += other.twin_fallbacks;
        self.cf_updates += other.cf_updates;
    }
}

/// Tracks the pending portion of a circuit and maintains its CF set.
///
/// Emissions mark the touched queues dirty; the next query refreshes
/// just those, so repeated queries between emissions cost nothing.
/// [`CommutativeFront::take_joined`] reports which gates a refresh added,
/// so a caller that already examined the rest of the set can skip it.
#[derive(Debug, Clone)]
pub struct CommutativeFront {
    // Queue q is entries[head[q]..end[q]]: its pending gates, in program
    // order. Removal shifts the entries before the removed one up by one.
    entries: Vec<Entry>,
    head: Vec<usize>,
    end: Vec<usize>,
    pending: Vec<bool>,
    num_pending: usize,
    window: usize,
    commutativity: bool,
    // How many of a gate's queues expose it as locally CF.
    qualify: Vec<u32>,
    // Queues whose window changed since their last refresh.
    dirty: Vec<usize>,
    is_dirty: Vec<bool>,
    // The CF set, sorted in program order.
    cf: Vec<usize>,
    // Gates that joined `cf` since the last snapshot or take.
    joined: Vec<usize>,
    counters: FrontCounters,
}

/// One pending gate in one qubit queue.
#[derive(Debug, Clone, Copy)]
struct Entry {
    gate: u32,
    class: WireClass,
    // Locally CF in this queue; once set it stays set until removal.
    local_cf: bool,
}

impl CommutativeFront {
    /// Builds the tracker with every gate of `circuit` pending.
    ///
    /// With `commutativity = false` the CF set degrades to the plain
    /// data-dependence front layer (the ablation case).
    pub fn new(circuit: &Circuit, commutativity: bool, window: usize) -> Self {
        assert!(window >= 1, "window must be at least 1");
        let gates = circuit.gates();
        assert!(u32::try_from(gates.len()).is_ok(), "too many gates");
        let wires = circuit.num_qubits();
        // Lay the queues out back to back: count, prefix-sum, fill.
        let mut head = vec![0; wires];
        for gate in gates {
            for &q in &gate.qubits {
                head[q] += 1;
            }
        }
        let mut total = 0;
        for start in &mut head {
            let len = *start;
            *start = total;
            total += len;
        }
        let mut end = head.clone();
        let placeholder = Entry {
            gate: 0,
            class: WireClass::FENCE,
            local_cf: false,
        };
        let mut entries = vec![placeholder; total];
        for (i, gate) in gates.iter().enumerate() {
            for &q in &gate.qubits {
                entries[end[q]] = Entry {
                    gate: i as u32,
                    class: WireClass::of(gate, q),
                    local_cf: false,
                };
                end[q] += 1;
            }
        }
        // Gates with no qubit operands (possible only for synthetic
        // barriers) are always CF.
        let cf: Vec<usize> = (0..gates.len())
            .filter(|&i| gates[i].qubits.is_empty())
            .collect();
        CommutativeFront {
            entries,
            head,
            end,
            pending: vec![true; gates.len()],
            num_pending: gates.len(),
            window,
            commutativity,
            qualify: vec![0; gates.len()],
            dirty: (0..wires).collect(),
            is_dirty: vec![true; wires],
            joined: cf.clone(),
            cf,
            counters: FrontCounters::default(),
        }
    }

    /// Re-evaluates the window of queue `q`, promoting the entries that
    /// became locally CF. Entries already locally CF stay so.
    fn refresh_queue(&mut self, q: usize, circuit: &Circuit) {
        let (head, end) = (self.head[q], self.end[q]);
        let limit = end.min(head + self.window);
        // Classes of the earlier entries in the window.
        let mut seen = 0u8;
        for pos in head..limit {
            self.counters.positions += 1;
            let Entry {
                gate,
                class,
                local_cf,
            } = self.entries[pos];
            let earlier = seen;
            seen |= class.bit();
            if local_cf {
                continue;
            }
            let g = gate as usize;
            let now_cf = if !self.commutativity {
                pos == head
            } else {
                let clash = earlier & class.conflict_mask();
                clash == 0 || (clash == class.bit() && self.twins_only(q, pos, circuit))
            };
            if !now_cf {
                continue;
            }
            self.entries[pos].local_cf = true;
            self.qualify[g] += 1;
            if self.qualify[g] as usize == circuit.gates()[g].qubits.len() {
                let at = self.cf.partition_point(|&c| c < g);
                self.cf.insert(at, g);
                self.joined.push(g);
                self.counters.cf_updates += 1;
            }
        }
    }

    /// The exact fallback for an entry whose class conflicts only with
    /// itself: locally CF iff it is unitary and every earlier entry of
    /// its class is an identical gate.
    fn twins_only(&mut self, q: usize, pos: usize, circuit: &Circuit) -> bool {
        self.counters.twin_fallbacks += 1;
        let Entry { gate, class, .. } = self.entries[pos];
        let gate = &circuit.gates()[gate as usize];
        gate.kind.is_unitary()
            && self.entries[self.head[q]..pos]
                .iter()
                .filter(|e| e.class == class)
                .all(|e| circuit.gates()[e.gate as usize] == *gate)
    }

    /// Refreshes every dirty queue.
    fn flush(&mut self, circuit: &Circuit) {
        while let Some(q) = self.dirty.pop() {
            self.is_dirty[q] = false;
            self.refresh_queue(q, circuit);
        }
    }

    /// Number of gates not yet emitted.
    pub fn num_pending(&self) -> usize {
        self.num_pending
    }

    /// True when every gate has been emitted.
    pub fn is_done(&self) -> bool {
        self.num_pending == 0
    }

    /// Whether gate `i` is still pending.
    pub fn is_pending(&self, i: usize) -> bool {
        self.pending[i]
    }

    /// The work counters so far.
    pub fn counters(&self) -> FrontCounters {
        self.counters
    }

    /// The current CF set, in program order.
    ///
    /// A gate qualifies iff it is *locally CF* in every queue it belongs
    /// to: within the scan window and commuting with every earlier entry
    /// of that queue. Gates with no qubit operands qualify trivially.
    pub fn cf_gates(&mut self, circuit: &Circuit) -> &[usize] {
        self.flush(circuit);
        &self.cf
    }

    /// Replaces `out` with the current CF set, in program order, and
    /// starts a new round for [`CommutativeFront::take_joined`].
    pub fn snapshot(&mut self, circuit: &Circuit, out: &mut Vec<usize>) {
        self.flush(circuit);
        out.clear();
        out.extend_from_slice(&self.cf);
        self.joined.clear();
    }

    /// Replaces `out` with the gates that joined the CF set since the
    /// last [`CommutativeFront::snapshot`] or `take_joined`, in program
    /// order, and starts a new round. Apart from emitted gates leaving
    /// it, the CF set only grows, so the last snapshot plus the takes
    /// since cover every gate that has been CF in between.
    pub fn take_joined(&mut self, circuit: &Circuit, out: &mut Vec<usize>) {
        self.flush(circuit);
        out.clear();
        out.extend(self.joined.drain(..).filter(|&g| self.pending[g]));
        out.sort_unstable();
    }

    /// Emits gate `i`: removes it from all queues and from the CF set,
    /// and marks its queues for refresh.
    ///
    /// # Panics
    ///
    /// Panics if the gate was already emitted.
    pub fn emit(&mut self, i: usize, circuit: &Circuit) {
        assert!(self.pending[i], "gate {i} was already emitted");
        self.pending[i] = false;
        self.num_pending -= 1;
        let qubits = &circuit.gates()[i].qubits;
        if self.qualify[i] as usize == qubits.len() {
            let at = self
                .cf
                .binary_search(&i)
                .expect("a qualified gate is in the CF set");
            self.cf.remove(at);
            self.counters.cf_updates += 1;
        }
        for &q in qubits {
            let head = self.head[q];
            let pos = head
                + self.entries[head..self.end[q]]
                    .iter()
                    .position(|e| e.gate as usize == i)
                    .expect("pending gate must be in its qubit queues");
            self.entries.copy_within(head..pos, head + 1);
            self.head[q] += 1;
            if !self.is_dirty[q] {
                self.is_dirty[q] = true;
                self.dirty.push(q);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codar_circuit::{commutes, Circuit};

    fn cf(circuit: &Circuit, commutativity: bool) -> Vec<usize> {
        CommutativeFront::new(circuit, commutativity, DEFAULT_WINDOW)
            .cf_gates(circuit)
            .to_vec()
    }

    #[test]
    fn paper_example_shared_target() {
        // Sec. IV-B: "CX q1,q3 and CX q2,q3 in order ... both of the
        // gates are CF gates".
        let mut c = Circuit::new(4);
        c.cx(1, 3);
        c.cx(2, 3);
        assert_eq!(cf(&c, true), vec![0, 1]);
        // Without commutativity only the first is exposed.
        assert_eq!(cf(&c, false), vec![0]);
    }

    #[test]
    fn dependent_gates_are_hidden() {
        let mut c = Circuit::new(3);
        c.cx(0, 1);
        c.cx(1, 2); // control on q1 conflicts with target of gate 0
        assert_eq!(cf(&c, true), vec![0]);
    }

    #[test]
    fn disjoint_gates_all_front() {
        let mut c = Circuit::new(4);
        c.cx(0, 1);
        c.cx(2, 3);
        c.h(0); // blocked by gate 0
        assert_eq!(cf(&c, true), vec![0, 1]);
    }

    #[test]
    fn diagonal_chain_exposes_deep_gates() {
        let mut c = Circuit::new(3);
        c.t(0);
        c.rz(0.1, 0);
        c.cz(0, 1);
        c.cz(0, 2);
        // All four are mutually commuting (diagonal), so all are CF.
        assert_eq!(cf(&c, true), vec![0, 1, 2, 3]);
        assert_eq!(cf(&c, false), vec![0]);
    }

    #[test]
    fn emit_exposes_successors() {
        let mut c = Circuit::new(2);
        c.h(0);
        c.cx(0, 1);
        let mut front = CommutativeFront::new(&c, true, DEFAULT_WINDOW);
        assert_eq!(front.cf_gates(&c), vec![0]);
        front.emit(0, &c);
        assert_eq!(front.cf_gates(&c), vec![1]);
        front.emit(1, &c);
        assert!(front.is_done());
        assert!(front.cf_gates(&c).is_empty());
    }

    #[test]
    #[should_panic(expected = "already emitted")]
    fn double_emit_panics() {
        let mut c = Circuit::new(1);
        c.h(0);
        let mut front = CommutativeFront::new(&c, true, DEFAULT_WINDOW);
        front.emit(0, &c);
        front.emit(0, &c);
    }

    #[test]
    fn window_bounds_lookahead() {
        // 5 mutually commuting gates on one qubit, window 2: only the
        // first two are visible.
        let mut c = Circuit::new(1);
        for _ in 0..5 {
            c.t(0);
        }
        let mut front = CommutativeFront::new(&c, true, 2);
        assert_eq!(front.cf_gates(&c), vec![0, 1]);
    }

    #[test]
    fn barrier_fences_commutation() {
        let mut c = Circuit::new(2);
        c.t(0);
        c.barrier(vec![0, 1]);
        c.t(0); // commutes with gate 0 but the barrier blocks it
        assert_eq!(cf(&c, true), vec![0]);
    }

    #[test]
    fn identical_gates_commute() {
        let mut c = Circuit::new(2);
        c.h(0);
        c.h(0);
        // h·h = identity: both exposable.
        assert_eq!(cf(&c, true), vec![0, 1]);
    }

    /// The seed implementation of the CF set, straight from
    /// Definition 1: rebuild the per-qubit queues from the pending set
    /// and merge with a hash-map qualify count. The cached
    /// [`CommutativeFront::cf_gates`] must return exactly this set
    /// after any emission sequence.
    fn naive_cf(circuit: &Circuit, front: &CommutativeFront) -> Vec<usize> {
        let mut queues = vec![Vec::new(); circuit.num_qubits()];
        for i in 0..circuit.len() {
            if front.is_pending(i) {
                for &q in &circuit.gates()[i].qubits {
                    queues[q].push(i);
                }
            }
        }
        let mut count: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
        for queue in &queues {
            let limit = queue.len().min(front.window);
            for pos in 0..limit {
                let g = queue[pos];
                let ok = if front.commutativity {
                    (0..pos).all(|e| commutes(&circuit.gates()[queue[e]], &circuit.gates()[g]))
                } else {
                    pos == 0
                };
                if ok {
                    *count.entry(g).or_insert(0) += 1;
                }
            }
        }
        let mut cf: Vec<usize> = count
            .into_iter()
            .filter(|&(g, c)| c == circuit.gates()[g].qubits.len())
            .map(|(g, _)| g)
            .collect();
        cf.extend(
            (0..circuit.len())
                .filter(|&i| front.is_pending(i) && circuit.gates()[i].qubits.is_empty()),
        );
        cf.sort_unstable();
        cf
    }

    #[test]
    fn cached_cf_matches_naive_reference_across_emissions() {
        // A mix of commuting chains, shared targets, barriers and
        // 1q gates, emitted in a scrambled (but legal) order.
        let mut c = Circuit::new(4);
        c.cx(1, 3);
        c.cx(2, 3);
        c.t(0);
        c.rz(0.25, 0);
        c.cz(0, 1);
        c.barrier(vec![0, 1, 2, 3]);
        c.h(2);
        c.cx(0, 2);
        c.cx(2, 0);
        c.measure(3, 0);
        for window in [1, 2, DEFAULT_WINDOW] {
            for commutativity in [true, false] {
                let mut front = CommutativeFront::new(&c, commutativity, window);
                while !front.is_done() {
                    let expected = naive_cf(&c, &front);
                    assert_eq!(
                        front.cf_gates(&c),
                        expected,
                        "window {window}, commutativity {commutativity}"
                    );
                    // Repeated query must serve the cache unchanged.
                    assert_eq!(front.cf_gates(&c), expected);
                    // Emit the last CF gate to scramble emission order.
                    let &g = front.cf_gates(&c).last().expect("nonempty while pending");
                    front.emit(g, &c);
                }
                assert!(front.cf_gates(&c).is_empty());
            }
        }
    }

    #[test]
    fn counters_track_twin_fallbacks_and_set_updates() {
        let mut c = Circuit::new(1);
        c.h(0);
        c.h(0);
        c.t(0);
        let mut front = CommutativeFront::new(&c, true, DEFAULT_WINDOW);
        assert_eq!(front.cf_gates(&c), vec![0, 1]);
        // One refresh over three positions: the second h conflicts only
        // with its own class and is checked exactly; t conflicts with h.
        let expected = FrontCounters {
            positions: 3,
            twin_fallbacks: 1,
            cf_updates: 2,
        };
        assert_eq!(front.counters(), expected);
        // Queries without emissions do no work.
        front.cf_gates(&c);
        assert_eq!(front.counters(), expected);
        front.emit(0, &c);
        front.emit(1, &c);
        assert_eq!(front.cf_gates(&c), vec![2]);
        assert_eq!(front.counters().cf_updates, 5);
    }

    #[test]
    fn pending_bookkeeping() {
        let mut c = Circuit::new(2);
        c.h(0);
        c.h(1);
        let mut front = CommutativeFront::new(&c, true, DEFAULT_WINDOW);
        assert_eq!(front.num_pending(), 2);
        assert!(front.is_pending(1));
        front.emit(1, &c);
        assert!(!front.is_pending(1));
        assert_eq!(front.num_pending(), 1);
    }
}
