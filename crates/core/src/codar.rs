//! The CODAR remapping algorithm (paper Sec. IV-C, Fig. 4).
//!
//! CODAR simulates the execution timeline while it routes. At each event
//! time it:
//!
//! 1. collects the commutative-front (CF) gates of the remaining input,
//! 2. launches every CF gate that is *lock free* (all operand qubits
//!    free) and coupling-compliant, updating the qubit locks with the
//!    gate's duration,
//! 3. for the remaining (non-adjacent) CF two-qubit gates, gathers the
//!    lock-free edges adjacent to their endpoints as candidate SWAPs and
//!    greedily inserts the highest-priority SWAP while any candidate has
//!    positive `Hbasic`,
//!
//! then advances the clock to the next lock release. When nothing can be
//! launched and all qubits are free (the paper's "deadlock"), a SWAP is
//! forced; we pick, among the best-priority SWAPs, one that strictly
//! shortens the oldest blocked gate's distance, which guarantees
//! termination (the paper forces "a SWAP with the highest priority"
//! without tie-breaking, which can oscillate).

use crate::error::RouteError;
use crate::front::{CommutativeFront, DEFAULT_WINDOW};
use crate::heuristic::{blend_cal, cal_penalty, priority, SwapPriority};
use crate::locks::QubitLocks;
use crate::mapping::{InitialMapping, Mapping};
use crate::result::RoutedCircuit;
use crate::scratch::RouterScratch;
use codar_arch::{CalibrationSnapshot, Device, GateDurations};
use codar_circuit::schedule::{Schedule, Time};
use codar_circuit::{Circuit, GateKind};

/// Tuning knobs for [`CodarRouter`]. The defaults reproduce the paper's
/// configuration; the `enable_*` flags exist for the ablation studies.
#[derive(Debug, Clone)]
pub struct CodarConfig {
    /// How the initial logical→physical mapping is chosen.
    pub initial_mapping: InitialMapping,
    /// Use commutativity detection for the front set (Sec. IV-B).
    /// Disabled, the front degrades to plain data dependence.
    pub enable_commutativity: bool,
    /// Use real gate durations for the qubit locks (Sec. IV-A).
    /// Disabled, every gate is treated as taking one cycle during
    /// routing (the duration-unaware assumption of prior work); the
    /// reported weighted depth still uses the true durations.
    pub enable_duration_awareness: bool,
    /// Use the fine-priority tie-break `Hfine` (Sec. IV-D).
    pub enable_hfine: bool,
    /// Per-qubit lookahead window of the CF scan.
    pub window: usize,
    /// Weight of the normalized per-edge calibration error blended
    /// into the SWAP priority (the `codar-cal` variant). Takes effect
    /// only when a [`CalibrationSnapshot`] is attached via
    /// [`CodarRouter::with_snapshot`]; `0.0` reduces **byte-
    /// identically** to duration-only CODAR (the differential tests
    /// pin this). `alpha ≤ 1` re-orders distance ties toward
    /// low-error edges; larger values trade distance progress for
    /// reliability.
    pub cal_alpha: f64,
}

impl Default for CodarConfig {
    fn default() -> Self {
        CodarConfig {
            initial_mapping: InitialMapping::default(),
            enable_commutativity: true,
            enable_duration_awareness: true,
            enable_hfine: true,
            window: DEFAULT_WINDOW,
            cal_alpha: 0.0,
        }
    }
}

/// The CODAR router bound to a (borrowed) device.
///
/// The router holds `&Device` rather than a clone: constructing one is
/// free, and the engine can stamp out a router per job without copying
/// distance matrices around.
///
/// # Examples
///
/// ```
/// use codar_arch::Device;
/// use codar_circuit::Circuit;
/// use codar_router::{CodarRouter, Mapping, RouterScratch};
///
/// # fn main() -> Result<(), codar_router::RouteError> {
/// let mut c = Circuit::new(3);
/// c.cx(0, 2); // non-adjacent on a line under the identity placement
/// let device = Device::linear(3);
/// let identity = Mapping::identity(3, 3);
/// let routed =
///     CodarRouter::new(&device).route(&c, Some(&identity), &mut RouterScratch::new())?;
/// assert_eq!(routed.swaps_inserted, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CodarRouter<'d> {
    device: &'d Device,
    config: CodarConfig,
    /// Calibration snapshot backing the `codar-cal` variant; `None`
    /// routes exactly as the paper's duration-only CODAR.
    snapshot: Option<&'d CalibrationSnapshot>,
}

impl<'d> CodarRouter<'d> {
    /// Creates a router with the default (paper) configuration.
    pub fn new(device: &'d Device) -> Self {
        CodarRouter {
            device,
            config: CodarConfig::default(),
            snapshot: None,
        }
    }

    /// Creates a router with an explicit configuration.
    pub fn with_config(device: &'d Device, config: CodarConfig) -> Self {
        CodarRouter {
            device,
            config,
            snapshot: None,
        }
    }

    /// Attaches a calibration snapshot: candidate SWAPs are penalized
    /// by `cal_alpha ×` their edge's normalized two-qubit error (the
    /// `codar-cal` variant). With `cal_alpha = 0` the routed output is
    /// byte-identical to a snapshot-less router.
    #[must_use]
    pub fn with_snapshot(mut self, snapshot: &'d CalibrationSnapshot) -> Self {
        self.snapshot = Some(snapshot);
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &CodarConfig {
        &self.config
    }

    /// Routes `circuit`, producing a hardware-compliant physical circuit.
    ///
    /// With `initial = Some(mapping)` routing starts from that placement
    /// (the experiments feed CODAR and SABRE the same one); with `None`
    /// the router builds its configured
    /// [`CodarConfig::initial_mapping`]. `scratch` holds the hot loop's
    /// buffers: reuse one across calls (the engine keeps one per
    /// worker) to stay allocation-free. Results are identical whether it
    /// is fresh or reused.
    ///
    /// # Errors
    ///
    /// * [`RouteError::TooManyQubits`] when the circuit needs more qubits
    ///   than the device has,
    /// * [`RouteError::UnsupportedGate`] when a unitary gate spans 3+
    ///   qubits (decompose first),
    /// * [`RouteError::MappingShape`] when the initial mapping does not
    ///   place exactly the circuit's qubits on the device's,
    /// * [`RouteError::Disconnected`] when a two-qubit gate's operands
    ///   sit in different components of the coupling graph.
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
            &self.config.initial_mapping,
            scratch,
        )?;
        let device = self.device;
        let graph = device.graph();
        let dist = device.distances();
        let num_qubits = device.num_qubits();
        let layout = if self.config.enable_hfine {
            device.layout()
        } else {
            None
        };
        let uniform_tau;
        let route_tau: &GateDurations = if self.config.enable_duration_awareness {
            device.durations()
        } else {
            uniform_tau = GateDurations::uniform();
            &uniform_tau
        };
        let swap_dur = route_tau.of_kind(GateKind::Swap);
        scratch.begin_device(num_qubits);
        // Calibration blending (the `codar-cal` variant): precompute
        // the integer penalty of every coupling once per route call.
        // `cal_on = false` leaves the plain (unscaled) priority path
        // untouched; `alpha = 0` fills an all-zero table, which orders
        // candidates identically to the plain path by construction.
        let cal_on = self.snapshot.is_some();
        if let Some(snapshot) = self.snapshot {
            scratch.begin_calibration(num_qubits);
            let max_error = snapshot.max_edge_error();
            for &(a, b) in graph.edges() {
                let error = snapshot.edge_error(a, b).unwrap_or(max_error);
                scratch.cal_penalty[a * num_qubits + b] =
                    cal_penalty(self.config.cal_alpha, error, max_error);
            }
        }

        let mut pi = initial.clone();
        let mut locks = QubitLocks::new(num_qubits);
        let mut front = CommutativeFront::new(
            circuit,
            self.config.enable_commutativity,
            self.config.window,
        );
        let mut out = Circuit::with_bits(num_qubits, circuit.num_bits());
        let mut starts: Vec<Time> = Vec::with_capacity(circuit.len());
        let mut now: Time = 0;
        let mut swaps_inserted = 0usize;
        let mut inserted_swap_indices: Vec<usize> = Vec::new();

        while !front.is_done() {
            // Steps 1-2: launch every executable CF gate, to fixpoint.
            // The CF set is snapshotted into scratch so the front can
            // shrink while we iterate it. Within one event locks only
            // get busier and `pi` is fixed, so a gate a pass examined
            // and left would fail again: each later pass examines only
            // the gates the previous pass's emissions made CF.
            let mut launched = false;
            front.snapshot(circuit, &mut scratch.cf);
            loop {
                let mut launched_this_pass = false;
                for &g in &scratch.cf {
                    let gate = &circuit.gates()[g];
                    scratch.phys.clear();
                    scratch
                        .phys
                        .extend(gate.qubits.iter().map(|&q| pi.phys_of(q)));
                    if !locks.all_free(&scratch.phys, now) {
                        continue;
                    }
                    let executable = match gate.kind {
                        GateKind::Barrier => true,
                        _ if scratch.phys.len() == 2 => {
                            graph.are_adjacent(scratch.phys[0], scratch.phys[1])
                        }
                        _ => true, // 1-qubit operations
                    };
                    if !executable {
                        continue;
                    }
                    let dur = route_tau.of(gate);
                    for &p in &scratch.phys {
                        locks.acquire(p, now, dur);
                    }
                    let mut mapped = gate.clone();
                    mapped.qubits.copy_from_slice(&scratch.phys);
                    out.push(mapped);
                    starts.push(now);
                    front.emit(g, circuit);
                    launched_this_pass = true;
                }
                if !launched_this_pass {
                    break;
                }
                launched = true;
                front.take_joined(circuit, &mut scratch.cf);
            }
            if front.is_done() {
                break;
            }

            // Step 3: greedy positive-priority SWAP insertion.
            scratch.cf_two_qubit.clear();
            for &g in front.cf_gates(circuit) {
                if circuit.gates()[g].is_two_qubit() {
                    scratch.cf_two_qubit.push(g);
                }
            }
            let mut swapped = false;
            loop {
                // Physical endpoint pairs of every CF 2-qubit gate (Eq. 1
                // sums over all of ICF), and the blocked (non-adjacent)
                // subset that actually needs routing.
                scratch.cf_pairs.clear();
                for &g in &scratch.cf_two_qubit {
                    let q = &circuit.gates()[g].qubits;
                    scratch.cf_pairs.push((pi.phys_of(q[0]), pi.phys_of(q[1])));
                }
                scratch.blocked.clear();
                for &(a, b) in &scratch.cf_pairs {
                    if !graph.are_adjacent(a, b) {
                        scratch.blocked.push((a, b));
                    }
                }
                if scratch.blocked.is_empty() {
                    break;
                }
                // Candidate SWAPs: lock-free edges touching a blocked
                // gate's endpoints, stamp-deduplicated in O(1) each.
                let stamp = scratch.next_stamp();
                scratch.candidates.clear();
                for bi in 0..scratch.blocked.len() {
                    let (pa, pb) = scratch.blocked[bi];
                    for &endpoint in &[pa, pb] {
                        for &nb in graph.neighbors(endpoint) {
                            let edge = (endpoint.min(nb), endpoint.max(nb));
                            let id = edge.0 * num_qubits + edge.1;
                            if locks.pair_free(edge.0, edge.1, now)
                                && scratch.edge_stamp[id] != stamp
                            {
                                scratch.edge_stamp[id] = stamp;
                                scratch.candidates.push(edge);
                            }
                        }
                    }
                }
                // Incremental scoring: index the CF pairs once, then
                // score each candidate on only the pairs it moves.
                scratch
                    .scorer
                    .begin_round(&scratch.cf_pairs, num_qubits, layout);
                let best = scratch
                    .candidates
                    .iter()
                    .map(|&edge| {
                        let p = scratch.scorer.priority(
                            edge,
                            &scratch.cf_pairs,
                            dist,
                            layout,
                            self.config.enable_hfine,
                        );
                        let p = if cal_on {
                            blend_cal(p, scratch.cal_penalty[edge.0 * num_qubits + edge.1])
                        } else {
                            p
                        };
                        (p, edge)
                    })
                    .max_by(|a, b| a.0.cmp(&b.0).then_with(|| b.1.cmp(&a.1)));
                match best {
                    Some((p, edge)) if p.basic > 0 => {
                        locks.acquire(edge.0, now, swap_dur);
                        locks.acquire(edge.1, now, swap_dur);
                        inserted_swap_indices.push(out.len());
                        out.add(GateKind::Swap, vec![edge.0, edge.1], vec![]);
                        starts.push(now);
                        pi.apply_swap(edge.0, edge.1);
                        swaps_inserted += 1;
                        swapped = true;
                    }
                    _ => break,
                }
            }

            if front.is_done() {
                break;
            }
            // Advance the clock; detect and break deadlocks.
            match locks.next_release_after(now) {
                Some(t) => now = t,
                None => {
                    if !launched && !swapped {
                        let penalties: &[i64] = if cal_on { &scratch.cal_penalty } else { &[] };
                        let edge = self.forced_swap(circuit, &mut front, &pi, penalties)?;
                        locks.acquire(edge.0, now, swap_dur);
                        locks.acquire(edge.1, now, swap_dur);
                        inserted_swap_indices.push(out.len());
                        out.add(GateKind::Swap, vec![edge.0, edge.1], vec![]);
                        starts.push(now);
                        pi.apply_swap(edge.0, edge.1);
                        swaps_inserted += 1;
                    }
                    // If we did launch zero-duration ops (barriers) the
                    // front shrank, so the loop still progresses.
                }
            }
        }

        scratch.front_counters += front.counters();
        let tau = device.durations();
        let schedule = Schedule::asap(&out, |g| tau.of(g));
        Ok(RoutedCircuit {
            weighted_depth: schedule.makespan,
            start_times: starts,
            circuit: out,
            swaps_inserted,
            inserted_swap_indices,
            initial_mapping: initial,
            final_mapping: pi,
            router: if cal_on { "codar-cal" } else { "codar" },
        })
    }

    /// Deadlock breaker: among lock-free edges adjacent to the oldest
    /// blocked CF gate's endpoints, pick the highest-priority SWAP that
    /// strictly reduces that gate's distance. `penalties` is the
    /// per-edge calibration table (empty = no blending), applied
    /// exactly as in the greedy phase so the `codar-cal` ordering is
    /// consistent across both insertion paths.
    fn forced_swap(
        &self,
        circuit: &Circuit,
        front: &mut CommutativeFront,
        pi: &Mapping,
        penalties: &[i64],
    ) -> Result<(usize, usize), RouteError> {
        let graph = self.device.graph();
        let dist = self.device.distances();
        let layout = if self.config.enable_hfine {
            self.device.layout()
        } else {
            None
        };
        let cf = front.cf_gates(circuit);
        let oldest = cf
            .iter()
            .copied()
            .find(|&g| {
                let gate = &circuit.gates()[g];
                gate.is_two_qubit()
                    && !graph.are_adjacent(pi.phys_of(gate.qubits[0]), pi.phys_of(gate.qubits[1]))
            })
            .expect("deadlock implies a blocked two-qubit CF gate");
        let gate = &circuit.gates()[oldest];
        let (pa, pb) = (pi.phys_of(gate.qubits[0]), pi.phys_of(gate.qubits[1]));
        if !dist.connected(pa, pb) {
            return Err(RouteError::Disconnected { a: pa, b: pb });
        }
        let d0 = dist.get(pa, pb);
        let mut best: Option<(SwapPriority, (usize, usize))> = None;
        for &endpoint in &[pa, pb] {
            let other = if endpoint == pa { pb } else { pa };
            for &nb in graph.neighbors(endpoint) {
                if dist.get(nb, other) >= d0 {
                    continue; // must strictly shorten the oldest gate
                }
                let edge = (endpoint.min(nb), endpoint.max(nb));
                let mut p = priority(edge, &[(pa, pb)], dist, layout, self.config.enable_hfine);
                if !penalties.is_empty() {
                    let n = self.device.num_qubits();
                    p = blend_cal(p, penalties[edge.0 * n + edge.1]);
                }
                if best.map_or(true, |(bp, be)| {
                    (p, std::cmp::Reverse(edge)) > (bp, std::cmp::Reverse(be))
                }) {
                    best = Some((p, edge));
                }
            }
        }
        Ok(best
            .expect("a connected pair always has a distance-reducing neighbor")
            .1)
    }
}

/// The start of every router's `route`: validates the inputs, then
/// takes the caller's mapping (cloned, since the result keeps it) or
/// builds `strategy`'s placement through `scratch`, and checks that the
/// mapping fits the circuit and the device.
pub(crate) fn initial_placement(
    circuit: &Circuit,
    device: &Device,
    initial: Option<&Mapping>,
    strategy: &InitialMapping,
    scratch: &mut RouterScratch,
) -> Result<Mapping, RouteError> {
    if circuit.num_qubits() > device.num_qubits() {
        return Err(RouteError::TooManyQubits {
            logical: circuit.num_qubits(),
            physical: device.num_qubits(),
        });
    }
    if let Some(gate) = circuit
        .gates()
        .iter()
        .find(|gate| gate.kind != GateKind::Barrier && gate.qubits.len() > 2)
    {
        return Err(RouteError::UnsupportedGate {
            gate: gate.to_string(),
        });
    }
    let mapping = match initial {
        Some(mapping) => mapping.clone(),
        None => strategy.build(circuit, device, scratch),
    };
    if mapping.num_logical() != circuit.num_qubits()
        || mapping.num_physical() != device.num_qubits()
    {
        return Err(RouteError::MappingShape {
            logical: mapping.num_logical(),
            physical: mapping.num_physical(),
            circuit: circuit.num_qubits(),
            device: device.num_qubits(),
        });
    }
    Ok(mapping)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{check_coupling, check_equivalence};
    use codar_arch::Device;

    fn route_identity(device: &Device, circuit: &Circuit) -> RoutedCircuit {
        let config = CodarConfig {
            initial_mapping: InitialMapping::Identity,
            ..CodarConfig::default()
        };
        CodarRouter::with_config(device, config)
            .route(circuit, None, &mut RouterScratch::new())
            .unwrap()
    }

    #[test]
    fn adjacent_gates_need_no_swaps() {
        let device = Device::linear(3);
        let mut c = Circuit::new(3);
        c.h(0);
        c.cx(0, 1);
        c.cx(1, 2);
        let r = route_identity(&device, &c);
        assert_eq!(r.swaps_inserted, 0);
        assert_eq!(r.gate_count(), 3);
        check_coupling(&r.circuit, &device).unwrap();
        // weighted depth: h(1) + cx(2) + cx(2) serial on q1's chain = 5
        assert_eq!(r.weighted_depth, 5);
    }

    #[test]
    fn distant_gate_gets_routed() {
        let device = Device::linear(4);
        let mut c = Circuit::new(4);
        c.cx(0, 3);
        let r = route_identity(&device, &c);
        assert!(r.swaps_inserted >= 2);
        check_coupling(&r.circuit, &device).unwrap();
        check_equivalence(&c, &r).unwrap();
    }

    #[test]
    fn paper_fig1_context_example() {
        // Line of 4: Q0-Q1-Q2-Q3. Program: T q2; CX q0,q3.
        // The SWAP must avoid busy q2: CODAR picks an edge not touching
        // Q2 at time 0 if one helps — here (Q0,Q1) or (Q3,Q2)... (Q3,Q2)
        // touches Q2 which is locked by the T for 1 cycle, while (Q0,Q1)
        // and... on a line the useful swaps are (0,1),(1,2),(2,3).
        // (1,2) and (2,3) touch Q2 (busy). (0,1) is free and reduces
        // distance: CODAR should start it at cycle 0.
        let device = Device::linear(4);
        let mut c = Circuit::new(4);
        c.t(2);
        c.cx(0, 3);
        let r = route_identity(&device, &c);
        check_coupling(&r.circuit, &device).unwrap();
        check_equivalence(&c, &r).unwrap();
        // First swap starts at cycle 0 in parallel with the T.
        let first_swap = r
            .circuit
            .gates()
            .iter()
            .position(|g| g.kind == GateKind::Swap)
            .unwrap();
        assert_eq!(r.start_times[first_swap], 0);
        let swap_gate = &r.circuit.gates()[first_swap];
        assert!(
            !swap_gate.qubits.contains(&2),
            "first SWAP must avoid the busy qubit Q2, got {swap_gate}"
        );
    }

    #[test]
    fn deadlock_is_broken() {
        // A ring where the only blocked gate needs a forced swap: craft a
        // situation with no positive swap: two gates pulling in exactly
        // opposite directions on a line.
        // Program: cx(0,2) and cx(2,0) variants... simpler: single gate
        // at distance 2 with all qubits free and symmetric pulls can
        // still find positive swaps, so emulate the paper's case by a
        // pair of crossing gates on a 4-line.
        let device = Device::linear(4);
        let mut c = Circuit::new(4);
        // cx(0,3) and cx(3,0)-style crossing pressure:
        c.cx(0, 3);
        c.cx(3, 0);
        c.cx(1, 2);
        let r = route_identity(&device, &c);
        check_coupling(&r.circuit, &device).unwrap();
        check_equivalence(&c, &r).unwrap();
    }

    #[test]
    fn barrier_and_measure_are_routed() {
        let device = Device::linear(3);
        let mut c = Circuit::new(3);
        c.h(0);
        c.barrier(vec![0, 1, 2]);
        c.cx(0, 2);
        c.measure(2, 0);
        let r = route_identity(&device, &c);
        check_coupling(&r.circuit, &device).unwrap();
        assert_eq!(r.circuit.count_kind(GateKind::Measure), 1);
        assert_eq!(r.circuit.count_kind(GateKind::Barrier), 1);
    }

    #[test]
    fn too_many_qubits_is_error() {
        let device = Device::linear(2);
        let c = Circuit::new(3);
        let err = CodarRouter::new(&device)
            .route(&c, None, &mut RouterScratch::new())
            .unwrap_err();
        assert!(matches!(err, RouteError::TooManyQubits { .. }));
    }

    /// A supplied mapping must place exactly the circuit's qubits on
    /// the device's; every router reports a mismatch as an error (too
    /// few logical qubits used to panic, extra ones were accepted).
    #[test]
    fn mis_shaped_initial_mapping_is_error() {
        use crate::{GreedyRouter, SabreRouter};
        let device = Device::linear(4);
        let mut c = Circuit::new(3);
        c.cx(0, 2);
        for bad in [
            Mapping::identity(2, 4),
            Mapping::identity(3, 3),
            Mapping::identity(4, 4),
        ] {
            let mut scratch = RouterScratch::new();
            for result in [
                CodarRouter::new(&device).route(&c, Some(&bad), &mut scratch),
                SabreRouter::new(&device).route(&c, Some(&bad), &mut scratch),
                GreedyRouter::new(&device).route(&c, Some(&bad), &mut scratch),
            ] {
                let err = result.unwrap_err();
                assert!(
                    matches!(
                        err,
                        RouteError::MappingShape {
                            circuit: 3,
                            device: 4,
                            ..
                        }
                    ),
                    "{bad:?}: {err}"
                );
            }
        }
    }

    #[test]
    fn three_qubit_gate_is_error() {
        let device = Device::linear(3);
        let mut c = Circuit::new(3);
        c.ccx(0, 1, 2);
        let err = CodarRouter::new(&device)
            .route(&c, None, &mut RouterScratch::new())
            .unwrap_err();
        assert!(matches!(err, RouteError::UnsupportedGate { .. }));
    }

    #[test]
    fn disconnected_device_is_error() {
        let graph = codar_arch::CouplingGraph::new(4, &[(0, 1), (2, 3)]);
        let device = Device::from_graph("split", graph);
        let mut c = Circuit::new(4);
        c.cx(0, 3);
        let config = CodarConfig {
            initial_mapping: InitialMapping::Identity,
            ..CodarConfig::default()
        };
        let err = CodarRouter::with_config(&device, config)
            .route(&c, None, &mut RouterScratch::new())
            .unwrap_err();
        assert!(matches!(err, RouteError::Disconnected { .. }));
    }

    #[test]
    fn more_physical_than_logical_qubits() {
        let device = Device::grid(3, 3);
        let mut c = Circuit::new(4);
        c.cx(0, 1);
        c.cx(1, 2);
        c.cx(2, 3);
        c.cx(3, 0);
        let r = route_identity(&device, &c);
        check_coupling(&r.circuit, &device).unwrap();
        check_equivalence(&c, &r).unwrap();
    }

    #[test]
    fn duration_unaware_ablation_still_correct() {
        let device = Device::grid(2, 3);
        let mut c = Circuit::new(6);
        c.cx(0, 5);
        c.t(1);
        c.cx(2, 3);
        let config = CodarConfig {
            initial_mapping: InitialMapping::Identity,
            enable_duration_awareness: false,
            ..CodarConfig::default()
        };
        let r = CodarRouter::with_config(&device, config)
            .route(&c, None, &mut RouterScratch::new())
            .unwrap();
        check_coupling(&r.circuit, &device).unwrap();
        check_equivalence(&c, &r).unwrap();
    }

    #[test]
    fn no_commutativity_ablation_still_correct() {
        let device = Device::linear(4);
        let mut c = Circuit::new(4);
        c.cx(1, 3);
        c.cx(2, 3);
        c.cx(0, 3);
        let config = CodarConfig {
            initial_mapping: InitialMapping::Identity,
            enable_commutativity: false,
            ..CodarConfig::default()
        };
        let r = CodarRouter::with_config(&device, config)
            .route(&c, None, &mut RouterScratch::new())
            .unwrap();
        check_coupling(&r.circuit, &device).unwrap();
        check_equivalence(&c, &r).unwrap();
    }

    #[test]
    fn empty_circuit_routes_to_empty() {
        let device = Device::linear(2);
        let r = route_identity(&device, &Circuit::new(2));
        assert_eq!(r.gate_count(), 0);
        assert_eq!(r.weighted_depth, 0);
    }

    #[test]
    fn zero_alpha_with_snapshot_is_byte_identical_to_plain_codar() {
        use codar_arch::CalibrationSnapshot;
        let device = Device::ibm_q20_tokyo();
        let snapshot = CalibrationSnapshot::synthetic(&device, 11).drifted(4);
        let mut c = Circuit::new(8);
        for i in 0..8 {
            c.h(i);
            c.cx(i, (i + 3) % 8);
        }
        c.cx(0, 7);
        let config = CodarConfig {
            initial_mapping: InitialMapping::Identity,
            ..CodarConfig::default()
        };
        let plain = CodarRouter::with_config(&device, config.clone())
            .route(&c, None, &mut RouterScratch::new())
            .unwrap();
        let cal = CodarRouter::with_config(&device, config)
            .with_snapshot(&snapshot)
            .route(&c, None, &mut RouterScratch::new())
            .unwrap();
        assert_eq!(plain.circuit.gates(), cal.circuit.gates());
        assert_eq!(plain.start_times, cal.start_times);
        assert_eq!(plain.weighted_depth, cal.weighted_depth);
        assert_eq!(plain.final_mapping, cal.final_mapping);
        assert_eq!(cal.router, "codar-cal");
    }

    #[test]
    fn positive_alpha_avoids_the_poisoned_edge_on_ties() {
        use codar_arch::{CalibrationSnapshot, EdgeCalibration, QubitCalibration};
        // A 2x2 grid: routing cx(0,3) can swap over either of two
        // symmetric edges. Poison one; alpha > 0 must pick the other.
        let device = Device::grid(2, 2);
        let qubit = QubitCalibration {
            t1_us: 0.0,
            t2_us: 0.0,
            readout_error: 0.01,
        };
        let edge = |a: usize, b: usize, error: f64| (a, b, EdgeCalibration { error, duration: 2 });
        let snapshot = CalibrationSnapshot::new(
            device.name(),
            1,
            0.0,
            0.001,
            vec![qubit; 4],
            vec![
                edge(0, 1, 0.25), // poisoned
                edge(0, 2, 0.002),
                edge(1, 3, 0.002),
                edge(2, 3, 0.002),
            ],
        )
        .unwrap();
        let mut c = Circuit::new(4);
        c.cx(0, 3);
        let config = CodarConfig {
            initial_mapping: InitialMapping::Identity,
            cal_alpha: 1.0,
            ..CodarConfig::default()
        };
        let routed = CodarRouter::with_config(&device, config)
            .with_snapshot(&snapshot)
            .route(&c, None, &mut RouterScratch::new())
            .unwrap();
        crate::verify::check_coupling(&routed.circuit, &device).unwrap();
        crate::verify::check_equivalence(&c, &routed).unwrap();
        for gate in routed.circuit.gates() {
            if gate.kind == GateKind::Swap {
                let (a, b) = (
                    gate.qubits[0].min(gate.qubits[1]),
                    gate.qubits[0].max(gate.qubits[1]),
                );
                assert_ne!((a, b), (0, 1), "swap routed over the poisoned edge");
            }
        }
    }

    #[test]
    fn start_times_match_asap() {
        // On this circuit the router's own timeline agrees with
        // re-scheduling its output. That is not true in general: the
        // router can start a gate later than ASAP would (see
        // `start_times_never_precede_asap_on_the_suite`).
        let device = Device::linear(4);
        let mut c = Circuit::new(4);
        c.t(2);
        c.cx(0, 3);
        c.h(1);
        let r = route_identity(&device, &c);
        let tau = device.durations().clone();
        let s = Schedule::asap(&r.circuit, |g| tau.of(g));
        assert_eq!(s.start, r.start_times);
        assert_eq!(s.makespan, r.weighted_depth);
    }

    #[test]
    fn front_counters_are_deterministic_per_route() {
        let device = Device::ibm_q20_tokyo();
        let mut c = Circuit::new(5);
        for i in 0..4 {
            c.h(i);
            c.cx(i, 4);
            c.t(4);
        }
        c.cx(0, 3);
        let router = CodarRouter::new(&device);
        let mut fresh = RouterScratch::new();
        router.route(&c, None, &mut fresh).unwrap();
        let once = fresh.front_counters();
        assert!(once.positions > 0 && once.cf_updates > 0);
        // A scratch that routed other circuits first adds the same counts.
        let mut used = RouterScratch::new();
        router.route(&c.reversed(), None, &mut used).unwrap();
        let before = used.front_counters();
        router.route(&c, None, &mut used).unwrap();
        let after = used.front_counters();
        assert_eq!(after.positions - before.positions, once.positions);
        assert_eq!(
            after.twin_fallbacks - before.twin_fallbacks,
            once.twin_fallbacks
        );
        assert_eq!(after.cf_updates - before.cf_updates, once.cf_updates);
    }

    /// What does hold on every route: a gate starts only once its
    /// qubits' earlier gates have ended, so no router start precedes
    /// the ASAP start of the same output gate.
    #[test]
    fn start_times_never_precede_asap_on_the_suite() {
        use codar_benchmarks::suite::full_suite;
        let mut scratch = RouterScratch::new();
        let mut later = 0;
        for (name, device) in Device::presets() {
            let tau = device.durations();
            let router = CodarRouter::new(&device);
            for entry in full_suite() {
                if entry.num_qubits > device.num_qubits() {
                    continue;
                }
                let r = router.route(&entry.circuit, None, &mut scratch).unwrap();
                let asap = Schedule::asap(&r.circuit, |g| tau.of(g));
                for (i, (&start, &earliest)) in r.start_times.iter().zip(&asap.start).enumerate() {
                    assert!(
                        start >= earliest,
                        "{} on {name}: gate {i} starts at {start} before its ASAP start {earliest}",
                        entry.name
                    );
                }
                later += usize::from(r.start_times != asap.start);
            }
        }
        // The two timelines differ on most routes, so this is not
        // equality in disguise.
        assert!(later > 0);
    }
}
