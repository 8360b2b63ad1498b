//! Per-worker routing state: one [`RouteWorker`] per pool thread.
//!
//! Both the batch engine ([`crate::SuiteRunner`]) and the online
//! routing service (`codar-service`) run the same inner step — pick the
//! router an incoming [`RouterVariant`] names, thread the worker's
//! reusable [`RouterScratch`] through it, and hand back the
//! [`RoutedCircuit`]. This module is that step's single implementation,
//! so the two pools cannot drift apart: a worker owns exactly one
//! scratch, reuses it for every call it serves, and the dispatch from
//! variant to router lives here and nowhere else.

use crate::job::{RouterKind, RouterVariant};
use codar_arch::{selection_score, CalibrationSnapshot, Device, FidelityModel};
use codar_circuit::Circuit;
use codar_router::sabre::reverse_traversal_mapping;
use codar_router::verify::{check_coupling, check_equivalence, reconstruct_logical};
use codar_router::{
    CodarRouter, GreedyRouter, Mapping, RouteError, RoutedCircuit, RouterScratch, SabreRouter,
};
use codar_sim::backend::differential_check;
use codar_sim::{Backend, SimBackend};

/// What a portfolio route produced: the winning member's result plus
/// the selection evidence.
#[derive(Debug, Clone)]
pub struct PortfolioOutcome {
    /// The winning member's routed circuit.
    pub routed: RoutedCircuit,
    /// The winning member's variant label (e.g. `"codar-cal"`).
    pub chosen: String,
    /// The winner's [`selection_score`] — EPS when a calibration model
    /// was active, else the depth+swap fallback.
    pub score: f64,
    /// How many members routed **and** verified (losers included).
    pub evaluated: usize,
}

/// One pool worker's reusable routing state.
///
/// Holds the [`RouterScratch`] every route call on the owning thread
/// shares (results are scratch-independent; see
/// `codar_router::scratch`) and performs the variant→router dispatch.
///
/// # Examples
///
/// ```
/// use codar_arch::Device;
/// use codar_circuit::Circuit;
/// use codar_engine::{RouteWorker, RouterKind, RouterVariant};
///
/// let device = Device::ibm_q20_tokyo();
/// let variant = RouterVariant::of_kind(RouterKind::Codar);
/// let mut worker = RouteWorker::new();
/// let mut c = Circuit::new(3);
/// c.h(0);
/// c.cx(0, 2);
/// let initial = worker.initial_mapping(&c, &device, 0);
/// let routed = worker
///     .route(&c, &device, &variant, Some(initial), None)
///     .expect("fits the device");
/// assert_eq!(routed.gate_count(), 2 + routed.swaps_inserted);
/// ```
#[derive(Debug, Default)]
pub struct RouteWorker {
    scratch: RouterScratch,
}

impl RouteWorker {
    /// A fresh worker; its scratch buffers grow on first use.
    pub fn new() -> Self {
        RouteWorker::default()
    }

    /// The paper-protocol initial placement (reverse traversal, two
    /// SABRE passes), computed with this worker's scratch.
    pub fn initial_mapping(&mut self, circuit: &Circuit, device: &Device, seed: u64) -> Mapping {
        reverse_traversal_mapping(circuit, device, seed, &mut self.scratch)
    }

    /// Routes `circuit` on `device` with `variant`.
    ///
    /// With `initial = Some(mapping)` the router starts from that
    /// placement (the shared-initial-mapping protocol); with `None`
    /// each variant builds its own placement from its configuration
    /// (the initial-mapping study protocol).
    ///
    /// `snapshot` is the job's calibration snapshot; only
    /// [`RouterKind::CodarCal`] consumes it (blending
    /// `variant.codar.cal_alpha ×` normalized edge error into the SWAP
    /// priority). A `CodarCal` variant without a snapshot routes as
    /// plain CODAR. A [`RouterKind::Portfolio`] variant returns the
    /// winner of [`RouteWorker::route_portfolio`] over its members.
    ///
    /// # Errors
    ///
    /// Propagates the router's [`RouteError`] (circuit does not fit,
    /// disconnected coupling, …).
    pub fn route(
        &mut self,
        circuit: &Circuit,
        device: &Device,
        variant: &RouterVariant,
        initial: Option<Mapping>,
        snapshot: Option<&CalibrationSnapshot>,
    ) -> Result<RoutedCircuit, RouteError> {
        let initial = initial.as_ref();
        let scratch = &mut self.scratch;
        match variant.kind {
            RouterKind::Codar | RouterKind::CodarCal => {
                let router = CodarRouter::with_config(device, variant.codar.clone());
                match snapshot {
                    Some(snapshot) if variant.kind == RouterKind::CodarCal => router
                        .with_snapshot(snapshot)
                        .route(circuit, initial, scratch),
                    _ => router.route(circuit, initial, scratch),
                }
            }
            RouterKind::Sabre => SabreRouter::with_config(device, variant.sabre.clone())
                .route(circuit, initial, scratch),
            RouterKind::Greedy => GreedyRouter::new(device).route(circuit, initial, scratch),
            RouterKind::Portfolio => self
                .route_portfolio(circuit, device, &variant.members, initial, snapshot, None)
                .map(|outcome| outcome.routed),
        }
    }

    /// Routes `circuit` under every `members` variant — reusing this
    /// worker's one scratch across all of them, no fresh allocation per
    /// member — verifies each result (coupling + equivalence), scores
    /// the verified ones with [`selection_score`] (`model` present ⇒
    /// EPS; absent ⇒ depth+swap fallback), and keeps the winner.
    ///
    /// Selection is fully deterministic and member-order-independent:
    /// highest `score.to_bits()` wins, exact ties broken by
    /// lexicographically smallest variant label. Members of kind
    /// [`RouterKind::Portfolio`] are skipped (no recursion).
    ///
    /// # Errors
    ///
    /// Returns the last member's error when **no** member produced a
    /// verified result (or a [`RouteError::Verification`] when the
    /// member list is empty).
    #[allow(clippy::too_many_arguments)]
    pub fn route_portfolio(
        &mut self,
        circuit: &Circuit,
        device: &Device,
        members: &[RouterVariant],
        initial: Option<&Mapping>,
        snapshot: Option<&CalibrationSnapshot>,
        model: Option<&FidelityModel>,
    ) -> Result<PortfolioOutcome, RouteError> {
        let mut best: Option<PortfolioOutcome> = None;
        let mut evaluated = 0usize;
        let mut last_err = RouteError::Verification("portfolio: no members configured".to_string());
        for member in members {
            if member.kind == RouterKind::Portfolio {
                continue;
            }
            let routed = match self.route(circuit, device, member, initial.cloned(), snapshot) {
                Ok(routed) => routed,
                Err(e) => {
                    last_err = e;
                    continue;
                }
            };
            if let Err(e) = check_coupling(&routed.circuit, device)
                .and_then(|()| check_equivalence(circuit, &routed))
            {
                last_err = e;
                continue;
            }
            evaluated += 1;
            let score = selection_score(
                model,
                &routed.circuit,
                device.durations(),
                routed.weighted_depth,
                routed.swaps_inserted as u64,
            );
            let wins = match &best {
                None => true,
                Some(current) => {
                    score.to_bits() > current.score.to_bits()
                        || (score.to_bits() == current.score.to_bits()
                            && member.label < current.chosen)
                }
            };
            if wins {
                best = Some(PortfolioOutcome {
                    routed,
                    chosen: member.label.clone(),
                    score,
                    evaluated: 0,
                });
            }
        }
        match best {
            Some(mut outcome) => {
                outcome.evaluated = evaluated;
                Ok(outcome)
            }
            None => Err(last_err),
        }
    }

    /// Differentially verifies a routed circuit against its original by
    /// *simulating both*: the routed circuit is reconstructed back onto
    /// logical qubits (undoing the router's SWAPs) and the two are run
    /// under the engine `backend` resolves to — canonical-tableau
    /// equality on the stabilizer backend, state fidelity on dense and
    /// sparse. Stronger than [`codar_router::verify::check_equivalence`]
    /// (which reasons syntactically about commutation) and, via the
    /// stabilizer backend, the only equivalence check that scales to
    /// whole-device Clifford circuits.
    ///
    /// Returns the resolved [`SimBackend`] on success.
    ///
    /// # Errors
    ///
    /// Returns a message when the backend cannot run the circuit, the
    /// reconstruction fails, or the simulated states differ.
    pub fn simulation_check(
        &self,
        original: &Circuit,
        routed: &RoutedCircuit,
        backend: Backend,
    ) -> Result<SimBackend, String> {
        let logical = reconstruct_logical(
            &routed.circuit,
            &routed.initial_mapping,
            original.num_qubits(),
            &routed.inserted_swap_indices,
        )
        .map_err(|e| e.to_string())?;
        differential_check(original, &logical, backend, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codar_benchmarks::suite::full_suite;

    /// The worker dispatch must produce exactly what calling the
    /// routers directly produces — for every kind, shared or own
    /// placement.
    #[test]
    fn dispatch_matches_direct_router_calls() {
        let device = Device::ibm_q20_tokyo();
        let entry = &full_suite()[4];
        let mut worker = RouteWorker::new();
        for kind in [
            RouterKind::Codar,
            RouterKind::CodarCal,
            RouterKind::Sabre,
            RouterKind::Greedy,
        ] {
            let variant = RouterVariant::of_kind(kind);
            let initial = worker.initial_mapping(&entry.circuit, &device, 0);
            let via_worker = worker
                .route(
                    &entry.circuit,
                    &device,
                    &variant,
                    Some(initial.clone()),
                    None,
                )
                .expect("fits");
            let direct = match kind {
                // Snapshot-less codar-cal routes exactly as CODAR.
                RouterKind::Codar | RouterKind::CodarCal => CodarRouter::new(&device).route(
                    &entry.circuit,
                    Some(&initial),
                    &mut RouterScratch::new(),
                ),
                RouterKind::Sabre => SabreRouter::new(&device).route(
                    &entry.circuit,
                    Some(&initial),
                    &mut RouterScratch::new(),
                ),
                RouterKind::Greedy => GreedyRouter::new(&device).route(
                    &entry.circuit,
                    Some(&initial),
                    &mut RouterScratch::new(),
                ),
                RouterKind::Portfolio => unreachable!("not in this test's kind list"),
            }
            .expect("fits");
            assert_eq!(via_worker.circuit.gates(), direct.circuit.gates());
            assert_eq!(via_worker.weighted_depth, direct.weighted_depth);
        }
    }

    /// The codar-cal dispatch: without a snapshot (or with alpha 0) it
    /// routes identically to plain CODAR; with a drifted snapshot and
    /// alpha > 0 it still verifies.
    #[test]
    fn codar_cal_dispatch_reduces_and_verifies() {
        use codar_arch::CalibrationSnapshot;
        let device = Device::ibm_q20_tokyo();
        let entry = &full_suite()[6];
        let mut worker = RouteWorker::new();
        let initial = worker.initial_mapping(&entry.circuit, &device, 0);
        let plain = worker
            .route(
                &entry.circuit,
                &device,
                &RouterVariant::of_kind(RouterKind::Codar),
                Some(initial.clone()),
                None,
            )
            .expect("fits");
        let snapshot = CalibrationSnapshot::synthetic(&device, 5).drifted(1);
        let cal_variant = RouterVariant::of_kind(RouterKind::CodarCal);
        // Default cal_alpha = 0: byte-identical to plain CODAR even
        // with the snapshot attached.
        let zero = worker
            .route(
                &entry.circuit,
                &device,
                &cal_variant,
                Some(initial.clone()),
                Some(&snapshot),
            )
            .expect("fits");
        assert_eq!(plain.circuit.gates(), zero.circuit.gates());
        assert_eq!(plain.weighted_depth, zero.weighted_depth);
        // alpha > 0 may reroute but must stay valid and equivalent.
        let mut blended_variant = RouterVariant::of_kind(RouterKind::CodarCal);
        blended_variant.codar.cal_alpha = 1.0;
        let blended = worker
            .route(
                &entry.circuit,
                &device,
                &blended_variant,
                Some(initial),
                Some(&snapshot),
            )
            .expect("fits");
        codar_router::verify::check_coupling(&blended.circuit, &device).expect("coupling");
        codar_router::verify::check_equivalence(&entry.circuit, &blended).expect("equivalence");
    }

    /// `None` initial mapping routes from the variant's own placement.
    #[test]
    fn own_placement_path_verifies() {
        let device = Device::ibm_q20_tokyo();
        let entry = &full_suite()[2];
        let mut worker = RouteWorker::new();
        let variant = RouterVariant::of_kind(RouterKind::Codar);
        let routed = worker
            .route(&entry.circuit, &device, &variant, None, None)
            .expect("fits");
        codar_router::verify::check_coupling(&routed.circuit, &device).expect("coupling");
        codar_router::verify::check_equivalence(&entry.circuit, &routed).expect("equivalence");
    }

    /// The portfolio winner is the member with the best selection
    /// score, the tie-break is member-order-independent, and scratch
    /// reuse across members never changes the outcome.
    #[test]
    fn portfolio_selects_best_member_deterministically() {
        use crate::job::DEFAULT_PORTFOLIO_ALPHA;
        use codar_arch::{selection_score, CalibrationSnapshot, FidelityModel};
        let device = Device::ibm_q20_tokyo();
        let snapshot = CalibrationSnapshot::synthetic(&device, 9).drifted(2);
        let model = FidelityModel::from_snapshot(&snapshot);
        let members = RouterVariant::portfolio_members(DEFAULT_PORTFOLIO_ALPHA);
        for entry in full_suite().iter().take(5) {
            let mut worker = RouteWorker::new();
            let initial = worker.initial_mapping(&entry.circuit, &device, 0);
            let outcome = worker
                .route_portfolio(
                    &entry.circuit,
                    &device,
                    &members,
                    Some(&initial),
                    Some(&snapshot),
                    Some(&model),
                )
                .expect("fits");
            assert_eq!(outcome.evaluated, members.len(), "{}", entry.name);
            // The winner's score is the max over every member routed
            // independently with a fresh worker.
            let mut best_score = f64::NEG_INFINITY;
            for member in &members {
                let mut fresh = RouteWorker::new();
                let routed = fresh
                    .route(
                        &entry.circuit,
                        &device,
                        member,
                        Some(initial.clone()),
                        Some(&snapshot),
                    )
                    .expect("fits");
                let score = selection_score(
                    Some(&model),
                    &routed.circuit,
                    device.durations(),
                    routed.weighted_depth,
                    routed.swaps_inserted as u64,
                );
                best_score = best_score.max(score);
            }
            assert_eq!(
                outcome.score.to_bits(),
                best_score.to_bits(),
                "{}: portfolio must pick the max-score member",
                entry.name
            );
            // Member-order independence: reversing the list picks the
            // identical winner (label and routed bytes).
            let mut reversed_members = members.clone();
            reversed_members.reverse();
            let reversed = worker
                .route_portfolio(
                    &entry.circuit,
                    &device,
                    &reversed_members,
                    Some(&initial),
                    Some(&snapshot),
                    Some(&model),
                )
                .expect("fits");
            assert_eq!(outcome.chosen, reversed.chosen, "{}", entry.name);
            assert_eq!(
                outcome.routed.circuit.gates(),
                reversed.routed.circuit.gates(),
                "{}",
                entry.name
            );
            // The winner is valid and equivalent.
            check_coupling(&outcome.routed.circuit, &device).expect("coupling");
            check_equivalence(&entry.circuit, &outcome.routed).expect("equivalence");
        }
    }

    /// Without a model the fallback score prefers lower weighted depth
    /// + swaps; nested portfolio members are skipped, and an empty
    /// member list is an error, not a panic.
    #[test]
    fn portfolio_fallback_and_edge_cases() {
        let device = Device::ibm_q20_tokyo();
        let entry = &full_suite()[4];
        let mut worker = RouteWorker::new();
        let initial = worker.initial_mapping(&entry.circuit, &device, 0);
        let members = RouterVariant::portfolio_members(0.5);
        let outcome = worker
            .route_portfolio(
                &entry.circuit,
                &device,
                &members,
                Some(&initial),
                None,
                None,
            )
            .expect("fits");
        // Fallback score = 1 / (1 + weighted_depth + swaps), so the
        // winner minimizes weighted_depth + swaps.
        let winner_cost = outcome.routed.weighted_depth + outcome.routed.swaps_inserted as u64;
        for member in &members {
            let routed = worker
                .route(&entry.circuit, &device, member, Some(initial.clone()), None)
                .expect("fits");
            assert!(
                winner_cost <= routed.weighted_depth + routed.swaps_inserted as u64,
                "{} beat the portfolio winner",
                member.label
            );
        }
        // A nested portfolio member is skipped, not recursed into.
        let mut nested = vec![RouterVariant::of_kind(RouterKind::Portfolio)];
        nested.push(RouterVariant::of_kind(RouterKind::Codar));
        let outcome = worker
            .route_portfolio(&entry.circuit, &device, &nested, Some(&initial), None, None)
            .expect("the codar member still routes");
        assert_eq!(outcome.chosen, "codar");
        assert_eq!(outcome.evaluated, 1);
        // No members at all: an error, not a panic.
        assert!(worker
            .route_portfolio(&entry.circuit, &device, &[], Some(&initial), None, None)
            .is_err());
        // The generic dispatch path delegates and returns the winner.
        let auto = RouterVariant::of_kind(RouterKind::Portfolio);
        let via_route = worker
            .route(&entry.circuit, &device, &auto, Some(initial.clone()), None)
            .expect("fits");
        check_coupling(&via_route.circuit, &device).expect("coupling");
    }

    /// One worker reused across many calls gives the same results as a
    /// fresh worker per call.
    #[test]
    fn reuse_across_calls_is_invisible() {
        let device = Device::ibm_q16_melbourne();
        let mut reused = RouteWorker::new();
        for entry in full_suite().iter().take(6) {
            for kind in [RouterKind::Codar, RouterKind::Sabre] {
                let variant = RouterVariant::of_kind(kind);
                let shared_initial = reused.initial_mapping(&entry.circuit, &device, 0);
                let a = reused
                    .route(
                        &entry.circuit,
                        &device,
                        &variant,
                        Some(shared_initial),
                        None,
                    )
                    .expect("fits");
                let mut fresh = RouteWorker::new();
                let fresh_initial = fresh.initial_mapping(&entry.circuit, &device, 0);
                let b = fresh
                    .route(&entry.circuit, &device, &variant, Some(fresh_initial), None)
                    .expect("fits");
                assert_eq!(a.circuit.gates(), b.circuit.gates(), "{}", entry.name);
                assert_eq!(a.weighted_depth, b.weighted_depth, "{}", entry.name);
            }
        }
    }
}
