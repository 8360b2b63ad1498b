//! Per-worker routing state: one [`RouteWorker`] per pool thread.
//!
//! The batch engine ([`crate::SuiteRunner`]), the online routing
//! service (`codar-service`) and the `codar` CLI compile a circuit
//! through one method, [`RouteWorker::compile`]: pick the router an
//! incoming [`RouterVariant`] names (or race a portfolio), route with
//! the worker's reusable [`RouterScratch`], verify, optionally check
//! by simulation, and score EPS. This module is that pipeline's single
//! implementation, so the front ends cannot drift apart: a worker owns
//! exactly one scratch, reuses it for every call it serves, and the
//! dispatch from variant to router lives here and nowhere else.

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

/// A phase of [`RouteWorker::compile`], reported to its callback as
/// the phase ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Routing (a portfolio races and verifies its members here).
    Route,
    /// Coupling and equivalence verification.
    Verify,
    /// The simulation differential check (only when a backend is set).
    Simulate,
}

impl Phase {
    /// The phase's name in the daemon's histograms and trace spans.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Route => "route",
            Phase::Verify => "verify",
            Phase::Simulate => "simulate",
        }
    }
}

/// A compiled circuit: routed, verified, and scored.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The routed circuit.
    pub routed: RoutedCircuit,
    /// The winning member's label (portfolio variants only).
    pub chosen: Option<String>,
    /// The backend the simulation check resolved to (only when one was
    /// requested).
    pub sim: Option<SimBackend>,
    /// Estimated success probability of the routed circuit under the
    /// calibration model (only when one was given).
    pub eps: Option<f64>,
}

/// Why [`RouteWorker::compile`] failed: the phase that failed and the
/// message the daemon replies with (`routing failed: …`,
/// `verification failed (coupling|equivalence): …` or
/// `simulation check failed: …`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    /// The phase that failed.
    pub phase: Phase,
    /// The failure, prefixed with the phase's wording.
    pub message: String,
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
/// let compiled = worker
///     .compile(&c, &device, &variant, Some(&initial), None, None, |_| {})
///     .expect("fits and verifies");
/// let routed = compiled.routed;
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

    /// Compiles `circuit` for `device` under `variant`: routes it (a
    /// [`RouterKind::Portfolio`] variant races its members through
    /// [`RouteWorker::route_portfolio`], scored under the calibration
    /// model), verifies coupling compliance and equivalence, runs the
    /// simulation differential check when `sim` names a backend, and
    /// scores the routed circuit's EPS when `calibration` is given.
    /// `initial` and the snapshot half of `calibration` mean what they
    /// mean for [`RouteWorker::route`].
    ///
    /// `phase_done` is called as each phase ends, the failing one
    /// included, so a caller can time them; a portfolio winner was
    /// verified as it was scored, so its `Verify` phase is empty.
    ///
    /// # Errors
    ///
    /// Returns the failing [`Phase`] with its message.
    #[allow(clippy::too_many_arguments)]
    pub fn compile(
        &mut self,
        circuit: &Circuit,
        device: &Device,
        variant: &RouterVariant,
        initial: Option<&Mapping>,
        calibration: Option<(&CalibrationSnapshot, &FidelityModel)>,
        sim: Option<Backend>,
        mut phase_done: impl FnMut(Phase),
    ) -> Result<Compiled, CompileError> {
        let fail = |phase, message| CompileError { phase, message };
        let snapshot = calibration.map(|(snapshot, _)| snapshot);
        let model = calibration.map(|(_, model)| model);
        let routed = self.dispatch(circuit, device, variant, initial, snapshot, model);
        phase_done(Phase::Route);
        let (routed, chosen) =
            routed.map_err(|e| fail(Phase::Route, format!("routing failed: {e}")))?;
        let verified = match chosen {
            Some(_) => Ok(()),
            None => verify(circuit, &routed, device),
        };
        phase_done(Phase::Verify);
        verified.map_err(|(check, e)| {
            fail(Phase::Verify, format!("verification failed ({check}): {e}"))
        })?;
        // The simulation check reconstructs the routed circuit onto
        // logical qubits (undoing the SWAPs) and simulates both under
        // the engine `backend` resolves to: canonical-tableau equality
        // on the stabilizer backend, state fidelity on dense and
        // sparse. Unlike `check_equivalence`, which reasons about
        // commutation, it checks semantics, and via the stabilizer
        // backend it scales to whole-device Clifford circuits.
        let sim = sim
            .map(|backend| {
                let checked = reconstruct_logical(
                    &routed.circuit,
                    &routed.initial_mapping,
                    circuit.num_qubits(),
                    &routed.inserted_swap_indices,
                )
                .map_err(|e| e.to_string())
                .and_then(|logical| differential_check(circuit, &logical, backend, 0));
                phase_done(Phase::Simulate);
                checked
            })
            .transpose()
            .map_err(|e| fail(Phase::Simulate, format!("simulation check failed: {e}")))?;
        let eps = model.map(|model| model.success_probability(&routed.circuit, device.durations()));
        Ok(Compiled {
            routed,
            chosen,
            sim,
            eps,
        })
    }

    /// Routes `circuit` on `device` with `variant`, unverified.
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
    /// winner of [`RouteWorker::route_portfolio`] over its members,
    /// scored without a calibration model.
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
        self.dispatch(circuit, device, variant, initial.as_ref(), snapshot, None)
            .map(|(routed, _)| routed)
    }

    /// The variant→router dispatch behind [`RouteWorker::route`] and
    /// [`RouteWorker::compile`]; a portfolio also returns its winner's
    /// label.
    fn dispatch(
        &mut self,
        circuit: &Circuit,
        device: &Device,
        variant: &RouterVariant,
        initial: Option<&Mapping>,
        snapshot: Option<&CalibrationSnapshot>,
        model: Option<&FidelityModel>,
    ) -> Result<(RoutedCircuit, Option<String>), RouteError> {
        let scratch = &mut self.scratch;
        let routed = match variant.kind {
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
            RouterKind::Portfolio => {
                return self
                    .route_portfolio(circuit, device, &variant.members, initial, snapshot, model)
                    .map(|outcome| (outcome.routed, Some(outcome.chosen)))
            }
        };
        routed.map(|routed| (routed, None))
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
            let routed = match self.dispatch(circuit, device, member, initial, snapshot, None) {
                Ok((routed, _)) => routed,
                Err(e) => {
                    last_err = e;
                    continue;
                }
            };
            if let Err((_, e)) = verify(circuit, &routed, device) {
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
}

/// Checks a routed circuit against its original: coupling compliance,
/// then semantic equivalence. The error names the check that failed.
/// Every verification the front ends run goes through here.
fn verify(
    original: &Circuit,
    routed: &RoutedCircuit,
    device: &Device,
) -> Result<(), (&'static str, RouteError)> {
    check_coupling(&routed.circuit, device).map_err(|e| ("coupling", e))?;
    check_equivalence(original, routed).map_err(|e| ("equivalence", e))
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

    /// `compile` reports each phase as it ends, stops at the phase that
    /// fails, and words its error the way the daemon replies.
    #[test]
    fn compile_reports_phases_and_the_failing_one() {
        use codar_circuit::from_qasm::circuit_from_source;
        let device = Device::ibm_q5_yorktown();
        let codar = RouterVariant::of_kind(RouterKind::Codar);
        let mut worker = RouteWorker::new();
        let mut compile = |source: &str, sim: Option<Backend>| {
            let circuit = circuit_from_source(source).expect("parses");
            let mut phases = Vec::new();
            let compiled = worker.compile(&circuit, &device, &codar, None, None, sim, |phase| {
                phases.push(phase)
            });
            (compiled, phases)
        };
        let clifford = "qreg q[4]; h q[0]; cx q[0], q[3]; cx q[1], q[2];";
        let (compiled, phases) = compile(clifford, None);
        let compiled = compiled.expect("routes and verifies");
        assert_eq!(phases, [Phase::Route, Phase::Verify]);
        assert_eq!(
            (compiled.chosen, compiled.sim, compiled.eps),
            (None, None, None)
        );
        let (compiled, phases) = compile(clifford, Some(Backend::Auto));
        assert_eq!(phases, [Phase::Route, Phase::Verify, Phase::Simulate]);
        assert_eq!(
            compiled.expect("simulates").sim,
            Some(SimBackend::Stabilizer)
        );
        let (failed, phases) = compile(
            "qreg q[3]; t q[0]; cx q[0], q[2];",
            Some(Backend::Stabilizer),
        );
        let failed = failed.expect_err("T is not Clifford");
        assert_eq!(phases, [Phase::Route, Phase::Verify, Phase::Simulate]);
        assert_eq!(failed.phase, Phase::Simulate);
        assert!(
            failed.message.starts_with("simulation check failed: "),
            "{failed:?}"
        );
        let (failed, phases) = compile("qreg q[6]; cx q[0], q[5];", None);
        let failed = failed.expect_err("6 qubits do not fit Yorktown");
        assert_eq!(phases, [Phase::Route]);
        assert_eq!(failed.phase, Phase::Route);
        assert!(failed.message.starts_with("routing failed: "), "{failed:?}");
    }

    /// Under a calibration model `compile` scores EPS, and a portfolio
    /// variant returns what `route_portfolio` picks under that model,
    /// naming the winner.
    #[test]
    fn compile_scores_eps_and_names_the_portfolio_winner() {
        use codar_arch::{CalibrationSnapshot, FidelityModel};
        let device = Device::ibm_q20_tokyo();
        let snapshot = CalibrationSnapshot::synthetic(&device, 9).drifted(2);
        let model = FidelityModel::from_snapshot(&snapshot);
        let entry = &full_suite()[5];
        let mut worker = RouteWorker::new();
        let initial = worker.initial_mapping(&entry.circuit, &device, 0);
        let auto = RouterVariant::portfolio(0.5);
        let compiled = worker
            .compile(
                &entry.circuit,
                &device,
                &auto,
                Some(&initial),
                Some((&snapshot, &model)),
                None,
                |_| {},
            )
            .expect("fits");
        let outcome = worker
            .route_portfolio(
                &entry.circuit,
                &device,
                &auto.members,
                Some(&initial),
                Some(&snapshot),
                Some(&model),
            )
            .expect("fits");
        assert_eq!(compiled.chosen.as_deref(), Some(outcome.chosen.as_str()));
        assert_eq!(
            compiled.routed.circuit.gates(),
            outcome.routed.circuit.gates()
        );
        let eps = model.success_probability(&compiled.routed.circuit, device.durations());
        assert_eq!(compiled.eps.map(f64::to_bits), Some(eps.to_bits()));
        assert_eq!(
            compiled.eps.map(f64::to_bits),
            Some(outcome.score.to_bits())
        );
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
