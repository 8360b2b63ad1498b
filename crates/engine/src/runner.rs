//! The [`SuiteRunner`]: fans the job matrix across a worker pool.
//!
//! Workers are plain `std::thread`s inside a [`std::thread::scope`];
//! they claim jobs from a shared atomic cursor (cheap work stealing —
//! job granularity is a whole route call, so contention is negligible)
//! and stream `(job id, result)` pairs back over an mpsc channel.
//! Because every job is independent and its output is keyed by job id,
//! the assembled [`Summary`] is identical for any thread count.
//!
//! Each [`Device`] is constructed **once** and shared as an
//! [`Arc<Device>`]; its all-pairs distance matrix (computed eagerly at
//! construction) is therefore paid once per device, not once per job —
//! on a 54-qubit Sycamore that matrix alone is ~3k BFS visits a job
//! would otherwise repeat.
//!
//! Noise-simulation jobs seed their trajectory RNG from the *identity*
//! of the job (circuit, device, variant, noise labels folded into the
//! engine seed), never from scheduling order — which is what keeps
//! fidelity summaries byte-identical across thread counts.

use crate::job::{
    build_matrix, CalibrationSpec, EngineConfig, JobSpec, NoiseSpec, RouterKind, RouterVariant,
    DEFAULT_PORTFOLIO_ALPHA,
};
use crate::report::{FidelityStats, RouteReport, RouterTiming, RunStats, Summary};
use crate::worker::{Compiled, RouteWorker};
use codar_arch::{CalibrationSnapshot, Device, FidelityModel};
use codar_benchmarks::suite::SuiteEntry;
use codar_router::{Mapping, RoutedCircuit};
use codar_sim::{Backend, FidelityReport, SimBackend};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::time::{Duration, Instant};

/// A job that returned a router error (e.g. disconnected coupling).
#[derive(Debug, Clone)]
pub struct JobFailure {
    /// The failed job.
    pub job: JobSpec,
    /// Benchmark name.
    pub circuit: String,
    /// Device name.
    pub device: String,
    /// Stringified router error.
    pub error: String,
}

/// Everything a run produces.
#[derive(Debug, Clone)]
pub struct SuiteResult {
    /// Deterministic summary (see [`Summary`] for the guarantees).
    pub summary: Summary,
    /// Wall-clock and sizing statistics (nondeterministic).
    pub stats: RunStats,
    /// Jobs that errored, in job-id order.
    pub failures: Vec<JobFailure>,
}

/// Parallel suite-routing engine.
///
/// # Examples
///
/// ```
/// use codar_arch::Device;
/// use codar_benchmarks::suite::full_suite;
/// use codar_engine::{EngineConfig, SuiteRunner};
///
/// let entries: Vec<_> = full_suite().into_iter().take(4).collect();
/// let result = SuiteRunner::new(EngineConfig::default())
///     .device(Device::ibm_q20_tokyo())
///     .entries(entries)
///     .run();
/// assert!(result.failures.is_empty());
/// assert_eq!(result.summary.rows.len(), 8); // 4 circuits x 2 routers
/// assert!(result.summary.rows.iter().all(|r| r.verified == Some(true)));
/// ```
///
/// Fidelity runs fan noise-simulation jobs across the same pool:
///
/// ```
/// use codar_arch::Device;
/// use codar_benchmarks::suite::fidelity_suite;
/// use codar_engine::{EngineConfig, NoiseSpec, SuiteRunner};
/// use codar_sim::NoiseModel;
///
/// let entries: Vec<_> = fidelity_suite().into_iter().take(2).collect();
/// let result = SuiteRunner::new(EngineConfig::default())
///     .device(Device::ibm_q20_tokyo())
///     .entries(entries)
///     .noise(NoiseSpec::new("dephasing", NoiseModel::dephasing_dominant(), 10))
///     .run();
/// assert!(result.summary.rows.iter().all(|r| r.fidelity.is_some()));
/// ```
#[derive(Debug, Clone)]
pub struct SuiteRunner {
    config: EngineConfig,
    devices: Vec<Arc<Device>>,
    entries: Vec<SuiteEntry>,
    variants: Vec<RouterVariant>,
    noise: Vec<NoiseSpec>,
    calibrations: Vec<CalibrationSpec>,
    sim: Option<Backend>,
}

impl SuiteRunner {
    /// Creates an empty runner with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        SuiteRunner {
            config,
            devices: Vec::new(),
            entries: Vec::new(),
            variants: Vec::new(),
            noise: Vec::new(),
            calibrations: Vec::new(),
            sim: None,
        }
    }

    /// Adds one target device.
    #[must_use]
    pub fn device(mut self, device: Device) -> Self {
        self.devices.push(Arc::new(device));
        self
    }

    /// Adds several target devices.
    #[must_use]
    pub fn devices(mut self, devices: impl IntoIterator<Item = Device>) -> Self {
        self.devices.extend(devices.into_iter().map(Arc::new));
        self
    }

    /// Sets the benchmark entries to route.
    #[must_use]
    pub fn entries(mut self, entries: Vec<SuiteEntry>) -> Self {
        self.entries = entries;
        self
    }

    /// Adds one router variant. When no variant is added, the runner
    /// derives default-config variants from `config.routers`.
    #[must_use]
    pub fn variant(mut self, variant: RouterVariant) -> Self {
        self.variants.push(variant);
        self
    }

    /// Adds several router variants.
    #[must_use]
    pub fn variants(mut self, variants: impl IntoIterator<Item = RouterVariant>) -> Self {
        self.variants.extend(variants);
        self
    }

    /// Adds one noise regime: every job simulates its routed circuit
    /// under it and reports a fidelity.
    #[must_use]
    pub fn noise(mut self, spec: NoiseSpec) -> Self {
        self.noise.push(spec);
        self
    }

    /// Adds several noise regimes.
    #[must_use]
    pub fn noise_specs(mut self, specs: impl IntoIterator<Item = NoiseSpec>) -> Self {
        self.noise.extend(specs);
        self
    }

    /// Adds one calibration point: the job matrix gains a snapshot
    /// axis (snapshot × circuit × device × variant), `codar-cal`
    /// variants route against each point's per-device snapshot, and
    /// every report gains an `eps` column (estimated success
    /// probability of the routed circuit under that snapshot). Without
    /// calibration points the matrix, reports and serializations are
    /// byte-identical to the pre-calibration engine.
    #[must_use]
    pub fn calibration(mut self, spec: CalibrationSpec) -> Self {
        self.calibrations.push(spec);
        self
    }

    /// Adds several calibration points.
    #[must_use]
    pub fn calibrations(mut self, specs: impl IntoIterator<Item = CalibrationSpec>) -> Self {
        self.calibrations.extend(specs);
        self
    }

    /// Turns on the simulation axis: every job additionally verifies
    /// its routed circuit *semantically* by simulating it against the
    /// original under `backend` (see [`RouteWorker::compile`]).
    /// A failed check fails the job. Rows whose circuit resolved to a
    /// non-dense engine report the resolved backend in a `sim` column;
    /// dense rows (and runs without this axis) carry no new fields, so
    /// pre-existing summaries stay byte-identical.
    #[must_use]
    pub fn sim_backend(mut self, backend: Backend) -> Self {
        self.sim = Some(backend);
        self
    }

    /// Worker threads the run will use (resolving `threads == 0`).
    pub fn effective_threads(&self) -> usize {
        if self.config.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.config.threads
        }
    }

    /// The variant table a run will use: the explicit `.variant()`
    /// list, or default-config variants from `config.routers`.
    fn effective_variants(&self) -> Vec<RouterVariant> {
        if self.variants.is_empty() {
            self.config
                .routers
                .iter()
                .map(|&kind| RouterVariant {
                    label: kind.name().to_string(),
                    kind,
                    codar: self.config.codar.clone(),
                    sabre: self.config.sabre.clone(),
                    members: if kind == RouterKind::Portfolio {
                        RouterVariant::portfolio_members(DEFAULT_PORTFOLIO_ALPHA)
                    } else {
                        Vec::new()
                    },
                })
                .collect()
        } else {
            self.variants.clone()
        }
    }

    /// Routes the full matrix and assembles the deterministic summary.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics (propagated by the scope).
    pub fn run(&self) -> SuiteResult {
        let variants = self.effective_variants();
        let mut jobs = build_matrix(
            &self.entries,
            &self.devices,
            &variants,
            self.calibrations.len(),
        );
        for job in &mut jobs {
            job.sim = self.sim;
        }
        let jobs = jobs;
        let threads = self.effective_threads().clamp(1, jobs.len().max(1));
        let started = Instant::now();

        // One snapshot + EPS model per (calibration spec, device),
        // instantiated up front (deterministically — snapshots are
        // seeded) and shared by every job of that cell.
        let cal_ctx: Vec<(Arc<CalibrationSnapshot>, Arc<FidelityModel>)> = self
            .calibrations
            .iter()
            .flat_map(|spec| {
                self.devices
                    .iter()
                    .map(move |device| spec.instantiate(device))
            })
            .collect();

        // One initial-mapping slot per (entry, device) cell: the
        // reverse-traversal mapping is itself two routing passes, and
        // every router job in a cell shares the same one (the paper's
        // protocol), so compute it once — whichever worker gets there
        // first fills the slot.
        let mappings: Vec<OnceLock<Mapping>> = (0..self.entries.len() * self.devices.len())
            .map(|_| OnceLock::new())
            .collect();

        let cursor = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(JobSpec, Result<Vec<RouteReport>, String>)>();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let tx = tx.clone();
                let cursor = &cursor;
                let jobs = &jobs;
                let mappings = &mappings;
                let variants = &variants;
                let cal_ctx = &cal_ctx;
                scope.spawn(move || {
                    // One RouteWorker per pool thread: every route call
                    // on this thread reuses the same scratch buffers
                    // (results are scratch-independent; see
                    // codar_router::scratch).
                    let mut worker = RouteWorker::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&job) = jobs.get(i) else { break };
                        let outcome = self.run_job(job, variants, mappings, cal_ctx, &mut worker);
                        if tx.send((job, outcome)).is_err() {
                            break;
                        }
                    }
                });
            }
        });
        drop(tx);

        let mut reports = Vec::with_capacity(jobs.len());
        let mut failures = Vec::new();
        let mut total_route_time = Duration::ZERO;
        let mut by_router: BTreeMap<String, (usize, Duration)> = BTreeMap::new();
        for (job, outcome) in rx {
            match outcome {
                Ok(job_reports) => {
                    for report in job_reports {
                        total_route_time += report.wall;
                        let slot = by_router.entry(report.variant.clone()).or_default();
                        slot.0 += 1;
                        slot.1 += report.wall;
                        reports.push(report);
                    }
                }
                Err(error) => failures.push(JobFailure {
                    job,
                    circuit: self.entries[job.entry].name.clone(),
                    device: self.devices[job.device].name().to_string(),
                    error,
                }),
            }
        }
        failures.sort_by_key(|f| f.job.id);

        let stats = RunStats {
            threads,
            jobs: jobs.len(),
            failures: failures.len(),
            wall: started.elapsed(),
            total_route_time,
            per_router: by_router
                .into_iter()
                .map(|(router, (jobs, total))| RouterTiming {
                    router,
                    jobs,
                    total,
                })
                .collect(),
        };
        SuiteResult {
            summary: Summary::from_reports(self.config.seed, reports),
            stats,
            failures,
        }
    }

    /// Per-job noise RNG seed: the engine seed folded with a stable
    /// FNV-1a hash of the job's identity. Deterministic for a given
    /// matrix, independent of scheduling order and thread count.
    fn job_seed(&self, circuit: &str, device: &str, variant: &str, noise: &str) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = FNV_OFFSET ^ self.config.seed;
        for part in [circuit, "\0", device, "\0", variant, "\0", noise] {
            for byte in part.as_bytes() {
                hash ^= u64::from(*byte);
                hash = hash.wrapping_mul(FNV_PRIME);
            }
        }
        hash
    }

    /// Runs one job: route once, verify once, then (in fidelity runs)
    /// simulate the routed circuit under every noise spec — one report
    /// per regime, all sharing the single routing pass.
    fn run_job(
        &self,
        job: JobSpec,
        variants: &[RouterVariant],
        mappings: &[OnceLock<Mapping>],
        cal_ctx: &[(Arc<CalibrationSnapshot>, Arc<FidelityModel>)],
        worker: &mut RouteWorker,
    ) -> Result<Vec<RouteReport>, String> {
        let entry = &self.entries[job.entry];
        let device = &self.devices[job.device];
        let variant = &variants[job.variant];
        // Spec-major layout, matching the flat_map in `run`.
        let cal = job.cal.map(|spec| {
            (
                &self.calibrations[spec],
                &cal_ctx[spec * self.devices.len() + job.device],
            )
        });
        // With shared_initial_mapping every router job in a (entry,
        // device) cell routes from the same reverse-traversal placement
        // (the paper's protocol); otherwise each variant builds its own
        // placement from its config — the initial-mapping study
        // protocol (RouteWorker routes from the variant's own placement
        // when no initial mapping is supplied).
        let initial = self.config.shared_initial_mapping.then(|| {
            mappings[job.device * self.entries.len() + job.entry]
                .get_or_init(|| worker.initial_mapping(&entry.circuit, device, self.config.seed))
        });
        // The clock starts once the shared mapping is in hand: it is
        // built once per (entry, device) cell, and charging it to the
        // variant that happens to build it would skew that variant's
        // wall time.
        let started = Instant::now();
        // One compile: route (a portfolio keeps its best member, scored
        // against the job's calibration model, and names it in the
        // `chosen` column), verify, run the simulation axis, and score
        // EPS under the job's calibration point. A failed phase fails
        // the job. Only non-dense sim resolutions are reported, so
        // summaries without that axis (and dense rows within it) stay
        // byte-identical.
        let Compiled {
            routed,
            chosen,
            sim,
            eps,
        } = worker
            .compile(
                &entry.circuit,
                device,
                variant,
                initial,
                cal.map(|(_, (snapshot, model))| (snapshot.as_ref(), model.as_ref())),
                job.sim,
                |_| {},
            )
            .map_err(|e| e.message)?;
        let sim_label = sim
            .filter(|&resolved| resolved != SimBackend::Dense)
            .map(|resolved| resolved.name().to_string());
        let cal_label = cal.map(|(spec, _)| spec.label.clone());

        let base_report = |noise: Option<String>,
                           fidelity: Option<FidelityStats>,
                           routed_out: Option<RoutedCircuit>,
                           wall: Duration| RouteReport {
            job_id: job.id,
            circuit: entry.name.clone(),
            device: device.name().to_string(),
            num_qubits: entry.num_qubits,
            input_gates: entry.circuit.len(),
            router: variant.kind,
            variant: variant.label.clone(),
            noise,
            cal: cal_label.clone(),
            eps,
            sim: sim_label.clone(),
            chosen: chosen.clone(),
            weighted_depth: routed.weighted_depth,
            depth: routed.depth(),
            swaps: routed.swaps_inserted,
            output_gates: routed.gate_count(),
            verified: Some(true),
            fidelity,
            routed: routed_out,
            wall,
        };

        if self.noise.is_empty() {
            let routed_out = self.config.keep_routed.then(|| routed.clone());
            return Ok(vec![base_report(None, None, routed_out, started.elapsed())]);
        }

        // Fidelity run: the routing pass above is shared; each regime
        // pays only its own simulation time (the first report also
        // carries the routing wall).
        let mut reports = Vec::with_capacity(self.noise.len());
        let mut previous = started.elapsed();
        for spec in &self.noise {
            let seed = self.job_seed(&entry.name, device.name(), &variant.label, &spec.label);
            let tau = device.durations();
            let estimate = FidelityReport::estimate(
                &routed.circuit,
                |g| tau.of(g),
                &spec.model,
                spec.trajectories,
                seed,
            );
            let now = started.elapsed();
            let wall = if reports.is_empty() {
                now
            } else {
                now - previous
            };
            let routed_out = self.config.keep_routed.then(|| routed.clone());
            reports.push(base_report(
                Some(spec.label.clone()),
                Some(FidelityStats {
                    mean: estimate.mean,
                    std_error: estimate.std_error,
                    trajectories: estimate.trajectories,
                }),
                routed_out,
                wall,
            ));
            previous = now;
        }
        Ok(reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::RouterKind;
    use codar_benchmarks::suite::full_suite;
    use codar_router::{CodarConfig, InitialMapping};
    use codar_sim::NoiseModel;

    fn small_entries(n: usize) -> Vec<SuiteEntry> {
        full_suite().into_iter().take(n).collect()
    }

    #[test]
    fn single_thread_run_completes_and_verifies() {
        let result = SuiteRunner::new(EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        })
        .device(Device::ibm_q20_tokyo())
        .entries(small_entries(5))
        .run();
        assert_eq!(result.stats.jobs, 10);
        assert_eq!(result.stats.threads, 1);
        assert!(result.failures.is_empty());
        assert!(result.summary.rows.iter().all(|r| r.verified == Some(true)));
        assert_eq!(result.summary.comparisons.len(), 5);
        // Per-router timing: both variants accounted for every job.
        assert_eq!(result.stats.per_router.len(), 2);
        assert!(result.stats.per_router.iter().all(|t| t.jobs == 5));
    }

    #[test]
    fn oversized_devices_are_skipped_not_failed() {
        let result = SuiteRunner::new(EngineConfig {
            threads: 2,
            ..EngineConfig::default()
        })
        .device(Device::linear(4))
        .entries(small_entries(8))
        .run();
        // Only circuits with <= 4 qubits become jobs at all.
        assert!(result.summary.rows.iter().all(|r| r.num_qubits <= 4));
        assert!(result.failures.is_empty());
    }

    #[test]
    fn greedy_router_is_supported() {
        let result = SuiteRunner::new(EngineConfig {
            threads: 2,
            routers: vec![RouterKind::Codar, RouterKind::Sabre, RouterKind::Greedy],
            ..EngineConfig::default()
        })
        .device(Device::ibm_q20_tokyo())
        .entries(small_entries(3))
        .run();
        assert_eq!(result.stats.jobs, 9);
        assert!(result.failures.is_empty());
        // Greedy rows exist but don't produce comparisons on their own.
        assert_eq!(result.summary.comparisons.len(), 3);
    }

    #[test]
    fn ablation_variants_route_under_their_own_configs() {
        let result = SuiteRunner::new(EngineConfig {
            threads: 2,
            ..EngineConfig::default()
        })
        .device(Device::ibm_q20_tokyo())
        .entries(small_entries(2))
        .variant(RouterVariant::codar("full", CodarConfig::default()))
        .variant(RouterVariant::codar(
            "no duration",
            CodarConfig {
                enable_duration_awareness: false,
                ..CodarConfig::default()
            },
        ))
        .run();
        assert_eq!(result.stats.jobs, 4);
        assert!(result.failures.is_empty());
        let labels: Vec<_> = result
            .summary
            .rows
            .iter()
            .map(|r| r.variant.as_str())
            .collect();
        assert!(labels.contains(&"full") && labels.contains(&"no duration"));
        // No "codar"/"sabre" labels, so no speedup comparisons.
        assert!(result.summary.comparisons.is_empty());
    }

    #[test]
    fn per_variant_initial_mappings_differ_from_shared_protocol() {
        let shared = SuiteRunner::new(EngineConfig {
            threads: 1,
            routers: vec![RouterKind::Codar],
            ..EngineConfig::default()
        })
        .device(Device::ibm_q20_tokyo())
        .entries(small_entries(3))
        .run();
        let own = SuiteRunner::new(EngineConfig {
            threads: 1,
            shared_initial_mapping: false,
            ..EngineConfig::default()
        })
        .device(Device::ibm_q20_tokyo())
        .entries(small_entries(3))
        .variant(RouterVariant::codar(
            "identity",
            CodarConfig {
                initial_mapping: InitialMapping::Identity,
                ..CodarConfig::default()
            },
        ))
        .run();
        assert!(shared.failures.is_empty() && own.failures.is_empty());
        assert!(own.summary.rows.iter().all(|r| r.verified == Some(true)));
    }

    #[test]
    fn keep_routed_attaches_circuits() {
        let result = SuiteRunner::new(EngineConfig {
            threads: 1,
            keep_routed: true,
            ..EngineConfig::default()
        })
        .device(Device::ibm_q20_tokyo())
        .entries(small_entries(2))
        .run();
        for row in &result.summary.rows {
            let routed = row.routed.as_ref().expect("keep_routed attaches circuits");
            assert_eq!(routed.gate_count(), row.output_gates);
        }
    }

    #[test]
    fn calibration_axis_reports_eps_and_stays_deterministic() {
        let run = |threads: usize| {
            let mut cal_variant = RouterVariant::of_kind(RouterKind::CodarCal);
            cal_variant.codar.cal_alpha = 0.5;
            SuiteRunner::new(EngineConfig {
                threads,
                ..EngineConfig::default()
            })
            .device(Device::ibm_q20_tokyo())
            .entries(small_entries(3))
            .variant(RouterVariant::of_kind(RouterKind::Codar))
            .variant(cal_variant)
            .calibration(CalibrationSpec::uniform("uniform"))
            .calibration(CalibrationSpec::synthetic("drift1", 7, 1))
            .run()
        };
        let one = run(1);
        let four = run(4);
        // 3 circuits x 2 variants x 2 calibration points.
        assert_eq!(one.stats.jobs, 12);
        assert!(one.failures.is_empty());
        assert!(one.summary.rows.iter().all(|r| {
            r.verified == Some(true)
                && r.cal.is_some()
                && r.eps.is_some_and(|e| e > 0.0 && e <= 1.0)
        }));
        assert_eq!(
            one.summary.to_json(),
            four.summary.to_json(),
            "calibrated summaries must be byte-identical across thread counts"
        );
        // The json carries the new columns for calibrated rows.
        assert!(one.summary.to_json().contains("\"cal\": \"drift1\""));
        assert!(one
            .summary
            .to_csv()
            .lines()
            .next()
            .unwrap()
            .ends_with(",cal,eps"));
    }

    #[test]
    fn sim_axis_verifies_and_reports_non_dense_backends() {
        let run = |threads: usize| {
            SuiteRunner::new(EngineConfig {
                threads,
                ..EngineConfig::default()
            })
            .device(Device::ibm_q20_tokyo())
            .entries(small_entries(6))
            .sim_backend(codar_sim::Backend::Auto)
            .run()
        };
        let one = run(1);
        let four = run(4);
        assert!(one.failures.is_empty(), "{:?}", one.failures);
        assert_eq!(
            one.summary.to_json(),
            four.summary.to_json(),
            "sim-axis summaries must be byte-identical across thread counts"
        );
        // The suite mixes Clifford and non-Clifford circuits: at least
        // one row must resolve off the dense engine, and every sim
        // label is one of the two non-dense names.
        assert!(one.summary.rows.iter().any(|r| r.sim.is_some()));
        for row in &one.summary.rows {
            if let Some(sim) = &row.sim {
                assert!(sim == "stabilizer" || sim == "sparse", "{sim}");
            }
        }
        // Without the axis the summary carries no sim fields at all.
        let plain = SuiteRunner::new(EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        })
        .device(Device::ibm_q20_tokyo())
        .entries(small_entries(6))
        .run();
        assert!(!plain.summary.to_json().contains("\"sim\""));
    }

    #[test]
    fn portfolio_axis_reports_chosen_and_stays_deterministic() {
        let run = |threads: usize| {
            SuiteRunner::new(EngineConfig {
                threads,
                routers: vec![RouterKind::Codar, RouterKind::Portfolio],
                ..EngineConfig::default()
            })
            .device(Device::ibm_q20_tokyo())
            .entries(small_entries(4))
            .calibration(CalibrationSpec::synthetic("drift2", 7, 2))
            .run()
        };
        let one = run(1);
        let four = run(4);
        assert!(one.failures.is_empty(), "{:?}", one.failures);
        assert_eq!(
            one.summary.to_json(),
            four.summary.to_json(),
            "portfolio summaries must be byte-identical across thread counts"
        );
        let auto_rows: Vec<_> = one
            .summary
            .rows
            .iter()
            .filter(|r| r.router == RouterKind::Portfolio)
            .collect();
        assert_eq!(auto_rows.len(), 4);
        for row in &auto_rows {
            assert_eq!(row.verified, Some(true));
            let chosen = row.chosen.as_deref().expect("portfolio rows carry chosen");
            assert!(
                ["codar", "codar-cal", "greedy", "sabre"].contains(&chosen),
                "{chosen}"
            );
            // Per circuit, the portfolio's EPS is at least the fixed
            // codar variant's EPS on the same cell.
            let fixed = one
                .summary
                .rows
                .iter()
                .find(|r| {
                    r.circuit == row.circuit && r.device == row.device && r.variant == "codar"
                })
                .expect("codar sibling row");
            assert!(row.eps.unwrap() >= fixed.eps.unwrap(), "{}", row.circuit);
        }
        // Fixed-variant rows never carry the column.
        assert!(one
            .summary
            .rows
            .iter()
            .filter(|r| r.router != RouterKind::Portfolio)
            .all(|r| r.chosen.is_none()));
    }

    #[test]
    fn noise_jobs_report_fidelity_and_stay_deterministic() {
        let run = |threads: usize| {
            SuiteRunner::new(EngineConfig {
                threads,
                ..EngineConfig::default()
            })
            .device(Device::ibm_q20_tokyo())
            .entries(small_entries(3))
            .noise(NoiseSpec::new(
                "dephasing",
                NoiseModel::dephasing_dominant(),
                8,
            ))
            .noise(NoiseSpec::new("damping", NoiseModel::damping_dominant(), 8))
            .run()
        };
        let one = run(1);
        let four = run(4);
        // One job per (circuit, variant) cell; each emits a report per
        // noise regime without re-routing.
        assert_eq!(one.stats.jobs, 3 * 2);
        assert_eq!(one.summary.rows.len(), 3 * 2 * 2);
        assert!(one.failures.is_empty());
        assert!(one.summary.rows.iter().all(|r| {
            let f = r.fidelity.expect("noise jobs must report fidelity");
            f.mean > 0.0 && f.mean <= 1.0 + 1e-9 && f.trajectories == 8
        }));
        assert_eq!(
            one.summary.to_json(),
            four.summary.to_json(),
            "fidelity summaries must be byte-identical across thread counts"
        );
    }
}
