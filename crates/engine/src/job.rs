//! Job matrix: the cross product circuit × device × router variant
//! (× noise model, for fidelity runs) that the engine fans across its
//! worker pool.

use codar_arch::{CalibrationSnapshot, Device, FidelityModel, TechnologyParams};
use codar_benchmarks::suite::SuiteEntry;
use codar_router::{CodarConfig, SabreConfig};
use codar_sim::{Backend, NoiseModel};
use std::sync::Arc;

/// Which routing algorithm a variant runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RouterKind {
    /// The paper's context- and duration-aware remapper.
    Codar,
    /// CODAR with the job's calibration snapshot blended into the SWAP
    /// priority (weight = the variant's `codar.cal_alpha`). Without a
    /// calibration axis it routes exactly as [`RouterKind::Codar`].
    CodarCal,
    /// The SABRE baseline (Li et al., ASPLOS 2019).
    Sabre,
    /// The nearest-neighbor greedy baseline.
    Greedy,
    /// The portfolio: route under every member variant, score each
    /// verified result ([`codar_arch::selection_score`]), keep the
    /// winner. Named `auto` on every surface (CLI and daemon).
    Portfolio,
}

impl RouterKind {
    /// Every kind, in stable declaration order — the single name table
    /// both surfaces (engine CLI and daemon protocol) are tested
    /// against.
    pub const ALL: [RouterKind; 5] = [
        RouterKind::Codar,
        RouterKind::CodarCal,
        RouterKind::Sabre,
        RouterKind::Greedy,
        RouterKind::Portfolio,
    ];

    /// Stable lowercase name used in summaries and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            RouterKind::Codar => "codar",
            RouterKind::CodarCal => "codar-cal",
            RouterKind::Sabre => "sabre",
            RouterKind::Greedy => "greedy",
            RouterKind::Portfolio => "auto",
        }
    }

    /// Parses a router name. This is the **only** router-name parser in
    /// the stack — the engine CLI and the daemon protocol both call it,
    /// so a request string valid on one surface is valid on the other.
    /// Accepted aliases: case-insensitive canonical names, plus
    /// `codar_cal`/`codarcal` for `codar-cal` and `portfolio` for
    /// `auto`.
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "codar" => Some(RouterKind::Codar),
            "codar-cal" | "codar_cal" | "codarcal" => Some(RouterKind::CodarCal),
            "sabre" => Some(RouterKind::Sabre),
            "greedy" => Some(RouterKind::Greedy),
            "auto" | "portfolio" => Some(RouterKind::Portfolio),
            _ => None,
        }
    }
}

/// The calibration blend weight portfolio codar-cal members run with
/// when no explicit alpha is configured (the daemon's default alpha).
pub const DEFAULT_PORTFOLIO_ALPHA: f64 = 0.5;

/// One column of the job matrix: a routing algorithm plus the exact
/// configuration it runs with, under a stable label.
///
/// The plain CODAR-vs-SABRE runs use one variant per [`RouterKind`],
/// but ablation sweeps (same algorithm, different mechanism switches)
/// and initial-mapping studies are also just variant lists — which is
/// what lets every experiment binary share the engine.
#[derive(Debug, Clone)]
pub struct RouterVariant {
    /// Stable name used in summaries, e.g. `"codar"` or `"no hfine"`.
    /// [`crate::Summary`] pairs the labels `"codar"` and `"sabre"`
    /// into its speedup comparisons.
    pub label: String,
    /// The algorithm this variant runs.
    pub kind: RouterKind,
    /// CODAR configuration (used when `kind == Codar`).
    pub codar: CodarConfig,
    /// SABRE configuration (used when `kind == Sabre`).
    pub sabre: SabreConfig,
    /// Portfolio members (used when `kind == Portfolio`): the fixed
    /// variants this variant routes under before keeping the winner.
    /// Empty for every non-portfolio variant. Nested portfolio members
    /// are skipped at route time, so the recursion is bounded.
    pub members: Vec<RouterVariant>,
}

impl RouterVariant {
    /// A variant of `kind` under its default configuration, labelled
    /// with the algorithm name. `Portfolio` gets the default member
    /// list ([`RouterVariant::portfolio_members`] at
    /// [`DEFAULT_PORTFOLIO_ALPHA`]).
    pub fn of_kind(kind: RouterKind) -> Self {
        let members = if kind == RouterKind::Portfolio {
            RouterVariant::portfolio_members(DEFAULT_PORTFOLIO_ALPHA)
        } else {
            Vec::new()
        };
        RouterVariant {
            label: kind.name().to_string(),
            kind,
            codar: CodarConfig::default(),
            sabre: SabreConfig::default(),
            members,
        }
    }

    /// A CODAR variant with an explicit configuration.
    pub fn codar(label: impl Into<String>, config: CodarConfig) -> Self {
        RouterVariant {
            label: label.into(),
            kind: RouterKind::Codar,
            codar: config,
            sabre: SabreConfig::default(),
            members: Vec::new(),
        }
    }

    /// A SABRE variant with an explicit configuration.
    pub fn sabre(label: impl Into<String>, config: SabreConfig) -> Self {
        RouterVariant {
            label: label.into(),
            kind: RouterKind::Sabre,
            codar: CodarConfig::default(),
            sabre: config,
            members: Vec::new(),
        }
    }

    /// The default portfolio member list: one default-config variant
    /// per fixed kind, with the codar-cal member's blend weight set to
    /// `alpha`. Labels are the canonical kind names, so the
    /// deterministic tie-break (score bits descending, then label
    /// ascending) prefers `codar` over `codar-cal` over `greedy` over
    /// `sabre` on exact score ties.
    pub fn portfolio_members(alpha: f64) -> Vec<RouterVariant> {
        let mut cal = RouterVariant::of_kind(RouterKind::CodarCal);
        cal.codar.cal_alpha = alpha;
        vec![
            RouterVariant::of_kind(RouterKind::Codar),
            cal,
            RouterVariant::of_kind(RouterKind::Greedy),
            RouterVariant::of_kind(RouterKind::Sabre),
        ]
    }

    /// A portfolio variant labelled `auto` whose codar-cal member
    /// blends at `alpha`.
    pub fn portfolio(alpha: f64) -> Self {
        RouterVariant {
            label: RouterKind::Portfolio.name().to_string(),
            kind: RouterKind::Portfolio,
            codar: CodarConfig::default(),
            sabre: SabreConfig::default(),
            members: RouterVariant::portfolio_members(alpha),
        }
    }
}

/// One noise regime of a fidelity run: a label, the channel
/// parameters, and how many quantum trajectories to average.
///
/// When a runner has noise specs, every job routes once and then
/// simulates its routed circuit under **each** spec, reporting one
/// [`crate::FidelityStats`]-carrying row per regime. Each simulation
/// seeds its RNG from stable identity (circuit, device, variant,
/// noise label), so fidelity numbers are byte-identical across thread
/// counts and scheduling orders.
#[derive(Debug, Clone)]
pub struct NoiseSpec {
    /// Stable regime name used in summaries, e.g. `"dephasing"`.
    pub label: String,
    /// The noise channels applied per idle/gate cycle.
    pub model: NoiseModel,
    /// Quantum-jump trajectories averaged per job.
    pub trajectories: usize,
}

impl NoiseSpec {
    /// Creates a named noise regime.
    pub fn new(label: impl Into<String>, model: NoiseModel, trajectories: usize) -> Self {
        NoiseSpec {
            label: label.into(),
            model,
            trajectories,
        }
    }
}

/// How a [`CalibrationSpec`] derives each device's snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CalKind {
    /// The degenerate uniform snapshot of a Table I superconducting
    /// column — every edge and qubit identical, EPS bit-identical to
    /// the scalar [`FidelityModel`].
    Uniform,
    /// A seeded synthetic snapshot
    /// ([`CalibrationSnapshot::synthetic`]) drifted `drift` times —
    /// a deterministic point in a synthetic calibration sequence.
    Synthetic {
        /// Generator seed (folded with the device name).
        seed: u64,
        /// How many drift steps to apply after generation.
        drift: usize,
    },
}

/// One point on the engine's calibration axis. Snapshots are
/// per-device (they cover a device's exact coupling map), so a spec
/// records *how* to derive a snapshot and the runner instantiates it
/// once per device — deterministically, so summaries stay
/// byte-identical across thread counts.
#[derive(Debug, Clone)]
pub struct CalibrationSpec {
    /// Stable axis label used in summaries, e.g. `"drift2"`.
    pub label: String,
    /// How the per-device snapshot is derived.
    pub kind: CalKind,
}

impl CalibrationSpec {
    /// A uniform (degenerate) calibration point.
    pub fn uniform(label: impl Into<String>) -> Self {
        CalibrationSpec {
            label: label.into(),
            kind: CalKind::Uniform,
        }
    }

    /// A synthetic snapshot drifted `drift` times from `seed`.
    pub fn synthetic(label: impl Into<String>, seed: u64, drift: usize) -> Self {
        CalibrationSpec {
            label: label.into(),
            kind: CalKind::Synthetic { seed, drift },
        }
    }

    /// Instantiates this spec's snapshot for `device`.
    pub fn snapshot_for(&self, device: &Device) -> CalibrationSnapshot {
        match self.kind {
            CalKind::Uniform => {
                let params = TechnologyParams::table1()
                    .into_iter()
                    .find(|p| p.technology == codar_arch::Technology::Superconducting)
                    .expect("Table I has a superconducting column");
                CalibrationSnapshot::from_technology(device, &params)
            }
            CalKind::Synthetic { seed, drift } => {
                let mut snapshot = CalibrationSnapshot::synthetic(device, seed);
                for _ in 0..drift {
                    snapshot = snapshot.drifted(seed);
                }
                snapshot
            }
        }
    }

    /// The snapshot plus its EPS model, shared across a run's jobs.
    pub fn instantiate(&self, device: &Device) -> (Arc<CalibrationSnapshot>, Arc<FidelityModel>) {
        let snapshot = self.snapshot_for(device);
        let model = FidelityModel::from_snapshot(&snapshot);
        (Arc::new(snapshot), Arc::new(model))
    }
}

/// Engine-wide knobs. The defaults reproduce the paper's protocol:
/// CODAR and SABRE from identical reverse-traversal initial mappings.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads; `0` means one per available core.
    pub threads: usize,
    /// Seed for the per-(circuit, device) initial mapping and the
    /// per-job noise RNG derivation.
    pub seed: u64,
    /// Routers included in the matrix when no explicit variant list
    /// is set on the runner (each becomes a default-config variant).
    pub routers: Vec<RouterKind>,
    /// CODAR mechanism switches for the default `routers` variants.
    pub codar: CodarConfig,
    /// SABRE parameters for the default `routers` variants.
    pub sabre: SabreConfig,
    /// Route every variant of a (circuit, device) cell from the *same*
    /// shared reverse-traversal initial mapping (the paper's Fig. 8
    /// protocol). Disable for initial-mapping studies, where each
    /// variant must build its own placement from its config.
    pub shared_initial_mapping: bool,
    /// Attach the full [`codar_router::RoutedCircuit`] to every
    /// report (off by default: routed circuits can be large).
    pub keep_routed: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: 0,
            seed: 0,
            routers: vec![RouterKind::Codar, RouterKind::Sabre],
            codar: CodarConfig::default(),
            sabre: SabreConfig::default(),
            shared_initial_mapping: true,
            keep_routed: false,
        }
    }
}

/// One unit of work: route suite entry `entry` on device `device` with
/// router variant `variant`. In fidelity runs the job routes **once**
/// and then simulates the result under every noise spec, emitting one
/// report per regime — routing and verification are never repeated
/// per regime. Indices point into the runner's shared
/// entry/device/variant tables so jobs stay cheap to clone and queue.
#[derive(Debug, Clone, Copy)]
pub struct JobSpec {
    /// Dense job id (the job's position in the matrix; in fidelity
    /// runs all of a job's per-regime reports share it).
    pub id: usize,
    /// Index into the shared suite-entry table.
    pub entry: usize,
    /// Index into the shared device table.
    pub device: usize,
    /// Index into the shared router-variant table.
    pub variant: usize,
    /// Index into the shared calibration-spec table (`None` when the
    /// run has no calibration axis).
    pub cal: Option<usize>,
    /// Simulation backend for the differential routed-vs-original
    /// check (`None` when the run has no simulation axis — the
    /// default, keeping all pre-existing outputs byte-identical).
    pub sim: Option<Backend>,
}

/// Expands the job matrix, skipping (entry, device) pairs where the
/// circuit does not fit. Order is deterministic: device-major, then
/// entry, then variant, then calibration spec. `cal_specs == 0` keeps
/// the pre-calibration matrix shape (every job's `cal` is `None`).
pub fn build_matrix(
    entries: &[SuiteEntry],
    devices: &[Arc<Device>],
    variants: &[RouterVariant],
    cal_specs: usize,
) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    let cal_axis: Vec<Option<usize>> = if cal_specs == 0 {
        vec![None]
    } else {
        (0..cal_specs).map(Some).collect()
    };
    for (d, device) in devices.iter().enumerate() {
        for (e, entry) in entries.iter().enumerate() {
            if entry.num_qubits > device.num_qubits() {
                continue;
            }
            for v in 0..variants.len() {
                for &cal in &cal_axis {
                    jobs.push(JobSpec {
                        id: jobs.len(),
                        entry: e,
                        device: d,
                        variant: v,
                        cal,
                        sim: None,
                    });
                }
            }
        }
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;
    use codar_benchmarks::suite::full_suite;

    #[test]
    fn router_names_round_trip() {
        for kind in RouterKind::ALL {
            assert_eq!(RouterKind::parse(kind.name()), Some(kind));
            assert_eq!(
                RouterKind::parse(&kind.name().to_ascii_uppercase()),
                Some(kind)
            );
        }
        assert_eq!(RouterKind::parse("codar_cal"), Some(RouterKind::CodarCal));
        assert_eq!(RouterKind::parse("codarcal"), Some(RouterKind::CodarCal));
        assert_eq!(RouterKind::parse("auto"), Some(RouterKind::Portfolio));
        assert_eq!(RouterKind::parse("portfolio"), Some(RouterKind::Portfolio));
        assert_eq!(RouterKind::parse("unknown"), None);
    }

    #[test]
    fn portfolio_variant_carries_default_members() {
        let auto = RouterVariant::of_kind(RouterKind::Portfolio);
        assert_eq!(auto.label, "auto");
        let labels: Vec<&str> = auto.members.iter().map(|m| m.label.as_str()).collect();
        assert_eq!(labels, ["codar", "codar-cal", "greedy", "sabre"]);
        assert!(auto.members.iter().all(|m| m.members.is_empty()));
        let cal = &auto.members[1];
        assert_eq!(cal.kind, RouterKind::CodarCal);
        assert_eq!(cal.codar.cal_alpha, DEFAULT_PORTFOLIO_ALPHA);
        let blended = RouterVariant::portfolio(0.75);
        assert_eq!(blended.members[1].codar.cal_alpha, 0.75);
        // Non-portfolio variants never carry members.
        assert!(RouterVariant::of_kind(RouterKind::Codar).members.is_empty());
    }

    #[test]
    fn matrix_skips_oversized_circuits() {
        let entries = full_suite();
        let small = Arc::new(Device::linear(5));
        let big = Arc::new(Device::ibm_q20_tokyo());
        let variants = [
            RouterVariant::of_kind(RouterKind::Codar),
            RouterVariant::of_kind(RouterKind::Sabre),
        ];
        let jobs = build_matrix(&entries, &[small.clone(), big], &variants, 0);
        // Every job fits its device, ids are dense, and both routers
        // appear for each (entry, device) pair.
        for (i, job) in jobs.iter().enumerate() {
            assert_eq!(job.id, i);
            let dev_qubits = if job.device == 0 { 5 } else { 20 };
            assert!(entries[job.entry].num_qubits <= dev_qubits);
        }
        assert_eq!(jobs.len() % variants.len(), 0);
        let small_jobs = jobs.iter().filter(|j| j.device == 0).count();
        let big_jobs = jobs.iter().filter(|j| j.device == 1).count();
        assert!(small_jobs < big_jobs, "fewer circuits fit 5 qubits than 20");
    }

    #[test]
    fn noise_specs_describe_regimes() {
        let spec = NoiseSpec::new("dephasing", NoiseModel::dephasing_dominant(), 10);
        assert_eq!(spec.label, "dephasing");
        assert_eq!(spec.trajectories, 10);
        // Noise specs do NOT multiply the matrix: a job routes once
        // and fans its result across the regimes.
        let entries: Vec<_> = full_suite().into_iter().take(3).collect();
        let device = Arc::new(Device::ibm_q20_tokyo());
        let variants = [
            RouterVariant::of_kind(RouterKind::Codar),
            RouterVariant::of_kind(RouterKind::Sabre),
        ];
        let jobs = build_matrix(&entries, &[device], &variants, 0);
        assert_eq!(jobs.len(), 3 * 2);
    }

    #[test]
    fn calibration_axis_multiplies_the_matrix() {
        let entries: Vec<_> = full_suite().into_iter().take(2).collect();
        let device = Arc::new(Device::ibm_q20_tokyo());
        let variants = [
            RouterVariant::of_kind(RouterKind::Codar),
            RouterVariant::of_kind(RouterKind::CodarCal),
        ];
        let none = build_matrix(&entries, std::slice::from_ref(&device), &variants, 0);
        assert!(none.iter().all(|j| j.cal.is_none()));
        let with = build_matrix(&entries, std::slice::from_ref(&device), &variants, 3);
        assert_eq!(with.len(), none.len() * 3);
        assert!(with.iter().all(|j| j.cal.is_some()));
        // Dense ids, cal innermost.
        for (i, job) in with.iter().enumerate() {
            assert_eq!(job.id, i);
            assert_eq!(job.cal, Some(i % 3));
        }
    }

    #[test]
    fn calibration_specs_instantiate_deterministic_snapshots() {
        let device = Device::ibm_q20_tokyo();
        let uniform = CalibrationSpec::uniform("uniform");
        let (snap, model) = uniform.instantiate(&device);
        assert!(snap.is_uniform());
        assert!(!model.is_calibrated(), "uniform collapses to scalars");
        let drifted = CalibrationSpec::synthetic("drift2", 7, 2);
        let (a, _) = drifted.instantiate(&device);
        let (b, _) = drifted.instantiate(&device);
        assert_eq!(a, b, "instantiation must be deterministic");
        assert_eq!(a.version, 3, "synthetic v1 + 2 drifts");
        assert!(!a.is_uniform());
    }

    #[test]
    fn variant_constructors_set_kind_and_label() {
        let ablation = RouterVariant::codar("no hfine", CodarConfig::default());
        assert_eq!(ablation.kind, RouterKind::Codar);
        assert_eq!(ablation.label, "no hfine");
        let sabre = RouterVariant::sabre("sabre", SabreConfig::default());
        assert_eq!(sabre.kind, RouterKind::Sabre);
        assert_eq!(RouterVariant::of_kind(RouterKind::Greedy).label, "greedy");
    }
}
