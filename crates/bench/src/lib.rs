//! Experiment harness: the code behind every table and figure of the
//! paper (see ARCHITECTURE.md for the experiment index).
//!
//! Every binary drives the parallel [`codar_engine::SuiteRunner`]; this
//! crate holds what they share — comparison row types, ablation
//! configurations, strict CLI parsing ([`cli`]) and the stderr timing
//! report ([`report_timing`]).
//!
//! Binaries:
//!
//! * `engine` — general matrix runner; emits the deterministic
//!   summaries and checks them across thread counts,
//! * `table1` — the Table I technology survey plus a routed
//!   calibration workload on the modeled devices,
//! * `fig8` — CODAR-vs-SABRE weighted-depth speedups on the
//!   71-benchmark suite across the four architectures,
//! * `fig9` — fidelity of the 7 famous algorithms under dephasing- and
//!   damping-dominant noise,
//! * `success` — analytic success probabilities over the whole suite,
//! * `sweep` — ablation study over CODAR's three mechanisms on the
//!   full device catalog,
//! * `mappings` — initial-mapping strategy study.
//!
//! # Examples
//!
//! ```
//! use codar_arch::Device;
//! use codar_bench::compare_on;
//! use codar_benchmarks::suite::full_suite;
//!
//! let suite = full_suite();
//! let entry = suite.iter().find(|e| e.name == "qft_8").unwrap();
//! let row = compare_on(&Device::ibm_q20_tokyo(), entry, 0).unwrap();
//! assert!(row.speedup() > 0.0);
//! ```

use codar_arch::Device;
use codar_benchmarks::suite::SuiteEntry;
use codar_circuit::schedule::Time;
use codar_router::sabre::reverse_traversal_mapping;
use codar_router::{
    CodarConfig, CodarRouter, InitialMapping, RouteError, RouterScratch, SabreRouter,
};
use codar_sim::{FidelityReport, NoiseModel};

/// One benchmark's CODAR-vs-SABRE comparison on one device.
#[derive(Debug, Clone)]
pub struct ComparisonRow {
    /// Benchmark name.
    pub name: String,
    /// Qubits used by the benchmark.
    pub num_qubits: usize,
    /// Input gate count.
    pub gates: usize,
    /// CODAR weighted depth.
    pub codar_depth: Time,
    /// SABRE weighted depth.
    pub sabre_depth: Time,
    /// SWAPs inserted by CODAR.
    pub codar_swaps: usize,
    /// SWAPs inserted by SABRE.
    pub sabre_swaps: usize,
}

impl ComparisonRow {
    /// The Fig. 8 metric: SABRE weighted depth over CODAR weighted depth
    /// (> 1 means CODAR is faster).
    pub fn speedup(&self) -> f64 {
        if self.codar_depth == 0 {
            1.0
        } else {
            self.sabre_depth as f64 / self.codar_depth as f64
        }
    }
}

/// Routes one benchmark with both routers from the *same* initial
/// mapping (the paper's protocol) and reports the comparison.
///
/// # Errors
///
/// Propagates router errors (e.g. the benchmark does not fit).
pub fn compare_on(
    device: &Device,
    entry: &SuiteEntry,
    seed: u64,
) -> Result<ComparisonRow, RouteError> {
    let mut scratch = RouterScratch::new();
    let initial = reverse_traversal_mapping(&entry.circuit, device, seed, &mut scratch);
    let codar = CodarRouter::new(device).route(&entry.circuit, Some(&initial), &mut scratch)?;
    let sabre = SabreRouter::new(device).route(&entry.circuit, Some(&initial), &mut scratch)?;
    Ok(ComparisonRow {
        name: entry.name.clone(),
        num_qubits: entry.num_qubits,
        gates: entry.circuit.len(),
        codar_depth: codar.weighted_depth,
        sabre_depth: sabre.weighted_depth,
        codar_swaps: codar.swaps_inserted,
        sabre_swaps: sabre.swaps_inserted,
    })
}

/// One algorithm's fidelity comparison (Fig. 9).
#[derive(Debug, Clone)]
pub struct FidelityRow {
    /// Benchmark name.
    pub name: String,
    /// CODAR weighted depth.
    pub codar_depth: Time,
    /// SABRE weighted depth.
    pub sabre_depth: Time,
    /// CODAR circuit fidelity under the noise model.
    pub codar_fidelity: FidelityReport,
    /// SABRE circuit fidelity under the noise model.
    pub sabre_fidelity: FidelityReport,
}

/// Runs the Fig. 9 fidelity experiment for one algorithm on `device`
/// under `noise`.
///
/// # Errors
///
/// Propagates router errors.
pub fn fidelity_compare(
    device: &Device,
    entry: &SuiteEntry,
    noise: &NoiseModel,
    trajectories: usize,
    seed: u64,
) -> Result<FidelityRow, RouteError> {
    let mut scratch = RouterScratch::new();
    let initial = reverse_traversal_mapping(&entry.circuit, device, seed, &mut scratch);
    let codar = CodarRouter::new(device).route(&entry.circuit, Some(&initial), &mut scratch)?;
    let sabre = SabreRouter::new(device).route(&entry.circuit, Some(&initial), &mut scratch)?;
    let tau = device.durations().clone();
    let codar_fidelity =
        FidelityReport::estimate(&codar.circuit, |g| tau.of(g), noise, trajectories, seed);
    let sabre_fidelity =
        FidelityReport::estimate(&sabre.circuit, |g| tau.of(g), noise, trajectories, seed);
    Ok(FidelityRow {
        name: entry.name.clone(),
        codar_depth: codar.weighted_depth,
        sabre_depth: sabre.weighted_depth,
        codar_fidelity,
        sabre_fidelity,
    })
}

/// Strict CLI argument parsing shared by every experiment binary.
///
/// The old binaries silently fell back to defaults on malformed
/// values (`fig9 twohundred` quietly ran 200 trajectories); these
/// helpers make every malformed flag a hard error so a typo can never
/// masquerade as a measurement.
pub mod cli {
    use std::fmt::Display;
    use std::str::FromStr;

    /// Parses the value following the flag at `args[i]`.
    ///
    /// # Errors
    ///
    /// Errors when the value is missing or does not parse as `T` —
    /// never falls back to a default.
    pub fn flag_value<T: FromStr>(args: &[String], i: usize, flag: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        let raw = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        raw.parse()
            .map_err(|e| format!("{flag}: invalid value `{raw}`: {e}"))
    }

    /// Parses a bare positional value (same strictness as
    /// [`flag_value`]).
    ///
    /// # Errors
    ///
    /// Errors when the value does not parse as `T`.
    pub fn positional<T: FromStr>(raw: &str, what: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        raw.parse()
            .map_err(|e| format!("invalid {what} `{raw}`: {e}"))
    }
}

/// Maps each suite entry's name to its position, for re-sorting the
/// engine's (alphabetical) deterministic rows back into suite order —
/// the paper lists benchmarks by ascending qubit count.
pub fn suite_order(entries: &[SuiteEntry]) -> std::collections::HashMap<String, usize> {
    entries
        .iter()
        .enumerate()
        .map(|(i, e)| (e.name.clone(), i))
        .collect()
}

/// Prints an engine run's wall-clock statistics to **stderr**, keeping
/// stdout byte-identical across thread counts (the golden tests diff
/// stdout directly).
pub fn report_timing(stats: &codar_engine::RunStats) {
    eprintln!(
        "[{} jobs on {} threads in {:.2?}; {:.1} circuits/sec; pool speedup {:.2}x]",
        stats.jobs,
        stats.threads,
        stats.wall,
        stats.circuits_per_sec(),
        stats.pool_speedup(),
    );
    for t in &stats.per_router {
        eprintln!(
            "[  {:<20} {:>5} jobs, total {:.2?}, mean {:.2?}]",
            t.router,
            t.jobs,
            t.total,
            t.mean()
        );
    }
}

/// Errors when any job failed to route, verify or simulate — so CI runs
/// of the binaries catch router regressions. Every failure's circuit,
/// device and cause go to stderr first, so a red run is diagnosable
/// from its log.
///
/// # Errors
///
/// Returns a human-readable description of the failure counts.
pub fn check_health(result: &codar_engine::SuiteResult) -> Result<(), String> {
    for failure in &result.failures {
        eprintln!(
            "job {} failed: {} on {}: {}",
            failure.job.id, failure.circuit, failure.device, failure.error
        );
    }
    if !result.failures.is_empty() {
        return Err(format!("{} routing jobs failed", result.failures.len()));
    }
    Ok(())
}

/// The ablation configurations of the `sweep` binary.
pub fn ablation_configs() -> Vec<(&'static str, CodarConfig)> {
    let base = CodarConfig {
        initial_mapping: InitialMapping::Identity,
        ..CodarConfig::default()
    };
    vec![
        ("full codar", base.clone()),
        (
            "no duration awareness",
            CodarConfig {
                enable_duration_awareness: false,
                ..base.clone()
            },
        ),
        (
            "no commutativity",
            CodarConfig {
                enable_commutativity: false,
                ..base.clone()
            },
        ),
        (
            "no hfine",
            CodarConfig {
                enable_hfine: false,
                ..base
            },
        ),
    ]
}

/// Formats a ratio table row.
pub fn fmt_row(name: &str, cols: &[String]) -> String {
    let mut line = format!("{name:<24}");
    for c in cols {
        line.push_str(&format!("{c:>14}"));
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use codar_benchmarks::suite::fidelity_suite;

    #[test]
    fn compare_runs_and_is_valid() {
        let device = Device::ibm_q20_tokyo();
        let suite = codar_benchmarks::full_suite();
        let entry = suite.iter().find(|e| e.name == "qft_8").unwrap();
        let row = compare_on(&device, entry, 0).unwrap();
        assert!(row.codar_depth > 0);
        assert!(row.sabre_depth > 0);
        assert!(row.speedup() > 0.3 && row.speedup() < 5.0);
    }

    #[test]
    fn fidelity_compare_produces_probabilities() {
        let device = Device::ibm_q20_tokyo();
        let suite = fidelity_suite();
        let entry = &suite[1]; // ghz_6
        let row =
            fidelity_compare(&device, entry, &NoiseModel::dephasing_dominant(), 20, 0).unwrap();
        assert!(row.codar_fidelity.mean > 0.0 && row.codar_fidelity.mean <= 1.0 + 1e-9);
        assert!(row.sabre_fidelity.mean > 0.0 && row.sabre_fidelity.mean <= 1.0 + 1e-9);
    }

    #[test]
    fn ablation_configs_cover_all_mechanisms() {
        let configs = ablation_configs();
        assert_eq!(configs.len(), 4);
        assert!(configs.iter().any(|(_, c)| !c.enable_duration_awareness));
        assert!(configs.iter().any(|(_, c)| !c.enable_commutativity));
        assert!(configs.iter().any(|(_, c)| !c.enable_hfine));
    }
}
