//! Per-job reports and the deterministic suite summary.
//!
//! [`RouteReport`] carries everything measured about one job, including
//! wall time. The [`Summary`] built from the reports deliberately
//! excludes wall times so that its JSON/CSV serializations are
//! **byte-identical across thread counts and machines** — the engine's
//! determinism tests diff them directly. Timing lives in [`RunStats`]
//! (explicitly nondeterministic: it is a measurement), which the
//! binaries print to stderr; repeated perf measurement is `perfbench`'s
//! job.

use crate::job::RouterKind;
use codar_arch::json::escape;
use codar_circuit::schedule::Time;
use codar_router::RoutedCircuit;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// Trajectory-averaged fidelity of one routed circuit under one noise
/// regime (present on reports produced by noise-simulation jobs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FidelityStats {
    /// Mean fidelity over trajectories.
    pub mean: f64,
    /// Standard error of the mean.
    pub std_error: f64,
    /// Number of trajectories averaged.
    pub trajectories: usize,
}

/// Everything measured about one completed routing job.
#[derive(Debug, Clone)]
pub struct RouteReport {
    /// Dense job id (position in the matrix).
    pub job_id: usize,
    /// Benchmark name.
    pub circuit: String,
    /// Device name.
    pub device: String,
    /// Qubits used by the input circuit.
    pub num_qubits: usize,
    /// Input gate count.
    pub input_gates: usize,
    /// Algorithm of the variant that produced the result.
    pub router: RouterKind,
    /// Label of the router variant that produced the result (equals
    /// `router.name()` for plain runs; distinct per configuration in
    /// ablation/mapping studies).
    pub variant: String,
    /// Noise regime label for fidelity jobs (`None` = routing only).
    pub noise: Option<String>,
    /// Calibration-axis label (`None` when the run has no calibration
    /// axis; serialized only when present, so pre-calibration outputs
    /// stay byte-identical).
    pub cal: Option<String>,
    /// Estimated success probability of the routed circuit under the
    /// job's calibration snapshot (present iff `cal` is).
    pub eps: Option<f64>,
    /// Resolved simulation backend of the differential
    /// routed-vs-original check, set only on non-dense rows (dense
    /// rows and runs without a simulation axis carry no new fields, so
    /// pre-existing serializations stay byte-identical).
    pub sim: Option<String>,
    /// Winning member label of a portfolio job (`None` on every
    /// fixed-variant row; serialized only when present, so
    /// pre-portfolio outputs stay byte-identical).
    pub chosen: Option<String>,
    /// Weighted depth (schedule makespan) of the routed circuit.
    pub weighted_depth: Time,
    /// Unweighted depth of the routed circuit.
    pub depth: usize,
    /// SWAPs the router inserted.
    pub swaps: usize,
    /// Output gate count (input + inserted SWAPs).
    pub output_gates: usize,
    /// Whether coupling + equivalence verification passed: `Some(true)`
    /// on every engine row, because a job that fails the check is a
    /// [`crate::JobFailure`]. Reports assembled outside the engine may
    /// carry `Some(false)` or `None`.
    pub verified: Option<bool>,
    /// Simulated fidelity (noise-simulation jobs only).
    pub fidelity: Option<FidelityStats>,
    /// The routed circuit itself, when
    /// [`crate::EngineConfig::keep_routed`] is set (never serialized).
    pub routed: Option<RoutedCircuit>,
    /// Wall time of the job's compile — routing, verification,
    /// simulation and EPS scoring, after the shared initial mapping
    /// (not part of the summary).
    pub wall: Duration,
}

/// CODAR-vs-SABRE pairing for one (device, circuit, noise) cell.
///
/// Cells pair the rows whose variant labels are exactly `"codar"` and
/// `"sabre"`; ablation variants never collide with them.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Device name.
    pub device: String,
    /// Benchmark name.
    pub circuit: String,
    /// Noise regime label (fidelity runs only).
    pub noise: Option<String>,
    /// Calibration-axis label (calibration runs only).
    pub cal: Option<String>,
    /// CODAR weighted depth.
    pub codar_depth: Time,
    /// SABRE weighted depth.
    pub sabre_depth: Time,
    /// CODAR simulated fidelity (fidelity runs only).
    pub codar_fidelity: Option<FidelityStats>,
    /// SABRE simulated fidelity (fidelity runs only).
    pub sabre_fidelity: Option<FidelityStats>,
}

impl Comparison {
    /// The Fig. 8 metric: SABRE weighted depth over CODAR weighted
    /// depth (> 1 means CODAR produces faster schedules).
    pub fn speedup(&self) -> f64 {
        if self.codar_depth == 0 {
            1.0
        } else {
            self.sabre_depth as f64 / self.codar_depth as f64
        }
    }

    /// The Fig. 9 metric: CODAR fidelity minus SABRE fidelity
    /// (`None` unless both sides were simulated).
    pub fn fidelity_delta(&self) -> Option<f64> {
        Some(self.codar_fidelity?.mean - self.sabre_fidelity?.mean)
    }
}

/// Wall-clock aggregate for every job of one router variant.
#[derive(Debug, Clone)]
pub struct RouterTiming {
    /// Variant label.
    pub router: String,
    /// Jobs this variant completed.
    pub jobs: usize,
    /// Sum of the variant's per-job wall times.
    pub total: Duration,
}

impl RouterTiming {
    /// Mean wall time per job of this variant.
    pub fn mean(&self) -> Duration {
        if self.jobs == 0 {
            Duration::ZERO
        } else {
            self.total / self.jobs as u32
        }
    }
}

/// Timing and sizing of one engine run. Kept separate from
/// [`Summary`] because wall clocks are inherently nondeterministic.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Worker threads actually used.
    pub threads: usize,
    /// Jobs executed (including failed ones).
    pub jobs: usize,
    /// Jobs that returned a router error.
    pub failures: usize,
    /// End-to-end wall time of the run.
    pub wall: Duration,
    /// Sum of per-job wall times (the work the pool parallelized).
    pub total_route_time: Duration,
    /// Per-variant timing aggregates, sorted by variant label.
    pub per_router: Vec<RouterTiming>,
}

impl RunStats {
    /// Completed jobs per wall-clock second — each job routes one
    /// circuit, so this is the engine's circuits/sec throughput.
    pub fn circuits_per_sec(&self) -> f64 {
        (self.jobs - self.failures) as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Ratio of parallelized work to wall time: how many workers the
    /// pool kept busy on average.
    pub fn pool_speedup(&self) -> f64 {
        self.total_route_time.as_secs_f64() / self.wall.as_secs_f64().max(1e-9)
    }
}

/// Deterministic summary of a suite run.
///
/// Rows are sorted by (device, circuit, variant, noise) and contain no
/// timing, so [`Summary::to_json`] and [`Summary::to_csv`] are
/// byte-identical for identical inputs regardless of thread count.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Seed the run used for initial mappings and noise RNGs.
    pub seed: u64,
    /// Per-job rows in deterministic order.
    pub rows: Vec<RouteReport>,
    /// CODAR-vs-SABRE comparisons in deterministic order.
    pub comparisons: Vec<Comparison>,
}

impl Summary {
    /// Builds a summary from raw (unordered) reports.
    pub fn from_reports(seed: u64, mut rows: Vec<RouteReport>) -> Self {
        rows.sort_by(|a, b| {
            (&a.device, &a.circuit, &a.variant, &a.noise, &a.cal, &a.sim)
                .cmp(&(&b.device, &b.circuit, &b.variant, &b.noise, &b.cal, &b.sim))
        });
        type Cell = (
            Option<(Time, Option<FidelityStats>)>,
            Option<(Time, Option<FidelityStats>)>,
        );
        type CellKey = (String, String, Option<String>, Option<String>);
        let mut cells: BTreeMap<CellKey, Cell> = BTreeMap::new();
        for row in &rows {
            let cell = cells
                .entry((
                    row.device.clone(),
                    row.circuit.clone(),
                    row.noise.clone(),
                    row.cal.clone(),
                ))
                .or_default();
            match row.variant.as_str() {
                "codar" => cell.0 = Some((row.weighted_depth, row.fidelity)),
                "sabre" => cell.1 = Some((row.weighted_depth, row.fidelity)),
                _ => {}
            }
        }
        let comparisons = cells
            .into_iter()
            .filter_map(|((device, circuit, noise, cal), cell)| match cell {
                (Some((codar_depth, codar_fidelity)), Some((sabre_depth, sabre_fidelity))) => {
                    Some(Comparison {
                        device,
                        circuit,
                        noise,
                        cal,
                        codar_depth,
                        sabre_depth,
                        codar_fidelity,
                        sabre_fidelity,
                    })
                }
                _ => None,
            })
            .collect();
        Summary {
            seed,
            rows,
            comparisons,
        }
    }

    /// Mean CODAR-vs-SABRE speedup per device, in device-name order.
    pub fn mean_speedup_by_device(&self) -> Vec<(String, f64)> {
        let mut acc: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
        for comparison in &self.comparisons {
            let entry = acc.entry(&comparison.device).or_default();
            entry.0 += comparison.speedup();
            entry.1 += 1;
        }
        acc.into_iter()
            .map(|(device, (sum, n))| (device.to_string(), sum / n as f64))
            .collect()
    }

    /// Serializes the summary as deterministic JSON (stable key order,
    /// fixed float formatting, no timing fields). The calibration
    /// columns (`cal`, `eps`) are emitted only on rows that carry
    /// them, so runs without a calibration axis serialize exactly as
    /// before the axis existed.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        out.push_str("  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let cal_columns = match (&row.cal, row.eps) {
                (Some(cal), Some(eps)) => {
                    format!(", \"cal\": {}, \"eps\": {}", escape(cal), json_float(eps))
                }
                (Some(cal), None) => format!(", \"cal\": {}", escape(cal)),
                _ => String::new(),
            };
            let sim_column = match &row.sim {
                Some(sim) => format!(", \"sim\": {}", escape(sim)),
                None => String::new(),
            };
            let chosen_column = match &row.chosen {
                Some(chosen) => format!(", \"chosen\": {}", escape(chosen)),
                None => String::new(),
            };
            let _ = write!(
                out,
                "    {{\"device\": {}, \"circuit\": {}, \"qubits\": {}, \"input_gates\": {}, \
                 \"router\": {}, \"variant\": {}, \"noise\": {}, \"weighted_depth\": {}, \
                 \"depth\": {}, \"swaps\": {}, \"output_gates\": {}, \"verified\": {}, \
                 \"fidelity\": {}{}{}{}}}",
                escape(&row.device),
                escape(&row.circuit),
                row.num_qubits,
                row.input_gates,
                escape(row.router.name()),
                escape(&row.variant),
                json_opt_string(row.noise.as_deref()),
                row.weighted_depth,
                row.depth,
                row.swaps,
                row.output_gates,
                match row.verified {
                    Some(true) => "true",
                    Some(false) => "false",
                    None => "null",
                },
                json_fidelity(row.fidelity.as_ref()),
                cal_columns,
                sim_column,
                chosen_column,
            );
            out.push_str(if i + 1 < self.rows.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n  \"comparisons\": [\n");
        for (i, cmp) in self.comparisons.iter().enumerate() {
            let cal_column = match &cmp.cal {
                Some(cal) => format!(", \"cal\": {}", escape(cal)),
                None => String::new(),
            };
            let _ = write!(
                out,
                "    {{\"device\": {}, \"circuit\": {}, \"noise\": {}, \"codar_depth\": {}, \
                 \"sabre_depth\": {}, \"speedup\": {}, \"codar_fidelity\": {}, \
                 \"sabre_fidelity\": {}{}}}",
                escape(&cmp.device),
                escape(&cmp.circuit),
                json_opt_string(cmp.noise.as_deref()),
                cmp.codar_depth,
                cmp.sabre_depth,
                json_float(cmp.speedup()),
                json_fidelity(cmp.codar_fidelity.as_ref()),
                json_fidelity(cmp.sabre_fidelity.as_ref()),
                cal_column,
            );
            out.push_str(if i + 1 < self.comparisons.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n  \"mean_speedup_by_device\": {\n");
        let means = self.mean_speedup_by_device();
        for (i, (device, mean)) in means.iter().enumerate() {
            let _ = write!(out, "    {}: {}", escape(device), json_float(*mean));
            out.push_str(if i + 1 < means.len() { ",\n" } else { "\n" });
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Serializes the per-job rows as deterministic CSV. The `cal` and
    /// `eps` columns (and their headers) appear only when the run had
    /// a calibration axis, and the `sim` column only when some row
    /// resolved to a non-dense simulation backend, keeping pre-existing
    /// CSVs byte-stable.
    pub fn to_csv(&self) -> String {
        let calibrated = self.rows.iter().any(|r| r.cal.is_some());
        let simulated = self.rows.iter().any(|r| r.sim.is_some());
        let portfolio = self.rows.iter().any(|r| r.chosen.is_some());
        let mut out = String::from(
            "device,circuit,qubits,input_gates,router,variant,noise,weighted_depth,depth,\
             swaps,output_gates,verified,fidelity_mean,fidelity_std_error",
        );
        if calibrated {
            out.push_str(",cal,eps");
        }
        if simulated {
            out.push_str(",sim");
        }
        if portfolio {
            out.push_str(",chosen");
        }
        out.push('\n');
        for row in &self.rows {
            let (fid_mean, fid_err) = match &row.fidelity {
                Some(f) => (json_float(f.mean), json_float(f.std_error)),
                None => (String::new(), String::new()),
            };
            let _ = write!(
                out,
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                csv_field(&row.device),
                csv_field(&row.circuit),
                row.num_qubits,
                row.input_gates,
                row.router.name(),
                csv_field(&row.variant),
                csv_field(row.noise.as_deref().unwrap_or("")),
                row.weighted_depth,
                row.depth,
                row.swaps,
                row.output_gates,
                match row.verified {
                    Some(true) => "yes",
                    Some(false) => "no",
                    None => "skipped",
                },
                fid_mean,
                fid_err,
            );
            if calibrated {
                let _ = write!(
                    out,
                    ",{},{}",
                    csv_field(row.cal.as_deref().unwrap_or("")),
                    row.eps.map(json_float).unwrap_or_default(),
                );
            }
            if simulated {
                let _ = write!(out, ",{}", csv_field(row.sim.as_deref().unwrap_or("")));
            }
            if portfolio {
                let _ = write!(out, ",{}", csv_field(row.chosen.as_deref().unwrap_or("")));
            }
            out.push('\n');
        }
        out
    }

    /// Serializes the comparisons as deterministic CSV (fidelity
    /// columns are empty for routing-only runs).
    pub fn comparisons_to_csv(&self) -> String {
        let mut out = String::from(
            "device,circuit,noise,codar_depth,sabre_depth,speedup,\
             codar_fidelity,sabre_fidelity,fidelity_delta\n",
        );
        for cmp in &self.comparisons {
            let fid = |f: Option<FidelityStats>| f.map(|f| json_float(f.mean)).unwrap_or_default();
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{},{}",
                csv_field(&cmp.device),
                csv_field(&cmp.circuit),
                csv_field(cmp.noise.as_deref().unwrap_or("")),
                cmp.codar_depth,
                cmp.sabre_depth,
                json_float(cmp.speedup()),
                fid(cmp.codar_fidelity),
                fid(cmp.sabre_fidelity),
                cmp.fidelity_delta()
                    .map(|d| json_float(d))
                    .unwrap_or_default(),
            );
        }
        out
    }
}

/// `"s"` or `null`.
fn json_opt_string(s: Option<&str>) -> String {
    match s {
        Some(s) => escape(s),
        None => "null".to_string(),
    }
}

/// Inline fidelity object or `null`.
fn json_fidelity(f: Option<&FidelityStats>) -> String {
    match f {
        Some(f) => format!(
            "{{\"mean\": {}, \"std_error\": {}, \"trajectories\": {}}}",
            json_float(f.mean),
            json_float(f.std_error),
            f.trajectories
        ),
        None => "null".to_string(),
    }
}

/// Fixed-precision float so serializations never depend on shortest-
/// round-trip formatting quirks.
fn json_float(v: f64) -> String {
    format!("{v:.6}")
}

/// CSV field, quoted only when needed.
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(device: &str, circuit: &str, router: RouterKind, wd: Time) -> RouteReport {
        RouteReport {
            job_id: 0,
            circuit: circuit.into(),
            device: device.into(),
            num_qubits: 4,
            input_gates: 10,
            router,
            variant: router.name().to_string(),
            noise: None,
            cal: None,
            eps: None,
            sim: None,
            chosen: None,
            weighted_depth: wd,
            depth: 5,
            swaps: 2,
            output_gates: 12,
            verified: Some(true),
            fidelity: None,
            routed: None,
            wall: Duration::from_millis(3),
        }
    }

    #[test]
    fn summary_sorts_and_pairs() {
        let rows = vec![
            report("q20", "qft_4", RouterKind::Sabre, 90),
            report("q16", "ghz_3", RouterKind::Codar, 40),
            report("q20", "qft_4", RouterKind::Codar, 60),
            report("q16", "ghz_3", RouterKind::Sabre, 40),
        ];
        let summary = Summary::from_reports(7, rows);
        assert_eq!(summary.rows[0].device, "q16");
        assert_eq!(summary.comparisons.len(), 2);
        let qft = summary
            .comparisons
            .iter()
            .find(|c| c.circuit == "qft_4")
            .unwrap();
        assert!((qft.speedup() - 1.5).abs() < 1e-12);
        let means = summary.mean_speedup_by_device();
        assert_eq!(means.len(), 2);
        assert!((means[0].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ablation_variants_do_not_pair_into_comparisons() {
        let mut no_hfine = report("q20", "qft_4", RouterKind::Codar, 70);
        no_hfine.variant = "no hfine".into();
        let rows = vec![
            report("q20", "qft_4", RouterKind::Codar, 60),
            report("q20", "qft_4", RouterKind::Sabre, 90),
            no_hfine,
        ];
        let summary = Summary::from_reports(0, rows);
        assert_eq!(summary.rows.len(), 3);
        assert_eq!(summary.comparisons.len(), 1);
        assert_eq!(summary.comparisons[0].codar_depth, 60);
    }

    #[test]
    fn noise_labelled_rows_pair_per_regime() {
        let fid = |mean| FidelityStats {
            mean,
            std_error: 0.01,
            trajectories: 50,
        };
        let mut rows = Vec::new();
        for (regime, cf, sf) in [("damping", 0.80, 0.79), ("dephasing", 0.90, 0.85)] {
            let mut c = report("q20", "ghz_6", RouterKind::Codar, 60);
            c.noise = Some(regime.into());
            c.fidelity = Some(fid(cf));
            let mut s = report("q20", "ghz_6", RouterKind::Sabre, 90);
            s.noise = Some(regime.into());
            s.fidelity = Some(fid(sf));
            rows.push(c);
            rows.push(s);
        }
        let summary = Summary::from_reports(0, rows);
        assert_eq!(summary.comparisons.len(), 2);
        let deph = summary
            .comparisons
            .iter()
            .find(|c| c.noise.as_deref() == Some("dephasing"))
            .unwrap();
        assert!((deph.fidelity_delta().unwrap() - 0.05).abs() < 1e-12);
        let json = summary.to_json();
        assert!(json.contains("\"noise\": \"dephasing\""));
        assert!(json.contains("\"mean\": 0.900000"));
    }

    #[test]
    fn calibration_columns_appear_only_on_calibrated_rows() {
        // No calibration axis: bytes identical to the pre-axis shape.
        let plain = Summary::from_reports(0, vec![report("q20", "qft_4", RouterKind::Codar, 60)]);
        assert!(!plain.to_json().contains("\"cal\""));
        assert!(!plain.to_json().contains("\"eps\""));
        assert!(plain.to_csv().starts_with("device,"));
        assert!(plain
            .to_csv()
            .lines()
            .next()
            .unwrap()
            .ends_with("fidelity_std_error"));

        // With the axis: rows carry cal/eps, comparisons pair per cal
        // point, and the CSV grows the two columns.
        let mut rows = Vec::new();
        for cal in ["drift0", "drift1"] {
            let mut c = report("q20", "qft_4", RouterKind::Codar, 60);
            c.cal = Some(cal.into());
            c.eps = Some(0.5);
            let mut s = report("q20", "qft_4", RouterKind::Sabre, 90);
            s.cal = Some(cal.into());
            s.eps = Some(0.25);
            rows.push(c);
            rows.push(s);
        }
        let summary = Summary::from_reports(0, rows);
        assert_eq!(summary.comparisons.len(), 2);
        assert_eq!(summary.comparisons[0].cal.as_deref(), Some("drift0"));
        let json = summary.to_json();
        assert!(json.contains("\"cal\": \"drift1\""));
        assert!(json.contains("\"eps\": 0.500000"));
        let csv = summary.to_csv();
        assert!(csv.lines().next().unwrap().ends_with(",cal,eps"));
        assert!(csv.contains(",drift0,0.500000"));
    }

    #[test]
    fn sim_column_appears_only_on_non_dense_rows() {
        // No simulation axis (or dense resolution): bytes identical to
        // the pre-axis shape.
        let plain = Summary::from_reports(0, vec![report("q20", "qft_4", RouterKind::Codar, 60)]);
        assert!(!plain.to_json().contains("\"sim\""));
        assert!(!plain.to_csv().lines().next().unwrap().contains(",sim"));

        // A stabilizer-resolved row carries the column; its dense
        // sibling row leaves the JSON field off and the CSV cell empty.
        let mut stab = report("q20", "ghz_6", RouterKind::Codar, 40);
        stab.sim = Some("stabilizer".into());
        let rows = vec![stab, report("q20", "qft_4", RouterKind::Codar, 60)];
        let summary = Summary::from_reports(0, rows);
        let json = summary.to_json();
        assert!(json.contains("\"sim\": \"stabilizer\""));
        assert_eq!(json.matches("\"sim\"").count(), 1);
        let csv = summary.to_csv();
        assert!(csv.lines().next().unwrap().ends_with(",sim"));
        assert!(csv.contains(",stabilizer\n"));

        // With a calibration axis too, sim trails cal/eps.
        let mut both = report("q20", "ghz_6", RouterKind::Codar, 40);
        both.cal = Some("drift0".into());
        both.eps = Some(0.5);
        both.sim = Some("sparse".into());
        let summary = Summary::from_reports(0, vec![both]);
        assert!(summary
            .to_csv()
            .lines()
            .next()
            .unwrap()
            .ends_with(",cal,eps,sim"));
        assert!(summary
            .to_json()
            .contains("\"eps\": 0.500000, \"sim\": \"sparse\""));
    }

    #[test]
    fn chosen_column_appears_only_on_portfolio_rows() {
        // No portfolio rows: bytes identical to the pre-portfolio shape.
        let plain = Summary::from_reports(0, vec![report("q20", "qft_4", RouterKind::Codar, 60)]);
        assert!(!plain.to_json().contains("\"chosen\""));
        assert!(!plain.to_csv().lines().next().unwrap().contains(",chosen"));

        // A portfolio row carries the winner; fixed-variant siblings
        // leave the JSON field off and the CSV cell empty.
        let mut auto = report("q20", "qft_4", RouterKind::Portfolio, 55);
        auto.chosen = Some("codar-cal".into());
        let rows = vec![auto, report("q20", "qft_4", RouterKind::Codar, 60)];
        let summary = Summary::from_reports(0, rows);
        let json = summary.to_json();
        assert!(json.contains("\"router\": \"auto\""));
        assert!(json.contains("\"chosen\": \"codar-cal\""));
        assert_eq!(json.matches("\"chosen\"").count(), 1);
        let csv = summary.to_csv();
        assert!(csv.lines().next().unwrap().ends_with(",chosen"));
        assert!(csv.contains(",codar-cal\n"));

        // With cal and sim columns too, chosen trails everything.
        let mut full = report("q20", "ghz_6", RouterKind::Portfolio, 40);
        full.cal = Some("drift0".into());
        full.eps = Some(0.5);
        full.sim = Some("stabilizer".into());
        full.chosen = Some("codar".into());
        let summary = Summary::from_reports(0, vec![full]);
        assert!(summary
            .to_csv()
            .lines()
            .next()
            .unwrap()
            .ends_with(",cal,eps,sim,chosen"));
        assert!(summary
            .to_json()
            .contains("\"sim\": \"stabilizer\", \"chosen\": \"codar\""));
    }

    #[test]
    fn serializations_are_stable_under_input_order() {
        let a = Summary::from_reports(
            0,
            vec![
                report("q20", "qft_4", RouterKind::Codar, 60),
                report("q20", "qft_4", RouterKind::Sabre, 90),
            ],
        );
        let b = Summary::from_reports(
            0,
            vec![
                report("q20", "qft_4", RouterKind::Sabre, 90),
                report("q20", "qft_4", RouterKind::Codar, 60),
            ],
        );
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.to_csv(), b.to_csv());
        assert_eq!(a.comparisons_to_csv(), b.comparisons_to_csv());
    }

    #[test]
    fn json_escapes_and_floats_are_fixed() {
        assert_eq!(escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_float(1.5), "1.500000");
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(json_opt_string(None), "null");
    }

    #[test]
    fn empty_summary_serializes() {
        let summary = Summary::from_reports(0, Vec::new());
        let json = summary.to_json();
        assert!(json.contains("\"rows\": ["));
        assert!(summary.to_csv().ends_with("fidelity_std_error\n"));
    }

    #[test]
    fn run_stats_report_throughput_and_pool_speedup() {
        let stats = RunStats {
            threads: 4,
            jobs: 40,
            failures: 0,
            wall: Duration::from_secs(2),
            total_route_time: Duration::from_secs(6),
            per_router: vec![RouterTiming {
                router: "codar".into(),
                jobs: 20,
                total: Duration::from_secs(4),
            }],
        };
        assert!((stats.circuits_per_sec() - 20.0).abs() < 1e-9);
        assert!((stats.pool_speedup() - 3.0).abs() < 1e-9);
        assert_eq!(stats.per_router[0].mean(), Duration::from_millis(200));
        // Failed jobs route no circuit.
        let failing = RunStats {
            failures: 10,
            ..stats
        };
        assert!((failing.circuits_per_sec() - 15.0).abs() < 1e-9);
    }
}
