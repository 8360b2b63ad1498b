//! Per-device calibration snapshots (the dynamic half of maQAM).
//!
//! Real devices are not uniform: every coupler has its own two-qubit
//! error rate and duration, and every qubit its own T1/T2 and readout
//! error, all of which drift between calibration runs. The
//! reliability-oriented mappers the paper surveys (Sec. II-A-b) score
//! circuits by estimated success probability over exactly this data. A
//! [`CalibrationSnapshot`] records one calibration run for one device:
//!
//! * per-edge two-qubit `error` and `duration` ([`EdgeCalibration`]),
//! * per-qubit `t1_us` / `t2_us` / `readout_error`
//!   ([`QubitCalibration`]),
//! * a `version` tag (monotonically bumped by
//!   [`CalibrationSnapshot::drifted`] and by service reloads), and
//! * JSON load/save ([`CalibrationSnapshot::to_json`] /
//!   [`CalibrationSnapshot::from_json`]) with exact `f64` round-trips.
//!
//! Uniform snapshots (every edge and qubit identical) are the
//! *degenerate* case and reduce to the scalar
//! [`crate::FidelityModel`]; the seeded generators
//! ([`CalibrationSnapshot::synthetic`], [`CalibrationSnapshot::drifted`])
//! produce deterministic non-uniform snapshot sequences for the
//! noise-adaptive routing experiments.

use crate::devices::Device;
use crate::fidelity_model::FidelityModel;
use crate::json::{escape, Json};
use crate::technology::TechnologyParams;
use codar_circuit::schedule::Time;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::fmt::Write as _;

/// Schema tag stamped into every snapshot JSON document.
pub const CALIBRATION_SCHEMA_VERSION: u32 = 1;

/// Calibration of one coupler (undirected edge).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeCalibration {
    /// Two-qubit gate error probability on this edge, in `(0, 1)`.
    pub error: f64,
    /// Two-qubit gate duration on this edge, in cycles.
    pub duration: Time,
}

/// Calibration of one physical qubit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QubitCalibration {
    /// Relaxation time T1, microseconds (`0` = unreported).
    pub t1_us: f64,
    /// Dephasing time T2, microseconds (`0` = unreported).
    pub t2_us: f64,
    /// Readout error probability, in `[0, 1)`.
    pub readout_error: f64,
}

/// One calibration run of one device (see the module docs).
///
/// # Examples
///
/// ```
/// use codar_arch::{CalibrationSnapshot, Device};
///
/// let device = Device::ibm_q20_tokyo();
/// let snap = CalibrationSnapshot::synthetic(&device, 7);
/// assert_eq!(snap.num_qubits(), 20);
/// let drifted = snap.drifted(1);
/// assert_eq!(drifted.version, snap.version + 1);
/// // JSON round-trips exactly (floats use shortest-round-trip form).
/// let back = CalibrationSnapshot::from_json(&snap.to_json()).unwrap();
/// assert_eq!(back, snap);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationSnapshot {
    /// Canonical name of the device this snapshot calibrates.
    pub device: String,
    /// Version tag of this calibration run. Caches key on it: two
    /// snapshots with the same version are assumed interchangeable.
    pub version: u64,
    /// Duration of one scheduling cycle in nanoseconds (`0` disables
    /// the T1/T2 ↔ cycle conversion, like an unreported gate time).
    pub cycle_ns: f64,
    /// Single-qubit gate error probability (devices rarely publish it
    /// per qubit; one scalar matches the Table I reporting).
    pub single_qubit_error: f64,
    /// Per-qubit calibration, indexed by physical qubit.
    qubits: Vec<QubitCalibration>,
    /// Per-edge calibration, sorted by normalized `(a, b)` with
    /// `a < b` — the same normal form `CouplingGraph` keeps.
    edges: Vec<(usize, usize, EdgeCalibration)>,
}

impl CalibrationSnapshot {
    /// Builds a snapshot from explicit parts, normalizing and sorting
    /// the edge list.
    ///
    /// # Errors
    ///
    /// Rejects out-of-range probabilities, non-positive edge durations,
    /// self-loops, duplicate edges and edge endpoints beyond the qubit
    /// count.
    pub fn new(
        device: impl Into<String>,
        version: u64,
        cycle_ns: f64,
        single_qubit_error: f64,
        qubits: Vec<QubitCalibration>,
        edges: Vec<(usize, usize, EdgeCalibration)>,
    ) -> Result<Self, String> {
        if !(cycle_ns.is_finite() && cycle_ns >= 0.0) {
            return Err(format!("cycle_ns {cycle_ns} must be finite and >= 0"));
        }
        check_probability("single_qubit_error", single_qubit_error)?;
        for (q, cal) in qubits.iter().enumerate() {
            for (name, v) in [("t1_us", cal.t1_us), ("t2_us", cal.t2_us)] {
                if !(v.is_finite() && v >= 0.0) {
                    return Err(format!("qubit {q} {name} {v} must be finite and >= 0"));
                }
            }
            check_probability(&format!("qubit {q} readout_error"), cal.readout_error)?;
        }
        let mut normalized: Vec<(usize, usize, EdgeCalibration)> = Vec::with_capacity(edges.len());
        for (a, b, cal) in edges {
            if a == b {
                return Err(format!("self-loop ({a},{a}) is not a coupler"));
            }
            if a >= qubits.len() || b >= qubits.len() {
                return Err(format!(
                    "edge ({a},{b}) out of range for {} qubits",
                    qubits.len()
                ));
            }
            check_probability(&format!("edge ({a},{b}) error"), cal.error)?;
            if cal.duration == 0 {
                return Err(format!("edge ({a},{b}) duration must be positive"));
            }
            normalized.push((a.min(b), a.max(b), cal));
        }
        normalized.sort_by_key(|&(a, b, _)| (a, b));
        if normalized
            .windows(2)
            .any(|w| (w[0].0, w[0].1) == (w[1].0, w[1].1))
        {
            return Err("duplicate edge in calibration".to_string());
        }
        Ok(CalibrationSnapshot {
            device: device.into(),
            version,
            cycle_ns,
            single_qubit_error,
            qubits,
            edges: normalized,
        })
    }

    /// The degenerate snapshot of a Table I column: every edge carries
    /// `1 − fidelity_2q`, every qubit the column's T1/T2 and readout
    /// error. [`FidelityModel::from_snapshot`] recovers exactly
    /// [`FidelityModel::from_technology`] from it (bit-for-bit EPS).
    pub fn from_technology(device: &Device, params: &TechnologyParams) -> Self {
        let readout_error = 1.0 - params.fidelity_readout.unwrap_or(0.95);
        let qubit = QubitCalibration {
            t1_us: params.t1_us.unwrap_or(0.0),
            t2_us: params.t2_us.unwrap_or(0.0),
            readout_error,
        };
        let edge = EdgeCalibration {
            error: 1.0 - params.fidelity_2q,
            duration: device.durations().two_qubit(),
        };
        CalibrationSnapshot::new(
            device.name(),
            0,
            params.time_1q_ns.unwrap_or(0.0),
            1.0 - params.fidelity_1q,
            vec![qubit; device.num_qubits()],
            device
                .graph()
                .edges()
                .iter()
                .map(|&(a, b)| (a, b, edge))
                .collect(),
        )
        .expect("technology parameters are valid probabilities")
    }

    /// The degenerate snapshot of a scalar [`FidelityModel`]: every
    /// edge and qubit identical. For models without a T2 penalty the
    /// reduction back through [`FidelityModel::from_snapshot`] is exact
    /// (fidelities ≥ 0.5 round-trip through `1 − error` bit-for-bit);
    /// a model carrying `t2_cycles` is stored as `t2_us` against a
    /// 1000 ns cycle and may differ by 1 ulp on reconstruction — use
    /// [`CalibrationSnapshot::from_technology`] when T2 must be exact.
    pub fn uniform(device: &Device, model: &FidelityModel) -> Self {
        let (cycle_ns, t2_us) = match model.t2_cycles {
            Some(t2_cycles) => (1000.0, t2_cycles),
            None => (0.0, 0.0),
        };
        let qubit = QubitCalibration {
            t1_us: 0.0,
            t2_us,
            readout_error: 1.0 - model.readout,
        };
        let edge = EdgeCalibration {
            error: 1.0 - model.two_qubit,
            duration: device.durations().two_qubit(),
        };
        CalibrationSnapshot::new(
            device.name(),
            0,
            cycle_ns,
            1.0 - model.single_qubit,
            vec![qubit; device.num_qubits()],
            device
                .graph()
                .edges()
                .iter()
                .map(|&(a, b)| (a, b, edge))
                .collect(),
        )
        .expect("a valid model yields valid probabilities")
    }

    /// A deterministic synthetic calibration run: plausible
    /// superconducting numbers with strong per-edge and per-qubit
    /// spread (errors span roughly 0.002–0.06), seeded so every
    /// `(device, seed)` pair always produces the same snapshot.
    /// Version starts at 1.
    pub fn synthetic(device: &Device, seed: u64) -> Self {
        // Fold the device name into the seed so the same seed gives
        // decorrelated snapshots on different devices.
        let mut folded = 0xcbf2_9ce4_8422_2325u64 ^ seed;
        for byte in device.name().as_bytes() {
            folded ^= u64::from(*byte);
            folded = folded.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut rng = StdRng::seed_from_u64(folded);
        let qubits = (0..device.num_qubits())
            .map(|_| {
                let t1 = 40.0 + 110.0 * rng.gen::<f64>();
                QubitCalibration {
                    t1_us: t1,
                    t2_us: (15.0 + 100.0 * rng.gen::<f64>()).min(2.0 * t1),
                    readout_error: 0.005 + 0.06 * rng.gen::<f64>(),
                }
            })
            .collect();
        let edges = device
            .graph()
            .edges()
            .iter()
            .map(|&(a, b)| {
                let spread = rng.gen::<f64>();
                let cal = EdgeCalibration {
                    // Quadratic spread: most edges good, a long bad tail.
                    error: 0.002 + 0.06 * spread * spread,
                    duration: device.durations().two_qubit() + u64::from(rng.gen_bool(0.15)),
                };
                (a, b, cal)
            })
            .collect();
        CalibrationSnapshot::new(
            device.name(),
            1,
            50.0,
            0.0003 + 0.0015 * rng.gen::<f64>(),
            qubits,
            edges,
        )
        .expect("synthetic values are in range by construction")
    }

    /// The same snapshot restamped to `version` — the hook fuzzers and
    /// generators use to play version games (stale, equal, far-future)
    /// against the daemon's high-water-mark acceptance check without
    /// re-deriving the physical numbers.
    #[must_use]
    pub fn with_version(mut self, version: u64) -> Self {
        self.version = version;
        self
    }

    /// The next calibration run: every parameter drifts by a seeded
    /// multiplicative factor (errors ×[0.6, 1.5], T1/T2 ±20 %), the
    /// version is bumped. Deterministic per `(self, seed)`; chaining
    /// `drifted` builds a synthetic snapshot *sequence*.
    pub fn drifted(&self, seed: u64) -> Self {
        let mut rng =
            StdRng::seed_from_u64(seed ^ self.version.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let drift_err = |rng: &mut StdRng, e: f64| -> f64 {
            (e * (0.6 + 0.9 * rng.gen::<f64>())).clamp(1e-5, 0.4)
        };
        let drift_time = |rng: &mut StdRng, t: f64| -> f64 {
            if t == 0.0 {
                0.0
            } else {
                (t * (0.8 + 0.4 * rng.gen::<f64>())).max(1.0)
            }
        };
        let mut next = self.clone();
        next.version = self.version + 1;
        next.single_qubit_error = drift_err(&mut rng, self.single_qubit_error);
        for q in &mut next.qubits {
            q.t1_us = drift_time(&mut rng, q.t1_us);
            q.t2_us = drift_time(&mut rng, q.t2_us);
            if q.t1_us > 0.0 {
                q.t2_us = q.t2_us.min(2.0 * q.t1_us);
            }
            q.readout_error = drift_err(&mut rng, q.readout_error);
        }
        for (_, _, e) in &mut next.edges {
            e.error = drift_err(&mut rng, e.error);
        }
        next
    }

    /// Number of calibrated qubits.
    pub fn num_qubits(&self) -> usize {
        self.qubits.len()
    }

    /// Per-qubit calibrations, indexed by physical qubit.
    pub fn qubits(&self) -> &[QubitCalibration] {
        &self.qubits
    }

    /// Per-edge calibrations, sorted by normalized `(a, b)`.
    pub fn edges(&self) -> &[(usize, usize, EdgeCalibration)] {
        &self.edges
    }

    /// The calibration of edge `(a, b)` (order-insensitive).
    pub fn edge(&self, a: usize, b: usize) -> Option<&EdgeCalibration> {
        let key = (a.min(b), a.max(b));
        self.edges
            .binary_search_by_key(&key, |&(a, b, _)| (a, b))
            .ok()
            .map(|i| &self.edges[i].2)
    }

    /// Two-qubit error of edge `(a, b)`, `None` off the coupling map.
    pub fn edge_error(&self, a: usize, b: usize) -> Option<f64> {
        self.edge(a, b).map(|e| e.error)
    }

    /// The worst two-qubit error over all edges (`0` when edgeless) —
    /// the normalizer of the noise-adaptive routing penalty.
    pub fn max_edge_error(&self) -> f64 {
        self.edges
            .iter()
            .map(|&(_, _, e)| e.error)
            .fold(0.0, f64::max)
    }

    /// Whether every edge and every qubit carry bit-identical values —
    /// the degenerate snapshots [`uniform`](CalibrationSnapshot::uniform)
    /// and [`from_technology`](CalibrationSnapshot::from_technology)
    /// produce, which reduce exactly to a scalar [`FidelityModel`].
    pub fn is_uniform(&self) -> bool {
        let edges_uniform = self.edges.windows(2).all(|w| {
            bits(w[0].2.error) == bits(w[1].2.error) && w[0].2.duration == w[1].2.duration
        });
        let qubits_uniform = self.qubits.windows(2).all(|w| {
            bits(w[0].t1_us) == bits(w[1].t1_us)
                && bits(w[0].t2_us) == bits(w[1].t2_us)
                && bits(w[0].readout_error) == bits(w[1].readout_error)
        });
        edges_uniform && qubits_uniform
    }

    /// Checks that this snapshot covers `device` exactly: same qubit
    /// count and one entry per coupling (no more, no fewer).
    ///
    /// # Errors
    ///
    /// A human-readable mismatch description.
    pub fn validate_for(&self, device: &Device) -> Result<(), String> {
        if self.qubits.len() != device.num_qubits() {
            return Err(format!(
                "snapshot calibrates {} qubits but {} has {}",
                self.qubits.len(),
                device.name(),
                device.num_qubits()
            ));
        }
        let device_edges = device.graph().edges();
        if self.edges.len() != device_edges.len() {
            return Err(format!(
                "snapshot calibrates {} edges but {} has {}",
                self.edges.len(),
                device.name(),
                device_edges.len()
            ));
        }
        for (&(sa, sb, _), &(da, db)) in self.edges.iter().zip(device_edges) {
            if (sa, sb) != (da, db) {
                return Err(format!(
                    "snapshot edge ({sa},{sb}) does not match device coupling ({da},{db})"
                ));
            }
        }
        Ok(())
    }

    /// Serializes the snapshot as deterministic JSON. Floats use
    /// Rust's shortest-round-trip formatting, so
    /// [`CalibrationSnapshot::from_json`] recovers every value
    /// bit-for-bit.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"format\": \"codar-calibration\",");
        let _ = writeln!(out, "  \"schema\": {CALIBRATION_SCHEMA_VERSION},");
        let _ = writeln!(out, "  \"device\": {},", escape(&self.device));
        let _ = writeln!(out, "  \"version\": {},", self.version);
        let _ = writeln!(out, "  \"cycle_ns\": {},", self.cycle_ns);
        let _ = writeln!(
            out,
            "  \"single_qubit_error\": {},",
            self.single_qubit_error
        );
        out.push_str("  \"qubits\": [\n");
        for (i, q) in self.qubits.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"t1_us\": {}, \"t2_us\": {}, \"readout_error\": {}}}",
                q.t1_us, q.t2_us, q.readout_error
            );
            out.push_str(if i + 1 < self.qubits.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n  \"edges\": [\n");
        for (i, &(a, b, e)) in self.edges.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"a\": {a}, \"b\": {b}, \"error\": {}, \"duration\": {}}}",
                e.error, e.duration
            );
            out.push_str(if i + 1 < self.edges.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a snapshot from the [`CalibrationSnapshot::to_json`]
    /// format with the workspace's strict JSON grammar
    /// ([`crate::json`]). Field order is irrelevant and unknown fields
    /// are ignored.
    ///
    /// # Errors
    ///
    /// A human-readable message for malformed JSON, a wrong `format`
    /// tag, missing fields or out-of-range values.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text)?;
        if !matches!(doc, Json::Obj(_)) {
            return Err("calibration must be a JSON object".to_string());
        }
        field(&doc, "", "format", "\"codar-calibration\"", |v| {
            v.as_str().filter(|&f| f == "codar-calibration")
        })?;
        let schema = field(&doc, "", "schema", NON_NEGATIVE, Json::as_u64)?;
        if schema != u64::from(CALIBRATION_SCHEMA_VERSION) {
            return Err(format!(
                "unsupported calibration schema {schema} (expected {CALIBRATION_SCHEMA_VERSION})"
            ));
        }
        let device = field(&doc, "", "device", "a string", Json::as_str)?.to_string();
        let version = field(&doc, "", "version", NON_NEGATIVE, Json::as_u64)?;
        let cycle_ns = field(&doc, "", "cycle_ns", "a number", Json::as_f64)?;
        let single_qubit_error = field(&doc, "", "single_qubit_error", "a number", Json::as_f64)?;
        let qubits = field(&doc, "", "qubits", "an array", Json::as_array)?
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let at = format!("qubit {i} ");
                let num = |name| field(q, &at, name, "a number", Json::as_f64);
                Ok(QubitCalibration {
                    t1_us: num("t1_us")?,
                    t2_us: num("t2_us")?,
                    readout_error: num("readout_error")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let edges = field(&doc, "", "edges", "an array", Json::as_array)?
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let at = format!("edge {i} ");
                let endpoint = |name| {
                    field(e, &at, name, NON_NEGATIVE, |v| {
                        v.as_u64().and_then(|v| usize::try_from(v).ok())
                    })
                };
                let edge = EdgeCalibration {
                    error: field(e, &at, "error", "a number", Json::as_f64)?,
                    duration: field(e, &at, "duration", NON_NEGATIVE, Json::as_u64)?,
                };
                Ok((endpoint("a")?, endpoint("b")?, edge))
            })
            .collect::<Result<Vec<_>, String>>()?;
        CalibrationSnapshot::new(device, version, cycle_ns, single_qubit_error, qubits, edges)
    }
}

const NON_NEGATIVE: &str = "a non-negative integer";

/// The one field lookup of [`CalibrationSnapshot::from_json`]: `obj`'s
/// `name` field, converted by `convert`. Messages start with `at`, the
/// array element being read (`""` at the top level, else e.g.
/// `"edge 3 "`), and name `what` the field must be. A non-object has
/// no fields, so it fails as a missing one.
fn field<'a, T>(
    obj: &'a Json,
    at: &str,
    name: &str,
    what: &str,
    convert: impl FnOnce(&'a Json) -> Option<T>,
) -> Result<T, String> {
    let value = obj
        .get(name)
        .ok_or_else(|| format!("{at}missing `{name}` field"))?;
    convert(value).ok_or_else(|| format!("{at}`{name}` must be {what}"))
}

fn check_probability(name: &str, v: f64) -> Result<(), String> {
    if v.is_finite() && (0.0..1.0).contains(&v) {
        Ok(())
    } else {
        Err(format!("{name} {v} must be in [0, 1)"))
    }
}

#[inline]
fn bits(v: f64) -> u64 {
    v.to_bits()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> Device {
        Device::ibm_q5_yorktown()
    }

    #[test]
    fn synthetic_is_deterministic_and_valid() {
        let d = device();
        let a = CalibrationSnapshot::synthetic(&d, 42);
        let b = CalibrationSnapshot::synthetic(&d, 42);
        assert_eq!(a, b);
        assert_ne!(a, CalibrationSnapshot::synthetic(&d, 43));
        a.validate_for(&d).unwrap();
        assert!(!a.is_uniform());
        assert!(a.max_edge_error() > 0.0);
        // Same seed on a different device decorrelates.
        let q20 = Device::ibm_q20_tokyo();
        let other = CalibrationSnapshot::synthetic(&q20, 42);
        assert_ne!(a.qubits()[0], other.qubits()[0]);
    }

    #[test]
    fn drift_sequences_bump_versions_and_change_values() {
        let d = device();
        let s0 = CalibrationSnapshot::synthetic(&d, 7);
        let s1 = s0.drifted(9);
        let s2 = s1.drifted(9);
        assert_eq!((s0.version, s1.version, s2.version), (1, 2, 3));
        assert_ne!(s0.edges()[0].2.error, s1.edges()[0].2.error);
        // Deterministic: the same drift twice is the same snapshot.
        assert_eq!(s1, s0.drifted(9));
        s2.validate_for(&d).unwrap();
    }

    #[test]
    fn json_round_trips_bit_for_bit() {
        let d = Device::ibm_q20_tokyo();
        let mut snap = CalibrationSnapshot::synthetic(&d, 1).drifted(3);
        snap.device = "weird \"name\"\n".to_string();
        let json = snap.to_json();
        let back = CalibrationSnapshot::from_json(&json).unwrap();
        assert_eq!(back, snap);
        // Bit-for-bit, not just approximately.
        for ((_, _, a), (_, _, b)) in snap.edges().iter().zip(back.edges()) {
            assert_eq!(a.error.to_bits(), b.error.to_bits());
        }
    }

    #[test]
    fn from_json_rejects_malformed_documents() {
        for (text, needle) in [
            ("", "unexpected end"),
            ("[1,2]", "must be a JSON object"),
            ("{\"format\": \"nope\"}", "`format`"),
            (
                "{\"format\": \"codar-calibration\", \"schema\": 99}",
                "unsupported calibration schema",
            ),
            (
                "{\"format\": \"codar-calibration\", \"schema\": 1}",
                "missing `device`",
            ),
            ("{\"a\": .5}", "missing integer part"),
            ("{\"a\": 01}", "leading zero"),
            ("{\"a\": \"\\u+041\"}", "bad \\u escape"),
            ("{\"a\": \"\\uBEEG\"}", "bad \\u escape"),
            ("{\"a\": 1,}", "expected object key"),
            ("{\"a\": 1e999}", "overflows"),
        ] {
            let err = CalibrationSnapshot::from_json(text).expect_err(text);
            assert!(err.contains(needle), "`{text}` gave `{err}`");
        }
        // Depth cap: deeply nested input errors instead of overflowing.
        let deep = format!("{}1{}", "[".repeat(200), "]".repeat(200));
        assert!(CalibrationSnapshot::from_json(&deep)
            .unwrap_err()
            .contains("nesting"));
    }

    /// `version` 2^53 + 1 parses to the f64 2^53; both must be
    /// rejected rather than loaded as a version the client never sent.
    #[test]
    fn from_json_rejects_versions_f64_cannot_hold_exactly() {
        let snap = CalibrationSnapshot::synthetic(&device(), 3);
        let json = snap.to_json();
        let line = format!("\"version\": {}", snap.version);
        assert!(json.contains(&line), "{json}");
        for (version, ok) in [
            ("9007199254740991", true),
            ("9007199254740992", false),
            ("9007199254740993", false),
        ] {
            let text = json.replace(&line, &format!("\"version\": {version}"));
            match CalibrationSnapshot::from_json(&text) {
                Ok(back) => {
                    assert!(ok, "{version} loaded as {}", back.version);
                    assert_eq!(back.version.to_string(), version);
                }
                Err(err) => {
                    assert!(!ok, "{version}: {err}");
                    assert!(err.contains("`version`"), "{version}: {err}");
                }
            }
        }
    }

    #[test]
    fn constructor_validates_edges_and_probabilities() {
        let q = QubitCalibration {
            t1_us: 50.0,
            t2_us: 40.0,
            readout_error: 0.02,
        };
        let e = EdgeCalibration {
            error: 0.01,
            duration: 2,
        };
        let bad_cases: Vec<(Vec<(usize, usize, EdgeCalibration)>, &str)> = vec![
            (vec![(0, 0, e)], "self-loop"),
            (vec![(0, 9, e)], "out of range"),
            (vec![(0, 1, e), (1, 0, e)], "duplicate"),
            (
                vec![(
                    0,
                    1,
                    EdgeCalibration {
                        error: 1.5,
                        duration: 2,
                    },
                )],
                "must be in [0, 1)",
            ),
            (
                vec![(
                    0,
                    1,
                    EdgeCalibration {
                        error: 0.1,
                        duration: 0,
                    },
                )],
                "duration must be positive",
            ),
        ];
        for (edges, needle) in bad_cases {
            let err =
                CalibrationSnapshot::new("d", 0, 50.0, 0.001, vec![q; 3], edges).expect_err(needle);
            assert!(err.contains(needle), "{err}");
        }
        // Edges normalize and sort.
        let snap =
            CalibrationSnapshot::new("d", 0, 50.0, 0.001, vec![q; 3], vec![(2, 1, e), (1, 0, e)])
                .unwrap();
        assert_eq!(snap.edges()[0].0, 0);
        assert_eq!(snap.edge(2, 1).unwrap().error, 0.01);
        assert_eq!(snap.edge_error(0, 2), None);
    }

    #[test]
    fn uniform_and_technology_snapshots_are_uniform() {
        let d = device();
        let model = FidelityModel::new(0.999, 0.97, 0.95);
        let snap = CalibrationSnapshot::uniform(&d, &model);
        assert!(snap.is_uniform());
        snap.validate_for(&d).unwrap();
        for params in TechnologyParams::table1() {
            let snap = CalibrationSnapshot::from_technology(&d, &params);
            assert!(snap.is_uniform(), "{}", params.device);
            snap.validate_for(&d).unwrap();
        }
    }

    #[test]
    fn validate_for_catches_wrong_devices() {
        let snap = CalibrationSnapshot::synthetic(&device(), 1);
        let err = snap.validate_for(&Device::ibm_q20_tokyo()).unwrap_err();
        assert!(err.contains("qubits"), "{err}");
    }
}
