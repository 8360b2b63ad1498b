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
        let _ = writeln!(out, "  \"device\": {},", json_escape(&self.device));
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
    /// format (field order irrelevant, unknown fields rejected by the
    /// strict value grammar but tolerated by name).
    ///
    /// # Errors
    ///
    /// A human-readable message for malformed JSON, a wrong `format`
    /// tag, missing fields or out-of-range values.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let value = mini_json::parse(text)?;
        let obj = value
            .as_object()
            .ok_or("calibration must be a JSON object")?;
        let field = |name: &str| -> Result<&mini_json::Value, String> {
            obj.iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing `{name}` field"))
        };
        match field("format")?.as_str() {
            Some("codar-calibration") => {}
            _ => return Err("`format` must be \"codar-calibration\"".to_string()),
        }
        let schema = field("schema")?
            .as_u64()
            .ok_or("`schema` must be a non-negative integer")?;
        if schema != u64::from(CALIBRATION_SCHEMA_VERSION) {
            return Err(format!(
                "unsupported calibration schema {schema} (expected {CALIBRATION_SCHEMA_VERSION})"
            ));
        }
        let device = field("device")?
            .as_str()
            .ok_or("`device` must be a string")?
            .to_string();
        let version = field("version")?
            .as_u64()
            .ok_or("`version` must be a non-negative integer")?;
        let cycle_ns = field("cycle_ns")?
            .as_f64()
            .ok_or("`cycle_ns` must be a number")?;
        let single_qubit_error = field("single_qubit_error")?
            .as_f64()
            .ok_or("`single_qubit_error` must be a number")?;
        let qubits = field("qubits")?
            .as_array()
            .ok_or("`qubits` must be an array")?
            .iter()
            .enumerate()
            .map(|(i, q)| -> Result<QubitCalibration, String> {
                let obj = q
                    .as_object()
                    .ok_or(format!("qubit {i} must be an object"))?;
                let num = |name: &str| -> Result<f64, String> {
                    obj.iter()
                        .find(|(k, _)| k == name)
                        .and_then(|(_, v)| v.as_f64())
                        .ok_or_else(|| format!("qubit {i} needs a numeric `{name}`"))
                };
                Ok(QubitCalibration {
                    t1_us: num("t1_us")?,
                    t2_us: num("t2_us")?,
                    readout_error: num("readout_error")?,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let edges = field("edges")?
            .as_array()
            .ok_or("`edges` must be an array")?
            .iter()
            .enumerate()
            .map(
                |(i, e)| -> Result<(usize, usize, EdgeCalibration), String> {
                    let obj = e.as_object().ok_or(format!("edge {i} must be an object"))?;
                    let get = |name: &str| -> Result<&mini_json::Value, String> {
                        obj.iter()
                            .find(|(k, _)| k == name)
                            .map(|(_, v)| v)
                            .ok_or_else(|| format!("edge {i} needs `{name}`"))
                    };
                    let endpoint = |name: &str| -> Result<usize, String> {
                        get(name)?
                            .as_u64()
                            .and_then(|v| usize::try_from(v).ok())
                            .ok_or_else(|| {
                                format!("edge {i} `{name}` must be a non-negative integer")
                            })
                    };
                    Ok((
                        endpoint("a")?,
                        endpoint("b")?,
                        EdgeCalibration {
                            error: get("error")?
                                .as_f64()
                                .ok_or_else(|| format!("edge {i} `error` must be a number"))?,
                            duration: get("duration")?.as_u64().ok_or_else(|| {
                                format!("edge {i} `duration` must be a non-negative integer")
                            })?,
                        },
                    ))
                },
            )
            .collect::<Result<Vec<_>, _>>()?;
        CalibrationSnapshot::new(device, version, cycle_ns, single_qubit_error, qubits, edges)
    }
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

/// JSON string escaping for the snapshot writer (device names are
/// control-free in practice, but escape defensively anyway).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A minimal strict JSON reader, private to the calibration format.
///
/// The full protocol-grade parser lives in `codar-service`; this crate
/// sits below it in the dependency graph, so the snapshot format keeps
/// its own small reader: objects, arrays, strings (standard escapes,
/// no surrogate pairs — calibration data is ASCII), numbers, literals,
/// with a nesting-depth cap.
mod mini_json {
    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// Any JSON number.
        Num(f64),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object, in source order.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        pub fn as_object(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Obj(fields) => Some(fields),
                _ => None,
            }
        }

        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(items) => Some(items),
                _ => None,
            }
        }

        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Num(v) => Some(*v),
                _ => None,
            }
        }

        /// Exact non-negative integer below 2^53, the bound the
        /// service protocol parser uses: 2^53 itself is also what
        /// 2^53 + 1 parses to, so accepting it would load a value the
        /// document never held.
        pub fn as_u64(&self) -> Option<u64> {
            const EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
            match self {
                Value::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v < EXACT => Some(*v as u64),
                _ => None,
            }
        }
    }

    const MAX_DEPTH: usize = 32;

    pub fn parse(input: &str) -> Result<Value, String> {
        let bytes = input.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b'{') => {
                *pos += 1;
                let mut fields = Vec::new();
                skip_ws(bytes, pos);
                if bytes.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Value::Obj(fields));
                }
                loop {
                    skip_ws(bytes, pos);
                    let key = match parse_value(bytes, pos, depth + 1)? {
                        Value::Str(s) => s,
                        _ => return Err(format!("object key at byte {pos} must be a string")),
                    };
                    skip_ws(bytes, pos);
                    if bytes.get(*pos) != Some(&b':') {
                        return Err(format!("expected `:` at byte {pos}"));
                    }
                    *pos += 1;
                    fields.push((key, parse_value(bytes, pos, depth + 1)?));
                    skip_ws(bytes, pos);
                    match bytes.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Value::Obj(fields));
                        }
                        _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                    }
                }
            }
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                skip_ws(bytes, pos);
                if bytes.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(parse_value(bytes, pos, depth + 1)?);
                    skip_ws(bytes, pos);
                    match bytes.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                    }
                }
            }
            Some(b'"') => parse_string(bytes, pos).map(Value::Str),
            Some(b't') if bytes[*pos..].starts_with(b"true") => {
                *pos += 4;
                Ok(Value::Bool(true))
            }
            Some(b'f') if bytes[*pos..].starts_with(b"false") => {
                *pos += 5;
                Ok(Value::Bool(false))
            }
            Some(b'n') if bytes[*pos..].starts_with(b"null") => {
                *pos += 4;
                Ok(Value::Null)
            }
            Some(_) => parse_number(bytes, pos),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
        *pos += 1; // opening quote
        let mut out = String::new();
        loop {
            match bytes.get(*pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match bytes.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = bytes
                                .get(*pos + 1..*pos + 5)
                                .ok_or("truncated \\u escape")?;
                            // Exactly four hex digits — from_str_radix
                            // alone would tolerate a leading sign.
                            if !hex.iter().all(u8::is_ascii_hexdigit) {
                                return Err("bad \\u escape".to_string());
                            }
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            let c = char::from_u32(code)
                                .ok_or("surrogate \\u escapes are not supported here")?;
                            out.push(c);
                            *pos += 4;
                        }
                        _ => return Err("unknown escape".to_string()),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so the
                    // boundaries are valid).
                    let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                    let c = rest.chars().next().expect("non-empty");
                    if (c as u32) < 0x20 {
                        return Err("raw control character in string".to_string());
                    }
                    out.push(c);
                    *pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        if bytes.get(*pos) == Some(&b'-') {
            *pos += 1;
        }
        let digits = |pos: &mut usize| {
            let from = *pos;
            while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
                *pos += 1;
            }
            *pos > from
        };
        // Integer part: `0` or a non-zero-led digit run.
        match bytes.get(*pos) {
            Some(b'0') => *pos += 1,
            Some(b'1'..=b'9') => {
                digits(pos);
            }
            _ => return Err(format!("invalid number at byte {start}")),
        }
        if bytes.get(*pos) == Some(&b'.') {
            *pos += 1;
            if !digits(pos) {
                return Err(format!("invalid number at byte {start}"));
            }
        }
        if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
            *pos += 1;
            if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
                *pos += 1;
            }
            if !digits(pos) {
                return Err(format!("invalid number at byte {start}"));
            }
        }
        let text = std::str::from_utf8(&bytes[start..*pos]).expect("ASCII number");
        let v: f64 = text
            .parse()
            .map_err(|_| format!("invalid number `{text}`"))?;
        if !v.is_finite() {
            return Err(format!("number `{text}` overflows f64"));
        }
        Ok(Value::Num(v))
    }
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
            ("{\"a\": .5}", "invalid number"),
            ("{\"a\": 01}", "expected `,` or `}`"),
            ("{\"a\": \"\\u+041\"}", "bad \\u escape"),
            ("{\"a\": \"\\uBEEG\"}", "bad \\u escape"),
            ("{\"a\": 1,}", "invalid number"),
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
