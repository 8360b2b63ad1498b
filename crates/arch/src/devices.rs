//! Device presets: the four architectures of the paper's evaluation,
//! plus generic generators.

use crate::distance::DistanceMatrix;
use crate::duration::GateDurations;
use crate::graph::{CouplingGraph, PhysQubit};
use crate::layout::Layout2d;
use std::fmt;
use std::sync::Arc;

/// One preset: (catalog key, device name, constructor).
type Preset = (&'static str, &'static str, fn() -> Device);

/// The preset catalog. The names let [`Device::catalog_key`] resolve
/// either spelling without building a device; a unit test keeps them
/// equal to what the constructors build.
const PRESETS: [Preset; 8] = [
    ("q16", "IBM Q16 Melbourne", Device::ibm_q16_melbourne),
    ("q20", "IBM Q20 Tokyo", Device::ibm_q20_tokyo),
    ("6x6", "grid 6x6", Device::enfield_6x6),
    ("q54", "Google Q54 Sycamore", Device::google_sycamore54),
    ("q72", "Google Bristlecone 72", Device::google_bristlecone72),
    ("q5", "IBM Q5 Yorktown", Device::ibm_q5_yorktown),
    (
        "falcon27",
        "IBM Falcon 27 (heavy-hex)",
        Device::ibm_falcon27,
    ),
    ("aspen16", "Rigetti Aspen 16", Device::rigetti_aspen16),
];

/// A complete maQAM static structure: coupling graph, distances,
/// durations and (for lattices) a 2-D layout.
///
/// Cloning is cheap: the distance matrix is shared behind an [`Arc`].
///
/// # Examples
///
/// ```
/// use codar_arch::Device;
///
/// let dev = Device::grid(6, 6); // the Enfield 6x6 model
/// assert_eq!(dev.num_qubits(), 36);
/// assert_eq!(dev.distance(0, 35), 10);
/// assert!(dev.layout().is_some());
/// ```
#[derive(Debug, Clone)]
pub struct Device {
    name: String,
    graph: Arc<CouplingGraph>,
    distances: Arc<DistanceMatrix>,
    layout: Option<Arc<Layout2d>>,
    durations: GateDurations,
}

impl Device {
    /// Builds a device from a named coupling graph, with the paper's
    /// superconducting duration profile and no 2-D layout.
    pub fn from_graph(name: impl Into<String>, graph: CouplingGraph) -> Self {
        let distances = DistanceMatrix::new(&graph);
        Device {
            name: name.into(),
            graph: Arc::new(graph),
            distances: Arc::new(distances),
            layout: None,
            durations: GateDurations::superconducting(),
        }
    }

    /// Attaches a 2-D layout (enables CODAR's `Hfine`).
    ///
    /// # Panics
    ///
    /// Panics if the layout covers a different number of qubits.
    pub fn with_layout(mut self, layout: Layout2d) -> Self {
        assert_eq!(
            layout.num_qubits(),
            self.graph.num_qubits(),
            "layout must cover every qubit"
        );
        self.layout = Some(Arc::new(layout));
        self
    }

    /// Replaces the duration model.
    pub fn with_durations(mut self, durations: GateDurations) -> Self {
        self.durations = durations;
        self
    }

    /// The device name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of physical qubits.
    pub fn num_qubits(&self) -> usize {
        self.graph.num_qubits()
    }

    /// The coupling graph.
    pub fn graph(&self) -> &CouplingGraph {
        &self.graph
    }

    /// The all-pairs distance matrix `D`.
    pub fn distances(&self) -> &DistanceMatrix {
        &self.distances
    }

    /// Hop distance between two physical qubits.
    #[inline]
    pub fn distance(&self, a: PhysQubit, b: PhysQubit) -> u32 {
        self.distances.get(a, b)
    }

    /// The 2-D layout, when the device is a lattice.
    pub fn layout(&self) -> Option<&Layout2d> {
        self.layout.as_deref()
    }

    /// The gate duration map `τ`.
    pub fn durations(&self) -> &GateDurations {
        &self.durations
    }

    // ---- presets -----------------------------------------------------

    /// IBM Q16 Melbourne/Rueschlikon-class device: 16 qubits in a 2×8
    /// ladder (the topology used by the qubit-mapping literature for
    /// "IBM Q16").
    pub fn ibm_q16_melbourne() -> Self {
        Device::from_graph("IBM Q16 Melbourne", CouplingGraph::grid(2, 8))
            .with_layout(Layout2d::grid(2, 8))
    }

    /// IBM Q20 Tokyo: 4×5 grid with the published diagonal couplings
    /// (the architecture of the SABRE evaluation).
    pub fn ibm_q20_tokyo() -> Self {
        let mut edges: Vec<(PhysQubit, PhysQubit)> = Vec::new();
        for r in 0..4 {
            for c in 0..5 {
                let q = r * 5 + c;
                if c + 1 < 5 {
                    edges.push((q, q + 1));
                }
                if r + 1 < 4 {
                    edges.push((q, q + 5));
                }
            }
        }
        // Diagonal couplings of the Tokyo chip (crossed pairs).
        edges.extend_from_slice(&[
            (1, 7),
            (2, 6),
            (3, 9),
            (4, 8),
            (5, 11),
            (6, 10),
            (7, 13),
            (8, 12),
            (11, 17),
            (12, 16),
            (13, 19),
            (14, 18),
        ]);
        Device::from_graph("IBM Q20 Tokyo", CouplingGraph::new(20, &edges))
            .with_layout(Layout2d::grid(4, 5))
    }

    /// The Enfield 6×6 grid model.
    pub fn enfield_6x6() -> Self {
        Device::grid(6, 6)
    }

    /// A generic `rows × cols` lattice device.
    pub fn grid(rows: usize, cols: usize) -> Self {
        Device::from_graph(
            format!("grid {rows}x{cols}"),
            CouplingGraph::grid(rows, cols),
        )
        .with_layout(Layout2d::grid(rows, cols))
    }

    /// A diagonal (rotated-grid) lattice of `rows × cols` qubits: each
    /// qubit couples to up to 4 qubits in the adjacent rows and none in
    /// its own row — the Google Sycamore/Bristlecone geometry.
    pub fn diagonal_lattice(name: impl Into<String>, rows: usize, cols: usize) -> Self {
        let mut edges: Vec<(PhysQubit, PhysQubit)> = Vec::new();
        for r in 0..rows.saturating_sub(1) {
            for c in 0..cols {
                let q = r * cols + c;
                let below = (r + 1) * cols + c;
                edges.push((q, below));
                // The lattice is brick-patterned: even rows also couple
                // to the next column below; odd rows to the previous.
                if r % 2 == 0 {
                    if c + 1 < cols {
                        edges.push((q, below + 1));
                    }
                } else if c > 0 {
                    edges.push((q, below - 1));
                }
            }
        }
        // Rotated-grid coordinates: diagonal neighbors differ by one row
        // and one column, matching the Manhattan geometry Hfine assumes.
        let coords: Vec<(i32, i32)> = (0..rows * cols)
            .map(|q| {
                let r = (q / cols) as i32;
                let c = (q % cols) as i32;
                (r, 2 * c + (r % 2))
            })
            .collect();
        Device::from_graph(name, CouplingGraph::new(rows * cols, &edges))
            .with_layout(Layout2d::new(coords))
    }

    /// Google Q54 Sycamore: 54 qubits on a diagonal lattice (9 rows of
    /// 6), reconstructed from the Nature 2019 layout.
    pub fn google_sycamore54() -> Self {
        Device::diagonal_lattice("Google Q54 Sycamore", 9, 6)
    }

    /// Google Bristlecone: 72 qubits on the same diagonal lattice
    /// geometry (12 rows of 6).
    pub fn google_bristlecone72() -> Self {
        Device::diagonal_lattice("Google Bristlecone 72", 12, 6)
    }

    /// IBM Q5 Yorktown: the 5-qubit "bow-tie" (two triangles sharing
    /// qubit 2).
    pub fn ibm_q5_yorktown() -> Self {
        let edges = [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)];
        Device::from_graph("IBM Q5 Yorktown", CouplingGraph::new(5, &edges))
    }

    /// IBM 27-qubit Falcon heavy-hex lattice (the ibmq_montreal-class
    /// coupling map), the topology of IBM's post-2020 backends.
    pub fn ibm_falcon27() -> Self {
        let edges = [
            (0, 1),
            (1, 2),
            (1, 4),
            (2, 3),
            (3, 5),
            (4, 7),
            (5, 8),
            (6, 7),
            (7, 10),
            (8, 9),
            (8, 11),
            (10, 12),
            (11, 14),
            (12, 13),
            (12, 15),
            (13, 14),
            (14, 16),
            (15, 18),
            (16, 19),
            (17, 18),
            (18, 21),
            (19, 20),
            (19, 22),
            (21, 23),
            (22, 25),
            (23, 24),
            (24, 25),
            (25, 26),
        ];
        Device::from_graph("IBM Falcon 27 (heavy-hex)", CouplingGraph::new(27, &edges))
    }

    /// IBM 127-qubit Eagle-class heavy-hex lattice (the
    /// ibm_washington/ibm_brisbane-class topology, stylized like the
    /// other presets): six 15-qubit rows and one 13-qubit row, joined
    /// by four bridge qubits per row gap. Bridge columns alternate
    /// between `{2, 6, 10, 14}` and `{0, 4, 8, 12}` on consecutive
    /// gaps, so no row qubit carries more than one bridge — every
    /// qubit has degree ≤ 3, the heavy-hex signature. 127 qubits
    /// total; the scale target of the whole-device stabilizer
    /// equivalence gate.
    pub fn ibm_eagle127() -> Self {
        const WIDTHS: [usize; 7] = [15, 15, 15, 15, 15, 15, 13];
        let mut edges: Vec<(PhysQubit, PhysQubit)> = Vec::new();
        let mut coords: Vec<(i32, i32)> = Vec::new();
        let mut row_start = [0usize; 7];
        let mut next = 0;
        for (r, &w) in WIDTHS.iter().enumerate() {
            row_start[r] = next;
            for c in 0..w {
                if c + 1 < w {
                    edges.push((next + c, next + c + 1));
                }
                coords.push((2 * r as i32, 2 * c as i32));
            }
            next += w;
        }
        for gap in 0..WIDTHS.len() - 1 {
            let cols: [usize; 4] = if gap % 2 == 0 {
                [2, 6, 10, 14]
            } else {
                // The last row is 13 wide; odd-gap columns stay ≤ 12,
                // which is what keeps the bottom gap at four bridges.
                [0, 4, 8, 12]
            };
            for &c in &cols {
                let bridge = next;
                next += 1;
                edges.push((row_start[gap] + c, bridge));
                edges.push((bridge, row_start[gap + 1] + c));
                coords.push((2 * gap as i32 + 1, 2 * c as i32));
            }
        }
        debug_assert_eq!(next, 127);
        Device::from_graph("IBM Eagle 127 (heavy-hex)", CouplingGraph::new(127, &edges))
            .with_layout(Layout2d::new(coords))
    }

    /// Rigetti Aspen-style 16-qubit device: two octagonal rings joined
    /// by two bridges (a stylized rendering of the Aspen lattice cell).
    pub fn rigetti_aspen16() -> Self {
        let mut edges: Vec<(PhysQubit, PhysQubit)> = Vec::new();
        for i in 0..8 {
            edges.push((i, (i + 1) % 8));
            edges.push((8 + i, 8 + (i + 1) % 8));
        }
        edges.push((1, 14));
        edges.push((2, 13));
        Device::from_graph("Rigetti Aspen 16", CouplingGraph::new(16, &edges))
    }

    /// A linear (path) device.
    pub fn linear(n: usize) -> Self {
        let coords: Vec<(i32, i32)> = (0..n).map(|q| (0, q as i32)).collect();
        Device::from_graph(format!("linear {n}"), CouplingGraph::line(n))
            .with_layout(Layout2d::new(coords))
    }

    /// A ring device.
    pub fn ring(n: usize) -> Self {
        Device::from_graph(format!("ring {n}"), CouplingGraph::ring(n))
    }

    /// A fully connected device (ion-trap-style), with the ion-trap
    /// duration profile.
    pub fn ion_trap_all_to_all(n: usize) -> Self {
        Device::from_graph(format!("ion trap {n}"), CouplingGraph::complete(n))
            .with_durations(GateDurations::ion_trap())
    }

    /// Looks a device preset up by name (case-insensitive; accepts the
    /// common short aliases used by the CLI).
    ///
    /// # Examples
    ///
    /// ```
    /// use codar_arch::Device;
    /// assert_eq!(Device::by_name("q20").unwrap().num_qubits(), 20);
    /// assert!(Device::by_name("nonexistent").is_none());
    /// ```
    pub fn by_name(name: &str) -> Option<Device> {
        match name.to_ascii_lowercase().as_str() {
            "q16" | "melbourne" | "ibm_q16" => Some(Device::ibm_q16_melbourne()),
            "q20" | "tokyo" | "ibm_q20" => Some(Device::ibm_q20_tokyo()),
            "6x6" | "grid6" | "enfield" => Some(Device::enfield_6x6()),
            "q54" | "sycamore" => Some(Device::google_sycamore54()),
            "q72" | "bristlecone" => Some(Device::google_bristlecone72()),
            "q5" | "yorktown" => Some(Device::ibm_q5_yorktown()),
            "falcon" | "falcon27" | "heavy-hex" => Some(Device::ibm_falcon27()),
            "eagle" | "eagle127" | "q127" => Some(Device::ibm_eagle127()),
            "aspen" | "aspen16" => Some(Device::rigetti_aspen16()),
            _ => None,
        }
    }

    /// All named presets with their CLI aliases.
    pub fn presets() -> Vec<(&'static str, Device)> {
        PRESETS
            .iter()
            .map(|(key, _, build)| (*key, build()))
            .collect()
    }

    /// Preset catalog keys, in [`Device::presets`] order — the list
    /// generators draw device names from without building the devices.
    pub fn preset_names() -> Vec<&'static str> {
        PRESETS.iter().map(|(key, _, _)| *key).collect()
    }

    /// The catalog key of the preset `name` denotes: its key or its
    /// device name, both case-insensitive. Builds no device, so a
    /// request-rate caller can resolve names for free.
    ///
    /// # Examples
    ///
    /// ```
    /// use codar_arch::Device;
    /// assert_eq!(Device::catalog_key("Q20"), Some("q20"));
    /// assert_eq!(Device::catalog_key("ibm q20 tokyo"), Some("q20"));
    /// assert_eq!(Device::catalog_key("tokyo"), None);
    /// ```
    pub fn catalog_key(name: &str) -> Option<&'static str> {
        PRESETS
            .iter()
            .find(|(key, device, _)| {
                key.eq_ignore_ascii_case(name) || device.eq_ignore_ascii_case(name)
            })
            .map(|(key, _, _)| *key)
    }

    /// The four architectures of the paper's Fig. 8, in paper order.
    pub fn paper_architectures() -> Vec<Device> {
        vec![
            Device::ibm_q16_melbourne(),
            Device::enfield_6x6(),
            Device::ibm_q20_tokyo(),
            Device::google_sycamore54(),
        ]
    }
}

impl fmt::Display for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} qubits, {} couplings)",
            self.name,
            self.num_qubits(),
            self.graph.edges().len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q16_is_2x8_ladder() {
        let d = Device::ibm_q16_melbourne();
        assert_eq!(d.num_qubits(), 16);
        assert_eq!(d.graph().edges().len(), 7 + 7 + 8);
        assert!(d.graph().is_connected());
        assert_eq!(d.distances().diameter(), 8);
    }

    #[test]
    fn q20_tokyo_structure() {
        let d = Device::ibm_q20_tokyo();
        assert_eq!(d.num_qubits(), 20);
        // 4x5 grid: 16 horizontal + 15 vertical + 12 diagonals
        assert_eq!(d.graph().edges().len(), 16 + 15 + 12);
        assert!(d.graph().is_connected());
        // Diagonals shrink the diameter below the plain 4x5 grid's 7.
        assert!(d.distances().diameter() <= 5);
        // Spot-check published diagonal pairs.
        assert!(d.graph().are_adjacent(1, 7));
        assert!(d.graph().are_adjacent(14, 18));
        assert!(!d.graph().are_adjacent(0, 6));
    }

    #[test]
    fn enfield_6x6_grid() {
        let d = Device::enfield_6x6();
        assert_eq!(d.num_qubits(), 36);
        assert_eq!(d.distance(0, 35), 10);
        assert!(d.layout().is_some());
    }

    #[test]
    fn sycamore_structure() {
        let d = Device::google_sycamore54();
        assert_eq!(d.num_qubits(), 54);
        assert!(d.graph().is_connected());
        // No intra-row couplings.
        for r in 0..9usize {
            for c in 0..5usize {
                let q = r * 6 + c;
                assert!(!d.graph().are_adjacent(q, q + 1), "row edge {q}");
            }
        }
        // Degree bounded by 4 as on the real chip.
        for q in 0..54 {
            assert!(d.graph().degree(q) <= 4, "degree of {q}");
        }
    }

    #[test]
    fn bristlecone_structure() {
        let d = Device::google_bristlecone72();
        assert_eq!(d.num_qubits(), 72);
        assert!(d.graph().is_connected());
        for q in 0..72 {
            assert!(d.graph().degree(q) <= 4);
        }
    }

    #[test]
    fn eagle127_heavy_hex_structure() {
        let d = Device::ibm_eagle127();
        assert_eq!(d.num_qubits(), 127);
        assert!(d.graph().is_connected());
        // 103 row qubits in 7 lines + 24 bridges of degree 2.
        assert_eq!(d.graph().edges().len(), (6 * 14 + 12) + 24 * 2);
        for q in 0..127 {
            assert!(d.graph().degree(q) <= 3, "degree of {q}");
        }
        for bridge in 103..127 {
            assert_eq!(d.graph().degree(bridge), 2, "bridge {bridge}");
        }
        assert!(d.layout().is_some());
        // Aliases resolve to it; it is deliberately NOT a preset (the
        // preset list is frozen into service golden fixtures).
        for alias in ["eagle", "eagle127", "q127", "EAGLE"] {
            assert_eq!(Device::by_name(alias).unwrap().num_qubits(), 127);
        }
        assert!(!Device::preset_names().contains(&"eagle127"));
    }

    #[test]
    fn catalog_names_match_the_built_presets() {
        for (key, name, build) in PRESETS {
            assert_eq!(build().name(), name, "{key}");
            assert_eq!(Device::catalog_key(&name.to_ascii_uppercase()), Some(key));
            assert_eq!(Device::catalog_key(key), Some(key));
        }
        assert_eq!(Device::catalog_key("eagle127"), None);
    }

    #[test]
    fn yorktown_bowtie() {
        let d = Device::ibm_q5_yorktown();
        assert_eq!(d.num_qubits(), 5);
        assert_eq!(d.graph().edges().len(), 6);
        assert_eq!(d.graph().degree(2), 4); // the shared center
        assert_eq!(d.distances().diameter(), 2);
    }

    #[test]
    fn falcon27_heavy_hex() {
        let d = Device::ibm_falcon27();
        assert_eq!(d.num_qubits(), 27);
        assert_eq!(d.graph().edges().len(), 28);
        assert!(d.graph().is_connected());
        // Heavy-hex: degrees are 1, 2 or 3 only.
        for q in 0..27 {
            assert!(d.graph().degree(q) <= 3, "degree of {q}");
        }
    }

    #[test]
    fn aspen16_two_rings() {
        let d = Device::rigetti_aspen16();
        assert_eq!(d.num_qubits(), 16);
        assert!(d.graph().is_connected());
        assert_eq!(d.graph().edges().len(), 18);
        // Ring qubits away from the bridges have degree 2.
        assert_eq!(d.graph().degree(5), 2);
        assert_eq!(d.graph().degree(1), 3);
    }

    #[test]
    fn paper_architecture_list() {
        let archs = Device::paper_architectures();
        let names: Vec<&str> = archs.iter().map(|d| d.name()).collect();
        assert_eq!(
            names,
            vec![
                "IBM Q16 Melbourne",
                "grid 6x6",
                "IBM Q20 Tokyo",
                "Google Q54 Sycamore"
            ]
        );
        let sizes: Vec<usize> = archs.iter().map(|d| d.num_qubits()).collect();
        assert_eq!(sizes, vec![16, 36, 20, 54]);
    }

    #[test]
    fn ion_trap_device_profile() {
        let d = Device::ion_trap_all_to_all(5);
        assert_eq!(d.durations(), &GateDurations::ion_trap());
        assert_eq!(d.distances().diameter(), 1);
    }

    #[test]
    #[should_panic(expected = "layout must cover")]
    fn mismatched_layout_panics() {
        Device::from_graph("x", CouplingGraph::line(3)).with_layout(Layout2d::grid(1, 2));
    }

    #[test]
    fn display_mentions_size() {
        let text = Device::ibm_q20_tokyo().to_string();
        assert!(text.contains("20 qubits"));
    }

    #[test]
    fn clone_shares_distance_matrix() {
        let d = Device::enfield_6x6();
        let d2 = d.clone();
        assert!(std::ptr::eq(d.distances(), d2.distances()));
    }
}
