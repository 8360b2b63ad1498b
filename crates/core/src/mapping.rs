//! The dynamic logical→physical mapping `π` (paper Table II) and initial
//! mapping strategies.

use crate::scratch::RouterScratch;
use codar_arch::Device;
use codar_circuit::{Circuit, QubitId};
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A bijective (partial, since `N ≥ n`) mapping between `n` logical and
/// `N` physical qubits, updatable by SWAPs.
///
/// # Examples
///
/// ```
/// use codar_router::Mapping;
///
/// let mut pi = Mapping::identity(3, 5);
/// assert_eq!(pi.phys_of(2), 2);
/// pi.apply_swap(2, 4); // physical swap
/// assert_eq!(pi.phys_of(2), 4);
/// assert_eq!(pi.logical_of(2), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mapping {
    phys_of_logical: Vec<usize>,
    logical_of_phys: Vec<Option<QubitId>>,
}

impl Mapping {
    /// The identity mapping: logical `i` on physical `i`.
    ///
    /// # Panics
    ///
    /// Panics if `logical > physical`.
    pub fn identity(logical: usize, physical: usize) -> Self {
        assert!(logical <= physical, "need at least as many physical qubits");
        let phys_of_logical: Vec<usize> = (0..logical).collect();
        let mut logical_of_phys = vec![None; physical];
        for (l, &p) in phys_of_logical.iter().enumerate() {
            logical_of_phys[p] = Some(l);
        }
        Mapping {
            phys_of_logical,
            logical_of_phys,
        }
    }

    /// Builds a mapping from an explicit logical→physical assignment.
    ///
    /// # Panics
    ///
    /// Panics if the assignment is not injective or out of range.
    pub fn from_assignment(phys_of_logical: Vec<usize>, physical: usize) -> Self {
        let mut logical_of_phys = vec![None; physical];
        for (l, &p) in phys_of_logical.iter().enumerate() {
            assert!(p < physical, "physical qubit {p} out of range");
            assert!(
                logical_of_phys[p].is_none(),
                "physical qubit {p} assigned twice"
            );
            logical_of_phys[p] = Some(l);
        }
        Mapping {
            phys_of_logical,
            logical_of_phys,
        }
    }

    /// Number of logical qubits.
    pub fn num_logical(&self) -> usize {
        self.phys_of_logical.len()
    }

    /// Number of physical qubits.
    pub fn num_physical(&self) -> usize {
        self.logical_of_phys.len()
    }

    /// Physical location of logical qubit `l`.
    #[inline]
    pub fn phys_of(&self, l: QubitId) -> usize {
        self.phys_of_logical[l]
    }

    /// Logical occupant of physical qubit `p`, if any.
    #[inline]
    pub fn logical_of(&self, p: usize) -> Option<QubitId> {
        self.logical_of_phys[p]
    }

    /// Applies a SWAP between two *physical* qubits, exchanging their
    /// logical occupants (either may be unoccupied).
    pub fn apply_swap(&mut self, a: usize, b: usize) {
        let la = self.logical_of_phys[a];
        let lb = self.logical_of_phys[b];
        self.logical_of_phys[a] = lb;
        self.logical_of_phys[b] = la;
        if let Some(l) = la {
            self.phys_of_logical[l] = b;
        }
        if let Some(l) = lb {
            self.phys_of_logical[l] = a;
        }
    }

    /// The logical→physical assignment vector.
    pub fn assignment(&self) -> &[usize] {
        &self.phys_of_logical
    }
}

/// Strategies for picking the initial mapping.
///
/// The paper uses "the same method as SABRE" (reverse traversal) for
/// both routers so the comparison isolates the routing policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InitialMapping {
    /// Logical `i` starts on physical `i`.
    Identity,
    /// A seeded random placement.
    Random {
        /// RNG seed, so experiments are reproducible.
        seed: u64,
    },
    /// SABRE-style reverse traversal: route forward, then route the
    /// reversed circuit, and use the resulting final mapping (which
    /// reflects where the *early* gates want their qubits) as the
    /// initial mapping.
    SabreReverseTraversal {
        /// Seed for the underlying random start.
        seed: u64,
    },
    /// Density-based placement: logical qubits in descending
    /// interaction-degree order are placed to minimize the
    /// interaction-weighted distance to their already-placed partners
    /// (a DenseLayout-style heuristic; cheaper than reverse traversal,
    /// better than identity).
    DenseLayout,
    /// An explicit assignment.
    Fixed(Vec<usize>),
}

impl Default for InitialMapping {
    fn default() -> Self {
        InitialMapping::SabreReverseTraversal { seed: 0 }
    }
}

impl InitialMapping {
    /// Materializes the strategy for `circuit` on `device`, reusing
    /// `scratch` for the strategies that route (reverse traversal runs
    /// two SABRE passes).
    ///
    /// # Panics
    ///
    /// Panics if the device is smaller than the circuit (callers check
    /// this and return [`crate::RouteError::TooManyQubits`] first).
    pub fn build(
        &self,
        circuit: &Circuit,
        device: &Device,
        scratch: &mut RouterScratch,
    ) -> Mapping {
        let n = circuit.num_qubits();
        let big_n = device.num_qubits();
        match self {
            InitialMapping::Identity => Mapping::identity(n, big_n),
            InitialMapping::Random { seed } => {
                let mut rng = rand::rngs::StdRng::seed_from_u64(*seed);
                let mut phys: Vec<usize> = (0..big_n).collect();
                phys.shuffle(&mut rng);
                phys.truncate(n);
                Mapping::from_assignment(phys, big_n)
            }
            InitialMapping::SabreReverseTraversal { seed } => {
                crate::sabre::reverse_traversal_mapping(circuit, device, *seed, scratch)
            }
            InitialMapping::DenseLayout => dense_layout(circuit, device),
            InitialMapping::Fixed(assignment) => {
                Mapping::from_assignment(assignment.clone(), big_n)
            }
        }
    }
}

/// DenseLayout-style placement (see
/// [`InitialMapping::DenseLayout`]).
///
/// Placement order is descending interaction degree. The first qubit
/// goes on a maximum-degree physical site; every later qubit goes on
/// the free site minimizing `Σ weight(q, n) · D(site, π(n))` over its
/// already-placed interaction partners `n`, tie-broken by higher device
/// degree (denser neighborhoods leave more room for the rest).
pub fn dense_layout(circuit: &Circuit, device: &Device) -> Mapping {
    use codar_circuit::interaction::InteractionGraph;
    let n = circuit.num_qubits();
    let big_n = device.num_qubits();
    assert!(n <= big_n, "device too small");
    let ig = InteractionGraph::of(circuit);
    let dist = device.distances();
    let graph = device.graph();
    let mut phys_of_logical = vec![usize::MAX; n];
    let mut taken = vec![false; big_n];
    for q in ig.qubits_by_degree() {
        let partners: Vec<(usize, usize)> = ig
            .neighbors(q)
            .into_iter()
            .filter(|&(other, _)| phys_of_logical[other] != usize::MAX)
            .map(|(other, w)| (phys_of_logical[other], w))
            .collect();
        let score = |p: usize| -> (u64, std::cmp::Reverse<usize>, usize) {
            let cost: u64 = partners
                .iter()
                .map(|&(site, w)| {
                    let d = dist.get(p, site);
                    if d == codar_arch::DistanceMatrix::INF {
                        u64::MAX / 4
                    } else {
                        d as u64 * w as u64
                    }
                })
                .sum();
            (cost, std::cmp::Reverse(graph.degree(p)), p)
        };
        let best = (0..big_n)
            .filter(|&p| !taken[p])
            .min_by_key(|&p| score(p))
            .expect("device has at least n sites");
        phys_of_logical[q] = best;
        taken[best] = true;
    }
    Mapping::from_assignment(phys_of_logical, big_n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_round_trip() {
        let pi = Mapping::identity(3, 5);
        for l in 0..3 {
            assert_eq!(pi.phys_of(l), l);
            assert_eq!(pi.logical_of(l), Some(l));
        }
        assert_eq!(pi.logical_of(4), None);
    }

    #[test]
    fn swap_occupied_pair() {
        let mut pi = Mapping::identity(2, 2);
        pi.apply_swap(0, 1);
        assert_eq!(pi.phys_of(0), 1);
        assert_eq!(pi.phys_of(1), 0);
        assert_eq!(pi.logical_of(0), Some(1));
        assert_eq!(pi.logical_of(1), Some(0));
    }

    #[test]
    fn swap_with_empty_site() {
        let mut pi = Mapping::identity(1, 3);
        pi.apply_swap(0, 2);
        assert_eq!(pi.phys_of(0), 2);
        assert_eq!(pi.logical_of(0), None);
        assert_eq!(pi.logical_of(2), Some(0));
    }

    #[test]
    fn swap_two_empty_sites_is_noop() {
        let mut pi = Mapping::identity(1, 3);
        pi.apply_swap(1, 2);
        assert_eq!(pi.phys_of(0), 0);
    }

    #[test]
    fn swaps_are_involutive() {
        let mut pi = Mapping::identity(3, 4);
        let before = pi.clone();
        pi.apply_swap(1, 3);
        pi.apply_swap(1, 3);
        assert_eq!(pi, before);
    }

    #[test]
    #[should_panic(expected = "assigned twice")]
    fn non_injective_assignment_panics() {
        Mapping::from_assignment(vec![0, 0], 3);
    }

    #[test]
    fn random_mapping_is_seeded_and_injective() {
        let device = Device::grid(3, 3);
        let mut c = Circuit::new(5);
        c.cx(0, 4);
        let a = InitialMapping::Random { seed: 7 }.build(&c, &device, &mut RouterScratch::new());
        let b = InitialMapping::Random { seed: 7 }.build(&c, &device, &mut RouterScratch::new());
        assert_eq!(a, b);
        let mut seen = std::collections::BTreeSet::new();
        for l in 0..5 {
            assert!(seen.insert(a.phys_of(l)));
        }
    }

    #[test]
    fn dense_layout_places_heavy_pairs_adjacent() {
        let device = Device::grid(3, 3);
        let mut c = Circuit::new(3);
        for _ in 0..5 {
            c.cx(0, 1);
        }
        c.cx(1, 2);
        let pi = InitialMapping::DenseLayout.build(&c, &device, &mut RouterScratch::new());
        // The heavy pair (0,1) must land on coupled sites.
        assert!(device.graph().are_adjacent(pi.phys_of(0), pi.phys_of(1)));
        // The light pair should still be close.
        assert!(device.distance(pi.phys_of(1), pi.phys_of(2)) <= 2);
    }

    #[test]
    fn dense_layout_is_injective_and_total() {
        let device = Device::ibm_q20_tokyo();
        let mut c = Circuit::new(8);
        for i in 0..7 {
            c.cx(i, i + 1);
        }
        let pi = InitialMapping::DenseLayout.build(&c, &device, &mut RouterScratch::new());
        let mut seen = std::collections::BTreeSet::new();
        for l in 0..8 {
            assert!(pi.phys_of(l) < 20);
            assert!(seen.insert(pi.phys_of(l)));
        }
    }

    #[test]
    fn dense_layout_handles_interaction_free_circuits() {
        let device = Device::linear(4);
        let mut c = Circuit::new(3);
        c.h(0);
        c.h(1);
        let pi = InitialMapping::DenseLayout.build(&c, &device, &mut RouterScratch::new());
        let mut seen = std::collections::BTreeSet::new();
        for l in 0..3 {
            assert!(seen.insert(pi.phys_of(l)));
        }
    }

    #[test]
    fn fixed_mapping() {
        let device = Device::linear(4);
        let c = Circuit::new(2);
        let pi = InitialMapping::Fixed(vec![3, 1]).build(&c, &device, &mut RouterScratch::new());
        assert_eq!(pi.phys_of(0), 3);
        assert_eq!(pi.phys_of(1), 1);
    }
}
