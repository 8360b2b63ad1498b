//! The seeded request streams of the serve workload.
//!
//! A stream is a pure function of its [`ServeSpec`] and the seed. Route
//! lines are built as `loadgen` builds them, over the suite's small
//! circuits with the hot set first. Every seed asks for the same
//! multiset of circuits: each hot circuit `hot_repeats` times (the hot
//! replays) and each pool circuit `pool_repeats` times (the uniform
//! draws), and the seed picks their order. `loadgen`'s `CircuitMix`
//! draws each route independently instead, so how often a seed happens
//! to ask for the largest circuits would swing a round's cost by more
//! than the run-to-run noise.

use codar_benchmarks::mix::service_pool;
use codar_circuit::from_qasm::circuit_to_qasm;
use codar_service::json::escape;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::rc::Rc;

/// The daemon-facing shape of the serve workload.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// Device preset the routes target.
    pub device: &'static str,
    /// Router every route names.
    pub router: &'static str,
    /// Pool bound: suite circuits with at most this many qubits.
    pub max_qubits: usize,
    /// Hot-set size (the first pool entries).
    pub hot: usize,
    /// Replays of each hot circuit per round.
    pub hot_repeats: usize,
    /// Requests for each pool circuit per round.
    pub pool_repeats: usize,
}

/// `serve-hot`: loadgen's default mix (Q20, codar, circuits of at most
/// 10 qubits, hot set of 4, repeat ratio 0.95), the cache-hit path:
/// 1596 hot replays and two requests for each of the 42 pool circuits.
pub const SERVE_HOT: ServeSpec = ServeSpec {
    device: "q20",
    router: "codar",
    max_qubits: 10,
    hot: 4,
    hot_repeats: 399,
    pool_repeats: 2,
};

/// One route request of a round.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// The exact request line, shared by every stream of a run.
    pub line: Rc<str>,
    /// The pool entry it asks to route.
    pub entry: usize,
}

/// A round's requests.
#[derive(Debug, Clone, PartialEq)]
pub struct Stream {
    /// One route per hot-set circuit: the set-up's warm-up, the same
    /// for every seed.
    pub warmup: Vec<Op>,
    /// The timed requests, in order.
    pub ops: Vec<Op>,
}

/// Builds the round streams of the serve workload.
pub struct Generator {
    spec: ServeSpec,
    /// One route line per pool circuit, hot set first.
    lines: Vec<Op>,
}

impl Generator {
    /// Serializes the route request of every pool circuit of `spec`.
    ///
    /// # Panics
    ///
    /// Panics if the pool is smaller than the hot set; both are
    /// constants of the benchmark.
    pub fn new(spec: &ServeSpec) -> Self {
        let pool = service_pool(spec.max_qubits);
        assert!(pool.len() >= spec.hot, "pool smaller than the hot set");
        let device = escape(spec.device);
        let router = escape(spec.router);
        let lines = pool
            .iter()
            .enumerate()
            .map(|(entry, e)| {
                let qasm = circuit_to_qasm(&e.circuit).expect("suite circuits serialize");
                Op {
                    line: format!(
                        "{{\"type\":\"route\",\"device\":{device},\"router\":{router},\"circuit\":{}}}",
                        escape(&qasm)
                    )
                    .into(),
                    entry,
                }
            })
            .collect();
        Generator { spec: *spec, lines }
    }

    /// The round stream for `seed`.
    pub fn stream(&self, seed: u64) -> Stream {
        let spec = &self.spec;
        let mut order: Vec<usize> = (0..spec.hot)
            .flat_map(|entry| std::iter::repeat_n(entry, spec.hot_repeats))
            .chain((0..spec.pool_repeats).flat_map(|_| 0..self.lines.len()))
            .collect();
        order.shuffle(&mut StdRng::seed_from_u64(seed));
        Stream {
            warmup: self.lines[..spec.hot].to_vec(),
            ops: order
                .into_iter()
                .map(|entry| self.lines[entry].clone())
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codar_service::Request;

    fn small(spec: ServeSpec) -> ServeSpec {
        ServeSpec {
            hot_repeats: 20,
            pool_repeats: 1,
            ..spec
        }
    }

    /// Route requests per round of `spec` over a pool of `pool`.
    fn routes(spec: &ServeSpec, pool: usize) -> usize {
        spec.hot * spec.hot_repeats + pool * spec.pool_repeats
    }

    /// Share of routes that replay the hot set (loadgen's
    /// `repeat_ratio`).
    fn repeat_ratio(spec: &ServeSpec, pool: usize) -> f64 {
        (spec.hot * spec.hot_repeats) as f64 / routes(spec, pool) as f64
    }

    fn entries(stream: &Stream) -> Vec<usize> {
        stream.ops.iter().map(|op| op.entry).collect()
    }

    #[test]
    fn stream_is_a_pure_function_of_the_seed() {
        let spec = small(SERVE_HOT);
        let a = Generator::new(&spec).stream(11);
        assert_eq!(a, Generator::new(&spec).stream(11));
        assert_ne!(a, Generator::new(&spec).stream(12));
        let pool = service_pool(spec.max_qubits).len();
        assert_eq!(a.ops.len(), routes(&spec, pool));
    }

    #[test]
    fn every_seed_asks_for_the_same_circuits_in_its_own_order() {
        let spec = small(SERVE_HOT);
        let mut a = entries(&Generator::new(&spec).stream(1));
        let mut b = entries(&Generator::new(&spec).stream(2));
        assert_ne!(a, b);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        let pool = service_pool(spec.max_qubits).len();
        let mut counts = vec![0usize; pool];
        for entry in a {
            counts[entry] += 1;
        }
        for (entry, &count) in counts.iter().enumerate() {
            let hot = if entry < spec.hot {
                spec.hot_repeats
            } else {
                0
            };
            assert_eq!(count, hot + spec.pool_repeats, "entry {entry}");
        }
    }

    #[test]
    fn workload_mix_has_the_stated_repeat_ratio() {
        let pool = service_pool(SERVE_HOT.max_qubits).len();
        assert_eq!(pool, 42);
        assert_eq!(routes(&SERVE_HOT, pool), 1680);
        assert!((repeat_ratio(&SERVE_HOT, pool) - 0.95).abs() < 1e-12);
    }

    #[test]
    fn warmup_is_the_hot_set_whatever_the_seed() {
        let spec = small(SERVE_HOT);
        let stream = Generator::new(&spec).stream(9);
        assert_eq!(stream.warmup, Generator::new(&spec).stream(10).warmup);
        assert_eq!(stream.warmup.len(), spec.hot);
    }

    #[test]
    fn lines_parse_as_route_requests() {
        let stream = Generator::new(&small(SERVE_HOT)).stream(5);
        for op in &stream.ops {
            let request = Request::parse_envelope(&op.line)
                .expect("well-formed")
                .request;
            match request {
                Request::Route { device, .. } => assert_eq!(device, "q20"),
                other => panic!("entry {} parsed as {other:?}", op.entry),
            }
        }
    }
}
