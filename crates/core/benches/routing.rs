//! Router hot-path benchmarks at the `codar-router` level: scratch
//! reuse vs fresh allocation, the incremental CF front, the incremental
//! SWAP scorer, and route verification. Run with
//! `cargo bench -p codar-router`.

use codar_arch::Device;
use codar_benchmarks::{full_suite, generators};
use codar_circuit::Circuit;
use codar_router::front::{CommutativeFront, DEFAULT_WINDOW};
use codar_router::heuristic::{priority, SwapScorer};
use codar_router::verify::{check_coupling, check_equivalence};
use codar_router::{CodarRouter, Mapping, RouterScratch, SabreRouter};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// CODAR and SABRE steady-state routing: one scratch reused across
/// iterations (the engine-worker hot path) vs a fresh scratch per call.
fn bench_scratch_reuse(c: &mut Criterion) {
    let device = Device::ibm_q20_tokyo();
    let mut group = c.benchmark_group("scratch_reuse");
    for &n in &[8usize, 16] {
        let circuit = generators::qft(n);
        let initial = Mapping::identity(n, device.num_qubits());
        let codar = CodarRouter::new(&device);
        let mut scratch = RouterScratch::new();
        group.bench_with_input(
            BenchmarkId::new("codar_reused", n),
            &circuit,
            |b, circuit| {
                b.iter(|| {
                    black_box(
                        codar
                            .route(circuit, Some(&initial), &mut scratch)
                            .expect("qft fits"),
                    )
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("codar_fresh", n),
            &circuit,
            |b, circuit| {
                b.iter(|| {
                    black_box(
                        codar
                            .route(circuit, Some(&initial), &mut RouterScratch::new())
                            .expect("qft fits"),
                    )
                });
            },
        );
        let sabre = SabreRouter::new(&device);
        group.bench_with_input(
            BenchmarkId::new("sabre_reused", n),
            &circuit,
            |b, circuit| {
                b.iter(|| {
                    black_box(
                        sabre
                            .route(circuit, Some(&initial), &mut scratch)
                            .expect("qft fits"),
                    )
                });
            },
        );
    }
    group.finish();
}

/// Emits every gate of `circuit` the way CODAR's launch loop does: the
/// whole CF set once, then only the gates that each round made CF.
fn drain_front(circuit: &Circuit) -> usize {
    let mut front = CommutativeFront::new(circuit, true, DEFAULT_WINDOW);
    let mut cf = Vec::new();
    let mut emitted = 0;
    front.snapshot(circuit, &mut cf);
    while !cf.is_empty() {
        for &g in &cf {
            front.emit(g, circuit);
        }
        emitted += cf.len();
        front.take_joined(circuit, &mut cf);
    }
    emitted
}

/// The incremental CF front: steady-state queries (nothing to refresh
/// between emissions), building the initial set, and draining a whole
/// circuit, on random Clifford+T and on a diagonal run far longer than
/// the window (every gate commutes, so every window stays full).
fn bench_cf_cache(c: &mut Criterion) {
    let circuit = generators::random_clifford_t(20, 1000, 3);
    let mut diagonal = Circuit::new(8);
    for i in 0..1000 {
        let q = i % 8;
        diagonal.rz(0.001 * i as f64, q);
        diagonal.cz(q, (q + 1) % 8);
    }
    c.bench_function("cf_cached_query", |b| {
        let mut front = CommutativeFront::new(&circuit, true, DEFAULT_WINDOW);
        front.cf_gates(&circuit); // warm the cache
        b.iter(|| black_box(front.cf_gates(&circuit).len()));
    });
    c.bench_function("cf_rebuild", |b| {
        b.iter(|| {
            let mut front = CommutativeFront::new(&circuit, true, DEFAULT_WINDOW);
            black_box(front.cf_gates(&circuit).len())
        });
    });
    c.bench_function("cf_drain_random20x1000", |b| {
        b.iter(|| black_box(drain_front(&circuit)));
    });
    c.bench_function("cf_drain_diagonal_run8x2000", |b| {
        b.iter(|| black_box(drain_front(&diagonal)));
    });
}

/// Incremental SWAP scoring vs the reference full re-summation, on a
/// Sycamore-sized pair set.
fn bench_swap_scoring(c: &mut Criterion) {
    let device = Device::google_sycamore54();
    let dist = device.distances();
    let layout = device.layout();
    let graph = device.graph();
    let pairs: Vec<(usize, usize)> = (0..16).map(|i| (i, 53 - i)).collect();
    let edges: Vec<(usize, usize)> = (0..device.num_qubits())
        .flat_map(|a| {
            graph
                .neighbors(a)
                .iter()
                .map(move |&b| (a.min(b), a.max(b)))
        })
        .collect();
    c.bench_function("score_incremental_54q", |b| {
        let mut scorer = SwapScorer::new();
        b.iter(|| {
            scorer.begin_round(&pairs, device.num_qubits(), layout);
            let mut acc = 0i64;
            for &edge in &edges {
                acc += scorer.priority(edge, &pairs, dist, layout, true).basic;
            }
            black_box(acc)
        });
    });
    c.bench_function("score_reference_54q", |b| {
        b.iter(|| {
            let mut acc = 0i64;
            for &edge in &edges {
                acc += priority(edge, &pairs, dist, layout, true).basic;
            }
            black_box(acc)
        });
    });
}

/// Verification of one large routed suite circuit: `counter_14`
/// (2184 gates) routed by CODAR on Q20, the check every engine job and
/// daemon miss runs before replying.
fn bench_verify(c: &mut Criterion) {
    let device = Device::ibm_q20_tokyo();
    let entry = full_suite()
        .into_iter()
        .find(|e| e.name == "counter_14")
        .expect("counter_14 is a suite entry");
    let routed = CodarRouter::new(&device)
        .route(&entry.circuit, None, &mut RouterScratch::new())
        .expect("counter_14 fits Q20");
    let mut group = c.benchmark_group("verify");
    group.bench_with_input(
        BenchmarkId::new("equivalence", &entry.name),
        &routed,
        |b, routed| b.iter(|| black_box(check_equivalence(&entry.circuit, routed).is_ok())),
    );
    group.bench_with_input(
        BenchmarkId::new("coupling", &entry.name),
        &routed,
        |b, routed| b.iter(|| black_box(check_coupling(&routed.circuit, &device).is_ok())),
    );
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_scratch_reuse, bench_cf_cache, bench_swap_scoring, bench_verify
}
criterion_main!(benches);
