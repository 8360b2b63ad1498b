//! Component micro-benchmarks: the building blocks CODAR's inner loop
//! leans on (distance matrices, CF-set computation, QASM parsing,
//! ASAP scheduling).

use codar_arch::{CouplingGraph, DistanceMatrix, GateDurations};
use codar_benchmarks::generators;
use codar_circuit::schedule::Schedule;
use codar_router::front::{CommutativeFront, DEFAULT_WINDOW};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_distance_matrix(c: &mut Criterion) {
    let mut group = c.benchmark_group("distance_matrix");
    for &n in &[16usize, 36, 54, 100] {
        let side = (n as f64).sqrt().ceil() as usize;
        let graph = CouplingGraph::grid(side, side);
        group.bench_with_input(BenchmarkId::from_parameter(n), &graph, |b, graph| {
            b.iter(|| black_box(DistanceMatrix::new(graph)));
        });
    }
    group.finish();
}

fn bench_cf_computation(c: &mut Criterion) {
    // Rebuild the tracker per iteration: the CF set is maintained
    // incrementally, so a reused tracker would only measure a lookup.
    let circuit = generators::qft(16);
    c.bench_function("cf_set_qft16", |b| {
        b.iter(|| {
            let mut front = CommutativeFront::new(&circuit, true, DEFAULT_WINDOW);
            black_box(front.cf_gates(&circuit).len())
        });
    });
    let random = generators::random_clifford_t(20, 1000, 3);
    c.bench_function("cf_set_random20x1000", |b| {
        b.iter(|| {
            let mut front = CommutativeFront::new(&random, true, DEFAULT_WINDOW);
            black_box(front.cf_gates(&random).len())
        });
    });
}

fn bench_qasm_parse(c: &mut Criterion) {
    let circuit = generators::qft(16);
    let qasm = codar_circuit::from_qasm::circuit_to_qasm(&circuit).expect("emittable");
    c.bench_function("qasm_parse_qft16", |b| {
        b.iter(|| black_box(codar_qasm::parse_and_flatten(&qasm).expect("parses")));
    });
}

fn bench_schedule(c: &mut Criterion) {
    let circuit = generators::random_clifford_t(20, 5000, 4);
    let tau = GateDurations::superconducting();
    c.bench_function("asap_schedule_5000", |b| {
        b.iter(|| black_box(Schedule::asap(&circuit, |g| tau.of(g))));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_distance_matrix, bench_cf_computation, bench_qasm_parse, bench_schedule
}
criterion_main!(benches);
