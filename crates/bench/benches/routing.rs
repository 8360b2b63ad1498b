//! Router runtime benchmarks: CODAR vs SABRE compile time as circuits
//! grow (the practical "is the heuristic fast enough" question).

use codar_arch::Device;
use codar_benchmarks::generators;
use codar_router::{CodarRouter, Mapping, RouterScratch, SabreRouter};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_routers(c: &mut Criterion) {
    let device = Device::ibm_q20_tokyo();
    let mut group = c.benchmark_group("routing");
    for &n in &[4usize, 8, 12, 16] {
        let circuit = generators::qft(n);
        let initial = Mapping::identity(n, device.num_qubits());
        group.bench_with_input(BenchmarkId::new("codar_qft", n), &circuit, |b, circuit| {
            let router = CodarRouter::new(&device);
            b.iter(|| {
                black_box(
                    router
                        .route(circuit, Some(&initial), &mut RouterScratch::new())
                        .expect("qft fits"),
                )
            });
        });
        group.bench_with_input(BenchmarkId::new("sabre_qft", n), &circuit, |b, circuit| {
            let router = SabreRouter::new(&device);
            b.iter(|| {
                black_box(
                    router
                        .route(circuit, Some(&initial), &mut RouterScratch::new())
                        .expect("qft fits"),
                )
            });
        });
    }
    for &gates in &[200usize, 800] {
        let circuit = generators::random_clifford_t(16, gates, 5);
        let initial = Mapping::identity(16, device.num_qubits());
        group.bench_with_input(
            BenchmarkId::new("codar_random16", gates),
            &circuit,
            |b, circuit| {
                let router = CodarRouter::new(&device);
                b.iter(|| {
                    black_box(
                        router
                            .route(circuit, Some(&initial), &mut RouterScratch::new())
                            .expect("fits"),
                    )
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("sabre_random16", gates),
            &circuit,
            |b, circuit| {
                let router = SabreRouter::new(&device);
                b.iter(|| {
                    black_box(
                        router
                            .route(circuit, Some(&initial), &mut RouterScratch::new())
                            .expect("fits"),
                    )
                });
            },
        );
    }
    group.finish();
}

fn bench_large_device(c: &mut Criterion) {
    let device = Device::google_sycamore54();
    let circuit = generators::ising_qaoa(36, 4, 7);
    let initial = Mapping::identity(36, device.num_qubits());
    c.bench_function("codar_sycamore_ising36", |b| {
        let router = CodarRouter::new(&device);
        b.iter(|| {
            black_box(
                router
                    .route(&circuit, Some(&initial), &mut RouterScratch::new())
                    .expect("fits"),
            )
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_routers, bench_large_device
}
criterion_main!(benches);
