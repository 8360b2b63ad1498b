//! Ablation benchmarks: routing runtime of CODAR with each mechanism
//! disabled (the *quality* impact is reported by the `sweep` binary;
//! here we measure that the mechanisms don't blow up compile time).

use codar_arch::Device;
use codar_bench::ablation_configs;
use codar_benchmarks::generators;
use codar_router::{CodarRouter, Mapping, RouterScratch};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_ablations(c: &mut Criterion) {
    let device = Device::ibm_q20_tokyo();
    let circuit = generators::random_clifford_t(16, 600, 11);
    let initial = Mapping::identity(16, device.num_qubits());
    let mut group = c.benchmark_group("codar_ablation_runtime");
    for (name, config) in ablation_configs() {
        group.bench_with_input(
            BenchmarkId::from_parameter(name.replace(' ', "_")),
            &config,
            |b, config| {
                let router = CodarRouter::with_config(&device, config.clone());
                b.iter(|| {
                    black_box(
                        router
                            .route(&circuit, Some(&initial), &mut RouterScratch::new())
                            .expect("fits"),
                    )
                });
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_ablations
}
criterion_main!(benches);
