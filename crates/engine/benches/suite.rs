//! Engine-level benchmark: end-to-end [`SuiteRunner`] throughput on a
//! fixed sub-matrix, in `cargo bench` form. Runs on one thread so the
//! measurement is compile time, not pool scheduling.

use codar_arch::Device;
use codar_benchmarks::suite::full_suite;
use codar_engine::{EngineConfig, SuiteRunner};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_suite_runner(c: &mut Criterion) {
    let mut group = c.benchmark_group("suite_runner");
    for &limit in &[8usize, 24] {
        let entries: Vec<_> = full_suite().into_iter().take(limit).collect();
        group.bench_with_input(
            BenchmarkId::new("route_1thread", limit),
            &entries,
            |b, entries| {
                b.iter(|| {
                    let result = SuiteRunner::new(EngineConfig {
                        threads: 1,
                        ..EngineConfig::default()
                    })
                    .device(Device::ibm_q20_tokyo())
                    .entries(entries.clone())
                    .run();
                    assert!(result.failures.is_empty());
                    black_box(result.summary.rows.len())
                });
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_suite_runner
}
criterion_main!(benches);
