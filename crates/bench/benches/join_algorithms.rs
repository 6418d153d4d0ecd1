//! Criterion micro-benchmarks backing experiments E1–E3: one group per
//! swept parameter, one bench per algorithm. Workloads are deliberately
//! small (Criterion repeats them many times); the experiment binaries run
//! the full-size sweeps.
// Panicking is idiomatic in test code; see clippy.toml.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hdsj_bench::Algo;
use hdsj_core::{CountSink, JoinSpec, Metric};
use hdsj_data::analytic::eps_for_expected_pairs;

fn bench_dimensionality(c: &mut Criterion) {
    let n = 2_000;
    let mut group = c.benchmark_group("self_join_vs_dim");
    group.sample_size(10);
    for d in [4usize, 16, 64] {
        let eps = eps_for_expected_pairs(Metric::L2, d, n, n as f64).min(0.95);
        let ds = hdsj_data::uniform(d, n, d as u64).unwrap();
        let spec = JoinSpec::new(eps, Metric::L2);
        for algo in Algo::all() {
            if algo == Algo::Grid && d > 10 {
                continue; // refuses: 3^d neighbourhood
            }
            group.bench_with_input(
                BenchmarkId::new(algo.name(), d),
                &(&ds, &spec),
                |b, (ds, spec)| {
                    b.iter(|| {
                        let mut a = algo.make();
                        let mut sink = CountSink::default();
                        a.self_join(ds, spec, &mut sink).expect("join");
                        sink.count
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_epsilon(c: &mut Criterion) {
    let n = 2_000;
    let d = 8;
    let ds = hdsj_data::uniform(d, n, 42).unwrap();
    let mut group = c.benchmark_group("self_join_vs_eps");
    group.sample_size(10);
    for eps in [0.1f64, 0.3, 0.5] {
        let spec = JoinSpec::new(eps, Metric::L2);
        for algo in Algo::all() {
            group.bench_with_input(
                BenchmarkId::new(algo.name(), format!("{eps}")),
                &(&ds, &spec),
                |b, (ds, spec)| {
                    b.iter(|| {
                        let mut a = algo.make();
                        let mut sink = CountSink::default();
                        a.self_join(ds, spec, &mut sink).expect("join");
                        sink.count
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_scale(c: &mut Criterion) {
    let d = 8;
    let spec = JoinSpec::new(0.2, Metric::L2);
    let mut group = c.benchmark_group("self_join_vs_n");
    group.sample_size(10);
    for n in [1_000usize, 2_000, 4_000] {
        let ds = hdsj_data::uniform(d, n, 7).unwrap();
        for algo in Algo::all() {
            group.bench_with_input(
                BenchmarkId::new(algo.name(), n),
                &(&ds, &spec),
                |b, (ds, spec)| {
                    b.iter(|| {
                        let mut a = algo.make();
                        let mut sink = CountSink::default();
                        a.self_join(ds, spec, &mut sink).expect("join");
                        sink.count
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_dimensionality, bench_epsilon, bench_scale);
criterion_main!(benches);
