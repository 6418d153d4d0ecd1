//! Space-filling-curve micro-benchmarks: Hilbert vs Z-order encode cost and
//! decode cost across dimensionalities (feeds the E12 ablation analysis).
// Panicking is idiomatic in test code; see clippy.toml.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hdsj_sfc::{hilbert, zorder, Curve};

fn bench_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("sfc_encode");
    for d in [2usize, 8, 32, 64] {
        let coords: Vec<u32> = (0..d as u32).map(|i| (i * 2654435761) % 65536).collect();
        for curve in [Curve::Hilbert, Curve::ZOrder] {
            group.bench_with_input(BenchmarkId::new(curve.label(), d), &coords, |b, coords| {
                b.iter(|| curve.key(coords, 16))
            });
        }
    }
    group.finish();
}

fn bench_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("sfc_decode");
    for d in [2usize, 8, 32] {
        let coords: Vec<u32> = (0..d as u32).map(|i| (i * 40503) % 65536).collect();
        let hk = hilbert::index(&coords, 16);
        let zk = zorder::index(&coords, 16);
        group.bench_with_input(BenchmarkId::new("hilbert", d), &hk, |b, k| {
            b.iter(|| hilbert::coords(k, d, 16))
        });
        group.bench_with_input(BenchmarkId::new("zorder", d), &zk, |b, k| {
            b.iter(|| zorder::coords(k, d, 16))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_encode, bench_decode);
criterion_main!(benches);
