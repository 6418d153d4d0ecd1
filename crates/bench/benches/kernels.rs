//! Distance-kernel micro-benchmarks: vectorized kernels vs the scalar
//! reference loop, across dimensionalities, for both full distances and
//! ε-threshold `within` checks (where block-level early exit applies).
//!
//! `kernel` is the 4-lane scalar kernel — the one per-pair kernel, which
//! `Metric::within` (`metric_dispatch`) calls directly. `simd_block` is
//! the across-candidate SoA filter at the host's best dispatch tier
//! (override with `HDSJ_SIMD`) — the throughput path, with independent
//! accumulator chains per candidate.
// Panicking is idiomatic in test code; see clippy.toml.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use hdsj_core::soa::SoABlock;
use hdsj_core::{kernels, Dataset, Metric};

/// Deterministic pseudo-random point, same flavor as the kernel unit tests.
fn pseudo_point(dims: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..dims)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        })
        .collect()
}

fn scalar_l2_distance(x: &[f64], y: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (a, b) in x.iter().zip(y) {
        let d = a - b;
        acc += d * d;
    }
    acc.sqrt()
}

fn scalar_l2_within(x: &[f64], y: &[f64], eps: f64) -> bool {
    scalar_l2_distance(x, y) <= eps
}

fn bench_distance(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_l2_distance");
    for d in [8usize, 16, 64, 256] {
        let x = pseudo_point(d, 1);
        let y = pseudo_point(d, 2);
        group.bench_with_input(BenchmarkId::new("scalar", d), &d, |b, _| {
            b.iter(|| scalar_l2_distance(black_box(&x), black_box(&y)))
        });
        group.bench_with_input(BenchmarkId::new("kernel", d), &d, |b, _| {
            b.iter(|| kernels::l2_distance(black_box(&x), black_box(&y)))
        });
    }
    group.finish();
}

fn bench_within(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_l2_within");
    for d in [8usize, 16, 64, 256] {
        let x = pseudo_point(d, 1);
        // ε at roughly the median pair distance so both accept and reject
        // paths (and the early exit) are exercised.
        let points: Vec<Vec<f64>> = (0..64).map(|s| pseudo_point(d, 100 + s)).collect();
        let mut dists: Vec<f64> = points.iter().map(|p| scalar_l2_distance(&x, p)).collect();
        dists.sort_unstable_by(f64::total_cmp);
        let eps = dists[dists.len() / 2];
        group.bench_with_input(BenchmarkId::new("scalar", d), &points, |b, pts| {
            b.iter(|| {
                pts.iter()
                    .filter(|p| scalar_l2_within(black_box(&x), black_box(p), eps))
                    .count()
            })
        });
        group.bench_with_input(BenchmarkId::new("kernel", d), &points, |b, pts| {
            b.iter(|| {
                pts.iter()
                    .filter(|p| kernels::l2_within(black_box(&x), black_box(p), eps))
                    .count()
            })
        });
        group.bench_with_input(BenchmarkId::new("metric_dispatch", d), &points, |b, pts| {
            b.iter(|| {
                pts.iter()
                    .filter(|p| Metric::L2.within(black_box(&x), black_box(p), eps))
                    .count()
            })
        });
        let ds = Dataset::from_rows(&points).unwrap();
        let block = SoABlock::from_range(&ds, 0..points.len() as u32);
        let probe = Dataset::from_rows(std::slice::from_ref(&x)).unwrap();
        group.bench_with_input(BenchmarkId::new("simd_block", d), &block, |b, blk| {
            let mut out = Vec::with_capacity(blk.len());
            let mut scratch = hdsj_core::simd::Scratch::default();
            b.iter(|| {
                out.clear();
                Metric::L2.within_windows(
                    black_box(&probe),
                    black_box(blk),
                    &[(0, 0..blk.len())],
                    eps,
                    &mut scratch,
                    &mut out,
                );
                out.len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_distance, bench_within);
criterion_main!(benches);
