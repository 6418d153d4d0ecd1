//! R-tree construction benchmarks: the three build strategies across
//! dimensionalities (the build half of the E12 ablation).
// Panicking is idiomatic in test code; see clippy.toml.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hdsj_rtree::{BuildStrategy, RTree};
use hdsj_storage::StorageEngine;

fn bench_builds(c: &mut Criterion) {
    let mut group = c.benchmark_group("rtree_build");
    group.sample_size(10);
    for d in [4usize, 16] {
        let ds = hdsj_data::uniform(d, 5_000, d as u64).unwrap();
        for strategy in [
            BuildStrategy::HilbertPack,
            BuildStrategy::Str,
            BuildStrategy::DynamicInsert,
        ] {
            group.bench_with_input(
                BenchmarkId::new(format!("{strategy:?}"), d),
                &ds,
                |b, ds| {
                    b.iter(|| {
                        let eng = StorageEngine::in_memory(4096);
                        RTree::build(&eng, ds, strategy, 0.7).unwrap().num_pages()
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_builds);
criterion_main!(benches);
