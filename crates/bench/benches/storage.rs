//! Storage-engine micro-benchmarks: buffer-pool hit path, miss/evict path,
//! record-file append/scan, and the external sort.
// Panicking is idiomatic in test code; see clippy.toml.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hdsj_storage::sort::{external_sort, SortConfig};
use hdsj_storage::{RecordFile, StorageEngine};

fn bench_pool(c: &mut Criterion) {
    let mut group = c.benchmark_group("buffer_pool");
    // Hit path: single resident page fetched repeatedly.
    let eng = StorageEngine::in_memory(8);
    let pid = eng.alloc().unwrap().id();
    group.bench_function("fetch_hit", |b| b.iter(|| eng.fetch(pid).unwrap().id()));
    // Miss path: more pages than frames, round-robin.
    let eng2 = StorageEngine::in_memory(4);
    let pids: Vec<_> = (0..16).map(|_| eng2.alloc().unwrap().id()).collect();
    let mut i = 0;
    group.bench_function("fetch_miss_evict", |b| {
        b.iter(|| {
            i = (i + 1) % pids.len();
            eng2.fetch(pids[i]).unwrap().id()
        })
    });
    group.finish();
}

fn bench_record_file(c: &mut Criterion) {
    let mut group = c.benchmark_group("record_file");
    group.bench_function("append_64B", |b| {
        let eng = StorageEngine::in_memory(64);
        let mut f = RecordFile::create(&eng, 64).unwrap();
        let rec = [7u8; 64];
        b.iter(|| f.push(&rec).unwrap())
    });
    let eng = StorageEngine::in_memory(64);
    let mut f = RecordFile::create(&eng, 64).unwrap();
    for i in 0..10_000u32 {
        let mut rec = [0u8; 64];
        rec[..4].copy_from_slice(&i.to_le_bytes());
        f.push(&rec).unwrap();
    }
    f.release_tail();
    group.bench_function("scan_10k", |b| {
        b.iter(|| {
            let mut cur = f.cursor();
            let mut n = 0u64;
            while cur.next().unwrap().is_some() {
                n += 1;
            }
            n
        })
    });
    group.finish();
}

fn bench_external_sort(c: &mut Criterion) {
    let mut group = c.benchmark_group("external_sort");
    group.sample_size(10);
    for n in [10_000u32, 50_000] {
        group.bench_with_input(BenchmarkId::new("sort", n), &n, |b, &n| {
            b.iter(|| {
                let eng = StorageEngine::in_memory(256);
                let mut f = RecordFile::create(&eng, 16).unwrap();
                for i in 0..n {
                    let key = i.wrapping_mul(2654435761);
                    let mut rec = [0u8; 16];
                    rec[..4].copy_from_slice(&key.to_be_bytes());
                    rec[4..8].copy_from_slice(&i.to_le_bytes());
                    f.push(&rec).unwrap();
                }
                f.release_tail();
                external_sort(
                    &eng,
                    &f,
                    4,
                    SortConfig {
                        mem_records: 8192,
                        fanin: 16,
                    },
                )
                .unwrap()
                .len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pool, bench_record_file, bench_external_sort);
criterion_main!(benches);
