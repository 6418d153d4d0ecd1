//! Storage-stack integration: disk-based joins on file-backed engines,
//! pool-size independence of results, and failure injection end to end.
// Panicking is idiomatic in test code; see clippy.toml.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use hdsj::core::{verify, CountSink, Dataset, JoinSpec, Metric, SimilarityJoin, VecSink};
use hdsj::data::uniform;
use hdsj::msj::Msj;
use hdsj::rtree::RsjJoin;
use hdsj::storage::{FaultKind, StorageEngine};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hdsj-it-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn file_backed_msj_matches_in_memory() {
    let ds = uniform(6, 2_000, 77).unwrap();
    let spec = JoinSpec::new(0.15, Metric::L2);

    let mut mem_sink = VecSink::default();
    Msj::default().self_join(&ds, &spec, &mut mem_sink).unwrap();

    let dir = temp_dir("msj");
    let engine = StorageEngine::file_backed(&dir.join("pages.db"), 3).unwrap();
    let mut file_sink = VecSink::default();
    let stats = Msj::with_engine(engine)
        .self_join(&ds, &spec, &mut file_sink)
        .unwrap();
    std::fs::remove_dir_all(&dir).ok();

    verify::assert_same_results("MSJ file-backed", &mem_sink.pairs, &file_sink.pairs);
    assert!(
        stats.io.reads > 0,
        "a 3-frame pool over real files must read"
    );
}

#[test]
fn file_backed_rsj_matches_in_memory() {
    let ds = uniform(5, 1_500, 78).unwrap();
    let spec = JoinSpec::new(0.12, Metric::L2);

    let mut mem_sink = VecSink::default();
    RsjJoin::default()
        .self_join(&ds, &spec, &mut mem_sink)
        .unwrap();

    let dir = temp_dir("rsj");
    let engine = StorageEngine::file_backed(&dir.join("pages.db"), 24).unwrap();
    let mut file_sink = VecSink::default();
    RsjJoin::with_engine(engine)
        .self_join(&ds, &spec, &mut file_sink)
        .unwrap();
    std::fs::remove_dir_all(&dir).ok();

    verify::assert_same_results("RSJ file-backed", &mem_sink.pairs, &file_sink.pairs);
}

#[test]
fn pool_size_changes_io_but_never_results() {
    let ds = uniform(8, 3_000, 79).unwrap();
    let spec = JoinSpec::new(0.15, Metric::L2);
    let mut baseline: Option<Vec<(u32, u32)>> = None;
    let mut ios = Vec::new();
    for pool in [4usize, 64, 4096] {
        let engine = StorageEngine::in_memory(pool);
        let mut sink = VecSink::default();
        let stats = Msj::with_engine(engine)
            .self_join(&ds, &spec, &mut sink)
            .unwrap();
        ios.push(stats.io.total());
        match &baseline {
            None => baseline = Some(sink.pairs),
            Some(want) => {
                verify::assert_same_results(&format!("MSJ pool={pool}"), want, &sink.pairs)
            }
        }
    }
    assert!(
        ios.first() > ios.last(),
        "a tiny pool must do more I/O than a huge one: {ios:?}"
    );
}

#[test]
fn fault_injection_aborts_cleanly_everywhere() {
    let ds = uniform(4, 2_000, 80).unwrap();
    let spec = JoinSpec::new(0.1, Metric::L2);
    // Measure how many disk operations a clean run performs, then inject a
    // fault at the first, middle, and last of them; the join must return an
    // error (never panic, never wrong results).
    let engine = StorageEngine::in_memory(16);
    let mut sink = CountSink::default();
    let stats = Msj::with_engine(engine)
        .self_join(&ds, &spec, &mut sink)
        .unwrap();
    let ops = stats.io.reads + stats.io.writes + stats.io.allocs;
    assert!(ops >= 3, "pipeline must touch the disk, got {ops} ops");
    for fault_at in [1u64, ops / 2, ops] {
        let engine = StorageEngine::in_memory(16);
        engine
            .fault_plan()
            .on_nth(None, fault_at, FaultKind::Transient);
        let mut sink = CountSink::default();
        let res = Msj::with_engine(engine).self_join(&ds, &spec, &mut sink);
        assert!(res.is_err(), "fault at op {fault_at}/{ops} must surface");
    }
}

#[test]
fn rsj_fault_injection_aborts_cleanly() {
    let ds = uniform(4, 1_000, 81).unwrap();
    let spec = JoinSpec::new(0.1, Metric::L2);
    let engine = StorageEngine::in_memory(16);
    let mut sink = CountSink::default();
    let stats = RsjJoin::with_engine(engine)
        .self_join(&ds, &spec, &mut sink)
        .unwrap();
    let ops = stats.io.reads + stats.io.writes + stats.io.allocs;
    for fault_at in [1u64, ops / 2, ops] {
        let engine = StorageEngine::in_memory(16);
        engine
            .fault_plan()
            .on_nth(None, fault_at, FaultKind::Transient);
        let mut sink = CountSink::default();
        assert!(RsjJoin::with_engine(engine)
            .self_join(&ds, &spec, &mut sink)
            .is_err());
    }
}

#[test]
fn shared_engine_supports_sequential_joins() {
    // One engine reused across joins (as the buffer-sweep experiment does):
    // results stay correct and counters accumulate monotonically.
    let engine = StorageEngine::in_memory(128);
    let ds = uniform(4, 800, 82).unwrap();
    let spec = JoinSpec::new(0.12, Metric::L2);
    let mut first = VecSink::default();
    Msj::with_engine(engine.clone())
        .self_join(&ds, &spec, &mut first)
        .unwrap();
    let io_after_first = engine.io_counters();
    let mut second = VecSink::default();
    Msj::with_engine(engine.clone())
        .self_join(&ds, &spec, &mut second)
        .unwrap();
    verify::assert_same_results("MSJ shared engine", &first.pairs, &second.pairs);
    assert!(engine.io_counters().allocs >= io_after_first.allocs);
}

#[test]
fn msj_io_counters_are_pinned_to_the_page_sequence() {
    // The pool must see the same fetch / alloc / unpin sequence whatever the
    // level-file code does above it: these literals were recorded at the
    // commit before records moved a page at a time, and pass on both.
    let io_of = |frames: usize, sort_mem_records: usize, a, b: Option<_>, eps| {
        let mut msj = Msj::with_engine(StorageEngine::in_memory(frames));
        msj.sort_mem_records = sort_mem_records;
        let spec = JoinSpec::new(eps, Metric::L2);
        let mut sink = CountSink::default();
        let io = match b {
            None => msj.self_join(a, &spec, &mut sink),
            Some(b) => msj.join(a, b, &spec, &mut sink),
        }
        .unwrap()
        .io;
        [io.reads, io.writes, io.evictions, io.allocs, io.hits]
    };
    // 14-byte records (one key word), six runs merged through eight frames.
    let ds = uniform(4, 3_000, 91).unwrap();
    assert_eq!(io_of(8, 512, &ds, None, 0.05), [10, 13, 16, 18, 8]);
    // 22-byte records (two key words), four runs, two-set.
    let (a, b) = (
        uniform(12, 7_000, 92).unwrap(),
        uniform(12, 7_000, 93).unwrap(),
    );
    assert_eq!(
        io_of(32, 4_096, &a, Some(&b), 0.01),
        [112, 117, 180, 117, 5]
    );
}

#[test]
fn sorted_level_files_are_byte_identical_to_the_parents() {
    // The four benchmark inputs' shapes (generators, n, ε, sort budget of
    // `twoset_d8_dense`), assigned record by record in place and sorted.
    // Lengths and CRC-32s of the sorted files were
    // recorded at the parent commit, which built every key bit by bit
    // through a `BitKey` and sorted a `u32` index with a `memcmp` closure.
    use hdsj::data::{gaussian_clusters, split, timeseries::fourier_dataset, ClusterSpec};
    use hdsj::msj::assign::{Assigner, RecordCodec, TAG_A, TAG_B};
    use hdsj::storage::sort::{external_sort, SortConfig};
    use hdsj::storage::{crc32, RecordFile};

    let level_file = |a: &Dataset, b: Option<&Dataset>, eps: f64| {
        let dims = a.dims();
        let depth = Msj::default().effective_depth(eps);
        let codec = RecordCodec::new(dims, depth);
        let engine = StorageEngine::in_memory(1024);
        let mut assigner = Assigner::new(dims, depth, eps, hdsj::sfc::Curve::Hilbert).unwrap();
        let mut file = RecordFile::create(&engine, codec.record_len()).unwrap();
        let mut rec = vec![0u8; codec.record_len()];
        for (ds, tag) in [(Some(a), TAG_A), (b, TAG_B)] {
            for (id, p) in ds.into_iter().flat_map(|ds| ds.iter()) {
                codec.encode_point(&mut assigner, p, tag, id, &mut rec);
                file.push(&rec).unwrap();
            }
        }
        file.release_tail();
        let config = SortConfig {
            mem_records: 4096,
            ..SortConfig::default()
        };
        let sorted = external_sort(&engine, &file, codec.sort_key_len(), config).unwrap();
        (sorted.len(), crc32(&sorted.read_all().unwrap().concat()))
    };
    let uniform_d16 = uniform(16, 8_000, 1).unwrap();
    let fourier_d64 = fourier_dataset(64, 6_000, 128, 1).unwrap();
    let clusters = gaussian_clusters(8, 28_000, ClusterSpec::default(), 1).unwrap();
    let (twoset_a, twoset_b) = split(&clusters, 14_000).unwrap();
    let lowdim_d4 = uniform(4, 50_000, 1).unwrap();
    assert_eq!(level_file(&uniform_d16, None, 0.5), (8_000, 1964761311));
    assert_eq!(level_file(&fourier_d64, None, 0.07), (6_000, 180577432));
    assert_eq!(
        level_file(&twoset_a, Some(&twoset_b), 0.1),
        (28_000, 2377688818)
    );
    assert_eq!(level_file(&lowdim_d4, None, 0.04), (50_000, 4032887625));
}
