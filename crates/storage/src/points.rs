//! Disk-resident point collections.
//!
//! A [`PointFile`] stores a dataset in storage-engine pages (one header
//! page + packed coordinate pages), which lets joins run against inputs
//! that notionally do not fit in memory, with every access counted by the
//! buffer pool. The block nested-loops join over two `PointFile`s
//! ([`disk_block_nested_loops`]) is the measured disk baseline of the
//! I/O experiments: `O(pages(A) · pages(B) / buffer)` page reads, the
//! classic quadratic disk cost the filter algorithms are built to avoid.

use crate::file::RecordFile;
use crate::{PageId, StorageEngine};
use hdsj_core::join::drive;
use hdsj_core::obs::PhaseClass;
use hdsj_core::{Dataset, Error, JoinEnv, JoinKind, JoinSpec, JoinStats, PairSink, Result};

/// A dataset stored in pages: fixed-size records of `d` little-endian
/// `f64`s, in insertion order (record index = point id).
pub struct PointFile {
    file: RecordFile,
    dims: usize,
    engine: StorageEngine,
}

impl PointFile {
    /// Writes `ds` to a new point file on `engine`.
    pub fn from_dataset(engine: &StorageEngine, ds: &Dataset) -> Result<PointFile> {
        // A point record must fit beside the page's storage header and the
        // record file's count word.
        if ds.dims() * 8 > crate::PAGE_SIZE - crate::PAGE_HEADER - 8 {
            return Err(Error::Unsupported(format!(
                "points of d={} exceed one page",
                ds.dims()
            )));
        }
        let mut file = RecordFile::create(engine, ds.dims() * 8)?;
        let mut rec = Vec::with_capacity(ds.dims() * 8);
        for (_, p) in ds.iter() {
            rec.clear();
            for &v in p {
                rec.extend_from_slice(&v.to_le_bytes());
            }
            file.push(&rec)?;
        }
        file.release_tail();
        Ok(PointFile {
            file,
            dims: ds.dims(),
            engine: engine.clone(),
        })
    }

    /// Number of points.
    pub fn len(&self) -> u64 {
        self.file.len()
    }

    /// True when the file holds no points.
    pub fn is_empty(&self) -> bool {
        self.file.is_empty()
    }

    /// Dimensionality.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Pages the coordinates occupy.
    pub fn num_pages(&self) -> usize {
        self.file.num_pages()
    }

    /// Points per page.
    pub fn points_per_page(&self) -> usize {
        self.file.records_per_page()
    }

    /// Reads the whole file back into a [`Dataset`] (goes through the
    /// buffer pool, so it is counted I/O).
    pub fn to_dataset(&self) -> Result<Dataset> {
        let mut ds = Dataset::with_capacity(self.dims, self.len() as usize)
            .map_err(|e| Error::InvalidInput(e.to_string()))?;
        let mut cursor = self.file.cursor();
        let mut point = vec![0.0f64; self.dims];
        while let Some(rec) = cursor.next()? {
            decode_point(rec, &mut point);
            ds.push(&point)?;
        }
        Ok(ds)
    }

    /// Reads one block of points starting at record `start`, at most
    /// `count` points, appending `(id, coords)` into `out`. Returns how many
    /// points were read.
    pub fn read_block(
        &self,
        start: u64,
        count: usize,
        out: &mut Vec<(u32, Vec<f64>)>,
    ) -> Result<usize> {
        out.clear();
        let mut cursor = self.file.cursor_at(start);
        let mut idx = start;
        let mut point = vec![0.0f64; self.dims];
        while out.len() < count {
            match cursor.next()? {
                Some(rec) => {
                    decode_point(rec, &mut point);
                    out.push((idx as u32, point.clone()));
                    idx += 1;
                }
                None => break,
            }
        }
        Ok(out.len())
    }

    /// The storage engine the file lives on.
    pub fn engine(&self) -> &StorageEngine {
        &self.engine
    }

    /// First page id (for diagnostics).
    pub fn first_page(&self) -> Option<PageId> {
        if self.file.num_pages() > 0 {
            Some(0)
        } else {
            None
        }
    }
}

fn decode_point(rec: &[u8], out: &mut [f64]) {
    for (v, chunk) in out.iter_mut().zip(rec.chunks_exact(8)) {
        let mut b = [0u8; 8];
        b.copy_from_slice(chunk);
        *v = f64::from_le_bytes(b);
    }
}

/// Disk block nested-loops ε-join over two point files: the measured
/// quadratic baseline. `block_points` is the number of *outer* points held
/// in memory per pass (the classic memory-for-I/O trade: each pass scans
/// the whole inner file once). Runs under the join driver like the six
/// algorithms, with default settings: untraced, unbounded, serial.
pub fn disk_block_nested_loops(
    a: &PointFile,
    b: &PointFile,
    kind: JoinKind,
    spec: &JoinSpec,
    block_points: usize,
    sink: &mut dyn PairSink,
) -> Result<JoinStats> {
    let block_points = block_points.max(1);
    let sizes = [(a.len() as usize, a.dims()), (b.len() as usize, b.dims())];
    drive("BNL", &JoinEnv::default(), sizes, spec, |run| {
        run.structure_bytes((block_points * (a.dims() * 8 + 16)) as u64 * 2);
        a.engine().scope(run, |run| {
            run.phase("join", PhaseClass::Io, |run| {
                let mut counts = (0, 0, 0);
                let scanned = scan_blocks(a, b, kind, spec, block_points, sink, &mut counts);
                run.refined(counts);
                scanned
            })
        })
    })
}

/// The two nested block scans. The refiner needs materialized datasets for
/// exact distances; BNL streams them block by block instead, so refinement
/// runs inline, into `counts` = (candidates, results, distance evaluations).
fn scan_blocks(
    a: &PointFile,
    b: &PointFile,
    kind: JoinKind,
    spec: &JoinSpec,
    block_points: usize,
    sink: &mut dyn PairSink,
    counts: &mut (u64, u64, u64),
) -> Result<()> {
    let mut outer: Vec<(u32, Vec<f64>)> = Vec::with_capacity(block_points);
    let mut inner: Vec<(u32, Vec<f64>)> = Vec::with_capacity(block_points);
    let mut start_a = 0u64;
    loop {
        let got = a.read_block(start_a, block_points, &mut outer)?;
        if got == 0 {
            return Ok(());
        }
        let mut start_b = match kind {
            JoinKind::TwoSets => 0,
            // Self-join: the inner scan starts at the outer block (pairs
            // within and after it), halving the work.
            JoinKind::SelfJoin => start_a,
        };
        loop {
            let got_b = b.read_block(start_b, block_points, &mut inner)?;
            if got_b == 0 {
                break;
            }
            for (i, pa) in &outer {
                for (j, pb) in &inner {
                    if kind == JoinKind::SelfJoin && j <= i {
                        continue;
                    }
                    counts.0 += 1;
                    counts.2 += 1;
                    if spec.metric.within(pa, pb, spec.eps) {
                        counts.1 += 1;
                        sink.push(*i, *j);
                    }
                }
            }
            start_b += got_b as u64;
        }
        start_a += got as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdsj_core::{Refiner, VecSink};

    fn dataset(dims: usize, n: usize, seed: u64) -> Dataset {
        // Simple deterministic pseudo-random points without pulling rand in.
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut ds = Dataset::new(dims).unwrap();
        for _ in 0..n {
            let p: Vec<f64> = (0..dims).map(|_| next().min(1.0 - 1e-12)).collect();
            ds.push(&p).unwrap();
        }
        ds
    }

    #[test]
    fn round_trip_through_point_file() {
        let eng = StorageEngine::in_memory(16);
        let ds = dataset(5, 321, 1);
        let pf = PointFile::from_dataset(&eng, &ds).unwrap();
        assert_eq!(pf.len(), 321);
        assert_eq!(pf.dims(), 5);
        assert_eq!(pf.to_dataset().unwrap(), ds);
    }

    #[test]
    fn read_block_pagination() {
        let eng = StorageEngine::in_memory(16);
        let ds = dataset(3, 25, 2);
        let pf = PointFile::from_dataset(&eng, &ds).unwrap();
        let mut out = Vec::new();
        assert_eq!(pf.read_block(0, 10, &mut out).unwrap(), 10);
        assert_eq!(out[0].0, 0);
        assert_eq!(pf.read_block(20, 10, &mut out).unwrap(), 5);
        assert_eq!(out[0].0, 20);
        assert_eq!(out[4].1, ds.point(24));
        assert_eq!(pf.read_block(25, 10, &mut out).unwrap(), 0);
    }

    #[test]
    fn rejects_points_wider_than_a_page() {
        let eng = StorageEngine::in_memory(4);
        let ds = Dataset::new(2000).unwrap();
        assert!(PointFile::from_dataset(&eng, &ds).is_err());
    }

    #[test]
    fn disk_bnl_matches_in_memory_brute_force() {
        let eng = StorageEngine::in_memory(8);
        let ds = dataset(4, 300, 3);
        let pf = PointFile::from_dataset(&eng, &ds).unwrap();
        let spec = JoinSpec::l2(0.25);

        let mut want = VecSink::default();
        {
            use hdsj_core::SimilarityJoin;
            let mut bf = TestBf::default();
            bf.self_join(&ds, &spec, &mut want).unwrap();
        }
        let mut got = VecSink::default();
        disk_block_nested_loops(&pf, &pf, JoinKind::SelfJoin, &spec, 64, &mut got).unwrap();
        hdsj_core::verify::assert_same_results("disk BNL", &want.pairs, &got.pairs);
    }

    #[test]
    fn disk_bnl_two_set_join() {
        let eng = StorageEngine::in_memory(8);
        let a = dataset(3, 120, 4);
        let b = dataset(3, 90, 5);
        let pfa = PointFile::from_dataset(&eng, &a).unwrap();
        let pfb = PointFile::from_dataset(&eng, &b).unwrap();
        let spec = JoinSpec::l2(0.2);
        let mut got = VecSink::default();
        let stats = disk_block_nested_loops(&pfa, &pfb, JoinKind::TwoSets, &spec, 50, &mut got)
            .unwrap();
        assert_eq!(stats.candidates, 120 * 90);
        // Oracle: in-memory nested loops.
        let mut want = Vec::new();
        for (i, pa) in a.iter() {
            for (j, pb) in b.iter() {
                if spec.metric.within(pa, pb, spec.eps) {
                    want.push((i, j));
                }
            }
        }
        hdsj_core::verify::assert_same_results("disk BNL two-set", &want, &got.pairs);
    }

    #[test]
    fn smaller_blocks_mean_more_io() {
        let eng_small = StorageEngine::in_memory(4);
        let ds = dataset(6, 2000, 6);
        let pf = PointFile::from_dataset(&eng_small, &ds).unwrap();
        let spec = JoinSpec::l2(0.1);
        let mut sink = hdsj_core::CountSink::default();
        let io_small =
            disk_block_nested_loops(&pf, &pf, JoinKind::SelfJoin, &spec, 50, &mut sink)
                .unwrap()
                .io
                .reads;
        let io_large =
            disk_block_nested_loops(&pf, &pf, JoinKind::SelfJoin, &spec, 1000, &mut sink)
                .unwrap()
                .io
                .reads;
        assert!(
            io_small > 2 * io_large,
            "block 50 reads {io_small}, block 1000 reads {io_large}"
        );
    }

    /// Minimal in-crate brute force used as the test oracle (the real one
    /// lives in `hdsj-bruteforce`, which depends on this crate's siblings).
    #[derive(Default)]
    struct TestBf(JoinEnv);
    impl hdsj_core::SimilarityJoin for TestBf {
        fn name(&self) -> &'static str {
            "TESTBF"
        }
        fn env(&mut self) -> &mut JoinEnv {
            &mut self.0
        }
        fn run(
            &self,
            run: &mut hdsj_core::JoinRun<'_>,
            a: &Dataset,
            b: &Dataset,
            kind: JoinKind,
            spec: &JoinSpec,
            sink: &mut dyn PairSink,
        ) -> Result<()> {
            let mut r = Refiner::new(a, b, kind, spec, sink);
            for (i, _) in a.iter() {
                let from = if kind == JoinKind::SelfJoin { i + 1 } else { 0 };
                for j in from..b.len() as u32 {
                    r.offer(i, j);
                }
            }
            run.refined(r.counters());
            Ok(())
        }
    }
}
