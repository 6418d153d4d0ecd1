//! # hdsj-bruteforce — block nested-loop similarity join
//!
//! The quadratic baseline of the paper's evaluation and the **ground truth**
//! for every correctness test in the workspace: it evaluates the exact
//! metric on all `N·M` (or `N(N−1)/2`) pairs with no filter structure at
//! all, so its result set is correct by construction.
//!
//! The loops are cache-blocked: the inner set is transposed **once** into
//! L1-sized structure-of-arrays tiles ([`hdsj_core::SoABlock`]), outer
//! rows walk in L2-sized blocks, and every (probe block, tile) pair runs
//! the across-candidate SIMD kernel through `Refiner::offer_windows` /
//! `Metric::within_windows`, one call per run of its rows' windows. Tile
//! sizes come from the host cache probe (`hdsj_core::simd::tile`) when
//! [`BruteForce::block`] is `0` (the default); an explicit block size is
//! honoured for both loops. Tiling changes only loop chunking — the
//! kernels are bit-exact across dispatch levels and tile widths — so
//! results never depend on the blocking. A thread count hands consecutive
//! ranges of the (probe block, tile) nest out over the `hdsj-exec` pool and
//! replays their pairs in range order: the same loop nest, so the same pair
//! order, at every count.
#![forbid(unsafe_code)]

use hdsj_core::obs::PhaseClass;
use hdsj_core::simd::tile;
use hdsj_core::{
    Dataset, JoinEnv, JoinKind, JoinRun, JoinSpec, PairSink, Refiner, Result, SimilarityJoin,
    SoABlock, VecSink, WindowBatch,
};
use hdsj_exec::Pool;
use std::ops::Range;

/// Block nested-loop join.
#[derive(Clone, Debug, Default)]
pub struct BruteForce {
    /// Points per tile of the blocked loops; `0` (the default) sizes the
    /// candidate tile for L1d and the probe block for L2 from the host
    /// cache probe.
    pub block: usize,
    /// Tracer, lifecycle context (polled at every probe-block/tile
    /// boundary of the loops) and thread count: the (probe block, tile)
    /// nest is handed out over `threads` workers; `1` runs it on the
    /// calling thread, straight into the caller's sink.
    pub env: JoinEnv,
}

/// Effective (candidate-tile width, probe-block rows) for a join over
/// `dims`-dimensional points: the explicit `block` when non-zero, else
/// the cache-derived sizes.
fn blocking(block: usize, dims: usize) -> (usize, usize) {
    if block > 0 {
        (block, block)
    } else {
        (tile::soa_tile_width(dims), tile::probe_block_rows(dims))
    }
}

impl BruteForce {
    /// A parallel instance with `threads` workers.
    pub fn parallel(threads: usize) -> BruteForce {
        let mut bf = BruteForce::default();
        bf.set_threads(threads);
        bf
    }
}

/// The candidate lane range of `tile` for probe row `i`: every lane for
/// two-set joins, only lanes with id `> i` for self-joins (each unordered
/// pair is enumerated once, from its smaller row). Tiles cover contiguous
/// ascending id ranges, so the self-join cut is a lane-index clamp.
/// Returns `None` when no lane qualifies.
fn tile_lanes(kind: JoinKind, i: u32, tile: &SoABlock) -> Option<Range<usize>> {
    if tile.is_empty() {
        return None;
    }
    let start = match kind {
        JoinKind::TwoSets => 0usize,
        JoinKind::SelfJoin => {
            let first = tile.ids()[0];
            (i + 1).saturating_sub(first) as usize
        }
    };
    (start < tile.len()).then(|| start..tile.len())
}

impl SimilarityJoin for BruteForce {
    fn name(&self) -> &'static str {
        "BF"
    }

    fn env(&mut self) -> &mut JoinEnv {
        &mut self.env
    }

    fn run(
        &self,
        run: &mut JoinRun<'_>,
        a: &Dataset,
        b: &Dataset,
        kind: JoinKind,
        spec: &JoinSpec,
        sink: &mut dyn PairSink,
    ) -> Result<()> {
        run.attr_u64("threads", run.threads() as u64);
        run.phase("join", PhaseClass::Cpu, |run| {
            let (tile_w, probe_rows) = blocking(self.block, b.dims());
            // One SoA transpose of the inner set, shared read-only by every
            // worker; each tile covers a contiguous ascending id range.
            let tiles = SoABlock::partition(b, tile_w);
            run.structure_bytes(tiles.iter().map(SoABlock::bytes).sum());
            // The one loop nest, flattened: unit `u` is probe block `u / tiles`
            // against tile `u % tiles` — the block stays in L2 while each
            // L1-sized tile is reused by all of its rows, its rows' windows
            // going to the across-candidate kernel a batch per call. Any split
            // of `0..units` into consecutive ranges, run in any order and
            // replayed in range order, emits what one pass over it emits. The
            // lifecycle context (if any) is polled at every unit: within one
            // tile sweep.
            let units = a.len().div_ceil(probe_rows) * tiles.len();
            let probe = |units: Range<usize>, refiner: &mut Refiner<'_>| -> Result<()> {
                let mut batch = WindowBatch::default();
                for unit in units {
                    run.poll()?;
                    let (block, tile) = (unit / tiles.len(), &tiles[unit % tiles.len()]);
                    let rows = block * probe_rows..((block + 1) * probe_rows).min(a.len());
                    for i in rows.start as u32..rows.end as u32 {
                        if let Some(lanes) = tile_lanes(kind, i, tile) {
                            batch.push(refiner, tile, i, lanes);
                        }
                    }
                    batch.flush(refiner, tile);
                }
                Ok(())
            };
            if run.threads() == 1 {
                let mut refiner = Refiner::new(a, b, kind, spec, sink);
                let probed = probe(0..units, &mut refiner);
                run.refined(refiner.counters());
                return probed;
            }
            // Several chunks per worker: a self-join's later blocks skip the
            // tiles below them, so finer chunks balance the tail.
            let chunk = units.div_ceil(run.threads() * 4);
            let parts =
                Pool::for_run(run).map_chunks(Some(run.span()), units, chunk, |units| {
                    let mut out = VecSink::default();
                    let mut refiner = Refiner::new(a, b, kind, spec, &mut out);
                    probe(units, &mut refiner)?;
                    Ok((refiner.counters(), out.pairs))
                })?;
            for (counters, pairs) in parts {
                run.poll()?;
                run.refined(counters);
                for (i, j) in pairs {
                    sink.push(i, j);
                }
            }
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdsj_core::{verify, Metric, VecSink};

    fn grid_points() -> Dataset {
        // 4x4 grid with spacing 0.2.
        let mut ds = Dataset::new(2).unwrap();
        for x in 0..4 {
            for y in 0..4 {
                ds.push(&[x as f64 * 0.2, y as f64 * 0.2]).unwrap();
            }
        }
        ds
    }

    #[test]
    fn self_join_counts_grid_neighbours() {
        let ds = grid_points();
        let spec = JoinSpec::new(0.21, Metric::L2);
        let mut sink = VecSink::default();
        let stats = BruteForce::default()
            .self_join(&ds, &spec, &mut sink)
            .unwrap();
        // 4x4 grid: 24 horizontal/vertical adjacent pairs within 0.21.
        assert_eq!(stats.results, 24);
        assert_eq!(stats.candidates, 16 * 15 / 2);
        assert!(sink.pairs.iter().all(|&(i, j)| i < j));
    }

    #[test]
    fn two_set_join_is_cross_product_filtered() {
        let a = Dataset::from_rows(&[vec![0.0, 0.0], vec![0.5, 0.5]]).unwrap();
        let b = Dataset::from_rows(&[vec![0.05, 0.0], vec![0.9, 0.9]]).unwrap();
        let spec = JoinSpec::new(0.1, Metric::L2);
        let mut sink = VecSink::default();
        let stats = BruteForce::default()
            .join(&a, &b, &spec, &mut sink)
            .unwrap();
        assert_eq!(sink.pairs, vec![(0, 0)]);
        assert_eq!(stats.candidates, 4);
    }

    #[test]
    fn tiny_blocks_do_not_change_results() {
        let ds = grid_points();
        let spec = JoinSpec::new(0.29, Metric::Linf);
        let mut want = VecSink::default();
        BruteForce::default()
            .self_join(&ds, &spec, &mut want)
            .unwrap();
        let mut got = VecSink::default();
        BruteForce {
            block: 3,
            ..BruteForce::default()
        }
        .self_join(&ds, &spec, &mut got)
        .unwrap();
        verify::assert_same_results("BF(block=3)", &want.pairs, &got.pairs);
    }

    #[test]
    fn parallel_matches_serial_on_random_data() {
        let ds = hdsj_data::uniform(6, 300, 7).unwrap();
        for kind in ["self", "two"] {
            let spec = JoinSpec::new(0.35, Metric::L2);
            let mut want = VecSink::default();
            let mut got = VecSink::default();
            if kind == "self" {
                BruteForce::default()
                    .self_join(&ds, &spec, &mut want)
                    .unwrap();
                BruteForce::parallel(4)
                    .self_join(&ds, &spec, &mut got)
                    .unwrap();
            } else {
                let other = hdsj_data::uniform(6, 200, 8).unwrap();
                BruteForce::default()
                    .join(&ds, &other, &spec, &mut want)
                    .unwrap();
                BruteForce::parallel(4)
                    .join(&ds, &other, &spec, &mut got)
                    .unwrap();
            }
            verify::assert_same_results("BF parallel", &want.pairs, &got.pairs);
        }
    }

    #[test]
    fn parallel_counters_match_serial() {
        let ds = hdsj_data::uniform(4, 101, 3).unwrap();
        let spec = JoinSpec::new(0.2, Metric::L2);
        let mut s1 = VecSink::default();
        let a = BruteForce::default()
            .self_join(&ds, &spec, &mut s1)
            .unwrap();
        let mut s2 = VecSink::default();
        let b = BruteForce::parallel(3)
            .self_join(&ds, &spec, &mut s2)
            .unwrap();
        assert_eq!(a.candidates, b.candidates);
        assert_eq!(a.results, b.results);
    }

    #[test]
    fn parallel_output_is_deterministic_across_thread_counts() {
        // 16 probe blocks × 16 tiles of 64: the sink sees pairs in the one
        // loop nest's order — probe block, tile, row — no matter how many
        // workers its ranges were handed to (3: an uneven hand-out, cut
        // inside blocks). One tile, or a nest that differs with the count,
        // hides the difference.
        let ds = hdsj_data::uniform(5, 1000, 17).unwrap();
        let other = hdsj_data::uniform(5, 900, 18).unwrap();
        let spec = JoinSpec::new(0.3, Metric::L2);
        for b in [None, Some(&other)] {
            let run = |threads: usize| {
                let mut bf = BruteForce {
                    block: 64,
                    ..BruteForce::parallel(threads)
                };
                let mut sink = VecSink::default();
                let stats = match b {
                    None => bf.self_join(&ds, &spec, &mut sink).unwrap(),
                    Some(b) => bf.join(&ds, b, &spec, &mut sink).unwrap(),
                };
                (sink.pairs, stats.candidates, stats.results)
            };
            let serial = run(1);
            assert!(serial.0.len() > 1000, "{} pairs", serial.0.len());
            let row_major = serial.0.windows(2).all(|w| w[0] <= w[1]);
            assert!(!row_major, "the order must show the blocking");
            for threads in [2, 3, 8] {
                assert_eq!(run(threads), serial, "threads={threads}");
            }
        }
    }

    #[test]
    fn set_threads_switches_paths() {
        let ds = grid_points();
        let spec = JoinSpec::new(0.21, Metric::L2);
        let mut bf = BruteForce::default();
        bf.set_threads(4);
        assert_eq!(bf.env.threads, 4);
        let mut sink = VecSink::default();
        let stats = bf.self_join(&ds, &spec, &mut sink).unwrap();
        assert_eq!(stats.results, 24);
    }

    #[test]
    fn the_transposed_inner_set_is_charged_as_structure() {
        // The tiles are a full copy of the inner set and its f32 copy,
        // padded per tile.
        let (a, b) = (grid_points(), hdsj_data::uniform(6, 300, 9).unwrap());
        let spec = JoinSpec::new(0.2, Metric::L2);
        for threads in [1, 3] {
            let mut sink = VecSink::default();
            let stats = BruteForce::parallel(threads)
                .self_join(&b, &spec, &mut sink)
                .unwrap();
            assert!(stats.structure_bytes >= 300 * 6 * (8 + 4), "{stats:?}");
        }
        let mut sink = VecSink::default();
        let stats = BruteForce::default()
            .join(&hdsj_data::uniform(2, 40, 1).unwrap(), &a, &spec, &mut sink)
            .unwrap();
        assert!(
            stats.structure_bytes >= 16 * 2 * (8 + 4),
            "inner set: {stats:?}"
        );
        assert!(
            stats.structure_bytes < 40 * 2 * 8,
            "not the outer: {stats:?}"
        );
    }

    #[test]
    fn empty_inputs_yield_empty_results() {
        let empty = Dataset::new(3).unwrap();
        let spec = JoinSpec::l2(0.1);
        let mut sink = VecSink::default();
        let stats = BruteForce::default()
            .self_join(&empty, &spec, &mut sink)
            .unwrap();
        assert_eq!(stats.results, 0);
        assert!(sink.pairs.is_empty());
    }

    #[test]
    fn invalid_spec_is_rejected() {
        let ds = grid_points();
        let mut sink = VecSink::default();
        assert!(BruteForce::default()
            .self_join(&ds, &JoinSpec::l2(0.0), &mut sink)
            .is_err());
    }
}
