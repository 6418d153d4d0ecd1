//! # hdsj-msj — the Multidimensional Spatial Join (the paper's contribution)
//!
//! MSJ generalizes the authors' Size Separation Spatial Join to high
//! dimensions using a space-filling curve. The pipeline:
//!
//! 1. **Expansion** — every point becomes the L∞ cube of side ε centred on
//!    it; two points are within L∞ distance ε iff their cubes intersect.
//! 2. **Size-separation level assignment** ([`assign`]) — each cube is
//!    assigned to the *finest* level of a hierarchy of grids (level `l` has
//!    `2^l` cells per dimension) at which it fits inside a single cell,
//!    together with the Hilbert key of that cell.
//! 3. **Level files** — entries are written to the `hdsj-storage` engine
//!    and **externally sorted** by `(cell key zero-padded to full depth,
//!    level)`. Because the Hilbert curve is hierarchical (a cell's key is a
//!    prefix of every descendant's key — property-tested in `hdsj-sfc`),
//!    this order is exactly a depth-first traversal of the cell hierarchy.
//! 4. **Synchronized sweep** ([`sweep`]) — one pass over the sorted stream
//!    with a stack of "open" ancestor cells: a cube can only intersect
//!    cubes in its own cell or in an ancestor cell, so each cell's points
//!    are joined against the cell itself and against its *view* of the
//!    stack — the ancestors' points whose cube reaches the cell. A cell too
//!    small to repay a view leaves its points on each ancestor it would have
//!    joined, and the ancestor joins all such points in one batch when it
//!    is popped (or earlier, at [`sweep::PENDING_CAP`]). Candidates
//!    are pre-filtered by ε-stripes of a second dimension (long lists
//!    only) and a dimension-0 plane sweep, taken tile-major (each L1-sized
//!    candidate tile is transposed once and reused by every probe whose
//!    window touches it), and refined with the exact metric.
//!
//! The memory the sweep needs is the stack of at most `depth + 1` open
//! cells, their cached views (together at most `depth` times the stack),
//! their pending batches (each under `PENDING_CAP` plus one cell's points)
//! and one L1-sized scratch tile — independent of dimensionality, which is
//! the structural reason MSJ scales to high `d` where the ε-KDB directory
//! and the R-tree fan-out collapse (experiments E1, E5).
#![forbid(unsafe_code)]

pub mod assign;
pub mod sweep;

use assign::{Assigner, RecordCodec};
use hdsj_core::obs::{names, PhaseClass};
use hdsj_core::{
    CandidateSink, Dataset, Error, JoinEnv, JoinKind, JoinRun, JoinSpec, PairSink, Refiner,
    Result, SimilarityJoin, SoABlock, VecSink,
};
use hdsj_exec::Pool;
use hdsj_sfc::Curve;
use hdsj_storage::sort::{external_sort, external_sort_resumable, SortConfig};
use hdsj_storage::{Checkpointer, ManifestState, RecordFile, StorageEngine};
use std::sync::{Arc, Mutex};

/// Manifest tag of the unsorted level file (assignment output).
const ASSIGN_TAG: &str = "msj.assign";
/// Manifest tag of the fully sorted level file (`{prefix}.out` of the
/// resumable sort under the `msj.sort` prefix).
const SORT_OUT_TAG: &str = "msj.sort.out";

/// Checkpoint/resume context for one resumable MSJ execution: the
/// checkpoint writer (owning the manifest journal) plus the replayed
/// state of a prior incarnation (empty on a fresh run).
pub struct Recovery {
    /// Writes `FileSealed`/`FileDropped`/`Mark` records with the
    /// flush→fsync→append→fsync protocol.
    pub ckpt: Checkpointer,
    /// Live files and marks recovered from the manifest.
    pub state: ManifestState,
}

/// The Multidimensional Spatial Join.
#[derive(Clone)]
pub struct Msj {
    /// Space-filling curve ordering the grid cells (Hilbert by default;
    /// Z-order for the E12 ablation).
    pub curve: Curve,
    /// Cap on the hierarchy depth. The effective depth is
    /// `min(max_depth, ⌈log2(1/ε)⌉)` — cells finer than ε can never host a
    /// cube of side ε, so deeper levels would only lengthen the sort keys.
    pub max_depth: u32,
    /// In-memory workspace of the external sort, in records.
    pub sort_mem_records: usize,
    /// Buffer-pool frames of the owned engine (when none is supplied).
    pub pool_pages: usize,
    /// Tracer, lifecycle context (polled by the exec pool at chunk
    /// boundaries, by the buffer pool on every disk operation, and by the
    /// sweep) and worker threads, i.e. how many partitions the two
    /// parallel phases are run over: level assignment (chunks of points)
    /// and the sweep (shares of its tiles, every worker reading the whole
    /// sorted file). The sort is serial. Results are identical at every
    /// count.
    pub env: JoinEnv,
    engine: Option<StorageEngine>,
    /// Checkpoint/resume context (see [`Msj::set_recovery`]). Shared so
    /// the configured join stays cloneable; locked once per run.
    recovery: Option<Arc<Mutex<Recovery>>>,
    /// Chaos failpoint: the sweep worker with this index panics on startup
    /// (`threads` > 1), exercising the panic-containment path. Never set
    /// outside fault-injection tests.
    pub fail_sweep_worker: Option<usize>,
}

impl Default for Msj {
    fn default() -> Msj {
        Msj {
            curve: Curve::Hilbert,
            max_depth: 16,
            sort_mem_records: 128 * 1024,
            pool_pages: 1024,
            env: JoinEnv::default(),
            engine: None,
            recovery: None,
            fail_sweep_worker: None,
        }
    }
}

impl Msj {
    /// Runs on an externally supplied storage engine (for the I/O and
    /// buffer-size experiments).
    pub fn with_engine(engine: StorageEngine) -> Msj {
        Msj {
            engine: Some(engine),
            ..Msj::default()
        }
    }

    /// Uses the given curve (the E12 ablation).
    pub fn with_curve(curve: Curve) -> Msj {
        Msj {
            curve,
            ..Msj::default()
        }
    }

    /// Runs level assignment and the sweep on `threads` worker threads
    /// (`0` = all hardware threads).
    pub fn with_threads(threads: usize) -> Msj {
        let mut msj = Msj::default();
        msj.set_threads(threads);
        msj
    }

    /// Arms checkpoint/resume: every phase boundary seals its output into
    /// `ckpt`'s manifest, and work already live in `state` (from a prior
    /// crashed incarnation) is reused instead of recomputed. The resumed
    /// result is byte-identical to a fresh run.
    pub fn set_recovery(&mut self, ckpt: Checkpointer, state: ManifestState) {
        self.recovery = Some(Arc::new(Mutex::new(Recovery { ckpt, state })));
    }

    /// The hierarchy depth used for a given ε. A cube of side ε only fits in
    /// cells of side ≥ ε, i.e. levels `l ≤ log2(1/ε)`, so deeper levels
    /// would stay empty and only lengthen the sort keys.
    pub fn effective_depth(&self, eps: f64) -> u32 {
        let useful = (1.0 / eps).log2().floor().max(1.0) as u32;
        useful.min(self.max_depth).clamp(1, 20)
    }

    /// Per-level entry counts for a dataset at a given ε — the level
    /// occupancy table (experiment E9).
    pub fn level_histogram(&self, ds: &Dataset, eps: f64) -> Result<Vec<u64>> {
        let depth = self.effective_depth(eps);
        let mut assigner = Assigner::new(ds.dims(), depth, eps, self.curve)?;
        let mut hist = vec![0u64; depth as usize + 1];
        for (n, (_, p)) in ds.iter().enumerate() {
            if n % 4096 == 0 {
                if let Some(lc) = &self.env.lifecycle {
                    lc.poll()?;
                }
            }
            let (_, level) = assigner.assign(p);
            hist[level as usize] += 1;
        }
        Ok(hist)
    }
}

/// A sweep worker's sink: the refiner, and where in its output each tile of
/// the worker's share that matched anything ended, under the tile's number.
struct Marked<'a> {
    refiner: Refiner<'a>,
    ends: Vec<(u64, usize)>,
}

impl CandidateSink for Marked<'_> {
    #[inline]
    fn windows(&mut self, tile: &SoABlock, windows: &[(u32, std::ops::Range<usize>)]) {
        self.refiner.offer_windows(tile, windows);
    }

    #[inline]
    fn pair(&mut self, i: u32, j: u32) {
        self.refiner.offer(i, j);
    }

    fn end_tile(&mut self, seq: u64) -> Result<()> {
        let end = self.refiner.counters().1 as usize;
        if self.ends.last().map_or(0, |last| last.1) < end {
            self.ends.push((seq, end));
        }
        Ok(())
    }
}

impl SimilarityJoin for Msj {
    fn name(&self) -> &'static str {
        "MSJ"
    }

    fn env(&mut self) -> &mut JoinEnv {
        &mut self.env
    }

    /// The three MSJ phases, inside the storage engine's scope.
    fn run(
        &self,
        run: &mut JoinRun<'_>,
        a: &Dataset,
        b: &Dataset,
        kind: JoinKind,
        spec: &JoinSpec,
        sink: &mut dyn PairSink,
    ) -> Result<()> {
        let engine = match &self.engine {
            Some(e) => e.clone(),
            None => StorageEngine::in_memory(self.pool_pages),
        };
        let dims = a.dims();
        let depth = self.effective_depth(spec.eps);
        let codec = RecordCodec::new(dims, depth);
        run.attr_u64("depth", depth as u64);
        run.attr_u64("threads", run.threads() as u64);

        let mut recovery = match &self.recovery {
            Some(r) => Some(
                r.lock()
                    .map_err(|_| Error::Internal("msj recovery lock poisoned".into()))?,
            ),
            None => None,
        };
        // Every live manifest file is work a previous incarnation already
        // finished — counted before any of it is consumed.
        let resumed_files = recovery.as_ref().map_or(0, |r| r.state.files.len());
        if resumed_files > 0 {
            let resumed = run.tracer().counter(names::JOIN_RESUMED_LEVELS);
            resumed.add(resumed_files as u64);
        }
        let sort_done = recovery
            .as_ref()
            .is_some_and(|r| r.state.files.contains_key(SORT_OUT_TAG));
        let pool = Pool::for_run(run);

        engine.scope(run, |run| {
            // Phase 1: level assignment, one combined file of tagged entries.
            // Chunks of points are assigned and Hilbert-encoded on the pool
            // (each chunk owns its Assigner and encodes every record in place
            // in a local buffer);
            // the file writes stay on this thread, in chunk order, so the level
            // file is byte-identical at every thread count. Skipped entirely
            // when a durable sorted file (or the sealed level file itself)
            // survives from a crashed run.
            let rec_len = codec.record_len();
            let mut file = run.phase("assign", PhaseClass::Cpu, |run| {
                if sort_done {
                    return Ok(None);
                }
                if let Some(spec_file) = recovery
                    .as_ref()
                    .and_then(|r| r.state.files.get(ASSIGN_TAG))
                {
                    return Ok(Some(spec_file.open(&engine)?));
                }
                let mut f = RecordFile::create(&engine, rec_len)?;
                const ASSIGN_CHUNK: usize = 4096;
                for (ds, tag) in [(a, assign::TAG_A), (b, assign::TAG_B)] {
                    if tag == assign::TAG_B && kind != JoinKind::TwoSets {
                        continue;
                    }
                    let bufs =
                        pool.map_chunks(Some(run.span()), ds.len(), ASSIGN_CHUNK, |r| {
                            let mut assigner =
                                Assigner::new(dims, depth, spec.eps, self.curve)?;
                            let mut local = vec![0u8; r.len() * rec_len];
                            for (i, rec) in r.zip(local.chunks_exact_mut(rec_len)) {
                                let id = i as u32;
                                codec.encode_point(&mut assigner, ds.point(id), tag, id, rec);
                            }
                            Ok(local)
                        })?;
                    for buf in bufs {
                        f.extend(&buf)?;
                    }
                }
                f.release_tail();
                if let Some(r) = recovery.as_mut() {
                    r.ckpt.seal_file("msj.assign_sealed", ASSIGN_TAG, &f, &[])?;
                }
                Ok(Some(f))
            })?;

            // Phase 2: external sort by (padded cell key, level) — the DFS
            // order of the cell hierarchy. The level byte directly follows the
            // key bytes, so whole-record byte order covers both. Serial at every
            // thread count: sorting T slices of a run apart made T runs for the
            // merge to undo and was slower on every workload (DESIGN §11).
            // With recovery, every spilled run and merge output checkpoints,
            // and a completed sort is reused outright.
            let sorted = run.phase("sort", PhaseClass::Io, |_| {
                let sort_config = SortConfig {
                    mem_records: self.sort_mem_records,
                    ..SortConfig::default()
                };
                let lost = || Error::Internal("msj lost its level file".into());
                let sorted = match recovery.as_mut() {
                    None => {
                        let f = file.as_ref().ok_or_else(lost)?;
                        external_sort(&engine, f, codec.sort_key_len(), sort_config)?
                    }
                    Some(r) if sort_done => {
                        // Crash landed between the sort's final seal and the
                        // level-file drop: retire the stale level file now.
                        if let Some(spec_file) = r.state.files.get(ASSIGN_TAG) {
                            let stale = spec_file.open(&engine)?;
                            r.ckpt.drop_file("msj.assign_dropped", ASSIGN_TAG)?;
                            stale.destroy()?;
                        }
                        r.state.files[SORT_OUT_TAG].open(&engine)?
                    }
                    Some(r) => {
                        let f = file.as_ref().ok_or_else(lost)?;
                        let Recovery { ckpt, state } = &mut **r;
                        let sorted = external_sort_resumable(
                            &engine,
                            f,
                            codec.sort_key_len(),
                            sort_config,
                            ckpt,
                            "msj.sort",
                            "msj.sort_sealed",
                            state,
                        )?;
                        r.ckpt.drop_file("msj.assign_dropped", ASSIGN_TAG)?;
                        sorted
                    }
                };
                // The unsorted level file is consumed; return its pages.
                if let Some(f) = file.take() {
                    f.destroy()?;
                }
                Ok(sorted)
            })?;

            // Phase 3: the stack-based synchronized sweep. Every worker runs the
            // whole of it over the sorted file — its own cursor, stack and
            // refiner — and executes its share of the tiles; the shares' outputs
            // are replayed in tile order, which is the one-worker emission
            // (DESIGN §11). One worker writes straight into the caller's sink.
            // Not checkpointed: the sweep is deterministic, so a crash mid-sweep
            // redoes it from the durable sorted file.
            run.phase("sweep", PhaseClass::Cpu, |run| {
                let (workers, lifecycle) = (run.threads(), run.lifecycle());
                let tally = if workers == 1 {
                    let mut refiner = Refiner::new(a, b, kind, spec, sink);
                    let swept = sweep::sweep(
                        &sorted,
                        &codec,
                        a,
                        b,
                        kind,
                        spec.eps,
                        lifecycle,
                        (0, 1),
                        &mut refiner,
                    );
                    run.refined(refiner.counters());
                    swept?
                } else {
                    let shares = pool.map_chunks(Some(run.span()), workers, 1, |w| {
                        let worker = w.start;
                        if self.fail_sweep_worker == Some(worker) {
                            // Deliberate chaos failpoint: the panic is contained by the
                            // pool and surfaces as a typed error at the join() site.
                            #[allow(clippy::panic)]
                            {
                                panic!("injected sweep-worker failure (worker {worker})");
                            }
                        }
                        let mut out = VecSink::default();
                        let mut marked = Marked {
                            refiner: Refiner::new(a, b, kind, spec, &mut out),
                            ends: Vec::new(),
                        };
                        let tally = sweep::sweep(
                            &sorted,
                            &codec,
                            a,
                            b,
                            kind,
                            spec.eps,
                            lifecycle,
                            (worker, workers),
                            &mut marked,
                        )?;
                        let Marked { refiner, ends } = marked;
                        Ok((tally, refiner.counters(), ends, out.pairs))
                    })?;
                    // The views and stripes are every share's alike; the tiles and
                    // the memory held are each share's own.
                    let mut tally = sweep::SweepTally {
                        peak_bytes: 0,
                        tiles: Default::default(),
                        ..shares[0].0
                    };
                    let mut tiles = Vec::new();
                    for (worker, (share, counters, ends, _)) in shares.iter().enumerate() {
                        tally.peak_bytes += share.peak_bytes;
                        tally.tiles += share.tiles;
                        run.refined(*counters);
                        let mut start = 0;
                        for &(seq, end) in ends {
                            tiles.push((seq, worker, start..end));
                            start = end;
                        }
                    }
                    tiles.sort_unstable_by_key(|tile| tile.0);
                    for (_, worker, pairs) in tiles {
                        run.poll()?;
                        for &(i, j) in &shares[worker].3[pairs] {
                            sink.push(i, j);
                        }
                    }
                    tally
                };
                run.tally(tally.tiles);
                run.count("sweep.view_tested", tally.view_tested);
                run.count("sweep.view_kept", tally.view_kept);
                run.count("sweep.striped_joins", tally.striped_joins);
                run.structure_bytes(tally.peak_bytes);
                Ok(())
            })?;
            run.poll()?;
            if let Some(r) = recovery.as_mut() {
                r.ckpt.drop_file("msj.done", SORT_OUT_TAG)?;
            }
            sorted.destroy()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdsj_bruteforce::BruteForce;
    use hdsj_core::{verify, Metric, VecSink};
    use hdsj_storage::FaultKind;

    fn compare_with_bf(a: &Dataset, b: Option<&Dataset>, spec: &JoinSpec, msj: &mut Msj) {
        let mut want = VecSink::default();
        let mut got = VecSink::default();
        let mut bf = BruteForce::default();
        match b {
            None => {
                bf.self_join(a, spec, &mut want).unwrap();
                msj.self_join(a, spec, &mut got).unwrap();
            }
            Some(b) => {
                bf.join(a, b, spec, &mut want).unwrap();
                msj.join(a, b, spec, &mut got).unwrap();
            }
        }
        verify::assert_same_results("MSJ", &want.pairs, &got.pairs);
    }

    #[test]
    fn matches_brute_force_on_uniform_self_join() {
        for (dims, eps) in [(2usize, 0.05), (4, 0.15), (8, 0.3), (16, 0.6)] {
            let ds = hdsj_data::uniform(dims, 400, dims as u64 + 7).unwrap();
            compare_with_bf(
                &ds,
                None,
                &JoinSpec::new(eps, Metric::L2),
                &mut Msj::default(),
            );
        }
    }

    #[test]
    fn matches_brute_force_on_two_set_join() {
        let a = hdsj_data::uniform(5, 350, 51).unwrap();
        let b = hdsj_data::uniform(5, 300, 52).unwrap();
        for metric in [Metric::L1, Metric::L2, Metric::Linf, Metric::Lp(3.0)] {
            compare_with_bf(
                &a,
                Some(&b),
                &JoinSpec::new(0.2, metric),
                &mut Msj::default(),
            );
        }
    }

    #[test]
    fn matches_brute_force_with_zorder_curve() {
        let ds = hdsj_data::uniform(6, 400, 61).unwrap();
        let mut msj = Msj::with_curve(Curve::ZOrder);
        compare_with_bf(&ds, None, &JoinSpec::new(0.25, Metric::L2), &mut msj);
    }

    #[test]
    fn matches_brute_force_on_clustered_and_correlated_data() {
        let clustered = hdsj_data::gaussian_clusters(
            4,
            500,
            hdsj_data::ClusterSpec {
                clusters: 6,
                sigma: 0.03,
                ..Default::default()
            },
            71,
        )
        .unwrap();
        compare_with_bf(
            &clustered,
            None,
            &JoinSpec::new(0.05, Metric::L2),
            &mut Msj::default(),
        );
        let corr = hdsj_data::correlated(8, 400, 0.04, 72).unwrap();
        compare_with_bf(
            &corr,
            None,
            &JoinSpec::new(0.08, Metric::L2),
            &mut Msj::default(),
        );
    }

    #[test]
    fn matches_brute_force_in_high_dimensions() {
        let ds = hdsj_data::uniform(32, 150, 81).unwrap();
        compare_with_bf(
            &ds,
            None,
            &JoinSpec::new(0.7, Metric::L2),
            &mut Msj::default(),
        );
    }

    #[test]
    fn shallow_depth_cap_is_still_exact() {
        // max_depth=1 pushes almost everything into levels 0/1: the sweep
        // degenerates gracefully but stays correct.
        let ds = hdsj_data::uniform(3, 300, 91).unwrap();
        let mut msj = Msj {
            max_depth: 1,
            ..Msj::default()
        };
        compare_with_bf(&ds, None, &JoinSpec::new(0.1, Metric::L2), &mut msj);
    }

    #[test]
    fn boundary_points_are_not_lost() {
        // Cubes touching cell boundaries exactly must be classified into an
        // ancestor cell, not dropped.
        let eps = 0.25;
        let ds = Dataset::from_rows(&[
            vec![0.5, 0.5],   // cube spans the centre: level 0
            vec![0.375, 0.5], // cube touches x=0.5 exactly
            vec![0.625, 0.5],
            vec![0.125, 0.125], // interior of one quadrant
            vec![0.126, 0.126],
        ])
        .unwrap();
        compare_with_bf(
            &ds,
            None,
            &JoinSpec::new(eps, Metric::Linf),
            &mut Msj::default(),
        );
    }

    #[test]
    fn duplicate_points() {
        let rows = vec![vec![0.3, 0.3]; 40];
        let ds = Dataset::from_rows(&rows).unwrap();
        compare_with_bf(
            &ds,
            None,
            &JoinSpec::new(0.01, Metric::L2),
            &mut Msj::default(),
        );
    }

    #[test]
    fn level_histogram_sums_to_n_and_shifts_with_eps() {
        let ds = hdsj_data::uniform(4, 1000, 3).unwrap();
        let msj = Msj::default();
        let hist_fine = msj.level_histogram(&ds, 0.01).unwrap();
        assert_eq!(hist_fine.iter().sum::<u64>(), 1000);
        let hist_coarse = msj.level_histogram(&ds, 0.4).unwrap();
        assert_eq!(hist_coarse.iter().sum::<u64>(), 1000);
        // Small ε ⇒ cubes fit in deep cells; large ε ⇒ mass at the top.
        let mean_level = |h: &[u64]| {
            h.iter()
                .enumerate()
                .map(|(l, &c)| l as f64 * c as f64)
                .sum::<f64>()
                / 1000.0
        };
        assert!(mean_level(&hist_fine) > mean_level(&hist_coarse) + 1.0);
    }

    #[test]
    fn reports_phases_io_and_peak_memory() {
        let ds = hdsj_data::uniform(4, 8000, 5).unwrap();
        let engine = StorageEngine::in_memory(3); // tiny pool: real I/O
        let mut msj = Msj::with_engine(engine);
        let mut sink = VecSink::default();
        let stats = msj.self_join(&ds, &JoinSpec::l2(0.1), &mut sink).unwrap();
        for phase in ["assign", "sort", "sweep"] {
            assert!(stats.phase(phase).is_some(), "missing phase {phase}");
        }
        assert!(stats.io.reads > 0 && stats.io.writes > 0, "{:?}", stats.io);
        assert!(stats.structure_bytes > 0);
        assert_eq!(stats.results as usize, sink.pairs.len());
    }

    #[test]
    fn effective_depth_tracks_eps() {
        let msj = Msj::default();
        assert_eq!(msj.effective_depth(0.5), 1);
        assert_eq!(msj.effective_depth(0.25), 2);
        assert_eq!(msj.effective_depth(0.1), 3);
        assert_eq!(msj.effective_depth(1e-9), 16, "capped by max_depth");
    }

    #[test]
    fn storage_fault_propagates() {
        let ds = hdsj_data::uniform(3, 200, 5).unwrap();
        let engine = StorageEngine::in_memory(64);
        engine.fault_plan().on_nth(None, 2, FaultKind::Transient);
        let mut msj = Msj::with_engine(engine);
        let mut sink = VecSink::default();
        assert!(msj.self_join(&ds, &JoinSpec::l2(0.1), &mut sink).is_err());
    }
}

#[cfg(test)]
mod lifecycle_tests {
    use super::*;
    use hdsj_core::{LifecycleCtx, VecSink};

    #[test]
    fn pre_canceled_join_returns_canceled_not_panic() {
        let ds = hdsj_data::uniform(4, 300, 41).unwrap();
        for threads in [1, 2] {
            let lc = LifecycleCtx::unbounded();
            lc.cancel_token().cancel();
            let engine = StorageEngine::in_memory(64);
            let mut msj = Msj::with_engine(engine.clone());
            msj.env.threads = threads;
            msj.set_lifecycle(lc);
            let mut sink = VecSink::default();
            let err = msj
                .self_join(&ds, &JoinSpec::l2(0.1), &mut sink)
                .unwrap_err();
            assert!(matches!(err, Error::Canceled(_)), "{err:?}");
            assert_eq!(engine.pool().pinned_frames(), 0, "threads={threads}");
        }
    }

    #[test]
    fn exhausted_io_budget_surfaces_as_typed_error() {
        // A 16-page level file through a 4-frame pool: every scan's reads
        // miss. Each sweep worker scans the sorted file through its own
        // cursor, so a budget is charged one scan per worker — less what a
        // worker finds resident because another just read it.
        let ds = hdsj_data::uniform(4, 8000, 42).unwrap();
        let spec = JoinSpec::l2(0.05);
        let run = |threads: usize, lc: LifecycleCtx| {
            let engine = StorageEngine::in_memory(4);
            let mut msj = Msj::with_engine(engine.clone());
            msj.env.threads = threads;
            msj.set_lifecycle(lc.clone());
            let mut sink = VecSink::default();
            let outcome = msj.self_join(&ds, &spec, &mut sink).map(|_| sink.pairs);
            // Graceful exit: no pins leaked, and the lifecycle ctx was
            // removed so the engine is reusable.
            assert_eq!(engine.pool().pinned_frames(), 0, "threads={threads}");
            let mut retry = VecSink::default();
            Msj::with_engine(engine)
                .self_join(&ds, &spec, &mut retry)
                .unwrap();
            (outcome, lc.stats().io_used, retry.pairs)
        };
        let (want, one_scan, _) = run(1, LifecycleCtx::unbounded());
        let want = want.unwrap();
        assert!(!want.is_empty() && one_scan > 64, "{one_scan} operations");
        for threads in [1, 2] {
            // Too small for the assignment; one operation short of, and
            // exactly, a one-worker join; enough for a scan per worker.
            for budget in [3, one_scan - 1, one_scan, 2 * one_scan] {
                let label = format!("threads={threads} budget={budget} of {one_scan}");
                let lc = LifecycleCtx::builder().io_budget(budget).build();
                let (outcome, used, retry) = run(threads, lc);
                assert_eq!(retry, want, "{label}");
                match outcome {
                    Ok(pairs) => {
                        assert_eq!(pairs, want, "{label}");
                        assert!((one_scan..=budget).contains(&used), "{label}: {used}");
                    }
                    Err(err) => {
                        assert!(matches!(err, Error::BudgetExhausted(_)), "{label}: {err:?}");
                        // Only the second worker's scan can fail a budget
                        // that one worker's whole join fits.
                        assert!(
                            budget < one_scan || threads == 2 && budget == one_scan,
                            "{label}"
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod recovery_tests {
    use super::*;
    use hdsj_core::{Metric, VecSink};
    use hdsj_storage::Manifest;
    use std::path::Path;

    fn attempt(
        dir: &Path,
        ds: &Dataset,
        spec: &JoinSpec,
        halt: Option<(&str, u64)>,
    ) -> Result<Vec<(u32, u32)>> {
        let man_path = dir.join("join.manifest");
        let data_path = dir.join("join.manifest.pages");
        let (eng, mut ckpt, state);
        if man_path.exists() {
            let (man, recs) = Manifest::open_append(&man_path)?;
            state = ManifestState::replay(&recs)?;
            eng = StorageEngine::builder(64).file_backed_open(&data_path)?;
            eng.adopt_freelist(state.orphan_pages(eng.pool().num_pages()))?;
            ckpt = Checkpointer::new(&eng, man);
        } else {
            eng = StorageEngine::file_backed(&data_path, 64)?;
            state = ManifestState::default();
            ckpt = Checkpointer::new(&eng, Manifest::create(&man_path, 99)?);
        }
        if let Some((point, n)) = halt {
            ckpt.halt_at(point, n);
        }
        let mut msj = Msj {
            sort_mem_records: 64,
            ..Msj::with_engine(eng.clone())
        };
        msj.set_recovery(ckpt, state);
        let mut sink = VecSink::default();
        msj.self_join(ds, spec, &mut sink)?;
        assert_eq!(eng.pool().pinned_frames(), 0, "leaked pins");
        assert_eq!(
            eng.pool().free_pages(),
            eng.pool().num_pages() as usize,
            "completed resumable join must leave every page free"
        );
        Ok(sink.pairs)
    }

    fn fresh_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("hdsj-rmsj-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn checkpointed_join_without_crash_matches_plain_join() {
        let ds = hdsj_data::uniform(4, 400, 123).unwrap();
        let spec = JoinSpec::new(0.15, Metric::L2);
        let mut want = VecSink::default();
        Msj::default().self_join(&ds, &spec, &mut want).unwrap();
        let dir = fresh_dir("fresh");
        let got = attempt(&dir, &ds, &spec, None).unwrap();
        assert_eq!(got, want.pairs);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn halted_join_resumes_to_byte_identical_pairs() {
        for seed in [1u64, 7, 31] {
            let ds = hdsj_data::uniform(4, 350 + seed as usize * 29, seed).unwrap();
            let spec = JoinSpec::new(0.12, Metric::L2);
            let mut want = VecSink::default();
            Msj::default().self_join(&ds, &spec, &mut want).unwrap();
            for (point, nth) in [
                ("msj.assign_sealed", 1),
                ("sort.run_sealed", 1),
                ("sort.run_sealed", 3),
                ("sort.merge_sealed", 1),
                ("msj.sort_sealed", 1),
            ] {
                let dir = fresh_dir(&format!("{seed}-{point}-{nth}"));
                let err = attempt(&dir, &ds, &spec, Some((point, nth))).unwrap_err();
                assert!(matches!(err, Error::Canceled(_)), "{point}@{nth}: {err:?}");
                let got = attempt(&dir, &ds, &spec, None)
                    .unwrap_or_else(|e| panic!("resume {point}@{nth} seed {seed}: {e:?}"));
                assert_eq!(got, want.pairs, "{point}@{nth} seed {seed}");
                std::fs::remove_dir_all(&dir).ok();
            }
        }
    }

    #[test]
    fn repeated_crashes_at_different_phases_still_converge() {
        let ds = hdsj_data::uniform(5, 500, 77).unwrap();
        let spec = JoinSpec::new(0.2, Metric::Linf);
        let mut want = VecSink::default();
        Msj::default().self_join(&ds, &spec, &mut want).unwrap();
        let dir = fresh_dir("multi");
        assert!(attempt(&dir, &ds, &spec, Some(("msj.assign_sealed", 1))).is_err());
        assert!(attempt(&dir, &ds, &spec, Some(("sort.run_sealed", 2))).is_err());
        assert!(attempt(&dir, &ds, &spec, Some(("msj.sort_sealed", 1))).is_err());
        let got = attempt(&dir, &ds, &spec, None).unwrap();
        assert_eq!(got, want.pairs);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use hdsj_core::{verify, Metric, Tracer, VecSink};

    #[test]
    fn parallel_output_is_byte_identical_to_serial() {
        // `threads` is the partition count of assignment and of the sweep.
        // Tiles are numbered in sweep order and the workers' outputs replayed
        // by that number, so the ordered pair list — not just the set — the
        // counters and every `msj.sweep.*` tally equal the one-worker
        // pipeline's at every thread count (3: uneven tile ownership).
        let a = hdsj_data::uniform(5, 700, 2001).unwrap();
        let b = hdsj_data::uniform(5, 650, 2002).unwrap();
        let wide = hdsj_data::uniform(8, 400, 1008).unwrap();
        let clusters = hdsj_data::ClusterSpec {
            clusters: 5,
            sigma: 0.04,
            ..Default::default()
        };
        let clustered = hdsj_data::gaussian_clusters(4, 600, clusters, 3002).unwrap();
        let cases: [(&Dataset, Option<&Dataset>, JoinSpec); 4] = [
            (&a, None, JoinSpec::new(0.2, Metric::L2)),
            (&wide, None, JoinSpec::new(0.5, Metric::L2)),
            (&clustered, None, JoinSpec::new(0.06, Metric::L2)),
            (&a, Some(&b), JoinSpec::new(0.25, Metric::Linf)),
        ];
        for (a, b, spec) in cases {
            let run = |mut msj: Msj| {
                let (tracer, events) = Tracer::memory();
                msj.set_tracer(tracer.clone());
                let mut sink = VecSink::default();
                let stats = match b {
                    None => msj.self_join(a, &spec, &mut sink).unwrap(),
                    Some(b) => msj.join(a, b, &spec, &mut sink).unwrap(),
                };
                tracer.flush();
                let mut sweep: Vec<(String, u64)> = events
                    .counters()
                    .into_iter()
                    .filter(|c| c.name.starts_with("msj.sweep."))
                    .map(|c| (c.name, c.value))
                    .collect();
                sweep.sort();
                assert_eq!(sweep.len(), 8, "{sweep:?}");
                (sink.pairs, stats.candidates, stats.results, sweep)
            };
            let serial = run(Msj::default());
            assert!(serial.0.len() > 100, "too sparse: {} pairs", serial.0.len());
            for threads in [1usize, 2, 3, 4, 8] {
                assert_eq!(run(Msj::with_threads(threads)), serial, "threads={threads}");
            }
            let mut via_trait = Msj::default();
            via_trait.set_threads(3);
            assert_eq!(via_trait.env.threads, 3);
            assert_eq!(run(via_trait), serial, "set_threads");
        }
    }

    #[test]
    fn refine_worker_counters_are_exact_under_concurrency() {
        use hdsj_core::obs::{AttrValue, Tracer};

        let ds = hdsj_data::uniform(6, 1200, 2004).unwrap();
        let spec = JoinSpec::new(0.3, Metric::L2);
        let mut want = VecSink::default();
        let serial = Msj::default().self_join(&ds, &spec, &mut want).unwrap();
        let (tracer, events) = Tracer::memory();
        let mut msj = Msj::with_threads(4);
        msj.set_tracer(tracer.clone());
        let mut out = VecSink::default();
        let stats = msj.self_join(&ds, &spec, &mut out).unwrap();
        tracer.flush();

        // Each worker counts what its share of the tiles held; the totals
        // are the serial sweep's, in the stats and in the counters.
        assert_eq!(out.pairs, want.pairs);
        assert_eq!(
            (stats.candidates, stats.results, stats.dist_evals),
            (serial.candidates, serial.results, serial.dist_evals)
        );
        assert_eq!(events.counter_value("msj.results"), Some(serial.results));
        assert_eq!(
            events.counter_value("msj.candidates"),
            Some(serial.candidates)
        );

        // Each worker reports its own span under the sweep phase (the
        // assignment's workers report under theirs), one share each.
        let spans = events.spans();
        let sweep_id = spans
            .iter()
            .find(|s| s.name == "sweep")
            .expect("sweep span")
            .id;
        let mut workers: Vec<u64> = spans
            .iter()
            .filter(|s| s.name == "exec.worker" && s.parent == Some(sweep_id))
            .map(|s| match s.attrs.iter().find(|(k, _)| k == "worker") {
                Some((_, AttrValue::U64(v))) => *v,
                other => panic!("missing u64 attr worker: {other:?}"),
            })
            .collect();
        workers.sort_unstable();
        assert_eq!(workers, [0, 1, 2, 3]);
    }

    #[test]
    fn worker_panic_is_contained_as_typed_error() {
        let ds = hdsj_data::uniform(4, 500, 2005).unwrap();
        let spec = JoinSpec::l2(0.2);
        let engine = StorageEngine::in_memory(64);
        let mut msj = Msj {
            fail_sweep_worker: Some(1),
            ..Msj::with_engine(engine.clone())
        };
        msj.env.threads = 3;
        let mut sink = VecSink::default();
        let err = msj.self_join(&ds, &spec, &mut sink).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("panicked"), "typed panic error, got: {msg}");
        assert!(
            msg.contains("injected sweep-worker failure"),
            "panic message preserved, got: {msg}"
        );
        // Containment left the pool consistent: nothing pinned, temp files
        // returned their pages, and the same configuration works again with
        // the failpoint off.
        assert_eq!(engine.pool().pinned_frames(), 0);
        assert_eq!(
            engine.pool().free_pages(),
            engine.pool().num_pages() as usize,
            "temp pages must be back on the freelist"
        );
        msj.fail_sweep_worker = None;
        let mut retry_sink = VecSink::default();
        msj.self_join(&ds, &spec, &mut retry_sink).unwrap();
        let mut want = VecSink::default();
        Msj::default().self_join(&ds, &spec, &mut want).unwrap();
        verify::assert_same_results("MSJ after panic", &want.pairs, &retry_sink.pairs);
    }
}
