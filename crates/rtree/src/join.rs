//! RSJ — the synchronized R-tree spatial join of Brinkhoff, Kriegel and
//! Seeger, adapted to ε-similarity joins.
//!
//! Both inputs are indexed **as part of the join** (the paper charges index
//! construction to the join, because a similarity-join user rarely has
//! pre-built indexes lying around). The traversal descends both trees in
//! lock-step, pruning every node pair whose MBRs are further than ε apart in
//! L∞ (safe for all supported metrics, whose ε-balls the L∞ cube contains).
//! A leaf pair is two `(x0, id)` runs read off the leaf pages, already in
//! page order, and one call of the tile join every other structured method
//! ends in: the R-tree differs from them only in its filter.

use crate::build::BuildStrategy;
use crate::node::{load_leaf_run, InnerEntry, Node};
use crate::tree::RTree;
use hdsj_core::obs::PhaseClass;
use hdsj_core::{
    Dataset, JoinEnv, JoinKind, JoinRun, JoinSpec, LifecycleCtx, PairSink, Refiner, Result,
    SimilarityJoin, TileJoin,
};
use hdsj_storage::{PageId, StorageEngine};

/// Node visits between lifecycle polls during the synchronized traversal.
const POLL_STRIDE: u64 = 256;

/// R-tree spatial join (build-and-join).
#[derive(Clone)]
pub struct RsjJoin {
    /// How the on-the-fly trees are bulk loaded / built.
    pub strategy: BuildStrategy,
    /// Packing fill factor.
    pub fill: f64,
    /// Buffer-pool frames of the owned engine (when none is supplied).
    pub pool_pages: usize,
    engine: Option<StorageEngine>,
    /// Tracer and lifecycle context (polled every `POLL_STRIDE` node
    /// visits and, via the engine, on every page op); the thread count is
    /// ignored.
    pub env: JoinEnv,
}

impl Default for RsjJoin {
    fn default() -> RsjJoin {
        RsjJoin {
            strategy: BuildStrategy::HilbertPack,
            fill: 0.7,
            pool_pages: 1024,
            engine: None,
            env: JoinEnv::default(),
        }
    }
}

impl RsjJoin {
    /// Runs on an externally supplied storage engine (for the buffer-size
    /// experiments); otherwise each join creates a fresh in-memory engine.
    pub fn with_engine(engine: StorageEngine) -> RsjJoin {
        RsjJoin {
            engine: Some(engine),
            ..RsjJoin::default()
        }
    }

    /// Same, with an explicit build strategy.
    pub fn with_strategy(strategy: BuildStrategy) -> RsjJoin {
        RsjJoin {
            strategy,
            ..RsjJoin::default()
        }
    }
}

/// A node by page id and level (1 = leaf): all leaves of a tree sit at one
/// depth, so the descent knows what each page holds before it fetches it.
type At = (PageId, u32);

/// The synchronized descent. Every visit fetches its pages through the
/// pool, one after the other, and holds no pin while it recurses.
struct Traversal<'a> {
    engine: &'a StorageEngine,
    dims: usize,
    eps: f64,
    join: TileJoin<'a>,
    refiner: Refiner<'a>,
    lifecycle: Option<&'a LifecycleCtx>,
    /// The two leaf runs of the current visit, reused across visits.
    xs: Vec<(f64, u32)>,
    ys: Vec<(f64, u32)>,
    /// Visits: every `self_pairs` / `cross_pairs` call.
    node_pairs: u64,
    /// Visits that joined two leaves (or a leaf with itself).
    leaf_pairs: u64,
}

impl<'a> Traversal<'a> {
    /// A traversal whose right-hand leaves hold points of `b`.
    fn new(
        engine: &'a StorageEngine,
        b: &'a Dataset,
        eps: f64,
        refiner: Refiner<'a>,
        lifecycle: Option<&'a LifecycleCtx>,
    ) -> Traversal<'a> {
        Traversal {
            engine,
            dims: b.dims(),
            eps,
            join: TileJoin::new(b, eps, lifecycle),
            refiner,
            lifecycle,
            xs: Vec::new(),
            ys: Vec::new(),
            node_pairs: 0,
            leaf_pairs: 0,
        }
    }

    /// Counts the visit and polls the lifecycle context every
    /// [`POLL_STRIDE`] of them, so cancellation or a deadline stops the
    /// traversal mid-descent (the tile join polls inside a leaf pair).
    fn enter(&mut self) -> Result<()> {
        if self.node_pairs.is_multiple_of(POLL_STRIDE) {
            if let Some(lc) = self.lifecycle {
                lc.poll()?;
            }
        }
        self.node_pairs += 1;
        Ok(())
    }

    /// Unordered pairs within one subtree (self-join).
    fn self_pairs(&mut self, pid: PageId, level: u32) -> Result<()> {
        self.enter()?;
        if level == 1 {
            self.leaf_pairs += 1;
            load_leaf_run(self.engine, pid, self.dims, &mut self.xs)?;
            return self.join.run(&self.xs, &self.xs, true, &mut self.refiner);
        }
        let entries = Node::load_inner(self.engine, pid, self.dims)?;
        for (i, e) in entries.iter().enumerate() {
            self.self_pairs(e.child, level - 1)?;
            for f in &entries[i + 1..] {
                if e.mbr.mindist_linf(&f.mbr) <= self.eps {
                    self.cross_pairs((e.child, level - 1), (f.child, level - 1))?;
                }
            }
        }
        Ok(())
    }

    /// Pairs across two distinct subtrees (of the same tree or of two
    /// trees; the refiner knows which reporting convention applies).
    fn cross_pairs(&mut self, a: At, b: At) -> Result<()> {
        self.enter()?;
        let ((pa, la), (pb, lb)) = (a, b);
        if la == 1 && lb == 1 {
            self.leaf_pairs += 1;
            load_leaf_run(self.engine, pa, self.dims, &mut self.xs)?;
            load_leaf_run(self.engine, pb, self.dims, &mut self.ys)?;
            return self.join.run(&self.xs, &self.ys, false, &mut self.refiner);
        }
        let (ea, eb) = (self.entries(a)?, self.entries(b)?);
        // A leaf beside an inner node stays where it is.
        let (la, lb) = ((la - 1).max(1), (lb - 1).max(1));
        for e in &ea {
            for f in &eb {
                if e.mbr.mindist_linf(&f.mbr) <= self.eps {
                    self.cross_pairs((e.child, la), (f.child, lb))?;
                }
            }
        }
        Ok(())
    }

    /// The entries of an inner node. A leaf that meets an inner node (the
    /// trees differ in height) stands as one entry, itself under its own
    /// MBR, while the taller side descends.
    fn entries(&self, (pid, level): At) -> Result<Vec<InnerEntry>> {
        if level > 1 {
            return Node::load_inner(self.engine, pid, self.dims);
        }
        let mbr = Node::load(self.engine, pid, self.dims)?.mbr(self.dims);
        Ok(vec![InnerEntry { child: pid, mbr }])
    }
}

impl SimilarityJoin for RsjJoin {
    fn name(&self) -> &'static str {
        "RSJ"
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
        let engine = match &self.engine {
            Some(e) => e.clone(),
            None => StorageEngine::in_memory(self.pool_pages),
        };
        engine.scope(run, |run| {
            let (tree_a, tree_b) = run.phase("build", PhaseClass::Io, |run| {
                let tree_a = RTree::build(&engine, a, self.strategy, self.fill)?;
                let tree_b = match kind {
                    JoinKind::SelfJoin => None,
                    JoinKind::TwoSets => {
                        Some(RTree::build(&engine, b, self.strategy, self.fill)?)
                    }
                };
                let bytes_b = tree_b.as_ref().map_or(0, RTree::structure_bytes);
                run.structure_bytes(tree_a.structure_bytes() + bytes_b);
                Ok((tree_a, tree_b))
            })?;

            run.phase("join", PhaseClass::Cpu, |run| {
                let refiner = Refiner::new(a, b, kind, spec, sink);
                let mut traversal =
                    Traversal::new(&engine, b, spec.eps, refiner, run.lifecycle());
                let traversed = match &tree_b {
                    None => traversal.self_pairs(tree_a.root(), tree_a.height()),
                    Some(tree_b) => traversal.cross_pairs(
                        (tree_a.root(), tree_a.height()),
                        (tree_b.root(), tree_b.height()),
                    ),
                };
                run.refined(traversal.refiner.counters());
                run.count("node_pairs", traversal.node_pairs);
                run.count("leaf_pairs", traversal.leaf_pairs);
                run.tally(traversal.join.tally());
                run.structure_bytes(traversal.join.scratch_bytes());
                traversed
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdsj_bruteforce::BruteForce;
    use hdsj_core::{verify, CountSink, Error, Metric, VecSink};

    fn compare_with_bf(a: &Dataset, b: Option<&Dataset>, spec: &JoinSpec, rsj: &mut RsjJoin) {
        let mut want = VecSink::default();
        let mut got = VecSink::default();
        let mut bf = BruteForce::default();
        match b {
            None => {
                bf.self_join(a, spec, &mut want).unwrap();
                rsj.self_join(a, spec, &mut got).unwrap();
            }
            Some(b) => {
                bf.join(a, b, spec, &mut want).unwrap();
                rsj.join(a, b, spec, &mut got).unwrap();
            }
        }
        verify::assert_same_results("RSJ", &want.pairs, &got.pairs);
    }

    #[test]
    fn matches_brute_force_for_every_build_strategy() {
        let ds = hdsj_data::uniform(4, 500, 11).unwrap();
        for strategy in STRATEGIES {
            let mut rsj = RsjJoin::with_strategy(strategy);
            compare_with_bf(&ds, None, &JoinSpec::new(0.2, Metric::L2), &mut rsj);
        }
    }

    #[test]
    fn matches_brute_force_on_two_set_join() {
        let a = hdsj_data::uniform(6, 400, 21).unwrap();
        let b = hdsj_data::uniform(6, 350, 22).unwrap();
        for metric in [Metric::L1, Metric::L2, Metric::Linf, Metric::Lp(4.0)] {
            compare_with_bf(
                &a,
                Some(&b),
                &JoinSpec::new(0.3, metric),
                &mut RsjJoin::default(),
            );
        }
    }

    #[test]
    fn matches_brute_force_in_high_dimensions() {
        let ds = hdsj_data::uniform(32, 200, 31).unwrap();
        compare_with_bf(
            &ds,
            None,
            &JoinSpec::new(0.8, Metric::L2),
            &mut RsjJoin::default(),
        );
    }

    #[test]
    fn matches_brute_force_on_clustered_data() {
        let ds = hdsj_data::gaussian_clusters(
            5,
            600,
            hdsj_data::ClusterSpec {
                clusters: 8,
                sigma: 0.02,
                ..Default::default()
            },
            3,
        )
        .unwrap();
        compare_with_bf(
            &ds,
            None,
            &JoinSpec::new(0.04, Metric::L2),
            &mut RsjJoin::default(),
        );
    }

    #[test]
    fn two_set_join_with_different_tree_heights() {
        // 5 points vs 3000 points: tree heights differ, exercising the
        // mixed leaf/inner traversal arms.
        let a = hdsj_data::uniform(3, 5, 1).unwrap();
        let b = hdsj_data::uniform(3, 3000, 2).unwrap();
        compare_with_bf(
            &a,
            Some(&b),
            &JoinSpec::new(0.15, Metric::L2),
            &mut RsjJoin::default(),
        );
    }

    const STRATEGIES: [BuildStrategy; 3] = [
        BuildStrategy::HilbertPack,
        BuildStrategy::Str,
        BuildStrategy::DynamicInsert,
    ];

    /// The boundary input joined at ε = 8/64 (see the generator).
    fn striped(dims: usize, sizes: &[usize], seed: u64) -> Dataset {
        hdsj_data::lattice_stripes(dims, sizes, seed).unwrap()
    }

    #[test]
    fn lattice_inputs_match_brute_force_for_every_strategy_and_metric() {
        let a = striped(3, &[40, 0, 25, 60, 1, 30, 0, 50], 1);
        let b = striped(3, &[30, 20, 0, 45, 0, 0, 35, 10], 2);
        // Five points against a tree one level taller.
        let few = striped(3, &[2, 0, 0, 3], 3);
        let many = striped(3, &[375; 8], 4);
        for strategy in STRATEGIES {
            for metric in [Metric::L1, Metric::L2, Metric::Linf, Metric::Lp(3.0)] {
                let spec = JoinSpec::new(8.0 / 64.0, metric);
                let mut rsj = RsjJoin::with_strategy(strategy);
                compare_with_bf(&a, None, &spec, &mut rsj);
                compare_with_bf(&a, Some(&b), &spec, &mut rsj);
                // Building the tall tree dominates the test's time: every
                // strategy under L2, every metric under the default one.
                if strategy == BuildStrategy::HilbertPack || metric == Metric::L2 {
                    compare_with_bf(&few, Some(&many), &spec, &mut rsj);
                    compare_with_bf(&many, Some(&few), &spec, &mut rsj);
                }
            }
        }
    }

    /// The page id of the leftmost leaf under `pid`.
    fn first_leaf(engine: &StorageEngine, pid: PageId, dims: usize) -> PageId {
        match Node::load(engine, pid, dims).unwrap() {
            Node::Leaf(_) => pid,
            Node::Inner(entries) => first_leaf(engine, entries[0].child, dims),
        }
    }

    #[test]
    fn a_leaf_out_of_page_order_is_a_storage_error_not_a_short_answer() {
        let ds = striped(2, &[150; 8], 5);
        let engine = StorageEngine::in_memory(64);
        let tree = RTree::build(&engine, &ds, BuildStrategy::HilbertPack, 0.7).unwrap();
        tree.check_invariants().unwrap();
        let leaf = first_leaf(&engine, tree.root(), 2);
        assert_ne!(leaf, tree.root());
        crate::node::tests::swap_leaf_entries(
            &mut engine.fetch(leaf).unwrap().write(),
            2,
            0,
            1,
        );

        let err = tree.check_invariants().unwrap_err();
        assert!(matches!(err, Error::Storage(_)), "{err:?}");
        let spec = JoinSpec::l2(8.0 / 64.0);
        let mut sink = VecSink::default();
        let refiner = Refiner::new(&ds, &ds, JoinKind::SelfJoin, &spec, &mut sink);
        let mut traversal = Traversal::new(&engine, &ds, spec.eps, refiner, None);
        let err = traversal
            .self_pairs(tree.root(), tree.height())
            .unwrap_err();
        assert!(matches!(err, Error::Storage(_)), "{err:?}");
    }

    /// Cancels a query at its first result pair.
    struct CancelAtFirstPair(hdsj_core::CancelToken, u64);

    impl PairSink for CancelAtFirstPair {
        fn push(&mut self, _: u32, _: u32) {
            self.0.cancel();
            self.1 += 1;
        }
    }

    #[test]
    fn a_canceled_lifecycle_stops_the_join_inside_a_leaf_pair() {
        let ds = striped(2, &[150; 8], 6);
        // No lifecycle on the engine, and fewer visits than one
        // `POLL_STRIDE`: past the first visit only the tile join polls.
        let engine = StorageEngine::in_memory(64);
        let tree = RTree::build(&engine, &ds, BuildStrategy::HilbertPack, 0.7).unwrap();
        let spec = JoinSpec::l2(8.0 / 64.0);
        let mut all = CountSink::default();
        RsjJoin::default().self_join(&ds, &spec, &mut all).unwrap();

        let lc = LifecycleCtx::unbounded();
        let mut sink = CancelAtFirstPair(lc.cancel_token(), 0);
        let refiner = Refiner::new(&ds, &ds, JoinKind::SelfJoin, &spec, &mut sink);
        let mut traversal = Traversal::new(&engine, &ds, spec.eps, refiner, Some(&lc));
        let err = traversal
            .self_pairs(tree.root(), tree.height())
            .unwrap_err();
        assert!(matches!(err, Error::Canceled(_)), "{err:?}");
        assert!(traversal.node_pairs < POLL_STRIDE);
        drop(traversal);
        assert!(
            0 < sink.1 && sink.1 < all.count,
            "{} of {}",
            sink.1,
            all.count
        );
    }

    #[test]
    fn empty_inputs() {
        let empty = Dataset::new(4).unwrap();
        let some = hdsj_data::uniform(4, 50, 1).unwrap();
        let mut sink = VecSink::default();
        let stats = RsjJoin::default()
            .join(&empty, &some, &JoinSpec::l2(0.2), &mut sink)
            .unwrap();
        assert_eq!(stats.results, 0);
        let stats = RsjJoin::default()
            .self_join(&empty, &JoinSpec::l2(0.2), &mut sink)
            .unwrap();
        assert_eq!(stats.results, 0);
    }

    #[test]
    fn reports_structure_bytes_and_io() {
        let ds = hdsj_data::uniform(8, 2000, 5).unwrap();
        let mut sink = VecSink::default();
        // Tiny pool: the trees cannot stay resident, so the join must do
        // real (counted) page reads.
        let engine = StorageEngine::in_memory(16);
        let mut rsj = RsjJoin::with_engine(engine);
        let stats = rsj.self_join(&ds, &JoinSpec::l2(0.1), &mut sink).unwrap();
        assert!(stats.structure_bytes > 0);
        assert!(stats.io.allocs > 0, "tree pages were allocated");
        assert!(
            stats.io.reads > 0,
            "traversal should fault pages in a 16-frame pool"
        );
        assert!(stats.phase("build").is_some() && stats.phase("join").is_some());
    }

    #[test]
    fn candidate_counts_are_bounded_by_quadratic() {
        let ds = hdsj_data::uniform(4, 400, 77).unwrap();
        let mut sink = VecSink::default();
        let stats = RsjJoin::default()
            .self_join(&ds, &JoinSpec::l2(0.05), &mut sink)
            .unwrap();
        let quad = 400u64 * 399 / 2;
        assert!(
            stats.candidates < quad / 4,
            "filter should prune: {}",
            stats.candidates
        );
        assert_eq!(stats.results as usize, sink.pairs.len());
    }
}
