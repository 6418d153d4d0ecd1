//! # hdsj-ekdb — the ε-KDB tree similarity join
//!
//! The main comparison structure of the paper's evaluation, due to Shim,
//! Srikant and Agrawal (*High-Dimensional Similarity Joins*, ICDE 1997).
//!
//! The ε-KDB tree partitions `[0,1)^d` by **stripes of width ε**: when a
//! leaf overflows, it is split on the next dimension (dimensions are
//! consumed in order 0, 1, 2, … as depth grows) into `⌊1/ε⌋` stripes, the
//! last stripe absorbing the remainder. Because stripes are at least ε wide,
//! two points within L∞ distance ε always land in the *same or adjacent*
//! stripes, so the join only pairs sibling subtrees whose stripe indices
//! differ by at most one — and within leaves, a plane sweep along dimension
//! 0 bounds the candidate set. The candidate side's points are transposed
//! once per join, leaf after leaf, and every leaf pair reads them in place.
//!
//! The structure is excellent when a few dimensions suffice to cut the data
//! down, but its interior fan-out is `⌊1/ε⌋` *per node*, so its memory
//! footprint grows quickly as ε shrinks and as more dimensions get split —
//! the behaviour the paper's memory experiment (E5) contrasts with MSJ's
//! flat level files.
#![forbid(unsafe_code)]

use hdsj_core::obs::PhaseClass;
use hdsj_core::{
    sort_by_coord, Dataset, JoinEnv, JoinKind, JoinRun, JoinSpec, LifecycleCtx, PairSink,
    Refiner, Result, SimilarityJoin, SoABlock, TileJoin,
};

/// Leaf pairs between the traversal's own lifecycle polls (the leaf join
/// polls per tile, but only once it has candidates).
const POLL_STRIDE: u64 = 256;

/// A leaf's `(x0, id)` entries.
type List = [(f64, u32)];

/// One node of the ε-KDB tree.
enum Node {
    /// `(x0, id)` per point, sorted by `x0` after the build: the list the
    /// leaf join sweeps; and the lane of its first point in the tree's
    /// columns, whose lanes are the leaves' points in DFS order.
    Leaf(Vec<(f64, u32)>, usize),
    /// Children indexed by stripe of the split dimension; `None` = empty.
    Inner { children: Vec<Option<Box<Node>>> },
}

/// An ε-KDB tree over one dataset.
struct Tree {
    root: Node,
    /// The leaves' ids in DFS order: what the columns transpose.
    lanes: Vec<u32>,
    rule: SplitRule,
}

/// When a leaf splits, and into what: `⌊1/ε⌋` stripes of the next
/// dimension, at least 1, the last absorbing the remainder so every stripe
/// is at least ε wide.
#[derive(Clone, Copy)]
struct SplitRule {
    stripes: usize,
    eps: f64,
    dims: usize,
    capacity: usize,
}

impl SplitRule {
    fn stripe(&self, x: f64) -> usize {
        ((x / self.eps).floor() as usize).min(self.stripes - 1)
    }

    /// Split when over capacity and a dimension is left. Past depth == dims
    /// the leaf simply grows (the structure has no dimensions left to cut —
    /// the paper's behaviour). Never into ≤ 2 stripes: two are always
    /// adjacent, so every leaf would meet every other — one leaf is SM1D.
    fn splits(&self, len: usize, depth: usize) -> bool {
        len > self.capacity && depth < self.dims && self.stripes > 2
    }

    /// The node at `depth` over `entries`: a leaf, or, when they overfill
    /// one, their stripes of dimension `depth`, each built the same way —
    /// so no child of a split is left over capacity.
    fn node(&self, ds: &Dataset, entries: Vec<(f64, u32)>, depth: usize) -> Node {
        if !self.splits(entries.len(), depth) {
            return Node::Leaf(entries, 0);
        }
        let mut parts = vec![Vec::new(); self.stripes];
        for entry in entries {
            parts[self.stripe(ds.point(entry.1)[depth])].push(entry);
        }
        let children = parts
            .into_iter()
            .map(|part| (!part.is_empty()).then(|| Box::new(self.node(ds, part, depth + 1))))
            .collect();
        Node::Inner { children }
    }
}

impl Tree {
    fn build(ds: &Dataset, eps: f64, leaf_capacity: usize) -> Tree {
        let mut tree = Tree {
            root: Node::Leaf(Vec::new(), 0),
            lanes: Vec::with_capacity(ds.len()),
            rule: SplitRule {
                stripes: ((1.0 / eps).floor() as usize).max(1),
                eps,
                dims: ds.dims(),
                capacity: leaf_capacity.max(2),
            },
        };
        for (i, _) in ds.iter() {
            tree.insert(ds, i);
        }
        tree.sort_leaves();
        tree
    }

    fn insert(&mut self, ds: &Dataset, id: u32) {
        let rule = self.rule;
        let mut node = &mut self.root;
        let mut depth = 0;
        loop {
            match node {
                Node::Inner { children } => {
                    let s = rule.stripe(ds.point(id)[depth]);
                    let child =
                        children[s].get_or_insert_with(|| Box::new(Node::Leaf(Vec::new(), 0)));
                    node = child;
                    depth += 1;
                }
                Node::Leaf(points, _) => {
                    points.push((ds.point(id)[0], id));
                    if rule.splits(points.len(), depth) {
                        *node = rule.node(ds, std::mem::take(points), depth);
                    }
                    return;
                }
            }
        }
    }

    /// Sorts every leaf by dimension 0 so leaf joins can plane-sweep, and
    /// lays the leaves out one after another in DFS order.
    fn sort_leaves(&mut self) {
        fn rec(node: &mut Node, lanes: &mut Vec<u32>) {
            match node {
                Node::Leaf(points, at) => {
                    sort_by_coord(points);
                    *at = lanes.len();
                    lanes.extend(points.iter().map(|p| p.1));
                }
                Node::Inner { children } => {
                    // Per-node fan-out bounded by split arity; the build polls
                    // at its phase boundary.
                    for c in children.iter_mut().flatten() {
                        rec(c, lanes);
                    }
                }
            }
        }
        rec(&mut self.root, &mut self.lanes);
    }

    /// Structure-resident bytes: the quantity experiment E5 reports. Interior
    /// nodes pay for their full `⌊1/ε⌋`-slot child array — that is exactly
    /// the ε-KDB memory behaviour under study. A leaf entry is charged its
    /// packed 12 bytes, as MSJ charges its open cells' lists.
    fn bytes(&self) -> u64 {
        fn rec(node: &Node) -> u64 {
            match node {
                Node::Leaf(points, _) => 32 + points.len() as u64 * 12,
                Node::Inner { children } => {
                    32 + children.len() as u64 * 8
                        + children.iter().flatten().map(|c| rec(c)).sum::<u64>()
                }
            }
        }
        rec(&self.root)
    }
}

/// ε-KDB tree join.
#[derive(Clone, Debug)]
pub struct EkdbJoin {
    /// Points a leaf may hold before it splits (it never does at ⌊1/ε⌋ ≤ 2).
    /// The default, 256, is the break-even of the sweep in `tbl_ablation`
    /// (DESIGN §3.3): a leaf pair costs ~150 ns to reach and call before
    /// its first candidate, a candidate ~1.3 ns, so a smaller leaf pays
    /// only where its split removes ~100 candidates per leaf pair it adds.
    pub leaf_capacity: usize,
    /// Tracer and lifecycle context (polled every `POLL_STRIDE` leaf
    /// pairs and by the leaf join per tile); the thread count is ignored.
    pub env: JoinEnv,
}

impl Default for EkdbJoin {
    fn default() -> EkdbJoin {
        EkdbJoin {
            leaf_capacity: 256,
            env: JoinEnv::default(),
        }
    }
}

/// What the traversal does with a pair of leaves: `xs × ys`, `ys` from
/// lane `at` of the candidate tree's columns on, or with `within` the
/// unordered pairs of one leaf (`xs` and `ys` the same list).
trait LeafJoin {
    fn leaf_pair(&mut self, xs: &List, ys: &List, at: usize, within: bool) -> Result<()>;
}

/// Leaf pairs go through the shared tile-major join into the refiner,
/// reading the candidate leaf from the columns in place.
struct TiledLeaves<'a> {
    join: TileJoin<'a>,
    columns: &'a SoABlock,
    refiner: Refiner<'a>,
    lifecycle: Option<&'a LifecycleCtx>,
    /// Leaf pairs (a leaf with itself included) handed to the join.
    leaf_pairs: u64,
}

impl LeafJoin for TiledLeaves<'_> {
    /// Polls the lifecycle context every [`POLL_STRIDE`] leaf pairs so a
    /// traversal that finds no candidates still stops.
    fn leaf_pair(&mut self, xs: &List, ys: &List, at: usize, within: bool) -> Result<()> {
        if self.leaf_pairs.is_multiple_of(POLL_STRIDE) {
            if let Some(lc) = self.lifecycle {
                lc.poll()?;
            }
        }
        self.leaf_pairs += 1;
        self.join
            .run_resident(xs, ys, within, self.columns, at, &mut self.refiner)
    }
}

/// The simultaneous traversal: a self-join of `a`, or `a × b`.
fn traverse<L: LeafJoin>(a: &Tree, b: Option<&Tree>, leaves: &mut L) -> Result<()> {
    match b {
        None => pair_self(&a.root, leaves),
        Some(b) => pair_cross(&a.root, &b.root, leaves),
    }
}

/// Enumerates unordered pairs within subtree `node`.
fn pair_self<L: LeafJoin>(node: &Node, leaves: &mut L) -> Result<()> {
    match node {
        Node::Leaf(points, at) => leaves.leaf_pair(points, points, *at, true)?,
        Node::Inner { children } => {
            for i in 0..children.len() {
                if let Some(ci) = &children[i] {
                    pair_self(ci, leaves)?;
                    if let Some(cj) = children.get(i + 1).and_then(|c| c.as_ref()) {
                        pair_cross(ci, cj, leaves)?;
                    }
                }
            }
        }
    }
    Ok(())
}

/// Enumerates pairs of two distinct subtrees: an A-subtree and a B-subtree,
/// or two *sibling* subtrees of a self-join (both index the same dataset).
// Indexed loops express the |i - j| <= 1 stripe adjacency directly.
#[allow(clippy::needless_range_loop)]
fn pair_cross<L: LeafJoin>(x: &Node, y: &Node, leaves: &mut L) -> Result<()> {
    match (x, y) {
        (Node::Leaf(px, _), Node::Leaf(py, at)) => leaves.leaf_pair(px, py, *at, false)?,
        (Node::Inner { children }, leaf @ Node::Leaf(..)) => {
            for c in children.iter().flatten() {
                pair_cross(c, leaf, leaves)?;
            }
        }
        (leaf @ Node::Leaf(..), Node::Inner { children }) => {
            for c in children.iter().flatten() {
                pair_cross(leaf, c, leaves)?;
            }
        }
        (Node::Inner { children: cx }, Node::Inner { children: cy }) => {
            for i in 0..cx.len() {
                if let Some(ci) = &cx[i] {
                    for j in i.saturating_sub(1)..=(i + 1).min(cy.len() - 1) {
                        if let Some(cj) = &cy[j] {
                            pair_cross(ci, cj, leaves)?;
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

impl SimilarityJoin for EkdbJoin {
    fn name(&self) -> &'static str {
        "EKDB"
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
        let (tree_a, tree_b, columns) = run.phase("build", PhaseClass::Cpu, |run| {
            let tree_a = Tree::build(a, spec.eps, self.leaf_capacity);
            let tree_b = match kind {
                JoinKind::SelfJoin => None,
                JoinKind::TwoSets => Some(Tree::build(b, spec.eps, self.leaf_capacity)),
            };
            // Every candidate transposed once: a leaf is the lanes from its offset on.
            let mut columns = SoABlock::empty(b.dims());
            columns.gather_into(b, &tree_b.as_ref().unwrap_or(&tree_a).lanes);
            let trees = tree_a.bytes() + tree_b.as_ref().map_or(0, Tree::bytes);
            run.structure_bytes(trees + columns.bytes());
            Ok((tree_a, tree_b, columns))
        })?;

        run.phase("join", PhaseClass::Cpu, |run| {
            let mut leaves = TiledLeaves {
                join: TileJoin::new(b, spec.eps, run.lifecycle()),
                columns: &columns,
                refiner: Refiner::new(a, b, kind, spec, sink),
                lifecycle: run.lifecycle(),
                leaf_pairs: 0,
            };
            let traversed = traverse(&tree_a, tree_b.as_ref(), &mut leaves);
            run.refined(leaves.refiner.counters());
            let mut tally = leaves.join.tally();
            tally.lanes_gathered = columns.len() as u64;
            run.tally(tally);
            run.count("leaf_pairs", leaves.leaf_pairs);
            traversed
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdsj_bruteforce::BruteForce;
    use hdsj_core::simd::tile::soa_tile_width;
    use hdsj_core::{verify, CountSink, Metric, VecSink};
    use hdsj_sortmerge::SortMergeJoin;
    use proptest::prelude::*;

    fn compare_with_bf(a: &Dataset, b: Option<&Dataset>, spec: &JoinSpec, ekdb: &mut EkdbJoin) {
        let mut want = VecSink::default();
        let mut got = VecSink::default();
        let mut bf = BruteForce::default();
        match b {
            None => {
                bf.self_join(a, spec, &mut want).unwrap();
                ekdb.self_join(a, spec, &mut got).unwrap();
            }
            Some(b) => {
                bf.join(a, b, spec, &mut want).unwrap();
                ekdb.join(a, b, spec, &mut got).unwrap();
            }
        }
        verify::assert_same_results("EKDB", &want.pairs, &got.pairs);
    }

    /// The pre-tile leaf sweeps, kept as the reference: every candidate
    /// goes through `Refiner::offer`, one scattered row pair at a time.
    struct PairwiseLeaves<'a> {
        eps: f64,
        refiner: Refiner<'a>,
    }

    impl LeafJoin for PairwiseLeaves<'_> {
        fn leaf_pair(&mut self, xs: &List, ys: &List, _: usize, within: bool) -> Result<()> {
            let mut start = 0usize;
            for (idx, &(x0, i)) in xs.iter().enumerate() {
                if within {
                    start = idx + 1;
                }
                while !within && start < ys.len() && ys[start].0 < x0 - self.eps {
                    start += 1;
                }
                for &(y0, j) in &ys[start..] {
                    if y0 - x0 > self.eps {
                        break;
                    }
                    self.refiner.offer(i, j);
                }
            }
            Ok(())
        }
    }

    /// The boundary input joined at ε = 8/64 (see the generator).
    fn striped(dims: usize, sizes: &[usize], seed: u64) -> Dataset {
        hdsj_data::lattice_stripes(dims, sizes, seed).unwrap()
    }

    /// What the join's traversal emits and counts with tiled leaf joins
    /// over resident columns (`tiled`) or the pairwise reference, through
    /// a refiner on `spec`.
    fn refined(
        a: &Dataset,
        b: Option<&Dataset>,
        eps: f64,
        cap: usize,
        spec: &JoinSpec,
        tiled: bool,
    ) -> (Vec<(u32, u32)>, (u64, u64, u64)) {
        let tree_a = Tree::build(a, eps, cap);
        let tree_b = b.map(|b| Tree::build(b, eps, cap));
        let kind = if b.is_some() {
            JoinKind::TwoSets
        } else {
            JoinKind::SelfJoin
        };
        let b = b.unwrap_or(a);
        let mut columns = SoABlock::empty(b.dims());
        columns.gather_into(b, &tree_b.as_ref().unwrap_or(&tree_a).lanes);
        let mut sink = VecSink::default();
        let refiner = Refiner::new(a, b, kind, spec, &mut sink);
        let counters = if tiled {
            let mut leaves = TiledLeaves {
                join: TileJoin::new(b, eps, None),
                columns: &columns,
                refiner,
                lifecycle: None,
                leaf_pairs: 0,
            };
            traverse(&tree_a, tree_b.as_ref(), &mut leaves).unwrap();
            leaves.refiner.counters()
        } else {
            let mut leaves = PairwiseLeaves { eps, refiner };
            traverse(&tree_a, tree_b.as_ref(), &mut leaves).unwrap();
            leaves.refiner.counters()
        };
        sink.pairs.sort_unstable();
        (sink.pairs, counters)
    }

    /// Tiled and pairwise leaf joins must agree on the candidate multiset
    /// (what an accept-everything refiner emits) and, under the real
    /// metric, on the result pairs and the refiner's counters.
    fn check_leaf_joins(a: &Dataset, b: Option<&Dataset>, cap: usize) {
        let eps = 8.0 / 64.0;
        for spec in [JoinSpec::new(1e9, Metric::Linf), JoinSpec::l2(eps)] {
            let tiled = refined(a, b, eps, cap, &spec, true);
            let pairwise = refined(a, b, eps, cap, &spec, false);
            assert_eq!(tiled.1, pairwise.1, "counters, cap={cap} {spec:?}");
            assert!(tiled.0 == pairwise.0, "pairs, cap={cap} {spec:?}");
        }
    }

    /// Leaf sizes around the tile width of `dims`-d points on this host.
    fn leaf_size(dims: usize, code: usize) -> usize {
        let w = soa_tile_width(dims);
        [0, 1, 2, w - 1, w + 1, 2 * w + 3, 5, w][code]
    }

    #[test]
    fn tiled_leaf_joins_match_the_pairwise_sweep_at_every_leaf_size() {
        let dims = 32;
        let sizes: Vec<usize> = (1..8).map(|code| leaf_size(dims, code)).collect();
        let reversed: Vec<usize> = sizes.iter().rev().copied().collect();
        let (a, b) = (striped(dims, &sizes, 1), striped(dims, &reversed, 2));
        // One leaf per stripe (the root splits once), one leaf per tree,
        // and leaves split through every dimension.
        for cap in [2 * soa_tile_width(dims) + 3, usize::MAX, 4] {
            check_leaf_joins(&a, None, cap);
            check_leaf_joins(&a, Some(&b), cap);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn tiled_leaf_joins_match_the_pairwise_sweep(
            codes_a in proptest::collection::vec(0usize..8, 1..8),
            codes_b in proptest::collection::vec(0usize..8, 1..8),
            dims in prop_oneof![Just(2usize), Just(16), Just(64)],
            cap in prop_oneof![Just(4usize), Just(64), Just(usize::MAX)],
            seed in 0u64..1000,
        ) {
            // Few lanes per tile at d = 64, many at d = 2: cap the widest.
            let size = |&code: &usize| leaf_size(dims, code).min(150);
            let a = striped(dims, &codes_a.iter().map(size).collect::<Vec<_>>(), seed);
            let b = striped(dims, &codes_b.iter().map(size).collect::<Vec<_>>(), seed + 1);
            if a.is_empty() || b.is_empty() {
                return Ok(());
            }
            check_leaf_joins(&a, None, cap);
            check_leaf_joins(&a, Some(&b), cap);
        }
    }

    #[test]
    fn matches_brute_force_on_uniform_self_join() {
        for (dims, eps) in [(2usize, 0.05), (4, 0.2), (8, 0.3), (16, 0.5)] {
            let ds = hdsj_data::uniform(dims, 400, dims as u64 + 100).unwrap();
            compare_with_bf(
                &ds,
                None,
                &JoinSpec::new(eps, Metric::L2),
                &mut EkdbJoin::default(),
            );
        }
    }

    #[test]
    fn matches_brute_force_on_two_set_join() {
        let a = hdsj_data::uniform(5, 350, 31).unwrap();
        let b = hdsj_data::uniform(5, 280, 32).unwrap();
        for metric in [Metric::L1, Metric::L2, Metric::Linf] {
            compare_with_bf(
                &a,
                Some(&b),
                &JoinSpec::new(0.22, metric),
                &mut EkdbJoin::default(),
            );
        }
    }

    #[test]
    fn matches_brute_force_with_tiny_leaves() {
        // Tiny leaf capacity forces deep splitting through many dimensions.
        let ds = hdsj_data::uniform(6, 300, 77).unwrap();
        let mut ekdb = EkdbJoin {
            leaf_capacity: 2,
            ..Default::default()
        };
        compare_with_bf(&ds, None, &JoinSpec::new(0.3, Metric::L2), &mut ekdb);
    }

    #[test]
    fn matches_brute_force_on_clustered_data() {
        let ds = hdsj_data::gaussian_clusters(
            4,
            600,
            hdsj_data::ClusterSpec {
                clusters: 6,
                sigma: 0.02,
                ..Default::default()
            },
            5,
        )
        .unwrap();
        compare_with_bf(
            &ds,
            None,
            &JoinSpec::new(0.04, Metric::L2),
            &mut EkdbJoin::default(),
        );
    }

    #[test]
    fn matches_brute_force_on_correlated_data() {
        let ds = hdsj_data::correlated(8, 400, 0.05, 3).unwrap();
        compare_with_bf(
            &ds,
            None,
            &JoinSpec::new(0.1, Metric::L2),
            &mut EkdbJoin::default(),
        );
    }

    #[test]
    fn stripe_boundary_points_survive() {
        // Points exactly on stripe boundaries and in the remainder stripe.
        let eps = 0.3; // stripes: [0,.3) [.3,.6) [.6,1) — last absorbs 0.1
        let ds = Dataset::from_rows(&[
            vec![0.3, 0.5],
            vec![0.299, 0.5],
            vec![0.6, 0.5],
            vec![0.899, 0.5],
            vec![0.95, 0.5],
        ])
        .unwrap();
        let mut ekdb = EkdbJoin {
            leaf_capacity: 2,
            ..Default::default()
        };
        compare_with_bf(&ds, None, &JoinSpec::new(eps, Metric::Linf), &mut ekdb);
    }

    #[test]
    fn duplicate_points_are_handled() {
        let mut rows = vec![vec![0.5, 0.5, 0.5]; 50];
        rows.push(vec![0.51, 0.5, 0.5]);
        let ds = Dataset::from_rows(&rows).unwrap();
        let mut ekdb = EkdbJoin {
            leaf_capacity: 4,
            ..Default::default()
        };
        compare_with_bf(&ds, None, &JoinSpec::new(0.05, Metric::L2), &mut ekdb);
    }

    #[test]
    fn memory_grows_as_eps_shrinks() {
        // The ε-KDB signature: interior fan-out is ⌊1/ε⌋, so the tree's
        // memory explodes as ε shrinks — here on top of a fixed 12 bytes
        // per point of leaf entries, 24 000 of the ε = 0.2 tree's 41 200.
        // (The join's columns, a constant n·d·8 on top, are left out.)
        let ds = hdsj_data::uniform(4, 2000, 8).unwrap();
        let bytes = |eps: f64| Tree::build(&ds, eps, 16).bytes();
        assert!(
            bytes(0.01) > 3 * bytes(0.2),
            "{} vs {}",
            bytes(0.01),
            bytes(0.2)
        );
    }

    #[test]
    fn structure_bytes_charge_the_trees_and_the_candidate_columns() {
        let (a, b) = (
            hdsj_data::uniform(4, 700, 8).unwrap(),
            hdsj_data::uniform(4, 300, 9).unwrap(),
        );
        let spec = JoinSpec::l2(0.1);
        let capacity = EkdbJoin::default().leaf_capacity;
        let tree = |ds: &Dataset| Tree::build(ds, spec.eps, capacity).bytes();
        // n·d·8 of columns padded to 8 lanes, n·d·4 of their f32 copy
        // padded to 16, plus n ids.
        let columns = |ds: &Dataset| {
            let n = ds.len();
            (n.next_multiple_of(8) * 4 * 8 + n.next_multiple_of(16) * 4 * 4 + n * 4) as u64
        };
        let mut sink = VecSink::default();
        let mut ekdb = EkdbJoin::default();
        let stats = ekdb.self_join(&a, &spec, &mut sink).unwrap();
        assert_eq!(stats.structure_bytes, tree(&a) + columns(&a));
        let stats = ekdb.join(&a, &b, &spec, &mut sink).unwrap();
        assert_eq!(stats.structure_bytes, tree(&a) + tree(&b) + columns(&b));
    }

    #[test]
    fn two_stripes_or_fewer_build_one_leaf_and_join_as_sm1d() {
        let a = hdsj_data::uniform(4, 300, 41).unwrap();
        let b = hdsj_data::uniform(4, 250, 42).unwrap();
        // Leaves small enough that 300 and 250 points split at all.
        let leaf_capacity = 64;
        // ε on both sides of ⌊1/ε⌋ = 3, and whether the tree splits.
        let cases = [
            (0.25, true),
            (0.3, true),
            (1.0 / 3.0, true),
            (0.34, false),
            (0.5, false),
            (1.0, false),
            (2.0, false),
        ];
        for (eps, splits) in cases {
            for metric in [Metric::L1, Metric::L2, Metric::Linf] {
                let spec = JoinSpec::new(eps, metric);
                let label = format!("eps={eps} {metric:?}");
                for b in [None, Some(&b)] {
                    let mut ekdb = EkdbJoin {
                        leaf_capacity,
                        ..Default::default()
                    };
                    compare_with_bf(&a, b, &spec, &mut ekdb);
                    let mut sink = CountSink::default();
                    let mut sm1d = SortMergeJoin::on_dimension(0);
                    let (stats, sm1d) = match b {
                        None => (
                            ekdb.self_join(&a, &spec, &mut sink).unwrap(),
                            sm1d.self_join(&a, &spec, &mut sink).unwrap(),
                        ),
                        Some(b) => (
                            ekdb.join(&a, b, &spec, &mut sink).unwrap(),
                            sm1d.join(&a, b, &spec, &mut sink).unwrap(),
                        ),
                    };
                    let leaf_pairs = stats.counter("leaf_pairs").unwrap();
                    assert_eq!(leaf_pairs > 1, splits, "{label}: {leaf_pairs} leaf pairs");
                    if !splits {
                        // One sorted list, SM1D's dim-0 window pairs (on
                        // `uniform_d16`: 23 833 854 for both).
                        assert_eq!(leaf_pairs, 1, "{label}");
                        assert_eq!(stats.candidates, sm1d.candidates, "{label}");
                    }
                }
            }
        }
    }

    /// `(entries, depth)` of every leaf under `node`, at `depth`.
    fn leaves(node: &Node, depth: usize, out: &mut Vec<(usize, usize)>) {
        match node {
            Node::Leaf(points, _) => out.push((points.len(), depth)),
            Node::Inner { children } => {
                for c in children.iter().flatten() {
                    leaves(c, depth + 1, out);
                }
            }
        }
    }

    #[test]
    fn no_leaf_holds_more_than_capacity_while_it_can_split() {
        let fourier = hdsj_data::timeseries::fourier_dataset(64, 400, 128, 1).unwrap();
        let mut rows = vec![vec![0.5, 0.5, 0.5]; 20];
        rows.push(vec![0.51, 0.5, 0.5]);
        let dupes = Dataset::from_rows(&rows).unwrap();
        let uniform = hdsj_data::uniform(4, 3000, 5).unwrap();
        let cases = [
            (&fourier, 0.07, 2),
            (&fourier, 0.07, 16),
            (&uniform, 0.04, 2),
            (&uniform, 0.1, 16),
            (&dupes, 0.05, 4),
        ];
        for (ds, eps, cap) in cases {
            let tree = Tree::build(ds, eps, cap);
            let mut found = Vec::new();
            leaves(&tree.root, 0, &mut found);
            assert_eq!(found.iter().map(|l| l.0).sum::<usize>(), ds.len());
            for (len, depth) in found {
                assert!(
                    len <= cap || depth == ds.dims(),
                    "d={} eps={eps} cap={cap}: {len} points at depth {depth}",
                    ds.dims()
                );
            }
        }
        // ⌊1/ε⌋ ≤ 2: one leaf of every point, whatever the capacity.
        let tree = Tree::build(&fourier, 0.4, 2);
        assert!(matches!(tree.root, Node::Leaf(ref points, _) if points.len() == 400));
    }

    /// The default leaf keeps ε-KDB out of the traversal-bound regime on
    /// the benchmark's `lowdim_d4` shape: at ~150 ns per leaf pair and
    /// ~1.3 ns per candidate, ≥ 1 000 candidates per leaf pair keep the
    /// per-pair cost near a tenth of the join. At capacity 64 this input
    /// gets ~3-point leaves and ~9.5 candidates per leaf pair.
    #[test]
    fn default_leaves_pay_for_their_leaf_pairs() {
        let ds = hdsj_data::uniform(4, 50_000, 1).unwrap();
        let stats = EkdbJoin::default()
            .self_join(&ds, &JoinSpec::l2(0.04), &mut CountSink::default())
            .unwrap();
        let leaf_pairs = stats.counter("leaf_pairs").unwrap();
        assert!(
            stats.candidates >= 1_000 * leaf_pairs,
            "{} candidates over {leaf_pairs} leaf pairs",
            stats.candidates
        );
    }

    #[test]
    fn reports_phases() {
        let ds = hdsj_data::uniform(3, 100, 2).unwrap();
        let mut sink = VecSink::default();
        let stats = EkdbJoin::default()
            .self_join(&ds, &JoinSpec::l2(0.2), &mut sink)
            .unwrap();
        assert!(stats.phase("build").is_some());
        assert!(stats.phase("join").is_some());
    }
}
