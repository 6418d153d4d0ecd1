//! The R-tree handle: construction dispatch, queries, and invariant checks.

use crate::build::{self, BuildStrategy, DynamicTree};
use crate::node::{leaf_capacity, load_leaf_run, Node};
use hdsj_core::{Dataset, Error, Rect, Result};
use hdsj_storage::{PageId, StorageEngine, PAGE_SIZE};

/// A disk-resident R-tree over one dataset.
pub struct RTree {
    engine: StorageEngine,
    root: PageId,
    height: u32,
    dims: usize,
    len: u64,
    pages: u64,
}

impl RTree {
    /// Builds a tree over `ds` with the given strategy and packing fill
    /// factor (ignored by [`BuildStrategy::DynamicInsert`]).
    pub fn build(
        engine: &StorageEngine,
        ds: &Dataset,
        strategy: BuildStrategy,
        fill: f64,
    ) -> Result<RTree> {
        let pages_before = engine.pool().num_pages();
        let dims = ds.dims();
        let (root, height) = match strategy {
            BuildStrategy::HilbertPack => {
                let order = build::hilbert_order(ds);
                build::pack(engine, ds, &order, fill)?
            }
            BuildStrategy::Str => {
                let leaf_fill = ((leaf_capacity(dims) as f64 * fill) as usize)
                    .clamp(2, leaf_capacity(dims));
                let order = build::str_order(ds, leaf_fill);
                build::pack(engine, ds, &order, fill)?
            }
            BuildStrategy::DynamicInsert => {
                let mut dyn_tree = DynamicTree::new(engine, dims)?;
                for (i, p) in ds.iter() {
                    dyn_tree.insert(i, p)?;
                }
                dyn_tree.finish()
            }
        };
        let pages = engine.pool().num_pages() - pages_before;
        Ok(RTree {
            engine: engine.clone(),
            root,
            height,
            dims,
            len: ds.len() as u64,
            pages,
        })
    }

    /// Root page id.
    pub fn root(&self) -> PageId {
        self.root
    }

    /// Tree height in levels (1 = the root is a leaf).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Number of indexed points.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the tree indexes no points.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pages occupied by the tree.
    pub fn num_pages(&self) -> u64 {
        self.pages
    }

    /// Structure-resident bytes (pages × page size), the E5 metric.
    pub fn structure_bytes(&self) -> u64 {
        self.pages * PAGE_SIZE as u64
    }

    /// Verifies the structural invariants, returning the number of points
    /// found. Used by the test suites.
    ///
    /// * every child's MBR is contained in its parent entry's MBR;
    /// * all leaves sit at the same depth (`height`);
    /// * every leaf's entries ascend in (dimension 0, id), the order the
    ///   join reads them in;
    /// * every indexed id appears exactly once.
    pub fn check_invariants(&self) -> Result<u64> {
        let mut seen = std::collections::HashSet::new();
        let count = self.check_node(self.root, None, self.height, &mut seen)?;
        if count != self.len {
            return Err(Error::Storage(format!(
                "tree claims {} points but holds {count}",
                self.len
            )));
        }
        Ok(count)
    }

    fn check_node(
        &self,
        pid: PageId,
        parent_mbr: Option<&Rect>,
        levels_left: u32,
        seen: &mut std::collections::HashSet<u32>,
    ) -> Result<u64> {
        let node = Node::load(&self.engine, pid, self.dims)?;
        match node {
            Node::Leaf(entries) => {
                if levels_left != 1 {
                    return Err(Error::Storage(format!(
                        "leaf at wrong depth ({levels_left} levels left)"
                    )));
                }
                load_leaf_run(&self.engine, pid, self.dims, &mut Vec::new())?;
                for e in &entries {
                    if let Some(p) = parent_mbr {
                        if !p.contains_point(&e.coords) {
                            return Err(Error::Storage(format!(
                                "point {} escapes its parent MBR",
                                e.id
                            )));
                        }
                    }
                    if !seen.insert(e.id) {
                        return Err(Error::Storage(format!("duplicate point id {}", e.id)));
                    }
                }
                Ok(entries.len() as u64)
            }
            Node::Inner(entries) => {
                if levels_left <= 1 {
                    return Err(Error::Storage("inner node at leaf depth".into()));
                }
                if entries.is_empty() {
                    return Err(Error::Storage("empty inner node".into()));
                }
                let mut total = 0;
                for e in &entries {
                    if let Some(p) = parent_mbr {
                        if !p.contains_rect(&e.mbr) {
                            return Err(Error::Storage("child MBR escapes parent".into()));
                        }
                    }
                    total += self.check_node(e.child, Some(&e.mbr), levels_left - 1, seen)?;
                }
                Ok(total)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> StorageEngine {
        StorageEngine::in_memory(512)
    }

    fn strategies() -> [BuildStrategy; 3] {
        [
            BuildStrategy::HilbertPack,
            BuildStrategy::Str,
            BuildStrategy::DynamicInsert,
        ]
    }

    #[test]
    fn all_strategies_build_valid_trees() {
        let ds = hdsj_data::uniform(4, 1500, 42).unwrap();
        for strategy in strategies() {
            let eng = engine();
            let tree = RTree::build(&eng, &ds, strategy, 0.7).unwrap();
            assert_eq!(tree.check_invariants().unwrap(), 1500, "{strategy:?}");
            assert!(
                tree.height() >= 2,
                "{strategy:?} must be more than a root leaf"
            );
            assert!(tree.num_pages() > 0);
            assert_eq!(tree.structure_bytes(), tree.num_pages() * PAGE_SIZE as u64);
        }
    }

    #[test]
    fn empty_and_tiny_datasets() {
        for strategy in strategies() {
            let eng = engine();
            let empty = Dataset::new(3).unwrap();
            let tree = RTree::build(&eng, &empty, strategy, 0.7).unwrap();
            assert_eq!(tree.check_invariants().unwrap(), 0);
            assert_eq!(tree.height(), 1);

            let one = Dataset::from_rows(&[vec![0.5, 0.5, 0.5]]).unwrap();
            let tree = RTree::build(&eng, &one, strategy, 0.7).unwrap();
            assert_eq!(tree.check_invariants().unwrap(), 1);
        }
    }

    #[test]
    fn high_dimensional_trees_still_work() {
        // d=64: single-digit fan-out, deep tree — the stress case.
        let ds = hdsj_data::uniform(64, 300, 9).unwrap();
        for strategy in strategies() {
            let eng = engine();
            let tree = RTree::build(&eng, &ds, strategy, 0.9).unwrap();
            assert_eq!(tree.check_invariants().unwrap(), 300, "{strategy:?}");
        }
    }

    #[test]
    fn dynamic_inserts_in_adversarial_order() {
        // Sorted input is the classic worst case for dynamic R-trees.
        let mut rows: Vec<Vec<f64>> = (0..600)
            .map(|i| vec![i as f64 / 600.0, (i % 7) as f64 / 7.0])
            .collect();
        rows.reverse();
        let ds = Dataset::from_rows(&rows).unwrap();
        let eng = engine();
        let tree = RTree::build(&eng, &ds, BuildStrategy::DynamicInsert, 0.7).unwrap();
        assert_eq!(tree.check_invariants().unwrap(), 600);
    }

    #[test]
    fn packed_trees_use_fewer_pages_than_dynamic() {
        let ds = hdsj_data::uniform(8, 2000, 13).unwrap();
        let eng1 = engine();
        let packed = RTree::build(&eng1, &ds, BuildStrategy::HilbertPack, 0.9).unwrap();
        let eng2 = engine();
        let dynamic = RTree::build(&eng2, &ds, BuildStrategy::DynamicInsert, 0.9).unwrap();
        assert!(
            packed.num_pages() < dynamic.num_pages(),
            "packed {} vs dynamic {}",
            packed.num_pages(),
            dynamic.num_pages()
        );
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use proptest::prelude::*;

    fn dataset(max_points: usize) -> impl Strategy<Value = Dataset> {
        (1usize..=6, 0usize..max_points).prop_flat_map(|(dims, n)| {
            proptest::collection::vec(proptest::collection::vec(0.0f64..1.0, dims), n..=n)
                .prop_map(move |rows| {
                    if rows.is_empty() {
                        Dataset::new(dims).unwrap()
                    } else {
                        Dataset::from_rows(&rows).unwrap()
                    }
                })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn random_trees_satisfy_invariants(
            ds in dataset(300),
            strategy_pick in 0usize..3,
            fill in 0.3f64..1.0,
        ) {
            let strategy = [
                BuildStrategy::HilbertPack,
                BuildStrategy::Str,
                BuildStrategy::DynamicInsert,
            ][strategy_pick];
            let eng = StorageEngine::in_memory(1024);
            let tree = RTree::build(&eng, &ds, strategy, fill).unwrap();
            prop_assert_eq!(tree.check_invariants().unwrap(), ds.len() as u64);
        }
    }
}
