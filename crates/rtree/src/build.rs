//! R-tree construction: Hilbert packing, generalized STR, and dynamic
//! inserts with quadratic splits.

use crate::node::{inner_capacity, leaf_capacity, InnerEntry, LeafEntry, Node};
use hdsj_core::{Dataset, Error, Rect, Result};
use hdsj_sfc::{grid, BitKey, Curve, KeyWriter};
use hdsj_storage::{PageId, StorageEngine};

/// How an R-tree is built.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BuildStrategy {
    /// Sort points by Hilbert value, pack leaves and upper levels in order
    /// (the default; best build time and good node quality).
    HilbertPack,
    /// Generalized Sort-Tile-Recursive packing.
    Str,
    /// One-at-a-time inserts with minimum-enlargement descent and Guttman
    /// quadratic splits — the classic dynamic R-tree.
    DynamicInsert,
}

/// Bits per dimension of the Hilbert keys used for ordering.
const ORDER_BITS: u32 = 16;

/// Resolution-ordering of `ds` along the Hilbert curve.
pub fn hilbert_order(ds: &Dataset) -> Vec<u32> {
    let dims = ds.dims();
    let key_len = BitKey::byte_len(dims as u32 * ORDER_BITS);
    let mut writer = KeyWriter::new(Curve::Hilbert, dims);
    let mut cell = vec![0u32; dims];
    let mut keys = vec![0u8; ds.len() * key_len];
    for ((_, p), key) in ds.iter().zip(keys.chunks_exact_mut(key_len)) {
        grid::quantize_point(p, ORDER_BITS, &mut cell);
        writer.write(&cell, ORDER_BITS, key);
    }
    // Equal-width big-endian keys: byte order is key order.
    let key = |i: u32| &keys[i as usize * key_len..][..key_len];
    let mut order: Vec<u32> = (0..ds.len() as u32).collect();
    order.sort_unstable_by(|&a, &b| key(a).cmp(key(b)).then(a.cmp(&b)));
    order
}

/// Generalized Sort-Tile-Recursive ordering: recursively sorts on each
/// dimension and tiles into equal slabs so the final chunks of `leaf_fill`
/// points become spatially compact leaves.
pub fn str_order(ds: &Dataset, leaf_fill: usize) -> Vec<u32> {
    let mut ids: Vec<u32> = (0..ds.len() as u32).collect();
    let dims = ds.dims();
    fn rec(ds: &Dataset, ids: &mut [u32], dim: usize, dims: usize, leaf_fill: usize) {
        if ids.len() <= leaf_fill || dim >= dims {
            return;
        }
        ids.sort_unstable_by(|&a, &b| {
            ds.point(a)[dim]
                .total_cmp(&ds.point(b)[dim])
                .then(a.cmp(&b))
        });
        let leaves_needed = ids.len().div_ceil(leaf_fill);
        let remaining = (dims - dim) as f64;
        let slabs = (leaves_needed as f64).powf(1.0 / remaining).ceil() as usize;
        let slab_size = ids.len().div_ceil(slabs.max(1));
        // STR bulk-load partitioning runs before the query lifecycle; slabs
        // form the tile grid, not data.
        for chunk in ids.chunks_mut(slab_size.max(1)) {
            rec(ds, chunk, dim + 1, dims, leaf_fill);
        }
    }
    rec(ds, &mut ids, 0, dims, leaf_fill);
    ids
}

/// Packs a tree bottom-up from a precomputed point order. Returns
/// `(root page, height)`.
pub fn pack(
    engine: &StorageEngine,
    ds: &Dataset,
    order: &[u32],
    fill: f64,
) -> Result<(PageId, u32)> {
    let dims = ds.dims();
    let leaf_fill = fill_count(leaf_capacity(dims), fill, dims)?;
    let inner_fill = fill_count(inner_capacity(dims), fill, dims)?;

    // Leaf level.
    let mut level: Vec<(PageId, Rect)> = Vec::new();
    if order.is_empty() {
        // Degenerate tree: a single empty leaf as root.
        let page = engine.alloc()?;
        Node::Leaf(Vec::new()).write_to(&mut page.write(), dims)?;
        return Ok((page.id(), 1));
    }
    for chunk in order.chunks(leaf_fill) {
        let entries: Vec<LeafEntry> = chunk
            .iter()
            .map(|&i| LeafEntry {
                id: i,
                coords: ds.point(i).to_vec(),
            })
            .collect();
        let node = Node::Leaf(entries);
        let mbr = node.mbr(dims);
        let page = engine.alloc()?;
        node.write_to(&mut page.write(), dims)?;
        level.push((page.id(), mbr));
    }

    // Upper levels.
    let mut height = 1;
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(inner_fill));
        for chunk in level.chunks(inner_fill) {
            let entries: Vec<InnerEntry> = chunk
                .iter()
                .map(|(pid, mbr)| InnerEntry {
                    child: *pid,
                    mbr: mbr.clone(),
                })
                .collect();
            let node = Node::Inner(entries);
            let mbr = node.mbr(dims);
            let page = engine.alloc()?;
            node.write_to(&mut page.write(), dims)?;
            next.push((page.id(), mbr));
        }
        level = next;
        height += 1;
    }
    Ok((level[0].0, height))
}

fn fill_count(cap: usize, fill: f64, dims: usize) -> Result<usize> {
    if cap < 2 {
        return Err(Error::Unsupported(format!(
            "R-tree nodes cannot hold 2 entries at d={dims} with 8 KiB pages"
        )));
    }
    if !(0.0..=1.0).contains(&fill) {
        return Err(Error::InvalidInput(format!(
            "fill factor {fill} not in (0, 1]"
        )));
    }
    Ok(((cap as f64 * fill) as usize).clamp(2, cap))
}

// ---------------------------------------------------------------------------
// Dynamic inserts (Guttman).
// ---------------------------------------------------------------------------

/// Mutable build state for dynamic inserts.
pub struct DynamicTree {
    engine: StorageEngine,
    dims: usize,
    root: PageId,
    height: u32,
}

impl DynamicTree {
    /// An empty tree (single empty leaf).
    pub fn new(engine: &StorageEngine, dims: usize) -> Result<DynamicTree> {
        if inner_capacity(dims) < 2 || leaf_capacity(dims) < 2 {
            return Err(Error::Unsupported(format!(
                "R-tree nodes cannot hold 2 entries at d={dims} with 8 KiB pages"
            )));
        }
        let page = engine.alloc()?;
        Node::Leaf(Vec::new()).write_to(&mut page.write(), dims)?;
        Ok(DynamicTree {
            engine: engine.clone(),
            dims,
            root: page.id(),
            height: 1,
        })
    }

    /// Root page and height, for handing to [`crate::RTree`].
    pub fn finish(self) -> (PageId, u32) {
        (self.root, self.height)
    }

    /// Inserts one point.
    pub fn insert(&mut self, id: u32, coords: &[f64]) -> Result<()> {
        debug_assert_eq!(coords.len(), self.dims);
        // Descend to a leaf, remembering (page, chosen child index).
        let mut path: Vec<(PageId, usize)> = Vec::new();
        let mut pid = self.root;
        loop {
            let node = Node::load(&self.engine, pid, self.dims)?;
            match node {
                Node::Leaf(mut entries) => {
                    entries.push(LeafEntry {
                        id,
                        coords: coords.to_vec(),
                    });
                    if entries.len() <= leaf_capacity(self.dims) {
                        Node::Leaf(entries).store(&self.engine, pid, self.dims)?;
                        self.grow_path(&path, coords)?;
                        return Ok(());
                    }
                    // Overflow: split and propagate.
                    let (a, b) = split_leaf(entries, leaf_capacity(self.dims));
                    let node_a = Node::Leaf(a);
                    let node_b = Node::Leaf(b);
                    let mbr_a = node_a.mbr(self.dims);
                    let mbr_b = node_b.mbr(self.dims);
                    node_a.store(&self.engine, pid, self.dims)?;
                    let new_page = self.engine.alloc()?;
                    node_b.write_to(&mut new_page.write(), self.dims)?;
                    let new_pid = new_page.id();
                    drop(new_page);
                    return self.propagate_split(path, pid, mbr_a, new_pid, mbr_b);
                }
                Node::Inner(entries) => {
                    let point_rect = Rect::point(coords);
                    let choice = choose_subtree(&entries, &point_rect);
                    path.push((pid, choice));
                    pid = entries[choice].child;
                }
            }
        }
    }

    /// Grows the MBRs along a (non-splitting) insertion path.
    fn grow_path(&self, path: &[(PageId, usize)], coords: &[f64]) -> Result<()> {
        for &(pid, idx) in path {
            let mut node = Node::load(&self.engine, pid, self.dims)?;
            if let Node::Inner(entries) = &mut node {
                entries[idx].mbr.grow_point(coords);
            }
            node.store(&self.engine, pid, self.dims)?;
        }
        Ok(())
    }

    /// Replaces the parent entry of `old_pid` with `old_mbr` and inserts a
    /// sibling `(new_pid, new_mbr)`, splitting upward as needed.
    fn propagate_split(
        &mut self,
        mut path: Vec<(PageId, usize)>,
        old_pid: PageId,
        old_mbr: Rect,
        new_pid: PageId,
        new_mbr: Rect,
    ) -> Result<()> {
        let mut pending = Some((old_pid, old_mbr, new_pid, new_mbr));
        while let Some((old_pid, old_mbr, new_pid, new_mbr)) = pending.take() {
            match path.pop() {
                None => {
                    // Split reached the root: grow the tree by one level.
                    let root_node = Node::Inner(vec![
                        InnerEntry {
                            child: old_pid,
                            mbr: old_mbr,
                        },
                        InnerEntry {
                            child: new_pid,
                            mbr: new_mbr,
                        },
                    ]);
                    let page = self.engine.alloc()?;
                    root_node.write_to(&mut page.write(), self.dims)?;
                    self.root = page.id();
                    self.height += 1;
                }
                Some((parent_pid, idx)) => {
                    let mut entries = Node::load_inner(&self.engine, parent_pid, self.dims)?;
                    entries[idx].mbr = old_mbr.clone();
                    debug_assert_eq!(entries[idx].child, old_pid);
                    entries.push(InnerEntry {
                        child: new_pid,
                        mbr: new_mbr.clone(),
                    });
                    if entries.len() <= inner_capacity(self.dims) {
                        Node::Inner(entries).store(&self.engine, parent_pid, self.dims)?;
                        // MBRs above must cover both split halves: the
                        // freshly inserted point (not yet reflected in any
                        // ancestor) may sit in either group.
                        for &(pid, i) in &path {
                            let mut node = Node::load(&self.engine, pid, self.dims)?;
                            if let Node::Inner(es) = &mut node {
                                es[i].mbr.grow_rect(&old_mbr);
                                es[i].mbr.grow_rect(&new_mbr);
                            }
                            node.store(&self.engine, pid, self.dims)?;
                        }
                    } else {
                        let (a, b) = split_inner(entries, inner_capacity(self.dims));
                        let node_a = Node::Inner(a);
                        let node_b = Node::Inner(b);
                        let mbr_a = node_a.mbr(self.dims);
                        let mbr_b = node_b.mbr(self.dims);
                        node_a.store(&self.engine, parent_pid, self.dims)?;
                        let new_page = self.engine.alloc()?;
                        node_b.write_to(&mut new_page.write(), self.dims)?;
                        let sibling = new_page.id();
                        drop(new_page);
                        pending = Some((parent_pid, mbr_a, sibling, mbr_b));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Minimum-enlargement subtree choice (ties: smaller volume, then first).
fn choose_subtree(entries: &[InnerEntry], rect: &Rect) -> usize {
    let mut best = 0;
    let mut best_enl = f64::INFINITY;
    let mut best_vol = f64::INFINITY;
    // Per-node entries, bounded by the page fan-out.
    for (i, e) in entries.iter().enumerate() {
        let enl = e.mbr.enlargement(rect);
        let vol = e.mbr.volume();
        if enl < best_enl || (enl == best_enl && vol < best_vol) {
            best = i;
            best_enl = enl;
            best_vol = vol;
        }
    }
    best
}

fn split_leaf(entries: Vec<LeafEntry>, cap: usize) -> (Vec<LeafEntry>, Vec<LeafEntry>) {
    let rects: Vec<Rect> = entries.iter().map(|e| Rect::point(&e.coords)).collect();
    let mask = quadratic_partition(&rects, cap);
    partition_by(entries, &mask)
}

fn split_inner(entries: Vec<InnerEntry>, cap: usize) -> (Vec<InnerEntry>, Vec<InnerEntry>) {
    let rects: Vec<Rect> = entries.iter().map(|e| e.mbr.clone()).collect();
    let mask = quadratic_partition(&rects, cap);
    partition_by(entries, &mask)
}

fn partition_by<T>(entries: Vec<T>, group_a: &[bool]) -> (Vec<T>, Vec<T>) {
    let mut a = Vec::new();
    let mut b = Vec::new();
    for (e, &in_a) in entries.into_iter().zip(group_a) {
        if in_a {
            a.push(e);
        } else {
            b.push(e);
        }
    }
    (a, b)
}

/// Guttman's quadratic split: returns a boolean membership mask for group A.
/// Guarantees both groups hold at least `min_fill = ⌈0.4·cap⌉.min(half)`
/// entries.
fn quadratic_partition(rects: &[Rect], cap: usize) -> Vec<bool> {
    let n = rects.len();
    let min_fill = ((cap * 2) / 5).clamp(1, n / 2);
    // Seeds: the pair wasting the most area if grouped together.
    let (mut seed_a, mut seed_b, mut worst) = (0usize, 1usize, f64::NEG_INFINITY);
    for i in 0..n {
        for j in i + 1..n {
            let mut u = rects[i].clone();
            u.grow_rect(&rects[j]);
            let waste = u.volume() - rects[i].volume() - rects[j].volume();
            if waste > worst {
                worst = waste;
                seed_a = i;
                seed_b = j;
            }
        }
    }
    let mut in_a = vec![false; n];
    let mut assigned = vec![false; n];
    in_a[seed_a] = true;
    assigned[seed_a] = true;
    assigned[seed_b] = true;
    let mut mbr_a = rects[seed_a].clone();
    let mut mbr_b = rects[seed_b].clone();
    let mut count_a = 1usize;
    let mut count_b = 1usize;

    for _ in 0..n.saturating_sub(2) {
        let remaining: Vec<usize> = (0..n).filter(|&i| !assigned[i]).collect();
        if remaining.is_empty() {
            break;
        }
        // Under-filled group takes everything left if it must.
        if count_a + remaining.len() <= min_fill {
            for i in remaining {
                in_a[i] = true;
                assigned[i] = true;
            }
            break;
        }
        if count_b + remaining.len() <= min_fill {
            for i in remaining {
                assigned[i] = true;
            }
            break;
        }
        // Pick the entry with the strongest preference.
        let mut pick = remaining[0];
        let mut d_a = mbr_a.enlargement(&rects[pick]);
        let mut d_b = mbr_b.enlargement(&rects[pick]);
        let mut best_pref = (d_a - d_b).abs();
        for &i in &remaining[1..] {
            let da = mbr_a.enlargement(&rects[i]);
            let db = mbr_b.enlargement(&rects[i]);
            let pref = (da - db).abs();
            if pref > best_pref {
                best_pref = pref;
                pick = i;
                d_a = da;
                d_b = db;
            }
        }
        let to_a = match d_a.total_cmp(&d_b) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => count_a <= count_b,
        };
        assigned[pick] = true;
        if to_a {
            in_a[pick] = true;
            mbr_a.grow_rect(&rects[pick]);
            count_a += 1;
        } else {
            mbr_b.grow_rect(&rects[pick]);
            count_b += 1;
        }
    }
    in_a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hilbert_order_is_a_permutation() {
        let ds = hdsj_data::uniform(4, 200, 1).unwrap();
        let order = hilbert_order(&ds);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..200u32).collect::<Vec<_>>());
    }

    #[test]
    fn hilbert_order_groups_nearby_points() {
        // Two tight clusters far apart: the order must not interleave them.
        let mut rows = Vec::new();
        for i in 0..20 {
            rows.push(vec![0.1 + i as f64 * 1e-4, 0.1]);
        }
        for i in 0..20 {
            rows.push(vec![0.9 + i as f64 * 1e-4, 0.9]);
        }
        let ds = Dataset::from_rows(&rows).unwrap();
        let order = hilbert_order(&ds);
        let first_cluster: Vec<bool> = order.iter().map(|&i| i < 20).collect();
        let transitions = first_cluster.windows(2).filter(|w| w[0] != w[1]).count();
        assert_eq!(transitions, 1, "clusters must be contiguous in the order");
    }

    #[test]
    fn str_order_is_a_permutation() {
        let ds = hdsj_data::uniform(3, 157, 2).unwrap();
        let order = str_order(&ds, 10);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..157u32).collect::<Vec<_>>());
    }

    #[test]
    fn str_chunks_are_spatially_tight_on_first_dim() {
        let ds = hdsj_data::uniform(2, 1000, 3).unwrap();
        let order = str_order(&ds, 50);
        // First slab's x-range must be well under the full extent.
        let first: Vec<f64> = order[..250].iter().map(|&i| ds.point(i)[0]).collect();
        let max = first.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(max < 0.5, "first STR slab spans x up to {max}");
    }

    #[test]
    fn quadratic_partition_respects_min_fill() {
        let rects: Vec<Rect> = (0..20)
            .map(|i| Rect::point(&[i as f64 * 0.05, 0.5]))
            .collect();
        let mask = quadratic_partition(&rects, 20);
        let a = mask.iter().filter(|&&x| x).count();
        let b = mask.len() - a;
        let min_fill = (20 * 2) / 5;
        assert!(a >= min_fill.min(10) && b >= min_fill.min(10), "{a} vs {b}");
    }

    #[test]
    fn quadratic_partition_separates_two_clusters() {
        let mut rects = Vec::new();
        for i in 0..5 {
            rects.push(Rect::point(&[0.0 + i as f64 * 0.01, 0.0]));
        }
        for i in 0..5 {
            rects.push(Rect::point(&[1.0 + i as f64 * 0.01, 1.0]));
        }
        let mask = quadratic_partition(&rects, 10);
        let first_group = mask[0];
        assert!(mask[..5].iter().all(|&m| m == first_group));
        assert!(mask[5..].iter().all(|&m| m != first_group));
    }

    #[test]
    fn fill_count_bounds() {
        assert!(fill_count(1, 0.7, 64).is_err());
        assert!(fill_count(100, 1.5, 4).is_err());
        assert_eq!(fill_count(100, 0.7, 4).unwrap(), 70);
        assert_eq!(fill_count(3, 0.1, 4).unwrap(), 2, "clamped to minimum 2");
    }
}
