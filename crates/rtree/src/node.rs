//! On-page R-tree node layout and (de)serialization.
//!
//! ```text
//! page:  [ storage header | kind: u8 | pad: u8 | count: u16 | pad: u32 | entries... ]
//! leaf entry:   [ point_id: u32 | coords: d × f64 ]          (4 + 8d bytes)
//! inner entry:  [ child_pid: u64 | lo: d × f64 | hi: d × f64 ] (8 + 16d bytes)
//! ```
//!
//! The first `PAGE_HEADER` bytes belong to the storage layer (page
//! checksum); node data starts after them.
//!
//! Leaves store the full point coordinates, so a join reads points through
//! the buffer pool like a real disk-resident index — and so leaf fan-out
//! shrinks as `d` grows, which is precisely the high-dimensional R-tree
//! pathology the evaluation exhibits.
//!
//! A leaf's entries are written ascending in (dimension 0, id)
//! ([`Node::write_to`] is the one place that orders them), so the join
//! reads a leaf's `(x0, id)` run straight off the page, already in the
//! order the shared tile join takes ([`load_leaf_run`]).

use hdsj_core::{Error, Rect, Result};
use hdsj_storage::{Page, PageId, StorageEngine, PAGE_HEADER, PAGE_SIZE};
use std::cmp::Ordering;

/// Offset of the node's kind byte (just past the storage header).
const KIND_OFFSET: usize = PAGE_HEADER;
/// Offset of the node's entry count.
const COUNT_OFFSET: usize = PAGE_HEADER + 2;
/// Bytes before the first entry: storage header + node header.
const HEADER: usize = PAGE_HEADER + 8;
const KIND_LEAF: u8 = 1;
const KIND_INNER: u8 = 2;

/// Maximum entries of a leaf node for dimensionality `dims`.
pub fn leaf_capacity(dims: usize) -> usize {
    (PAGE_SIZE - HEADER) / (4 + 8 * dims)
}

/// Maximum entries of an inner node for dimensionality `dims`.
pub fn inner_capacity(dims: usize) -> usize {
    (PAGE_SIZE - HEADER) / (8 + 16 * dims)
}

/// An entry of a leaf node: a point and its dataset index.
#[derive(Clone, Debug, PartialEq)]
pub struct LeafEntry {
    /// Index of the point in its dataset.
    pub id: u32,
    /// The point's coordinates.
    pub coords: Vec<f64>,
}

/// The order of a leaf page's entries, as `(x0, id)`: ascending dimension 0,
/// ties by id — the order the tile join takes a run in.
fn run_order(a: (f64, u32), b: (f64, u32)) -> Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

/// An entry of an inner node: a child page and its MBR.
#[derive(Clone, Debug, PartialEq)]
pub struct InnerEntry {
    /// Page id of the child node.
    pub child: PageId,
    /// Minimum bounding rectangle of the child's subtree.
    pub mbr: Rect,
}

/// A deserialized node.
#[derive(Clone, Debug, PartialEq)]
pub enum Node {
    /// Leaf level: points.
    Leaf(Vec<LeafEntry>),
    /// Interior level: children with MBRs.
    Inner(Vec<InnerEntry>),
}

impl Node {
    /// The union MBR of all entries.
    pub fn mbr(&self, dims: usize) -> Rect {
        let mut mbr = Rect::empty(dims);
        match self {
            Node::Leaf(entries) => entries.iter().for_each(|e| mbr.grow_point(&e.coords)),
            Node::Inner(entries) => entries.iter().for_each(|e| mbr.grow_rect(&e.mbr)),
        }
        mbr
    }

    /// Serializes into `page`, a leaf's entries ascending in (dimension 0,
    /// id). Errors when the node exceeds the page.
    pub fn write_to(&self, page: &mut Page, dims: usize) -> Result<()> {
        let (kind, count, entry_size) = match self {
            Node::Leaf(v) => (KIND_LEAF, v.len(), 4 + 8 * dims),
            Node::Inner(v) => (KIND_INNER, v.len(), 8 + 16 * dims),
        };
        if HEADER + count * entry_size > PAGE_SIZE {
            return Err(Error::Storage(format!(
                "node of {count} entries overflows a page at d={dims}"
            )));
        }
        page.bytes_mut()[KIND_OFFSET] = kind;
        page.put_u16(COUNT_OFFSET, count as u16);
        let mut off = HEADER;
        match self {
            Node::Leaf(entries) => {
                let mut entries: Vec<&LeafEntry> = entries.iter().collect();
                entries.sort_unstable_by(|a, b| {
                    run_order((a.coords[0], a.id), (b.coords[0], b.id))
                });
                // Serializes one page's entries, bounded by the page fan-out.
                for e in entries {
                    debug_assert_eq!(e.coords.len(), dims);
                    page.put_u32(off, e.id);
                    off += 4;
                    for &c in &e.coords {
                        page.put_f64(off, c);
                        off += 8;
                    }
                }
            }
            Node::Inner(entries) => {
                // Serializes one page's entries, bounded by the page fan-out.
                for e in entries {
                    debug_assert_eq!(e.mbr.dims(), dims);
                    page.put_u64(off, e.child);
                    off += 8;
                    for &c in e.mbr.lo() {
                        page.put_f64(off, c);
                        off += 8;
                    }
                    for &c in e.mbr.hi() {
                        page.put_f64(off, c);
                        off += 8;
                    }
                }
            }
        }
        Ok(())
    }

    /// Deserializes a node from `page`.
    pub fn read_from(page: &Page, dims: usize) -> Result<Node> {
        let coords = |off: usize| (0..dims).map(|k| page.get_f64(off + 8 * k)).collect();
        Ok(match header(page, dims)? {
            (true, count) => Node::Leaf(
                (0..count)
                    .map(|k| HEADER + k * (4 + 8 * dims))
                    .map(|off| LeafEntry {
                        id: page.get_u32(off),
                        coords: coords(off + 4),
                    })
                    .collect(),
            ),
            (false, count) => Node::Inner(
                (0..count)
                    .map(|k| HEADER + k * (8 + 16 * dims))
                    .map(|off| InnerEntry {
                        child: page.get_u64(off),
                        mbr: Rect::new(coords(off + 8), coords(off + 8 + 8 * dims)),
                    })
                    .collect(),
            ),
        })
    }

    /// Convenience: fetches and deserializes the node at `pid`.
    pub fn load(engine: &StorageEngine, pid: PageId, dims: usize) -> Result<Node> {
        let guard = engine.fetch(pid)?;
        let node = Node::read_from(&guard.read(), dims)?;
        Ok(node)
    }

    /// Fetches the node at `pid`, which the caller knows from the tree's
    /// height to be an inner node, and returns its entries.
    pub fn load_inner(
        engine: &StorageEngine,
        pid: PageId,
        dims: usize,
    ) -> Result<Vec<InnerEntry>> {
        match Node::load(engine, pid, dims)? {
            Node::Inner(entries) => Ok(entries),
            Node::Leaf(_) => Err(Error::Storage(format!(
                "page {pid}: a leaf above leaf level"
            ))),
        }
    }

    /// Convenience: serializes the node into the page at `pid`.
    pub fn store(&self, engine: &StorageEngine, pid: PageId, dims: usize) -> Result<()> {
        let guard = engine.fetch(pid)?;
        let mut page = guard.write();
        self.write_to(&mut page, dims)
    }
}

/// Whether `page` holds a leaf, and its entry count, checked: the page is
/// read from storage, so a count its entries cannot fit is an error, not an
/// index past the page.
fn header(page: &Page, dims: usize) -> Result<(bool, usize)> {
    let kind = page.bytes()[KIND_OFFSET];
    let count = page.get_u16(COUNT_OFFSET) as usize;
    let capacity = match kind {
        KIND_LEAF => Some(leaf_capacity(dims)),
        KIND_INNER => Some(inner_capacity(dims)),
        _ => None,
    };
    if capacity.is_none_or(|c| count > c) {
        return Err(Error::Storage(format!(
            "page is not an R-tree node at d={dims}: kind {kind}, {count} entries"
        )));
    }
    Ok((kind == KIND_LEAF, count))
}

/// Replaces `run` with the `(x0, id)` run of the leaf at `pid`, copied off
/// the page while it is pinned — no [`LeafEntry`], no coordinates past the
/// first. A page that is not a leaf, or whose entries are out of page order
/// (the tile join would silently miss pairs on them), is an error.
pub fn load_leaf_run(
    engine: &StorageEngine,
    pid: PageId,
    dims: usize,
    run: &mut Vec<(f64, u32)>,
) -> Result<()> {
    let guard = engine.fetch(pid)?;
    let page = guard.read();
    let (true, count) = header(&page, dims)? else {
        return Err(Error::Storage(format!(
            "page {pid}: an inner node at leaf level"
        )));
    };
    run.clear();
    run.extend((0..count).map(|k| {
        let off = HEADER + k * (4 + 8 * dims);
        (page.get_f64(off + 4), page.get_u32(off))
    }));
    if run.windows(2).any(|w| run_order(w[0], w[1]).is_gt()) {
        return Err(Error::Storage(format!(
            "page {pid}: leaf entries out of (dim 0, id) order"
        )));
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn capacities_shrink_with_dimensionality() {
        assert!(leaf_capacity(2) > leaf_capacity(16));
        assert!(inner_capacity(2) > inner_capacity(16));
        // The paper's high-d regime: single-digit fan-out at d=64.
        assert!(inner_capacity(64) < 10);
        assert!(inner_capacity(64) >= 2, "pages must still hold a node");
        assert!(leaf_capacity(64) >= 2);
    }

    #[test]
    fn leaf_round_trip() {
        let dims = 3;
        let entries: Vec<LeafEntry> = (0..5)
            .map(|i| LeafEntry {
                id: i,
                coords: vec![i as f64 * 0.1, 0.5, 1.0 - i as f64 * 0.01],
            })
            .collect();
        let node = Node::Leaf(entries);
        let mut page = Page::zeroed();
        node.write_to(&mut page, dims).unwrap();
        assert_eq!(Node::read_from(&page, dims).unwrap(), node);
    }

    #[test]
    fn inner_round_trip() {
        let dims = 2;
        let entries: Vec<InnerEntry> = (0..4)
            .map(|i| InnerEntry {
                child: 100 + i as u64,
                mbr: Rect::new(vec![0.1 * i as f64, 0.0], vec![0.1 * i as f64 + 0.2, 0.5]),
            })
            .collect();
        let node = Node::Inner(entries);
        let mut page = Page::zeroed();
        node.write_to(&mut page, dims).unwrap();
        assert_eq!(Node::read_from(&page, dims).unwrap(), node);
    }

    #[test]
    fn full_capacity_node_fits_exactly() {
        let dims = 7;
        let cap = leaf_capacity(dims);
        let entries: Vec<LeafEntry> = (0..cap as u32)
            .map(|i| LeafEntry {
                id: i,
                coords: vec![0.5; dims],
            })
            .collect();
        let node = Node::Leaf(entries);
        let mut page = Page::zeroed();
        node.write_to(&mut page, dims).unwrap();
        assert_eq!(len(&Node::read_from(&page, dims).unwrap()), cap);
    }

    #[test]
    fn overflowing_node_is_rejected() {
        let dims = 7;
        let cap = leaf_capacity(dims);
        let entries: Vec<LeafEntry> = (0..=cap as u32)
            .map(|i| LeafEntry {
                id: i,
                coords: vec![0.5; dims],
            })
            .collect();
        let mut page = Page::zeroed();
        assert!(Node::Leaf(entries).write_to(&mut page, dims).is_err());
    }

    fn len(node: &Node) -> usize {
        match node {
            Node::Leaf(v) => v.len(),
            Node::Inner(v) => v.len(),
        }
    }

    /// Swaps leaf entries `i` and `j` of `page` byte for byte — what no
    /// writer does, to stand for a damaged page.
    pub(crate) fn swap_leaf_entries(page: &mut Page, dims: usize, i: usize, j: usize) {
        let size = 4 + 8 * dims;
        let (lo, hi) = (i.min(j), i.max(j));
        let (head, tail) = page.bytes_mut()[HEADER..].split_at_mut(hi * size);
        head[lo * size..][..size].swap_with_slice(&mut tail[..size]);
    }

    #[test]
    fn leaves_are_written_in_page_order_and_read_as_runs() {
        let dims = 2;
        let entry = |id: u32, x0: f64| LeafEntry {
            id,
            coords: vec![x0, 0.5],
        };
        // Out of order, with a dimension-0 tie the id breaks.
        let node = Node::Leaf(vec![entry(7, 0.75), entry(9, 0.25), entry(3, 0.25)]);
        let engine = StorageEngine::in_memory(4);
        let pid = engine.alloc().unwrap().id();
        node.store(&engine, pid, dims).unwrap();
        let sorted = Node::Leaf(vec![entry(3, 0.25), entry(9, 0.25), entry(7, 0.75)]);
        assert_eq!(Node::load(&engine, pid, dims).unwrap(), sorted);
        let mut run = vec![(9.0, 9)];
        load_leaf_run(&engine, pid, dims, &mut run).unwrap();
        assert_eq!(run, [(0.25, 3), (0.25, 9), (0.75, 7)]);
        let err = Node::load_inner(&engine, pid, dims).unwrap_err();
        assert!(matches!(err, Error::Storage(_)), "{err:?}");

        swap_leaf_entries(&mut engine.fetch(pid).unwrap().write(), dims, 0, 2);
        let err = load_leaf_run(&engine, pid, dims, &mut run).unwrap_err();
        assert!(matches!(err, Error::Storage(_)), "{err:?}");

        let inner = Node::Inner(vec![InnerEntry {
            child: 5,
            mbr: Rect::point(&[0.5, 0.5]),
        }]);
        inner.store(&engine, pid, dims).unwrap();
        let err = load_leaf_run(&engine, pid, dims, &mut run).unwrap_err();
        assert!(matches!(err, Error::Storage(_)), "{err:?}");
    }

    #[test]
    fn a_count_the_page_cannot_hold_is_a_storage_error() {
        let dims = 5;
        let engine = StorageEngine::in_memory(4);
        let pid = engine.alloc().unwrap().id();
        for (kind, capacity) in [
            (KIND_LEAF, leaf_capacity(dims)),
            (KIND_INNER, inner_capacity(dims)),
        ] {
            let claim = |count: usize| {
                let guard = engine.fetch(pid).unwrap();
                let mut page = guard.write();
                *page = Page::zeroed();
                page.bytes_mut()[KIND_OFFSET] = kind;
                page.put_u16(COUNT_OFFSET, count as u16);
            };
            for count in [capacity + 1, u16::MAX as usize] {
                claim(count);
                let err = Node::load(&engine, pid, dims).unwrap_err();
                assert!(matches!(err, Error::Storage(_)), "{kind} {count}: {err:?}");
                let err = load_leaf_run(&engine, pid, dims, &mut Vec::new()).unwrap_err();
                assert!(matches!(err, Error::Storage(_)), "{kind} {count}: {err:?}");
            }
            // A full page of zeroed entries still reads.
            claim(capacity);
            assert_eq!(len(&Node::load(&engine, pid, dims).unwrap()), capacity);
        }
    }

    #[test]
    fn garbage_page_is_rejected() {
        let page = Page::zeroed(); // kind byte 0
        assert!(Node::read_from(&page, 2).is_err());
    }

    #[test]
    fn mbr_unions_entries() {
        let node = Node::Leaf(vec![
            LeafEntry {
                id: 0,
                coords: vec![0.2, 0.8],
            },
            LeafEntry {
                id: 1,
                coords: vec![0.6, 0.1],
            },
        ]);
        let mbr = node.mbr(2);
        assert_eq!(mbr.lo(), &[0.2, 0.1]);
        assert_eq!(mbr.hi(), &[0.6, 0.8]);
    }

    #[test]
    fn load_store_through_engine() {
        let engine = StorageEngine::in_memory(4);
        let pid = engine.alloc().unwrap().id();
        let node = Node::Leaf(vec![LeafEntry {
            id: 9,
            coords: vec![0.25, 0.75],
        }]);
        node.store(&engine, pid, 2).unwrap();
        assert_eq!(Node::load(&engine, pid, 2).unwrap(), node);
    }
}
