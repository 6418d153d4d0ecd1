//! The synchronized stack sweep over the sorted level-file stream.
//!
//! The sorted stream visits cells in depth-first order of the hierarchy.
//! The sweep maintains a stack of *open* cells — exactly the ancestors of
//! the current cell — and joins each arriving cell against itself and the
//! stack. Correctness rests on the size-separation invariant: a cube
//! assigned to cell `c` lies entirely inside `c`, and grid cells of the
//! hierarchy are either nested or disjoint, so two intersecting cubes must
//! sit in ancestor-related cells.
//!
//! Inside a cell pair, a plane sweep along dimension 0 (lists kept sorted
//! by the first coordinate) bounds the candidate set before the exact
//! metric runs: the shared tile-major [`TileJoin`], which hands the sink
//! (probe, tile, lanes) windows of gathered candidate tiles.

use crate::assign::{prefix_bits_equal, RecordCodec, TAG_A};
use hdsj_core::{
    sort_by_coord, CandidateSink, Dataset, Error, JoinKind, LifecycleCtx, Result, TileJoin,
    TileTally,
};
use hdsj_storage::RecordFile;

/// What one sweep did, beyond the candidates it emitted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepTally {
    /// Peak bytes held by the open-cell stack plus the scratch tile (the
    /// algorithm's structure memory, experiment E5).
    pub peak_bytes: u64,
    /// The cell-pair joins' gather/block/pair tallies.
    pub tiles: TileTally,
}

/// One open cell on the sweep stack: its identity and the points it holds,
/// kept sorted by dimension 0 for the plane sweep.
struct OpenCell {
    key: Vec<u8>,
    level: u8,
    /// `(x0, id)` of left-input points, sorted by `x0`.
    a: Vec<(f64, u32)>,
    /// Right-input points (two-set joins only).
    b: Vec<(f64, u32)>,
}

impl OpenCell {
    fn bytes(&self) -> u64 {
        (self.key.len() + (self.a.len() + self.b.len()) * 12 + 64) as u64
    }
}

/// Runs the sweep, delivering every candidate to `sink` (serial runs hand
/// it the refiner; parallel runs a channel that ships tile jobs). The
/// lifecycle context is polled at every tile.
#[allow(clippy::too_many_arguments)]
pub fn sweep<S: CandidateSink>(
    sorted: &RecordFile,
    codec: &RecordCodec,
    a: &Dataset,
    b: &Dataset,
    kind: JoinKind,
    eps: f64,
    lifecycle: Option<&LifecycleCtx>,
    sink: &mut S,
) -> Result<SweepTally> {
    let dims = a.dims() as u32;
    let mut stack: Vec<OpenCell> = Vec::new();
    let mut current: Option<OpenCell> = None;
    let mut join = TileJoin::new(b, eps, lifecycle);
    let mut peak_bytes = 0u64;
    let mut cursor = sorted.cursor();

    while let Some(rec) = cursor.next()? {
        let key = codec.key_of(rec);
        let (level, tag, id) = codec.meta_of(rec);
        let same_cell = current
            .as_ref()
            .map(|c| c.level == level && c.key[..] == *key)
            .unwrap_or(false);
        if !same_cell {
            // Close out the previous cell: join it and push it.
            if let Some(cell) = current.take() {
                peak_bytes =
                    peak_bytes.max(process_cell(cell, &mut stack, kind, &mut join, sink)?);
            }
            // Pop stack cells that are not ancestors of the new cell.
            while let Some(top) = stack.last() {
                let is_ancestor = top.level < level
                    && prefix_bits_equal(&top.key, key, dims * top.level as u32);
                if is_ancestor {
                    break;
                }
                stack.pop();
            }
            current = Some(OpenCell {
                key: key.to_vec(),
                level,
                a: Vec::new(),
                b: Vec::new(),
            });
        }
        let Some(cell) = current.as_mut() else {
            // The branch above opens a cell whenever none matched; an empty
            // slot here is a sweep logic bug, reported as a typed error.
            return Err(Error::Storage("sweep lost its open cell".into()));
        };
        let (ds, list) = if tag == TAG_A {
            (a, &mut cell.a)
        } else {
            (b, &mut cell.b)
        };
        list.push((ds.point(id)[0], id));
    }
    if let Some(cell) = current.take() {
        peak_bytes = peak_bytes.max(process_cell(cell, &mut stack, kind, &mut join, sink)?);
    }
    Ok(SweepTally {
        peak_bytes: peak_bytes + join.scratch_bytes(),
        tiles: join.tally(),
    })
}

/// Joins a freshly completed cell against itself and the open ancestors,
/// then pushes it; returns the bytes the stack then holds.
fn process_cell<S: CandidateSink>(
    mut cell: OpenCell,
    stack: &mut Vec<OpenCell>,
    kind: JoinKind,
    join: &mut TileJoin,
    sink: &mut S,
) -> Result<u64> {
    sort_by_coord(&mut cell.a);
    sort_by_coord(&mut cell.b);

    match kind {
        JoinKind::SelfJoin => {
            join.run(&cell.a, &cell.a, true, sink)?;
            for anc in stack.iter() {
                join.run(&cell.a, &anc.a, false, sink)?;
            }
        }
        JoinKind::TwoSets => {
            join.run(&cell.a, &cell.b, false, sink)?;
            for anc in stack.iter() {
                // Left points of the new cell × right points of ancestors,
                // and vice versa; orientation is always (a-id, b-id).
                join.run(&cell.a, &anc.b, false, sink)?;
                join.run(&anc.a, &cell.b, false, sink)?;
            }
        }
    }

    stack.push(cell);
    Ok(stack.iter().map(|c| c.bytes()).sum())
}
