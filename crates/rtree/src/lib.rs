//! # hdsj-rtree — paged R-trees and the RSJ spatial join
//!
//! The R-tree baseline of the paper's evaluation: trees are built **on the
//! fly** as part of the join (their construction cost and I/O belong to the
//! join, exactly as the paper charges them), stored in 8 KiB pages of the
//! `hdsj-storage` engine so every node visit is a measured page access.
//!
//! * [`node`] — the on-page node layout. Fan-out is `(page − header) /
//!   entry_size` with entries carrying full `d`-dimensional rectangles, so
//!   fan-out collapses as `d` grows (≈ 7 at `d = 64`) — the structural
//!   reason R-trees lose in high dimensions, reproduced rather than
//!   simulated;
//! * [`build`] — bulk loading by Hilbert packing (default) and by
//!   generalized Sort-Tile-Recursive, plus Guttman-style dynamic inserts
//!   with quadratic splits ([`build::BuildStrategy`]);
//! * [`tree`] — the [`tree::RTree`] handle with invariant checking;
//! * [`join`] — [`RsjJoin`]: the Brinkhoff/Kriegel/Seeger synchronized
//!   traversal, pruning node pairs by L∞ MBR mindist; a leaf pair is one
//!   call of the tile join the other structured methods share.
#![forbid(unsafe_code)]

pub mod build;
pub mod join;
pub mod node;
pub mod tree;

pub use build::BuildStrategy;
pub use join::RsjJoin;
pub use tree::RTree;
