//! # hdsj-core — shared substrate for high dimensional similarity joins
//!
//! This crate defines everything the join algorithms in the `hdsj` workspace
//! have in common:
//!
//! * [`Dataset`] — a dense, row-major container of `d`-dimensional points;
//! * [`Metric`] — the distance functions (`L1`, `L2`, `L∞`, general `Lp`)
//!   with early-exit threshold tests;
//! * [`Rect`] — axis-aligned rectangles (MBRs) used by the tree-based
//!   algorithms;
//! * [`JoinSpec`] / [`SimilarityJoin`] — the public join API implemented by
//!   every algorithm crate (`hdsj-msj`, `hdsj-rtree`, `hdsj-ekdb`,
//!   `hdsj-grid`, `hdsj-bruteforce`);
//! * [`PairSink`] and ready-made collectors;
//! * [`JoinStats`] — uniform instrumentation (candidates, exact distance
//!   evaluations, I/O counters, per-phase wall-clock) that the experiment
//!   harness reports;
//! * [`verify`] — helpers that canonicalize and compare result sets, used by
//!   the test suites to check every algorithm against brute force.
//!
//! ## The join contract
//!
//! An ε-similarity join of datasets `A` and `B` under metric `D` returns
//! every pair `(a, b)` with `D(a, b) ≤ ε`. A *self-join* of `A` returns every
//! unordered pair `{a₁, a₂}`, `a₁ ≠ a₂`, exactly once, canonically ordered
//! `(min index, max index)`. All algorithms are **exact**: multidimensional
//! filtering happens on the L∞ ε-cube (which contains the ε-ball of every
//! `Lp` metric) and every candidate is refined with the exact metric through
//! [`Refiner`], so results are identical across algorithms.
//!
//! ## Unsafe policy
//!
//! The crate is `#![deny(unsafe_code)]`. One file overrides it with a
//! file-level `allow`: `simd/x86.rs`, the explicit vector block kernel.
//! Its six `unsafe` blocks are three unaligned vector loads, each on a
//! slice that safe code has already cut to the vector's length (so the
//! bound is checked in release builds too), and three feature-gated
//! kernel entries behind the runtime dispatch probe; each carries a
//! `SAFETY:` comment (`clippy::undocumented_unsafe_blocks`), and
//! `tests/unsafe_surface.rs` pins the count and the absence of raw-pointer
//! offsets (DESIGN §17). All other workspace crates keep
//! `#![forbid(unsafe_code)]`.
#![deny(unsafe_code)]

pub mod dataset;
pub mod error;
pub mod join;
pub mod kernels;
pub mod lifecycle;
pub mod metric;
pub mod rect;
pub mod refine;
pub mod simd;
pub mod soa;
pub mod stats;
pub mod sweep;
pub mod verify;

pub use dataset::Dataset;
pub use error::{Error, Result};
pub use join::{
    CallbackSink, CountSink, JoinEnv, JoinKind, JoinRun, JoinSpec, PairSink, SimilarityJoin,
    VecSink,
};
pub use lifecycle::{CancelToken, LifecycleCtx, LifecycleStats};
pub use metric::Metric;
pub use rect::Rect;
pub use refine::Refiner;
pub use soa::SoABlock;
pub use stats::{IoCounters, JoinStats, Phase};
pub use sweep::{sort_by_coord, CandidateSink, TileJoin, TileTally, WindowBatch};

/// Structured tracing and metrics (re-exported from `hdsj-obs` so the
/// algorithm crates need no extra dependency).
pub use hdsj_obs as obs;
pub use hdsj_obs::Tracer;
