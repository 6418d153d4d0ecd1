//! # hdsj-storage — a small paged storage engine with measured I/O
//!
//! The paper's evaluation reports disk behaviour, not just CPU time. To
//! reproduce those figures without 1998 hardware, every disk-based algorithm
//! in this workspace runs on this engine, which *counts* page traffic
//! instead of guessing it:
//!
//! * [`page::Page`] — fixed 8 KiB pages with typed read/write accessors and
//!   a checksummed header ([`page::PAGE_HEADER`] bytes of CRC-32 + magic)
//!   that turns silent corruption into [`hdsj_core::Error::Corruption`];
//! * [`disk::Disk`] — the backing store trait, with an in-memory
//!   implementation ([`disk::MemDisk`]) for tests/benches and a real
//!   file-backed one ([`disk::FileDisk`], positioned I/O on Unix);
//! * [`fault::FaultyDisk`] — a decorator that injects faults from a
//!   seedable [`fault::FaultPlan`] (probabilities, fault-on-Nth schedules,
//!   transient/persistent errors, torn and corrupting writes). Every
//!   engine carries one, disarmed by default;
//! * [`pool::BufferPool`] — a pin/unpin LRU buffer pool with dirty-page
//!   write-back; all reads and writes flow through it, so the
//!   [`stats::IoStats`] counters are exactly the page transfers a real
//!   system would perform. The pool seals/verifies page checksums and
//!   retries transient disk faults under a [`pool::RetryPolicy`];
//! * [`file::RecordFile`] — append-only files of fixed-size records on top
//!   of the pool (MSJ's level files, sort runs), written and read a page at
//!   a time;
//! * [`sort::external_sort`] — multi-way external merge sort over record
//!   files, ordering records by whole-record `memcmp` (big-endian keys
//!   lead the record, so byte order is key order).
//!
//! [`StorageEngine`] bundles disk, fault plan, and pool behind one handle
//! that the algorithm crates share; [`StorageEngine::builder`] configures
//! retries and fault schedules.
#![forbid(unsafe_code)]

pub mod disk;
pub mod fault;
pub mod file;
pub mod invariants;
pub mod manifest;
pub mod page;
pub mod points;
pub mod pool;
pub mod sort;
pub mod stats;

pub use fault::{FaultKind, FaultPlan, FaultyDisk, OpKind};
pub use file::{RecordCursor, RecordFile};
pub use manifest::{Checkpointer, FileSpec, Manifest, ManifestRecord, ManifestState};
pub use page::{crc32, Page, PageId, PAGE_HEADER, PAGE_SIZE};
pub use points::{disk_block_nested_loops, PointFile};
pub use pool::{BufferPool, PinnedPage, RetryPolicy};
pub use stats::IoStats;

use hdsj_core::{IoCounters, JoinRun, Result};
use std::sync::Arc;

/// A disk plus a buffer pool: the handle the join algorithms hold.
///
/// Cloning is cheap (shared `Arc`s); clones see the same pages, the same
/// I/O counters, and the same fault plan.
#[derive(Clone)]
pub struct StorageEngine {
    pool: Arc<BufferPool>,
    plan: FaultPlan,
}

/// Configures a [`StorageEngine`] before creation: pool size, retry
/// policy, and fault schedule.
pub struct EngineBuilder {
    pool_pages: usize,
    retry: RetryPolicy,
    plan: FaultPlan,
}

impl EngineBuilder {
    /// Sets the retry policy the buffer pool applies to transient disk
    /// faults (default: [`RetryPolicy::none`]).
    pub fn retry(mut self, retry: RetryPolicy) -> EngineBuilder {
        self.retry = retry;
        self
    }

    /// Installs a fault schedule (default: an empty, disarmed plan).
    pub fn faults(mut self, plan: FaultPlan) -> EngineBuilder {
        self.plan = plan;
        self
    }

    /// Builds an engine over an in-memory disk.
    pub fn in_memory(self) -> StorageEngine {
        let stats = Arc::new(IoStats::default());
        let inner = Box::new(disk::MemDisk::new(Arc::clone(&stats)));
        self.finish(inner, stats)
    }

    /// Builds an engine over a real file at `path` (created/truncated).
    pub fn file_backed(self, path: &std::path::Path) -> Result<StorageEngine> {
        let stats = Arc::new(IoStats::default());
        let inner = Box::new(disk::FileDisk::create(path, Arc::clone(&stats))?);
        Ok(self.finish(inner, stats))
    }

    /// Builds an engine over an *existing* file at `path` without
    /// truncating it — the recovery path. Pair with
    /// [`StorageEngine::adopt_freelist`] to hand back the pages a
    /// crashed run left unreferenced.
    pub fn file_backed_open(self, path: &std::path::Path) -> Result<StorageEngine> {
        let stats = Arc::new(IoStats::default());
        let inner = Box::new(disk::FileDisk::open(path, Arc::clone(&stats))?);
        Ok(self.finish(inner, stats))
    }

    fn finish(self, inner: Box<dyn disk::Disk>, stats: Arc<IoStats>) -> StorageEngine {
        // Every engine goes through FaultyDisk: with an empty plan the
        // armed-flag fast path makes it free, and tests can schedule
        // faults on a live engine without rebuilding it.
        let disk = Box::new(FaultyDisk::new(
            inner,
            self.plan.clone(),
            Arc::clone(&stats),
        ));
        StorageEngine {
            pool: Arc::new(BufferPool::with_retry(
                disk,
                self.pool_pages,
                stats,
                self.retry,
            )),
            plan: self.plan,
        }
    }
}

impl StorageEngine {
    /// Starts configuring an engine with a pool of `pool_pages` frames.
    pub fn builder(pool_pages: usize) -> EngineBuilder {
        EngineBuilder {
            pool_pages,
            retry: RetryPolicy::none(),
            plan: FaultPlan::empty(),
        }
    }

    /// Engine backed by an in-memory "disk" with a pool of `pool_pages`
    /// frames. I/O counters still track every simulated page transfer.
    pub fn in_memory(pool_pages: usize) -> StorageEngine {
        StorageEngine::builder(pool_pages).in_memory()
    }

    /// Engine backed by a real file at `path` (created/truncated) with a
    /// pool of `pool_pages` frames.
    pub fn file_backed(path: &std::path::Path, pool_pages: usize) -> Result<StorageEngine> {
        StorageEngine::builder(pool_pages).file_backed(path)
    }

    /// The buffer pool.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// The engine's fault plan — schedule faults on it at any time; it is
    /// shared with the disk decorator.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Allocates a fresh zeroed page and returns it pinned.
    pub fn alloc(&self) -> Result<PinnedPage> {
        self.pool.alloc()
    }

    /// Fetches page `id`, reading it from disk on a pool miss. The returned
    /// guard keeps the page pinned until dropped.
    pub fn fetch(&self, id: PageId) -> Result<PinnedPage> {
        self.pool.fetch(id)
    }

    /// Flushes every dirty page back to the disk.
    pub fn flush_all(&self) -> Result<()> {
        self.pool.flush_all()
    }

    /// Forces flushed pages down to durable storage (`fsync` on
    /// file-backed engines; a no-op in memory).
    pub fn sync(&self) -> Result<()> {
        self.pool.sync()
    }

    /// One join run's use of the engine, the same on every exit of `body`:
    /// installs the run's lifecycle context, snapshots the I/O counters
    /// and latency histograms, runs `body`, then reports the difference —
    /// into the run's [`hdsj_core::JoinStats::io`] and, traced, as the
    /// `pool.*` counters, the `pool.*_ns` histograms and the
    /// `pool.hit_rate` gauge — and removes the context again.
    pub fn scope<T>(
        &self,
        run: &mut JoinRun<'_>,
        body: impl FnOnce(&mut JoinRun<'_>) -> Result<T>,
    ) -> Result<T> {
        if let Some(lc) = run.lifecycle() {
            self.set_lifecycle(lc.clone());
        }
        let (stats, tracer) = (self.pool.stats(), run.tracer());
        let io_before = stats.snapshot();
        let latency_before = tracer.enabled().then(|| stats.latency());
        let outcome = body(run);
        let io = IoCounters::diff(&stats.snapshot(), &io_before);
        if let Some(before) = latency_before {
            io.record_counters(tracer, "pool");
            stats.record_latency_since(tracer, &before);
            tracer.gauge(hdsj_obs::names::POOL_HIT_RATE, io.hit_rate());
        }
        run.io(&io);
        self.clear_lifecycle();
        outcome
    }

    /// Installs a per-query lifecycle context: every disk operation polls
    /// it and charges its budgets. See [`BufferPool::set_lifecycle`].
    pub fn set_lifecycle(&self, ctx: hdsj_core::LifecycleCtx) {
        self.pool.set_lifecycle(ctx)
    }

    /// Removes the lifecycle context (between queries on a shared
    /// engine).
    pub fn clear_lifecycle(&self) {
        self.pool.clear_lifecycle()
    }

    /// Replaces the pool freelist — the recovery path after
    /// [`EngineBuilder::file_backed_open`]. See
    /// [`BufferPool::adopt_freelist`].
    pub fn adopt_freelist(&self, pages: Vec<PageId>) -> Result<()> {
        self.pool.adopt_freelist(pages)
    }

    /// Returns page `id` to the freelist for reuse by later allocations.
    pub fn free(&self, id: PageId) -> Result<()> {
        self.pool.free(id)
    }

    /// Snapshot of the I/O counters in `hdsj-core` form.
    pub fn io_counters(&self) -> IoCounters {
        self.pool.stats().snapshot()
    }

    /// Resets the I/O counters (e.g. between join phases).
    pub fn reset_counters(&self) {
        self.pool.stats().reset()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_round_trips_pages_and_counts_io() {
        let eng = StorageEngine::in_memory(2);
        let id = {
            let p = eng.alloc().unwrap();
            p.write().put_u64(PAGE_HEADER, 0xdead_beef);
            p.id()
        };
        // Force eviction by touching two more pages.
        let _a = eng.alloc().unwrap().id();
        let _b = eng.alloc().unwrap().id();
        let back = eng.fetch(id).unwrap();
        assert_eq!(back.read().get_u64(PAGE_HEADER), 0xdead_beef);
        let io = eng.io_counters();
        assert!(io.allocs >= 3);
        assert!(io.writes >= 1, "eviction must have written the dirty page");
        assert!(io.reads >= 1, "re-fetch must have read from disk");
    }

    #[test]
    fn clones_share_state() {
        let eng = StorageEngine::in_memory(4);
        let id = eng.alloc().unwrap().id();
        let clone = eng.clone();
        assert!(clone.fetch(id).is_ok());
        assert_eq!(eng.io_counters(), clone.io_counters());
    }

    #[test]
    fn reset_clears_counters() {
        let eng = StorageEngine::in_memory(4);
        let _ = eng.alloc().unwrap();
        eng.reset_counters();
        assert_eq!(eng.io_counters(), IoCounters::default());
    }

    #[test]
    fn clones_share_the_fault_plan() {
        let eng = StorageEngine::in_memory(4);
        let clone = eng.clone();
        clone.fault_plan().on_nth(None, 1, FaultKind::Transient);
        assert!(eng.alloc().is_err(), "fault armed through the clone");
        assert!(eng.alloc().is_ok(), "one-shot fault clears itself");
    }

    #[test]
    fn builder_wires_retry_and_faults() {
        let plan = FaultPlan::new(7);
        plan.on_nth(Some(OpKind::Alloc), 1, FaultKind::Transient);
        let eng = StorageEngine::builder(4)
            .retry(RetryPolicy::backoff(2))
            .faults(plan)
            .in_memory();
        // The transient alloc fault is retried away.
        let p = eng.alloc().unwrap();
        drop(p);
        let io = eng.io_counters();
        assert_eq!(io.faults, 1);
        assert_eq!(io.retries, 1);
    }

    #[test]
    fn sealed_pages_survive_a_file_backed_round_trip() {
        let dir = std::env::temp_dir().join(format!("hdsj-eng-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.db");
        let eng = StorageEngine::file_backed(&path, 2).unwrap();
        let id = {
            let p = eng.alloc().unwrap();
            p.write().put_u64(PAGE_HEADER, 31337);
            p.id()
        };
        eng.flush_all().unwrap();
        // Evict, then re-read: the page was sealed on flush and verifies.
        drop(eng.alloc().unwrap());
        drop(eng.alloc().unwrap());
        let back = eng.fetch(id).unwrap();
        assert_eq!(back.read().get_u64(PAGE_HEADER), 31337);
        drop(back);
        std::fs::remove_dir_all(&dir).ok();
    }
}
