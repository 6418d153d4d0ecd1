//! The LRU buffer pool.
//!
//! Every page access in the workspace goes through [`BufferPool::fetch`] /
//! [`BufferPool::alloc`], which return RAII-pinned guards. A pinned page is
//! never evicted; unpinned pages are evicted least-recently-used, writing
//! dirty victims back to the disk. Because the pool sits between the
//! algorithms and the `Disk`, the shared
//! [`IoStats`] counters reflect exactly the page transfers a real system
//! with the same buffer size would perform — the quantity the I/O
//! experiments (E4, E11) plot.
//!
//! The pool is also the recovery layer of the failure model:
//!
//! * pages are **sealed** (checksum written, see [`Page::seal`]) on their
//!   way to disk and **verified** on their way back — a mismatch surfaces
//!   as [`Error::Corruption`] instead of silently wrong records;
//! * transient disk failures are retried with bounded exponential backoff
//!   under the pool's [`RetryPolicy`] (`retries` in the counters);
//! * a failed write-back never loses the dirty page: the victim frame is
//!   re-inserted (eviction) or left dirty (flush), so the only good copy
//!   stays resident and a later attempt can still persist it.

use crate::disk::Disk;
use crate::invariants::{self, rank};
use crate::page::{Page, PageId};
use crate::stats::IoStats;
use hdsj_core::{Error, LifecycleCtx, Result};
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Bounded exponential-backoff retry for transient disk faults.
///
/// Retries apply to failures where a repeat may succeed
/// ([`Error::is_transient`]); corruption is never retried — the bad bytes
/// are already on the medium, re-reading them proves nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Additional attempts after the first failure (0 = fail fast).
    pub max_retries: u32,
    /// Sleep before the first retry; doubles per attempt.
    pub base_delay: Duration,
    /// Cap on the per-attempt sleep.
    pub max_delay: Duration,
}

impl RetryPolicy {
    /// No retries: every disk error propagates immediately (the default,
    /// and what the deterministic fault-propagation tests rely on).
    pub const fn none() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
        }
    }

    /// Up to `max_retries` retries, backing off 100 µs, 200 µs, … capped
    /// at 10 ms.
    pub const fn backoff(max_retries: u32) -> RetryPolicy {
        RetryPolicy {
            max_retries,
            base_delay: Duration::from_micros(100),
            max_delay: Duration::from_millis(10),
        }
    }

    /// Sleep before retry number `attempt` (1-based).
    fn delay_for(&self, attempt: u32) -> Duration {
        if self.base_delay.is_zero() {
            return Duration::ZERO;
        }
        let factor = 1u32 << attempt.saturating_sub(1).min(16);
        (self.base_delay * factor).min(self.max_delay)
    }
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::none()
    }
}

struct Frame {
    pid: PageId,
    page: RwLock<Page>,
    pins: AtomicU32,
    dirty: AtomicBool,
    last_used: AtomicU64,
}

struct PoolInner {
    map: HashMap<PageId, Arc<Frame>>,
    tick: u64,
    /// Page ids returned by [`BufferPool::free`], reused by the next
    /// allocations before the disk is grown.
    freelist: Vec<PageId>,
}

/// A fixed-capacity page cache with pin/unpin semantics and LRU
/// replacement.
pub struct BufferPool {
    disk: Box<dyn Disk>,
    stats: Arc<IoStats>,
    capacity: usize,
    retry: RetryPolicy,
    inner: Mutex<PoolInner>,
    /// Per-query lifecycle context, polled/charged on every disk
    /// operation (misses, write-backs, allocs — never on pool hits).
    lifecycle: Mutex<Option<LifecycleCtx>>,
}

impl BufferPool {
    /// Creates a pool of `capacity` frames (minimum 1) over `disk`, with
    /// no retries.
    pub fn new(disk: Box<dyn Disk>, capacity: usize, stats: Arc<IoStats>) -> BufferPool {
        BufferPool::with_retry(disk, capacity, stats, RetryPolicy::none())
    }

    /// Creates a pool that retries transient disk faults under `retry`.
    pub fn with_retry(
        disk: Box<dyn Disk>,
        capacity: usize,
        stats: Arc<IoStats>,
        retry: RetryPolicy,
    ) -> BufferPool {
        BufferPool {
            disk,
            stats,
            capacity: capacity.max(1),
            retry,
            inner: Mutex::new(PoolInner {
                map: HashMap::new(),
                tick: 0,
                freelist: Vec::new(),
            }),
            lifecycle: Mutex::new(None),
        }
    }

    /// Installs (or replaces) the lifecycle context. Every disk operation
    /// from now on polls it (cancellation, deadline) and charges one I/O
    /// op against its budget; disk-growing allocations additionally
    /// charge one page against the memory budget.
    pub fn set_lifecycle(&self, ctx: LifecycleCtx) {
        *self.lifecycle.lock() = Some(ctx);
    }

    /// Removes the lifecycle context (e.g. between queries on a shared
    /// engine).
    pub fn clear_lifecycle(&self) {
        *self.lifecycle.lock() = None;
    }

    /// The current lifecycle context, if any (cheap clone of an `Arc`).
    fn lifecycle_ctx(&self) -> Option<LifecycleCtx> {
        self.lifecycle.lock().clone()
    }

    /// Number of frames.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The active retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Number of resident pages right now.
    pub fn resident(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Number of resident pages currently pinned — 0 whenever no guard is
    /// alive, which the chaos suite asserts after every run, failed or
    /// not.
    pub fn pinned_frames(&self) -> usize {
        self.inner
            .lock()
            .map
            .values()
            // ORDERING: reading under the inner lock; pins only rise under
            // this same lock, so a zero read here is a true quiescent frame.
            .filter(|f| f.pins.load(Ordering::Relaxed) > 0)
            .count()
    }

    /// The shared I/O counters.
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// Total pages allocated on the underlying disk.
    pub fn num_pages(&self) -> u64 {
        self.disk.num_pages()
    }

    /// Runs a disk operation, retrying transient failures under the
    /// pool's policy. Corruption and non-storage errors propagate
    /// unretried.
    ///
    /// This is the single choke point every disk operation flows through,
    /// so it is also where the lifecycle contract lives: one poll
    /// (cancellation, deadline) and one I/O-budget charge per logical
    /// operation — charged once, not once per retry attempt.
    fn retrying<T>(&self, mut op: impl FnMut() -> Result<T>) -> Result<T> {
        if let Some(lc) = self.lifecycle_ctx() {
            lc.poll()?;
            lc.charge_io(1)?;
        }
        let mut attempt = 0u32;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) => {
                    if !e.is_transient() || attempt >= self.retry.max_retries {
                        return Err(e);
                    }
                    attempt += 1;
                    self.stats.record_retry();
                    let delay = self.retry.delay_for(attempt);
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                }
            }
        }
    }

    /// Fetches page `id`, reading from disk on a miss. The guard pins the
    /// page until dropped.
    pub fn fetch(&self, id: PageId) -> Result<PinnedPage> {
        let _rank = invariants::ordered(rank::POOL, "pool.inner");
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(frame) = inner.map.get(&id) {
            frame.last_used.store(tick, Ordering::Relaxed);
            // ORDERING: the inner lock is held, and eviction decisions read
            // pins under the same lock — the mutex supplies the ordering,
            // the atomic only the lock-free read in PinnedPage::drop.
            frame.pins.fetch_add(1, Ordering::Relaxed);
            self.stats.record_hit();
            return Ok(PinnedPage {
                frame: Arc::clone(frame),
            });
        }
        self.make_room(&mut inner)?;
        let mut page = Page::zeroed();
        self.retrying(|| self.disk.read_page(id, &mut page))?;
        if let Err((stored, computed)) = page.verify_checksum() {
            self.stats.record_corruption();
            return Err(Error::Corruption(format!(
                "page {id}: stored checksum {stored:#010x}, computed {computed:#010x}"
            )));
        }
        Ok(self.install(&mut inner, id, page, false, tick))
    }

    /// Allocates a zeroed page — reusing a freed page when one is
    /// available, growing the disk otherwise — and returns it pinned.
    pub fn alloc(&self) -> Result<PinnedPage> {
        let _rank = invariants::ordered(rank::POOL, "pool.inner");
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        self.make_room(&mut inner)?;
        if let Some(id) = inner.freelist.pop() {
            // Reused page: its on-disk bytes are stale, so the zeroed
            // resident copy is dirty.
            return Ok(self.install(&mut inner, id, Page::zeroed(), true, tick));
        }
        // Only disk growth counts against the memory-page budget —
        // freelist reuse returns capacity the query already paid for.
        if let Some(lc) = self.lifecycle_ctx() {
            lc.charge_pages(1)?;
        }
        let id = self.retrying(|| self.disk.alloc_page())?;
        // The disk wrote zeros; the resident copy matches, so not dirty.
        Ok(self.install(&mut inner, id, Page::zeroed(), false, tick))
    }

    /// Returns a page to the freelist for reuse. The caller must not hold a
    /// pin on it and must not use the id again; a pinned page is rejected.
    pub fn free(&self, id: PageId) -> Result<()> {
        let _rank = invariants::ordered(rank::POOL, "pool.inner");
        let mut inner = self.inner.lock();
        if let Some(frame) = inner.map.get(&id) {
            // ORDERING: under the inner lock, and pins only rise under that
            // lock — a zero read is stable for the rest of this call.
            if frame.pins.load(Ordering::Relaxed) > 0 {
                return Err(Error::Storage(format!("freeing pinned page {id}")));
            }
            inner.map.remove(&id);
        }
        debug_assert!(!inner.freelist.contains(&id), "double free of page {id}");
        inner.freelist.push(id);
        invariants::invariant(!inner.map.contains_key(&id), || {
            format!("freed page {id} is still resident in the frame map")
        });
        invariants::invariant(
            inner.freelist.iter().all(|f| !inner.map.contains_key(f)),
            || "freelist aliases a resident frame".to_string(),
        );
        Ok(())
    }

    /// Pages currently on the freelist.
    pub fn free_pages(&self) -> usize {
        self.inner.lock().freelist.len()
    }

    /// Replaces the freelist wholesale — the recovery path. After
    /// reopening a file-backed disk, the manifest names the live pages;
    /// everything else on the disk (pages a crashed run allocated but
    /// never sealed into the manifest) is handed back here so nothing
    /// leaks. Rejected while any page is resident: adoption is a
    /// construction-time step, before the first fetch.
    pub fn adopt_freelist(&self, pages: Vec<PageId>) -> Result<()> {
        let _rank = invariants::ordered(rank::POOL, "pool.inner");
        let mut inner = self.inner.lock();
        if !inner.map.is_empty() {
            return Err(Error::Storage(format!(
                "adopt_freelist on a warm pool ({} resident pages)",
                inner.map.len()
            )));
        }
        let num_pages = self.disk.num_pages();
        if let Some(&bad) = pages.iter().find(|&&p| p >= num_pages) {
            return Err(Error::Storage(format!(
                "adopted free page {bad} is beyond the disk ({num_pages} pages)"
            )));
        }
        inner.freelist = pages;
        Ok(())
    }

    /// Forces written pages down to durable storage (`fsync` on the
    /// file-backed disk). Counts as a disk operation for the lifecycle
    /// budget; called by the checkpoint machinery before a manifest
    /// record may reference the pages.
    pub fn sync(&self) -> Result<()> {
        self.retrying(|| self.disk.sync())
    }

    fn install(
        &self,
        inner: &mut PoolInner,
        id: PageId,
        page: Page,
        dirty: bool,
        tick: u64,
    ) -> PinnedPage {
        let frame = Arc::new(Frame {
            pid: id,
            page: RwLock::new(page),
            pins: AtomicU32::new(1),
            dirty: AtomicBool::new(dirty),
            last_used: AtomicU64::new(tick),
        });
        inner.map.insert(id, Arc::clone(&frame));
        PinnedPage { frame }
    }

    /// Ensures a free frame exists, evicting the LRU unpinned page if
    /// necessary. Errors when every frame is pinned. When a dirty
    /// victim's write-back fails even after retries, the frame is
    /// re-inserted — the resident copy is the only good one — and the
    /// error propagates with the pool still consistent.
    fn make_room(&self, inner: &mut PoolInner) -> Result<()> {
        if inner.map.len() < self.capacity {
            return Ok(());
        }
        let victim = inner
            .map
            .values()
            // ORDERING: under the inner lock; pins only rise under this
            // lock, so an unpinned victim stays unpinned until we release.
            .filter(|f| f.pins.load(Ordering::Relaxed) == 0)
            .min_by_key(|f| f.last_used.load(Ordering::Relaxed))
            .map(|f| f.pid)
            .ok_or_else(|| {
                Error::Storage(format!(
                    "buffer pool exhausted: all {} frames pinned",
                    self.capacity
                ))
            })?;
        let Some(frame) = inner.map.remove(&victim) else {
            // Unreachable by construction — the victim id was taken from
            // the map under the same lock — but a corrupted map is a
            // storage error, not a crash.
            return Err(Error::Storage(format!(
                "eviction victim {victim} vanished from the pool map"
            )));
        };
        // ORDERING: the frame is unpinned and the inner lock is held, so no
        // writer can set dirty concurrently (writers hold a pin); the page
        // RwLock below orders the body bytes themselves.
        if frame.dirty.load(Ordering::Relaxed) {
            let started = std::time::Instant::now();
            let written = {
                let mut page = frame.page.write();
                page.seal();
                invariants::invariant(page.verify_checksum().is_ok(), || {
                    format!("page {victim} fails checksum verification right after seal")
                });
                self.retrying(|| self.disk.write_page(victim, &page))
            };
            if let Err(e) = written {
                inner.map.insert(victim, frame);
                return Err(e);
            }
            // ORDERING: still under the inner lock with zero pins — no
            // concurrent reader of this frame's dirty bit exists.
            frame.dirty.store(false, Ordering::Relaxed);
            self.stats.record_writeback_timed(started.elapsed());
        }
        self.stats.record_eviction();
        Ok(())
    }

    /// Writes every dirty resident page back to the disk (pages stay
    /// resident and become clean). On failure the page keeps its dirty
    /// bit, so nothing is silently dropped and a later flush can retry.
    pub fn flush_all(&self) -> Result<()> {
        let _rank = invariants::ordered(rank::POOL, "pool.inner");
        let inner = self.inner.lock();
        for frame in inner.map.values() {
            // ORDERING: a concurrent write guard may set dirty while we
            // read; missing it is benign — the bit stays set and a later
            // flush retries. The page RwLock orders the bytes we write.
            if frame.dirty.load(Ordering::Relaxed) {
                {
                    let mut page = frame.page.write();
                    page.seal();
                    invariants::invariant(page.verify_checksum().is_ok(), || {
                        format!(
                            "page {} fails checksum verification right after seal",
                            frame.pid
                        )
                    });
                    self.retrying(|| self.disk.write_page(frame.pid, &page))?;
                }
                // ORDERING: clearing after the write-back completed; a
                // racing writer re-sets it via PinnedPage::write, and
                // either order leaves the bit conservatively correct.
                frame.dirty.store(false, Ordering::Relaxed);
            }
        }
        Ok(())
    }
}

impl Drop for BufferPool {
    /// Quiescence check (`debug-invariants` only): a pool must not be
    /// torn down while pages are still pinned — a live guard would keep
    /// mutating a frame whose pool-side bookkeeping is gone. Skipped when
    /// already panicking so a failing test reports its own assertion.
    fn drop(&mut self) {
        if invariants::checks() > 0 && !std::thread::panicking() {
            let inner = self.inner.lock();
            let pinned = inner
                .map
                .values()
                // ORDERING: diagnostic read at teardown; &mut self means no
                // new pins can be taken, only in-flight drops can race.
                .filter(|f| f.pins.load(Ordering::Relaxed) > 0)
                .count();
            invariants::invariant(pinned == 0, || {
                format!("buffer pool dropped with {pinned} frame(s) still pinned")
            });
        }
    }
}

/// RAII guard for a pinned page. While alive the page cannot be evicted;
/// dropping it unpins.
pub struct PinnedPage {
    frame: Arc<Frame>,
}

impl std::fmt::Debug for PinnedPage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PinnedPage(id={})", self.frame.pid)
    }
}

impl PinnedPage {
    /// The page's id.
    pub fn id(&self) -> PageId {
        self.frame.pid
    }

    /// Shared read access to the page body.
    pub fn read(&self) -> RwLockReadGuard<'_, Page> {
        self.frame.page.read()
    }

    /// Exclusive write access; marks the page dirty.
    pub fn write(&self) -> RwLockWriteGuard<'_, Page> {
        // ORDERING: the pin prevents eviction, so the only concurrent
        // reader is flush_all, for which a stale read is benign (the bit
        // stays set); the page RwLock orders the body bytes.
        self.frame.dirty.store(true, Ordering::Relaxed);
        self.frame.page.write()
    }
}

impl Drop for PinnedPage {
    fn drop(&mut self) {
        // ORDERING: decrement-only; every decision made on the count
        // happens under the pool's inner lock, which supplies the
        // happens-before. The RMW's atomicity is all that is needed here.
        self.frame.pins.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;
    use crate::fault::{FaultKind, FaultPlan, FaultyDisk, OpKind};
    use crate::page::PAGE_HEADER;

    fn pool(frames: usize) -> BufferPool {
        let stats = Arc::new(IoStats::default());
        BufferPool::new(Box::new(MemDisk::new(Arc::clone(&stats))), frames, stats)
    }

    fn faulty_pool(frames: usize, retry: RetryPolicy) -> (BufferPool, FaultPlan) {
        let stats = Arc::new(IoStats::default());
        let plan = FaultPlan::new(99);
        let disk = FaultyDisk::new(
            Box::new(MemDisk::new(Arc::clone(&stats))),
            plan.clone(),
            Arc::clone(&stats),
        );
        (
            BufferPool::with_retry(Box::new(disk), frames, stats, retry),
            plan,
        )
    }

    #[test]
    fn hit_costs_no_io() {
        let p = pool(2);
        let a = p.alloc().unwrap();
        let id = a.id();
        drop(a);
        p.stats().reset();
        let _again = p.fetch(id).unwrap();
        let snap = p.stats().snapshot();
        assert_eq!(snap.reads, 0, "resident fetch must be free");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let p = pool(2);
        let a = p.alloc().unwrap().id();
        let b = p.alloc().unwrap().id();
        // Touch a so b becomes LRU.
        drop(p.fetch(a).unwrap());
        p.stats().reset();
        let _c = p.alloc().unwrap(); // evicts b
        drop(p.fetch(a).unwrap()); // still resident: no read
        assert_eq!(p.stats().snapshot().reads, 0);
        drop(p.fetch(b).unwrap()); // was evicted: one read
        assert_eq!(p.stats().snapshot().reads, 1);
    }

    #[test]
    fn eviction_writes_back_dirty_pages_only() {
        let p = pool(1);
        let a = p.alloc().unwrap();
        a.write().put_u64(PAGE_HEADER, 77);
        let a_id = a.id();
        drop(a);
        p.stats().reset();
        let b = p.alloc().unwrap(); // evicts dirty a -> 1 write
        assert_eq!(p.stats().snapshot().writes, 1);
        drop(b); // b clean
        p.stats().reset();
        let back = p.fetch(a_id).unwrap(); // evicts clean b -> 0 writes
        assert_eq!(p.stats().snapshot().writes, 0);
        assert_eq!(
            back.read().get_u64(PAGE_HEADER),
            77,
            "dirty data survived eviction"
        );
    }

    #[test]
    fn hit_miss_and_eviction_counters_across_forced_evictions() {
        // Two frames, three pages: every round-robin fetch cycle misses and
        // evicts, so the counters are exactly predictable.
        let p = pool(2);
        let ids: Vec<_> = (0..3).map(|_| p.alloc().unwrap().id()).collect();
        p.stats().reset();

        // Warm fetches of the two resident pages: hits, no I/O. (alloc of
        // page 2 evicted page 0, so residents are pages 1 and 2.)
        drop(p.fetch(ids[1]).unwrap());
        drop(p.fetch(ids[2]).unwrap());
        let snap = p.stats().snapshot();
        assert_eq!((snap.hits, snap.reads, snap.evictions), (2, 0, 0));

        // Three cold fetches in LRU-hostile order: each one misses and
        // evicts a clean page (no write-backs — nothing is dirty).
        for &id in &[ids[0], ids[1], ids[2]] {
            drop(p.fetch(id).unwrap());
        }
        let snap = p.stats().snapshot();
        assert_eq!(snap.hits, 2, "cold fetches add no hits");
        assert_eq!(snap.reads, 3, "every cold fetch reads");
        assert_eq!(snap.evictions, 3, "every cold fetch evicts");
        assert_eq!(snap.writebacks, 0, "clean victims need no write-back");
        assert!((p.stats().hit_rate() - 0.4).abs() < 1e-12, "2 of 5");

        // Dirty a page, force it out: the eviction becomes a write-back.
        p.fetch(ids[0]).unwrap().write().put_u64(PAGE_HEADER, 9);
        drop(p.fetch(ids[1]).unwrap()); // hit or miss depending on residency
        p.stats().reset();
        drop(p.fetch(ids[2]).unwrap()); // evicts dirty ids[0]
        let snap = p.stats().snapshot();
        assert_eq!(snap.evictions, 1);
        assert_eq!(snap.writebacks, 1, "dirty victim written back");
        assert_eq!(snap.writes, 1);
    }

    #[test]
    fn pinned_pages_are_never_evicted() {
        let p = pool(2);
        let a = p.alloc().unwrap();
        let b = p.alloc().unwrap();
        assert_eq!(p.pinned_frames(), 2);
        // Both pinned; a third page cannot enter.
        let err = p.alloc().unwrap_err();
        assert!(err.to_string().contains("pinned"), "{err}");
        drop(b);
        // Now there is a victim.
        let c = p.alloc().unwrap();
        assert_eq!(a.read().get_u64(PAGE_HEADER), 0);
        drop((a, c));
        assert_eq!(p.pinned_frames(), 0);
    }

    #[test]
    fn flush_all_cleans_pages() {
        let p = pool(4);
        let a = p.alloc().unwrap();
        a.write().put_u64(PAGE_HEADER, 5);
        drop(a);
        p.stats().reset();
        p.flush_all().unwrap();
        assert_eq!(p.stats().snapshot().writes, 1);
        p.flush_all().unwrap();
        assert_eq!(
            p.stats().snapshot().writes,
            1,
            "second flush writes nothing"
        );
    }

    #[test]
    fn resident_and_capacity_report() {
        let p = pool(3);
        assert_eq!(p.capacity(), 3);
        let _a = p.alloc().unwrap();
        let _b = p.alloc().unwrap();
        assert_eq!(p.resident(), 2);
        assert_eq!(p.num_pages(), 2);
    }

    #[test]
    fn eviction_error_propagates_from_injected_fault() {
        let (p, plan) = faulty_pool(1, RetryPolicy::none());
        let a = p.alloc().unwrap();
        a.write().put_u64(PAGE_HEADER, 1);
        drop(a);
        // Next disk op is the dirty write-back during eviction.
        plan.on_nth(None, 1, FaultKind::Transient);
        let err = p.alloc().unwrap_err();
        assert!(matches!(err, Error::Storage(_)), "{err}");
    }

    #[test]
    fn writeback_fault_leaves_pool_usable_and_loses_nothing() {
        // The satellite case: an injected fault during eviction write-back
        // must leave the pool consistent — the dirty page stays resident
        // (its memory copy is the only good one), pins return to zero, and
        // subsequent operations succeed.
        let (p, plan) = faulty_pool(2, RetryPolicy::none());
        let a = p.alloc().unwrap();
        a.write().put_u64(PAGE_HEADER, 0xCAFE);
        let a_id = a.id();
        drop(a);
        let _b = p.alloc().unwrap(); // second frame occupied + pinned
        plan.on_nth(Some(OpKind::Write), 1, FaultKind::Transient);
        let err = p.alloc().unwrap_err();
        assert!(matches!(err, Error::Storage(_)), "{err}");
        // No frame leaked: the victim went back in, so the pool is full
        // but consistent.
        assert_eq!(p.resident(), 2, "victim frame re-inserted after failure");
        let back = p.fetch(a_id).unwrap();
        assert_eq!(
            back.read().get_u64(PAGE_HEADER),
            0xCAFE,
            "dirty page survived the failed write-back"
        );
        drop(back);
        drop(_b);
        assert_eq!(p.pinned_frames(), 0, "all pins released");
        // With the fault gone the eviction now succeeds.
        let c = p.alloc().unwrap();
        drop(c);
        assert_eq!(p.pinned_frames(), 0);
    }

    #[test]
    fn transient_faults_recover_under_retry_policy() {
        let (p, plan) = faulty_pool(1, RetryPolicy::backoff(3));
        let a = p.alloc().unwrap();
        a.write().put_u64(PAGE_HEADER, 7);
        drop(a);
        // The write-back fails once, then the retry succeeds.
        plan.on_nth(Some(OpKind::Write), 1, FaultKind::Transient);
        let _b = p.alloc().unwrap();
        let snap = p.stats().snapshot();
        assert!(snap.retries >= 1, "retry must be counted: {snap:?}");
        assert!(snap.faults >= 1, "fault must be counted: {snap:?}");
    }

    #[test]
    fn persistent_fault_exhausts_retries() {
        let (p, plan) = faulty_pool(1, RetryPolicy::backoff(2));
        let a = p.alloc().unwrap();
        a.write().put_u64(PAGE_HEADER, 7);
        drop(a);
        plan.on_nth(Some(OpKind::Write), 1, FaultKind::Persistent);
        let err = p.alloc().unwrap_err();
        assert!(matches!(err, Error::Storage(_)), "{err}");
        assert_eq!(p.stats().snapshot().retries, 2, "both retries spent");
    }

    #[test]
    fn corrupted_page_surfaces_corruption_error() {
        let (p, plan) = faulty_pool(1, RetryPolicy::backoff(3));
        let a = p.alloc().unwrap();
        a.write().put_u64(PAGE_HEADER, 0xBEEF);
        let a_id = a.id();
        drop(a);
        // The eviction write-back silently damages the page...
        plan.on_nth(Some(OpKind::Write), 1, FaultKind::Corrupt);
        drop(p.alloc().unwrap());
        // ...and the re-read detects it, without wasting retries on it.
        let err = p.fetch(a_id).unwrap_err();
        assert!(matches!(err, Error::Corruption(_)), "{err}");
        let snap = p.stats().snapshot();
        assert_eq!(snap.corruptions, 1);
        assert_eq!(snap.retries, 0, "corruption is not retried");
    }

    #[test]
    fn torn_flush_is_reported_and_reflush_heals_the_medium() {
        // A torn write leaves a mixed old/new image on disk, but the pool
        // keeps the page dirty and resident, so the *good* copy shadows the
        // garbage and a later flush repairs it.
        let (p, plan) = faulty_pool(1, RetryPolicy::none());
        let a = p.alloc().unwrap();
        {
            let mut page = a.write();
            for off in (PAGE_HEADER..crate::PAGE_SIZE).step_by(8) {
                page.put_u64(off, 0x5555_5555_5555_5555);
            }
        }
        let a_id = a.id();
        drop(a);
        plan.on_nth(Some(OpKind::Write), 1, FaultKind::Torn);
        assert!(p.flush_all().is_err(), "torn write must be reported");
        // Still dirty: the second flush rewrites the full image.
        p.flush_all().unwrap();
        // Evict (clean now, no write) and re-read: the healed image
        // verifies and carries the data.
        drop(p.alloc().unwrap());
        let back = p.fetch(a_id).unwrap();
        assert_eq!(back.read().get_u64(PAGE_HEADER), 0x5555_5555_5555_5555);
    }

    #[test]
    fn retry_policy_delays_are_bounded() {
        let p = RetryPolicy::backoff(40);
        assert_eq!(p.delay_for(1), Duration::from_micros(100));
        assert_eq!(p.delay_for(2), Duration::from_micros(200));
        assert_eq!(p.delay_for(8), Duration::from_millis(10), "capped");
        assert_eq!(p.delay_for(40), Duration::from_millis(10), "no overflow");
        assert_eq!(RetryPolicy::none().delay_for(1), Duration::ZERO);
    }
}

#[cfg(test)]
mod lifecycle_tests {
    use super::*;
    use crate::disk::MemDisk;
    use hdsj_core::LifecycleCtx;

    fn pool(frames: usize) -> BufferPool {
        let stats = Arc::new(IoStats::default());
        BufferPool::new(Box::new(MemDisk::new(Arc::clone(&stats))), frames, stats)
    }

    #[test]
    fn canceled_ctx_stops_disk_ops() {
        let p = pool(4);
        let ctx = LifecycleCtx::unbounded();
        p.set_lifecycle(ctx.clone());
        let a = p.alloc().unwrap();
        let a_id = a.id();
        drop(a);
        ctx.cancel_token().cancel();
        let err = p.alloc().unwrap_err();
        assert!(matches!(err, Error::Canceled(_)), "{err}");
        // Pool *hits* stay free — no disk op, no poll — so an already
        // resident page can still be read while the error unwinds.
        assert!(p.fetch(a_id).is_ok());
        p.clear_lifecycle();
        assert!(p.alloc().is_ok(), "context removed, ops resume");
    }

    #[test]
    fn io_budget_bounds_disk_operations() {
        let p = pool(4);
        p.set_lifecycle(LifecycleCtx::builder().io_budget(2).build());
        drop(p.alloc().unwrap()); // io op 1 (disk grow)
        drop(p.alloc().unwrap()); // io op 2
        let err = p.alloc().unwrap_err();
        assert!(matches!(err, Error::BudgetExhausted(_)), "{err}");
    }

    #[test]
    fn page_budget_counts_growth_not_reuse() {
        let p = pool(4);
        p.set_lifecycle(LifecycleCtx::builder().page_budget(1).build());
        let a = p.alloc().unwrap();
        let id = a.id();
        drop(a);
        let err = p.alloc().unwrap_err();
        assert!(matches!(err, Error::BudgetExhausted(_)), "{err}");
        // Freed pages are capacity already paid for: reuse succeeds.
        p.free(id).unwrap();
        assert_eq!(p.alloc().unwrap().id(), id);
    }

    #[test]
    fn adopt_freelist_recycles_orphaned_pages() {
        let stats = Arc::new(IoStats::default());
        let disk = MemDisk::new(Arc::clone(&stats));
        for _ in 0..4 {
            disk.alloc_page().unwrap();
        }
        let p = BufferPool::new(Box::new(disk), 4, stats);
        // Pages 1 and 3 are "live" per some manifest; 0 and 2 leaked.
        p.adopt_freelist(vec![0, 2]).unwrap();
        assert_eq!(p.free_pages(), 2);
        let a = p.alloc().unwrap();
        let b = p.alloc().unwrap();
        assert_eq!((a.id(), b.id()), (2, 0), "leaked pages reused first");
        assert_eq!(p.num_pages(), 4, "no growth while the freelist lasts");
    }

    #[test]
    fn adopt_freelist_rejects_warm_or_bogus_state() {
        let p = pool(4);
        let err = p.adopt_freelist(vec![7]).unwrap_err();
        assert!(err.to_string().contains("beyond the disk"), "{err}");
        let _a = p.alloc().unwrap();
        let err = p.adopt_freelist(vec![]).unwrap_err();
        assert!(err.to_string().contains("warm pool"), "{err}");
    }

    #[test]
    fn sync_reaches_the_disk() {
        let p = pool(2);
        drop(p.alloc().unwrap());
        p.flush_all().unwrap();
        p.sync().unwrap();
    }
}

#[cfg(test)]
mod freelist_tests {
    use super::*;
    use crate::disk::MemDisk;
    use crate::page::PAGE_HEADER;

    fn pool(frames: usize) -> BufferPool {
        let stats = Arc::new(IoStats::default());
        BufferPool::new(Box::new(MemDisk::new(Arc::clone(&stats))), frames, stats)
    }

    #[test]
    fn freed_pages_are_reused_before_growing_the_disk() {
        let p = pool(4);
        let id = p.alloc().unwrap().id();
        assert_eq!(p.num_pages(), 1);
        p.free(id).unwrap();
        assert_eq!(p.free_pages(), 1);
        let again = p.alloc().unwrap();
        assert_eq!(again.id(), id, "freelist id reused");
        assert_eq!(p.num_pages(), 1, "disk did not grow");
        assert_eq!(p.free_pages(), 0);
    }

    #[test]
    fn reused_pages_come_back_zeroed() {
        let p = pool(2);
        let a = p.alloc().unwrap();
        a.write().put_u64(PAGE_HEADER, 0xfeed);
        let id = a.id();
        drop(a);
        p.flush_all().unwrap();
        p.free(id).unwrap();
        let b = p.alloc().unwrap();
        assert_eq!(b.id(), id);
        assert_eq!(
            b.read().get_u64(PAGE_HEADER),
            0,
            "stale bytes must not resurface"
        );
    }

    #[test]
    fn freeing_a_pinned_page_is_rejected() {
        let p = pool(2);
        let a = p.alloc().unwrap();
        let err = p.free(a.id()).unwrap_err();
        assert!(err.to_string().contains("pinned"), "{err}");
        let id = a.id();
        drop(a);
        p.free(id).unwrap();
    }

    #[test]
    fn freeing_a_non_resident_page_works() {
        let p = pool(1);
        let a = p.alloc().unwrap().id();
        let _b = p.alloc().unwrap(); // evicts a
        p.free(a).unwrap();
        assert_eq!(p.free_pages(), 1);
    }
}
