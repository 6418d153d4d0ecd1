//! Query lifecycle: cooperative cancellation, deadlines, and resource
//! budgets.
//!
//! A [`LifecycleCtx`] travels with one query. Every long-running layer
//! polls it cooperatively — exec-pool workers at chunk boundaries, the
//! buffer pool on every disk operation, the algorithms at phase
//! boundaries — so a raised cancel flag, an expired deadline, or an
//! exhausted budget terminates the query with a typed error
//! ([`Error::Canceled`] / [`Error::DeadlineExceeded`] /
//! [`Error::BudgetExhausted`]) within one chunk / one page-op granule,
//! never with a panic. The context is cheap to clone (an `Arc`), and a
//! [`CancelToken`] can raise the flag from any thread.
//!
//! Wall-clock reads are deliberately confined to this module: the
//! deadline is captured as an [`Instant`] at construction and compared in
//! [`LifecycleCtx::poll`], so the byte-deterministic modules (the sort,
//! the sweep, the kernels) never touch the clock themselves — they only
//! call `poll()`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::{Error, Result};

/// Shared state behind every clone of a [`LifecycleCtx`] /
/// [`CancelToken`] pair.
#[derive(Debug)]
struct Shared {
    /// Cancel gate: raised once by [`CancelToken::cancel`], observed by
    /// every poll site. Advisory only — no data is published through it.
    cancel: AtomicBool,
    /// Absolute wall-clock deadline, captured at construction.
    deadline: Option<Instant>,
    /// Total allowed disk operations (reads + writes + allocs).
    io_budget: Option<u64>,
    /// Total allowed distinct storage pages (pool allocations that grow
    /// the backing disk).
    page_budget: Option<u64>,
    /// Number of `poll()` calls — flushed as `lifecycle.cancel_polls`.
    polls: AtomicU64,
    /// Disk operations charged so far.
    io_used: AtomicU64,
    /// Pages charged so far.
    pages_used: AtomicU64,
    /// Durable checkpoints recorded — flushed as `lifecycle.checkpoints`.
    checkpoints: AtomicU64,
}

/// Per-query lifecycle context: cancel flag, deadline, and budgets.
///
/// Clones share state. The default context ([`LifecycleCtx::unbounded`])
/// never fires, so threading it through a path costs one atomic load per
/// poll.
#[derive(Clone, Debug)]
pub struct LifecycleCtx {
    shared: Arc<Shared>,
}

/// A handle that cancels the associated query from any thread.
#[derive(Clone, Debug)]
pub struct CancelToken {
    shared: Arc<Shared>,
}

/// Snapshot of lifecycle counters, for flushing into obs output even when
/// the query terminates early.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LifecycleStats {
    /// Number of cooperative poll calls.
    pub polls: u64,
    /// Disk operations charged against the I/O budget.
    pub io_used: u64,
    /// Pages charged against the memory-page budget.
    pub pages_used: u64,
    /// Durable checkpoints recorded.
    pub checkpoints: u64,
}

/// Builder for a bounded [`LifecycleCtx`].
#[derive(Debug, Default)]
pub struct LifecycleBuilder {
    deadline: Option<Duration>,
    io_budget: Option<u64>,
    page_budget: Option<u64>,
}

impl LifecycleBuilder {
    /// Sets a wall-clock deadline, measured from [`LifecycleBuilder::build`].
    pub fn deadline_ms(mut self, ms: u64) -> Self {
        self.deadline = Some(Duration::from_millis(ms));
        self
    }

    /// Bounds the total number of disk operations.
    pub fn io_budget(mut self, ops: u64) -> Self {
        self.io_budget = Some(ops);
        self
    }

    /// Bounds the number of storage pages the query may allocate.
    pub fn page_budget(mut self, pages: u64) -> Self {
        self.page_budget = Some(pages);
        self
    }

    /// Builds the context; the deadline clock starts now.
    pub fn build(self) -> LifecycleCtx {
        LifecycleCtx {
            shared: Arc::new(Shared {
                cancel: AtomicBool::new(false),
                // Arming a deadline is wall-clock by definition; it gates
                // *when* a query stops, not output.
                deadline: self.deadline.map(|d| Instant::now() + d),
                io_budget: self.io_budget,
                page_budget: self.page_budget,
                polls: AtomicU64::new(0),
                io_used: AtomicU64::new(0),
                pages_used: AtomicU64::new(0),
                checkpoints: AtomicU64::new(0),
            }),
        }
    }
}

impl Default for LifecycleCtx {
    fn default() -> Self {
        Self::unbounded()
    }
}

impl LifecycleCtx {
    /// A context with no deadline and no budgets; only explicit
    /// cancellation can fire.
    pub fn unbounded() -> LifecycleCtx {
        LifecycleBuilder::default().build()
    }

    /// Starts building a bounded context.
    pub fn builder() -> LifecycleBuilder {
        LifecycleBuilder::default()
    }

    /// A token that cancels this query from another thread.
    pub fn cancel_token(&self) -> CancelToken {
        CancelToken {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Cooperative poll point. Returns `Err(Canceled)` once the cancel
    /// flag is raised and `Err(DeadlineExceeded)` once the deadline
    /// passes; otherwise `Ok(())`. Callers place this at chunk, page-op,
    /// and phase boundaries — the granularity of those call sites bounds
    /// how far a query can overrun its cancellation.
    pub fn poll(&self) -> Result<()> {
        // ORDERING: Relaxed — the poll counter is a statistic.
        self.shared.polls.fetch_add(1, Ordering::Relaxed);
        // ORDERING: Relaxed — the cancel flag is a monotonic advisory
        // gate; no memory is published through it, observing the raise
        // late only delays the stop by one poll interval.
        if self.shared.cancel.load(Ordering::Relaxed) {
            return Err(Error::Canceled("query canceled".into()));
        }
        if let Some(deadline) = self.shared.deadline {
            // The deadline check is wall-clock by definition; it decides
            // whether to stop, never output bytes.
            if Instant::now() >= deadline {
                return Err(Error::DeadlineExceeded("wall-clock deadline passed".into()));
            }
        }
        Ok(())
    }

    /// True once cancellation has been requested (does not consume a
    /// poll). Used by layers that want to stop issuing new work without
    /// constructing the error themselves.
    pub fn is_canceled(&self) -> bool {
        // ORDERING: Relaxed — advisory gate, see `poll`.
        self.shared.cancel.load(Ordering::Relaxed)
    }

    /// Charges `n` disk operations against the I/O budget.
    pub fn charge_io(&self, n: u64) -> Result<()> {
        // ORDERING: Relaxed — budget counters tolerate small overshoot;
        // the final `>` comparison is per-thread exact on the fetch_add
        // result.
        let prev = self.shared.io_used.fetch_add(n, Ordering::Relaxed);
        if let Some(budget) = self.shared.io_budget {
            if prev + n > budget {
                return Err(Error::BudgetExhausted(format!(
                    "i/o budget of {budget} disk ops exhausted"
                )));
            }
        }
        Ok(())
    }

    /// Charges `n` newly allocated storage pages against the page budget.
    pub fn charge_pages(&self, n: u64) -> Result<()> {
        // ORDERING: Relaxed — see `charge_io`.
        let prev = self.shared.pages_used.fetch_add(n, Ordering::Relaxed);
        if let Some(budget) = self.shared.page_budget {
            if prev + n > budget {
                return Err(Error::BudgetExhausted(format!(
                    "memory budget of {budget} pages exhausted"
                )));
            }
        }
        Ok(())
    }

    /// Records one durable checkpoint (manifest record + sync).
    pub fn note_checkpoint(&self) {
        // ORDERING: Relaxed — statistic.
        self.shared.checkpoints.fetch_add(1, Ordering::Relaxed);
    }

    /// Current counter values; callable on both success and error paths
    /// so partial metrics are never lost.
    pub fn stats(&self) -> LifecycleStats {
        LifecycleStats {
            // ORDERING: Relaxed — statistics snapshot; exactness across
            // counters is not required.
            polls: self.shared.polls.load(Ordering::Relaxed),
            io_used: self.shared.io_used.load(Ordering::Relaxed),
            pages_used: self.shared.pages_used.load(Ordering::Relaxed),
            checkpoints: self.shared.checkpoints.load(Ordering::Relaxed),
        }
    }
}

impl CancelToken {
    /// Raises the cancel flag; every subsequent poll returns
    /// [`Error::Canceled`]. Idempotent.
    pub fn cancel(&self) {
        // ORDERING: Relaxed — monotonic advisory gate, see
        // `LifecycleCtx::poll`.
        self.shared.cancel.store(true, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_polls_forever() {
        let ctx = LifecycleCtx::unbounded();
        for _ in 0..1000 {
            ctx.poll().unwrap();
        }
        assert_eq!(ctx.stats().polls, 1000);
    }

    #[test]
    fn cancel_fires_on_next_poll() {
        let ctx = LifecycleCtx::unbounded();
        ctx.poll().unwrap();
        assert!(!ctx.is_canceled());
        ctx.cancel_token().cancel();
        assert!(ctx.is_canceled());
        let err = ctx.poll().unwrap_err();
        assert!(matches!(err, Error::Canceled(_)), "{err}");
    }

    #[test]
    #[allow(clippy::disallowed_methods)]
    fn cancel_from_another_thread() {
        let ctx = LifecycleCtx::unbounded();
        let token = ctx.cancel_token();
        let handle = std::thread::spawn(move || token.cancel());
        handle.join().unwrap();
        assert!(matches!(ctx.poll(), Err(Error::Canceled(_))));
    }

    #[test]
    fn deadline_fires_after_elapse() {
        let ctx = LifecycleCtx::builder().deadline_ms(1).build();
        std::thread::sleep(Duration::from_millis(10));
        let err = ctx.poll().unwrap_err();
        assert!(matches!(err, Error::DeadlineExceeded(_)), "{err}");
    }

    #[test]
    fn generous_deadline_does_not_fire() {
        let ctx = LifecycleCtx::builder().deadline_ms(60_000).build();
        ctx.poll().unwrap();
    }

    #[test]
    fn io_budget_exhausts() {
        let ctx = LifecycleCtx::builder().io_budget(3).build();
        ctx.charge_io(2).unwrap();
        ctx.charge_io(1).unwrap();
        let err = ctx.charge_io(1).unwrap_err();
        assert!(matches!(err, Error::BudgetExhausted(_)), "{err}");
        // Stays exhausted.
        assert!(ctx.charge_io(1).is_err());
        assert_eq!(ctx.stats().io_used, 5);
    }

    #[test]
    fn page_budget_exhausts() {
        let ctx = LifecycleCtx::builder().page_budget(2).build();
        ctx.charge_pages(1).unwrap();
        ctx.charge_pages(1).unwrap();
        assert!(matches!(
            ctx.charge_pages(1),
            Err(Error::BudgetExhausted(_))
        ));
    }

    #[test]
    fn stats_snapshot_counts_everything() {
        let ctx = LifecycleCtx::unbounded();
        ctx.poll().unwrap();
        ctx.poll().unwrap();
        ctx.charge_io(4).unwrap();
        ctx.charge_pages(7).unwrap();
        ctx.note_checkpoint();
        let s = ctx.stats();
        assert_eq!(
            s,
            LifecycleStats {
                polls: 2,
                io_used: 4,
                pages_used: 7,
                checkpoints: 1
            }
        );
    }

    #[test]
    fn clones_share_state() {
        let ctx = LifecycleCtx::unbounded();
        let clone = ctx.clone();
        clone.cancel_token().cancel();
        assert!(ctx.is_canceled());
    }
}
