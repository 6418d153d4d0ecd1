//! Runtime invariant layer — the `debug-invariants` feature.
//!
//! The storage engine's locking and pinning contracts, checked at run
//! time: with the `debug-invariants` cargo feature enabled, the engine
//! asserts them across function and thread boundaries, on every
//! operation:
//!
//! * **Lock order** — [`ordered`] maintains a per-thread stack of held
//!   lock ranks (the table in [`rank`], the declaration of the order) and
//!   asserts that every acquisition is of a rank ≥ every rank already
//!   held on the thread, however many calls separate the two.
//! * **Structural invariants** — [`invariant`] guards the buffer-pool
//!   facts the chaos suite relies on: the freelist never aliases a
//!   resident frame, a sealed page's checksum verifies before it reaches
//!   the disk, and a pool is only dropped once every pin is released.
//!
//! With the feature **disabled** (the default) every entry point compiles
//! to a no-op and the tokens are zero-sized, so release builds pay
//! nothing. A violated invariant panics via `assert!` — the chaos and
//! property tests run with the feature on and a trip fails them loudly.
//!
//! [`checks`] counts executed checks so tests can assert the layer was
//! actually live (a silently disabled checker "passes" everything).

/// The global lock-rank order — its one declaration: a thread may only
/// acquire locks of non-decreasing rank. "Pool before stats, never the
/// reverse."
pub mod rank {
    /// `BufferPool::inner` — the pool's frame map / freelist mutex.
    pub const POOL: u8 = 0;
    /// `FaultPlan`'s schedule mutex (`state`).
    pub const FAULT: u8 = 1;
    /// Disk-level locks: `MemDisk::pages`, `FileDisk::io_lock`,
    /// `FileDisk::num_pages`.
    pub const DISK: u8 = 2;
    /// Observability sinks and the counter registry (owned by `hdsj-obs`;
    /// the rank is reserved here so storage code holding any lock above
    /// can still emit trace events).
    pub const OBS: u8 = 3;
}

#[cfg(feature = "debug-invariants")]
mod imp {
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Number of invariant checks executed process-wide. Trips don't
    /// count — they panic; this exists so tests can prove the layer ran.
    static CHECKS: AtomicU64 = AtomicU64::new(0);

    /// Monotonic id source for [`OrderToken`]s, so out-of-order drops
    /// release the right stack entry.
    static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

    thread_local! {
        /// `(rank, lock name, token id)` for every lock this thread holds.
        static HELD: RefCell<Vec<(u8, &'static str, u64)>> =
            const { RefCell::new(Vec::new()) };
    }

    /// Proof of a rank-checked acquisition; dropping it marks the lock
    /// released. Keep it alive exactly as long as the guard it fronts.
    #[must_use = "dropping the token immediately marks the lock released"]
    pub struct OrderToken {
        id: u64,
    }

    /// Records that the current thread is about to acquire the lock
    /// `name` of rank `rank`, asserting the declared global order.
    pub fn ordered(rank: u8, name: &'static str) -> OrderToken {
        CHECKS.fetch_add(1, Ordering::Relaxed);
        let id = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
        HELD.with(|h| {
            let mut h = h.borrow_mut();
            if let Some(&(top_rank, top_name, _)) = h.iter().max_by_key(|&&(r, _, _)| r) {
                assert!(
                    rank >= top_rank,
                    "lock-order violation: acquiring `{name}` (rank {rank}) while \
                     holding `{top_name}` (rank {top_rank}); declared order is \
                     pool < fault < disk < obs"
                );
            }
            h.push((rank, name, id));
        });
        OrderToken { id }
    }

    impl Drop for OrderToken {
        fn drop(&mut self) {
            HELD.with(|h| {
                let mut h = h.borrow_mut();
                if let Some(pos) = h.iter().rposition(|&(_, _, id)| id == self.id) {
                    h.remove(pos);
                }
            });
        }
    }

    /// Asserts a structural invariant; `msg` is only evaluated on a trip.
    pub fn invariant(cond: bool, msg: impl FnOnce() -> String) {
        CHECKS.fetch_add(1, Ordering::Relaxed);
        assert!(cond, "storage invariant violated: {}", msg());
    }

    /// Total invariant checks executed so far.
    pub fn checks() -> u64 {
        CHECKS.load(Ordering::Relaxed)
    }
}

#[cfg(not(feature = "debug-invariants"))]
mod imp {
    /// Zero-sized stand-in; the release build carries no rank state.
    pub struct OrderToken;

    #[inline(always)]
    pub fn ordered(_rank: u8, _name: &'static str) -> OrderToken {
        OrderToken
    }

    #[inline(always)]
    pub fn invariant(_cond: bool, _msg: impl FnOnce() -> String) {}

    #[inline(always)]
    pub fn checks() -> u64 {
        0
    }
}

pub use imp::{checks, invariant, ordered, OrderToken};

#[cfg(all(test, feature = "debug-invariants"))]
mod tests {
    use super::*;

    #[test]
    fn ascending_ranks_are_accepted() {
        let before = checks();
        let _p = ordered(rank::POOL, "inner");
        let _f = ordered(rank::FAULT, "state");
        let _d = ordered(rank::DISK, "pages");
        assert!(checks() >= before + 3);
    }

    #[test]
    fn equal_ranks_are_accepted() {
        let _a = ordered(rank::DISK, "io_lock");
        let _b = ordered(rank::DISK, "num_pages");
    }

    #[test]
    fn release_resets_the_ceiling() {
        {
            let _d = ordered(rank::DISK, "pages");
        }
        // Dropping the rank-2 token makes a rank-0 acquisition legal again.
        let _p = ordered(rank::POOL, "inner");
    }

    #[test]
    fn out_of_order_token_drop_releases_the_right_entry() {
        let p = ordered(rank::POOL, "inner");
        let d = ordered(rank::DISK, "pages");
        drop(p); // release the *lower* rank first
        drop(d);
        let _again = ordered(rank::POOL, "inner");
    }

    #[test]
    fn descending_ranks_trip() {
        let result = std::panic::catch_unwind(|| {
            let _d = ordered(rank::OBS, "counters");
            let _p = ordered(rank::POOL, "inner");
        });
        assert!(result.is_err(), "reverse order must assert");
        // The panic unwound past the tokens' drops; the thread-local
        // stack must be clean again for the other tests on this thread.
        let _ok = ordered(rank::POOL, "inner");
    }

    #[test]
    fn invariant_trips_with_message() {
        let result = std::panic::catch_unwind(|| {
            invariant(false, || "freelist aliases frame 3".to_string());
        });
        let payload = result.unwrap_err();
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("freelist aliases frame 3"), "{msg}");
    }
}
