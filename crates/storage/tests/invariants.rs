//! The `debug-invariants` suite: a chaos profile and a property test run
//! with the runtime invariant layer armed, asserting that no invariant
//! trips (a trip is a panic, so the tests fail loudly) **and** that the
//! layer was actually live (`invariants::checks()` advanced — a silently
//! compiled-out checker would "pass" everything).
//!
//! CI runs this file via
//! `cargo test -p hdsj-storage --features debug-invariants`.
#![cfg(feature = "debug-invariants")]
// Panicking is idiomatic in test code; see clippy.toml.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use hdsj_storage::invariants;
use hdsj_storage::{FaultKind, FaultPlan, OpKind, RetryPolicy, StorageEngine, PAGE_HEADER};
use proptest::prelude::*;

/// Chaos profile: a tiny pool over a disk injecting transient, persistent,
/// torn, and corrupting faults, driven through alloc / write / flush /
/// evict / free cycles. Every operation is allowed to fail with a typed
/// error — what must NOT happen is an invariant trip (lock-order
/// violation, freelist aliasing a resident frame, a sealed page that does
/// not verify, or pins surviving the run).
#[test]
fn chaos_profile_trips_no_invariants() {
    let before = invariants::checks();
    for seed in [3u64, 17, 101] {
        let plan = FaultPlan::new(seed);
        plan.probability(Some(OpKind::Write), 0.2, FaultKind::Transient);
        plan.probability(Some(OpKind::Read), 0.1, FaultKind::Transient);
        plan.probability(Some(OpKind::Write), 0.05, FaultKind::Torn);
        plan.probability(Some(OpKind::Write), 0.05, FaultKind::Corrupt);
        plan.on_nth(Some(OpKind::Alloc), 7, FaultKind::Persistent);
        let eng = StorageEngine::builder(4)
            .retry(RetryPolicy::backoff(2))
            .faults(plan)
            .in_memory();

        let mut ids = Vec::new();
        for round in 0..200u64 {
            match round % 5 {
                0 | 1 => {
                    // Allocate and dirty a page; faults may refuse it.
                    if let Ok(p) = eng.alloc() {
                        p.write().put_u64(PAGE_HEADER, round);
                        ids.push(p.id());
                    }
                }
                2 => {
                    // Re-read an old page; corruption faults may surface
                    // as typed errors here.
                    if let Some(&id) = ids.get((round as usize / 5) % ids.len().max(1)) {
                        let _ = eng.fetch(id);
                    }
                }
                3 => {
                    let _ = eng.flush_all();
                }
                _ => {
                    // Retire a page to the freelist (never reused ids —
                    // the pool owns reuse).
                    if ids.len() > 8 {
                        let id = ids.remove(0);
                        let _ = eng.free(id);
                    }
                }
            }
        }
        assert_eq!(
            eng.pool().pinned_frames(),
            0,
            "no guard is alive, so no frame may stay pinned"
        );
        // Dropping the engine runs the pool's quiescence invariant.
        drop(eng);
    }
    assert!(
        invariants::checks() > before,
        "the invariant layer must have been live during the chaos profile"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Property: any interleaving of pool operations over a faulty disk
    /// preserves the runtime invariants and ends quiescent. Ops and fault
    /// pressure are both randomized; results may be typed errors, trips
    /// may not happen.
    #[test]
    fn random_op_sequences_hold_invariants(
        seed in 0u64..1000,
        fault_p in 0.0f64..0.3,
        ops in proptest::collection::vec(0u8..4, 1..60),
    ) {
        let before = invariants::checks();
        let plan = FaultPlan::new(seed);
        plan.probability(None, fault_p, FaultKind::Transient);
        let eng = StorageEngine::builder(3)
            .retry(RetryPolicy::backoff(1))
            .faults(plan)
            .in_memory();
        let mut ids: Vec<u64> = Vec::new();
        for (step, op) in ops.iter().enumerate() {
            match op {
                0 => {
                    if let Ok(p) = eng.alloc() {
                        p.write().put_u64(PAGE_HEADER, step as u64);
                        ids.push(p.id());
                    }
                }
                1 => {
                    if !ids.is_empty() {
                        let _ = eng.fetch(ids[step % ids.len()]);
                    }
                }
                2 => {
                    let _ = eng.flush_all();
                }
                _ => {
                    if ids.len() > 2 {
                        let id = ids.swap_remove(step % ids.len());
                        let _ = eng.free(id);
                    }
                }
            }
        }
        prop_assert_eq!(eng.pool().pinned_frames(), 0);
        drop(eng);
        prop_assert!(invariants::checks() > before);
    }
}
