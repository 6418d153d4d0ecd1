//! Seed-sweep over the pool's schedule explorer (debug-schedules only).
//!
//! ```text
//! cargo test -p hdsj-exec --features debug-schedules --test schedule_explorer
//! ```
//!
//! `HDSJ_SCHED_SEEDS="lo..hi"` overrides the swept range — set it to
//! `N..N+1` to replay a failing seed printed by a previous run.
#![cfg(feature = "debug-schedules")]
// A malformed seed range fails the sweep loudly; see clippy.toml.
#![allow(clippy::panic)]

use hdsj_exec::schedule;

/// The default sweep: 350 seeds × 3 scenarios over `Pool::map_chunks`.
/// The window rotates when the pool's concurrency surface changes (as
/// when the SIMD-tier refinement batching moved into the workers) so CI
/// keeps exploring fresh interleavings; 0..600 was covered by earlier
/// windows.
const DEFAULT_SEEDS: std::ops::Range<u64> = 600..950;

fn seed_range() -> std::ops::Range<u64> {
    let Ok(spec) = std::env::var("HDSJ_SCHED_SEEDS") else {
        return DEFAULT_SEEDS;
    };
    let parsed = spec.split_once("..").and_then(|(lo, hi)| {
        Some(lo.trim().parse::<u64>().ok()?..hi.trim().parse::<u64>().ok()?)
    });
    match parsed {
        Some(r) if r.start < r.end => r,
        _ => panic!("HDSJ_SCHED_SEEDS={spec:?}: expected \"lo..hi\" with lo < hi"),
    }
}

#[test]
fn all_pool_primitives_hold_under_schedule_perturbation() {
    let range = seed_range();
    let points_before = schedule::points();
    let report = match schedule::explorer::explore(range.clone()) {
        Ok(report) => report,
        // The Display impl prints the failing seed and the exact command
        // that replays it.
        Err(failure) => panic!("schedule explorer violation: {failure}"),
    };
    assert_eq!(report.seeds, range.end - range.start);
    assert_eq!(report.scenarios_per_seed, 3);
    // Liveness: the yield-point hooks actually fired during the sweep —
    // the guarantee was tested, not skipped.
    assert!(
        schedule::points() > points_before,
        "no yield points hit: perturbation hooks did not run"
    );
    println!(
        "schedule explorer: {} seeds x {} scenarios clean, {} yield points hit",
        report.seeds,
        report.scenarios_per_seed,
        schedule::points() - points_before
    );
}
