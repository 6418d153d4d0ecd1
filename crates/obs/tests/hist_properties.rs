//! Property tests for the sharded histogram: merge determinism and
//! percentile correctness against a sorted-reference oracle.
//!
//! The histogram is the one obs structure whose answers depend on
//! arithmetic, not just bookkeeping, so it gets adversarial inputs:
//! random value multisets recorded across random thread counts, and
//! percentile queries checked against the exact sorted ranks.

use hdsj_obs::hist::{bucket_index, bucket_lower, bucket_upper};
use hdsj_obs::{Histogram, HistogramSnapshot};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Records `values` into a fresh histogram from `threads` OS threads,
/// dealing values round-robin, and returns the snapshot.
#[allow(clippy::disallowed_methods)]
fn record_across_threads(values: &[u64], threads: usize) -> HistogramSnapshot {
    let h = Histogram::new();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let h = &h;
            let slice: Vec<u64> = values.iter().copied().skip(t).step_by(threads).collect();
            scope.spawn(move || {
                for v in slice {
                    h.record(v);
                }
            });
        }
    });
    h.snapshot()
}

proptest! {
    /// The snapshot of a value multiset is byte-identical no matter how
    /// many threads recorded it or in what order the values arrived:
    /// count, sum, min, max, and every bucket agree exactly.
    #[test]
    fn sharded_recording_is_thread_count_independent(
        values in proptest::collection::vec(0u64..1u64 << 40, 1..400),
        threads in 1usize..8,
    ) {
        let serial = record_across_threads(&values, 1);
        let sharded = record_across_threads(&values, threads);
        prop_assert_eq!(&serial, &sharded);

        // Recording in reverse order changes nothing either.
        let mut rev = values.clone();
        rev.reverse();
        let reversed = record_across_threads(&rev, threads.max(2));
        prop_assert_eq!(&serial, &reversed);
    }

    /// Merging per-part snapshots is associative-in-effect: any split of
    /// the multiset, merged in any order, equals the all-at-once
    /// snapshot.
    #[test]
    fn merge_is_split_independent(
        values in proptest::collection::vec(0u64..1u64 << 40, 2..300),
        split in 1usize..10,
        merge_reversed in 0usize..2,
    ) {
        let whole = record_across_threads(&values, 1);
        let parts: Vec<HistogramSnapshot> = values
            .chunks(values.len().div_ceil(split.min(values.len())))
            .map(|part| record_across_threads(part, 1))
            .collect();
        let mut order: Vec<&HistogramSnapshot> = parts.iter().collect();
        if merge_reversed == 1 {
            order.reverse();
        }
        let h = Histogram::new();
        for part in order {
            h.merge(part);
        }
        prop_assert_eq!(&whole, &h.snapshot());
    }
}

/// Percentiles answered from the log-bucketed histogram must land within
/// the bucket that holds the exact rank statistic: the oracle value's
/// bucket bounds contain the histogram's answer.
#[test]
fn percentiles_agree_with_sorted_oracle_on_random_distributions() {
    let mut rng = StdRng::seed_from_u64(0x0b5e_5eed);
    for dist in 0..1_000 {
        // Mix distribution shapes: uniform ranges of varying magnitude,
        // plus occasional heavy-tailed doubling walks.
        let n: usize = rng.gen_range(1..200);
        let magnitude = 1u64 << rng.gen_range(1..50);
        let heavy = dist % 4 == 0;
        let mut values: Vec<u64> = (0..n)
            .map(|_| {
                if heavy {
                    let base: u64 = rng.gen_range(0..magnitude);
                    base.saturating_mul(1u64 << rng.gen_range(0u32..8))
                } else {
                    rng.gen_range(0..magnitude)
                }
            })
            .collect();
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let snap = h.snapshot();
        values.sort_unstable();
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            let oracle = values[rank - 1];
            let got = h.snapshot().percentile(q);
            // The histogram can only answer to bucket resolution: the
            // estimate must sit inside the oracle's bucket.
            let idx = bucket_index(oracle);
            let lo = bucket_lower(idx);
            let hi = bucket_upper(idx);
            assert!(
                got >= lo && got <= hi,
                "dist {dist} q={q}: percentile {got} outside oracle bucket \
                 [{lo}, {hi}] (oracle value {oracle}, n={n})"
            );
        }
        // Exact invariants that hold regardless of bucket resolution.
        assert_eq!(snap.count, n as u64);
        assert_eq!(snap.min, values[0]);
        assert_eq!(snap.max, values[n - 1]);
        assert_eq!(snap.sum, values.iter().sum::<u64>());
    }
}
