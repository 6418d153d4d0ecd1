//! Log-bucketed, lock-free histograms with deterministic merge.
//!
//! The paper's evaluation reports *distributions* — per-phase costs,
//! page-latency spreads, candidate-count skew — not just totals, so the
//! tracer needs a recording primitive that many worker threads can hit
//! concurrently without serializing on a lock and whose aggregate is
//! independent of how the work was scheduled.
//!
//! ## Bucket layout
//!
//! A [`Histogram`] has [`BUCKETS`] (= 64) fixed log₂ buckets over `u64`
//! values: bucket 0 holds exactly the value 0, and bucket `k ≥ 1` holds
//! the range `[2^(k-1), 2^k - 1]` (the last bucket saturates at
//! `u64::MAX`). That spans 1 ns to ~146 years when recording durations in
//! nanoseconds, and 1 to beyond 10⁹ when recording counts — HDR-style
//! coverage with a one-`leading_zeros` index computation and a worst-case
//! relative quantile error of 2× (one bucket).
//!
//! ## Sharding and determinism
//!
//! Recording increments atomics in one of [`SHARDS`] shards; each thread
//! is pinned to a shard by a round-robin thread-local (no `thread::current`
//! — the id source is our own atomic). [`Histogram::snapshot`] folds the
//! shards with commutative operations only (sums, min, max), so the merged
//! [`HistogramSnapshot`] is a pure function of the *multiset* of recorded
//! values: any thread count, interleaving, or shard assignment yields
//! byte-identical snapshots. That property is what lets histograms live
//! inside the byte-deterministic pipelines.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// Number of log₂ buckets (bucket 0 = zero values; bucket k ≥ 1 covers
/// `[2^(k-1), 2^k - 1]`, the last saturating at `u64::MAX`).
pub const BUCKETS: usize = 64;

/// Fixed shard count: small enough to fold cheaply, large enough that the
/// handful of workers the pool spawns rarely share a cache line.
pub const SHARDS: usize = 8;

/// Round-robin shard assignment source. Using our own atomic instead of
/// `thread::current().id()` keeps thread identity out of the deterministic
/// modules — and the assignment only steers *where* a value is
/// counted, never the merged result.
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
}

/// The bucket index of a value: 0 for 0, else `floor(log2(v)) + 1`,
/// saturating at `BUCKETS - 1`.
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (64 - value.leading_zeros() as usize).min(BUCKETS - 1)
    }
}

/// The smallest value a bucket can hold.
pub fn bucket_lower(idx: usize) -> u64 {
    if idx == 0 {
        0
    } else {
        1u64 << (idx - 1)
    }
}

/// The largest value a bucket can hold.
pub fn bucket_upper(idx: usize) -> u64 {
    if idx == 0 {
        0
    } else if idx >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << idx) - 1
    }
}

#[derive(Debug)]
struct Shard {
    counts: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    /// `u64::MAX` while the shard is empty.
    min: AtomicU64,
    max: AtomicU64,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// A lock-free, sharded, log-bucketed histogram. Cheap to record into from
/// any number of threads; see the module docs for the bucket layout and
/// the determinism contract of [`Histogram::snapshot`].
#[derive(Debug)]
pub struct Histogram {
    shards: [Shard; SHARDS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            shards: std::array::from_fn(|_| Shard::new()),
        }
    }

    /// Records one value (four relaxed RMWs on the calling thread's shard).
    pub fn record(&self, value: u64) {
        let shard = &self.shards[SHARD.with(|&s| s)];
        let bucket = &shard.counts[bucket_index(value)];
        bucket.fetch_add(1, Ordering::Relaxed);
        let sum = &shard.sum;
        sum.fetch_add(value, Ordering::Relaxed);
        let min = &shard.min;
        min.fetch_min(value, Ordering::Relaxed);
        let max = &shard.max;
        max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds (saturating at `u64::MAX`).
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Adds a previously taken snapshot into this histogram (used to fold
    /// always-on storage-layer histograms into a tracer's registry after a
    /// run). Deterministic for the same reason recording is: every merged
    /// quantity is commutative.
    pub fn merge(&self, snap: &HistogramSnapshot) {
        if snap.count == 0 {
            return;
        }
        let shard = &self.shards[0];
        for (idx, &c) in snap.buckets.iter().enumerate() {
            if c > 0 {
                let bucket = &shard.counts[idx];
                bucket.fetch_add(c, Ordering::Relaxed);
            }
        }
        let sum = &shard.sum;
        sum.fetch_add(snap.sum, Ordering::Relaxed);
        let min = &shard.min;
        min.fetch_min(snap.min, Ordering::Relaxed);
        let max = &shard.max;
        max.fetch_max(snap.max, Ordering::Relaxed);
    }

    /// Folds the shards into one deterministic snapshot: identical for any
    /// thread count and interleaving that recorded the same multiset of
    /// values.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut snap = HistogramSnapshot::empty();
        let mut min = u64::MAX;
        for shard in &self.shards {
            for (idx, bucket) in shard.counts.iter().enumerate() {
                let c = bucket.load(Ordering::Relaxed);
                snap.buckets[idx] = snap.buckets[idx].wrapping_add(c);
                snap.count = snap.count.wrapping_add(c);
            }
            let sum = &shard.sum;
            snap.sum = snap.sum.wrapping_add(sum.load(Ordering::Relaxed));
            let smin = &shard.min;
            min = min.min(smin.load(Ordering::Relaxed));
            let smax = &shard.max;
            snap.max = snap.max.max(smax.load(Ordering::Relaxed));
        }
        snap.min = if snap.count == 0 { 0 } else { min };
        snap
    }

    /// Zeroes every shard (mirrors `IoStats::reset`).
    pub fn reset(&self) {
        for shard in &self.shards {
            for bucket in &shard.counts {
                bucket.store(0, Ordering::Relaxed);
            }
            let sum = &shard.sum;
            sum.store(0, Ordering::Relaxed);
            let min = &shard.min;
            min.store(u64::MAX, Ordering::Relaxed);
            let max = &shard.max;
            max.store(0, Ordering::Relaxed);
        }
    }
}

/// An immutable, merged view of a [`Histogram`]: total count and sum, the
/// exact min/max, and the per-bucket counts. Equality is byte equality —
/// the determinism tests compare snapshots directly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    /// 0 when the histogram is empty.
    pub min: u64,
    pub max: u64,
    pub buckets: [u64; BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot::empty()
    }
}

impl HistogramSnapshot {
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The q-quantile (`q ∈ [0, 1]`), estimated by linear interpolation
    /// inside the bucket holding the rank-⌈q·count⌉ value and clamped to
    /// the exact `[min, max]`. The estimate always lands inside the same
    /// log₂ bucket as the true order statistic, bounding relative error
    /// at 2×.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let lo = bucket_lower(idx);
                let hi = bucket_upper(idx);
                let frac = (rank - seen) as f64 / c as f64;
                let est = lo as f64 + (hi.saturating_sub(lo)) as f64 * frac;
                return (est as u64).clamp(self.min.max(lo), self.max.min(hi));
            }
            seen += c;
        }
        self.max
    }

    /// Adds another snapshot into this one (commutative, like every other
    /// merge in this module).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        for (idx, &c) in other.buckets.iter().enumerate() {
            self.buckets[idx] = self.buckets[idx].wrapping_add(c);
        }
        self.min = if self.count == 0 {
            other.min
        } else {
            self.min.min(other.min)
        };
        self.count = self.count.wrapping_add(other.count);
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// What was recorded after `earlier` was taken of the same histogram:
    /// buckets, count and sum exactly. The extremes of a difference are not
    /// recoverable, so `min`/`max` are the cumulative ones narrowed to the
    /// difference's outermost buckets (exact when `earlier` is empty).
    pub fn since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut diff = HistogramSnapshot::empty();
        for (idx, (&now, &then)) in self.buckets.iter().zip(&earlier.buckets).enumerate() {
            diff.buckets[idx] = now.saturating_sub(then);
        }
        diff.count = diff.buckets.iter().sum();
        if let (Some(lo), Some(hi)) = (
            diff.buckets.iter().position(|&c| c > 0),
            diff.buckets.iter().rposition(|&c| c > 0),
        ) {
            diff.sum = self.sum.saturating_sub(earlier.sum);
            diff.min = self.min.max(bucket_lower(lo));
            diff.max = self.max.min(bucket_upper(hi));
        }
        diff
    }

    /// The non-empty buckets as `(index, count)` pairs — the JSONL wire
    /// form.
    pub fn sparse_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i as u64, c))
            .collect()
    }

    /// Rebuilds a snapshot from its wire form. The bucket counts are
    /// authoritative for `count`; a mismatch (or an out-of-range index) is
    /// a corrupt event.
    pub fn from_sparse(
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
        sparse: &[(u64, u64)],
    ) -> Result<HistogramSnapshot, String> {
        let mut snap = HistogramSnapshot {
            count,
            sum,
            min,
            max,
            buckets: [0; BUCKETS],
        };
        let mut total = 0u64;
        for &(idx, c) in sparse {
            let idx = usize::try_from(idx)
                .ok()
                .filter(|&i| i < BUCKETS)
                .ok_or_else(|| format!("hist bucket index {idx} out of range"))?;
            snap.buckets[idx] = snap.buckets[idx].wrapping_add(c);
            total = total.wrapping_add(c);
        }
        if total != count {
            return Err(format!(
                "hist bucket counts sum to {total}, event says count={count}"
            ));
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_partition_u64() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        for idx in 0..BUCKETS {
            assert_eq!(bucket_index(bucket_lower(idx)), idx, "lower({idx})");
            assert_eq!(bucket_index(bucket_upper(idx)), idx, "upper({idx})");
        }
        // Adjacent buckets tile with no gap.
        for idx in 0..BUCKETS - 1 {
            assert_eq!(bucket_upper(idx) + 1, bucket_lower(idx + 1));
        }
    }

    #[test]
    fn record_tracks_count_sum_min_max() {
        let h = Histogram::new();
        assert!(h.snapshot().is_empty());
        assert_eq!(h.snapshot().min, 0);
        for v in [0u64, 1, 7, 1000, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 2008);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1000);
        assert_eq!(s.buckets[bucket_index(1000)], 2);
        assert!((s.mean() - 401.6).abs() < 1e-9);
    }

    #[test]
    fn percentiles_interpolate_and_clamp() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        // Every estimate lands in the same bucket as the exact order
        // statistic (2× relative error bound).
        for (q, exact) in [(0.5, 50u64), (0.9, 90), (0.99, 99), (1.0, 100)] {
            let est = s.percentile(q);
            assert_eq!(
                bucket_index(est),
                bucket_index(exact),
                "q={q}: est {est} vs exact {exact}"
            );
        }
        assert_eq!(s.percentile(0.0), 1);
        assert_eq!(HistogramSnapshot::empty().percentile(0.5), 0);
    }

    #[test]
    fn single_value_histogram_is_exact_at_every_quantile() {
        let h = Histogram::new();
        for _ in 0..10 {
            h.record(42);
        }
        let s = h.snapshot();
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(s.percentile(q), 42, "q={q}");
        }
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let a = Histogram::new();
        let b = Histogram::new();
        let both = Histogram::new();
        for v in [3u64, 9, 27] {
            a.record(v);
            both.record(v);
        }
        for v in [1u64, 81] {
            b.record(v);
            both.record(v);
        }
        let merged = {
            let target = Histogram::new();
            target.merge(&a.snapshot());
            target.merge(&b.snapshot());
            target.snapshot()
        };
        assert_eq!(merged, both.snapshot());
        let mut snap = a.snapshot();
        snap.merge(&b.snapshot());
        assert_eq!(snap, both.snapshot());
    }

    #[test]
    fn since_is_what_was_recorded_after_the_earlier_snapshot() {
        let h = Histogram::new();
        let empty = h.snapshot();
        for v in [3u64, 9, 700] {
            h.record(v);
        }
        let first = h.snapshot();
        assert_eq!(first.since(&empty), first, "exact from an empty start");
        assert_eq!(first.since(&first), HistogramSnapshot::empty());
        for v in [40u64, 50] {
            h.record(v);
        }
        let later = h.snapshot().since(&first);
        assert_eq!((later.count, later.sum), (2, 90));
        // 40 and 50 share a bucket: the extremes are that bucket's bounds.
        assert!(later.min <= 40 && 50 <= later.max && later.max < 700);
        let mut whole = first.clone();
        whole.merge(&later);
        assert_eq!(whole.buckets, h.snapshot().buckets);
    }

    #[test]
    #[allow(clippy::disallowed_methods)]
    fn reset_empties_every_shard() {
        let h = Histogram::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for v in 0..100u64 {
                        h.record(v);
                    }
                });
            }
        });
        assert_eq!(h.snapshot().count, 400);
        h.reset();
        assert_eq!(h.snapshot(), HistogramSnapshot::empty());
    }

    #[test]
    fn sparse_round_trip_and_corruption_detection() {
        let h = Histogram::new();
        for v in [0u64, 5, 5, 1 << 40, u64::MAX] {
            h.record(v);
        }
        let s = h.snapshot();
        let back =
            HistogramSnapshot::from_sparse(s.count, s.sum, s.min, s.max, &s.sparse_buckets())
                .unwrap();
        assert_eq!(back, s);
        assert!(HistogramSnapshot::from_sparse(2, 0, 0, 0, &[(1, 1)]).is_err());
        assert!(HistogramSnapshot::from_sparse(1, 0, 0, 0, &[(64, 1)]).is_err());
    }
}
