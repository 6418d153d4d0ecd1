//! Shared I/O and fault counters, plus per-operation latency histograms.

use hdsj_core::IoCounters;
use hdsj_obs::{names, Histogram, HistogramSnapshot, Tracer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Atomic page-transfer counters shared between a disk, its buffer pool,
/// and any number of engine clones. Besides the plain I/O traffic it
/// counts the failure-model events: faults the injection layer delivered,
/// operations the pool retried, and checksum mismatches it detected.
/// (Fault *scheduling* lives in [`crate::fault::FaultPlan`]; this type
/// only observes.)
///
/// Reads, writes, and write-backs also feed lock-free latency histograms
/// (nanoseconds); [`IoStats::record_latency_since`] folds a run's share of
/// them into a tracer's registry under the `pool.*_ns` names.
#[derive(Debug, Default)]
pub struct IoStats {
    reads: AtomicU64,
    writes: AtomicU64,
    allocs: AtomicU64,
    hits: AtomicU64,
    evictions: AtomicU64,
    writebacks: AtomicU64,
    retries: AtomicU64,
    faults: AtomicU64,
    corruptions: AtomicU64,
    read_ns: Histogram,
    write_ns: Histogram,
    writeback_ns: Histogram,
}

impl IoStats {
    /// Records a page read.
    pub fn record_read(&self) {
        self.reads.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a page read that took `elapsed`.
    pub fn record_read_timed(&self, elapsed: Duration) {
        self.record_read();
        self.read_ns.record_duration(elapsed);
    }

    /// Records a page write.
    pub fn record_write(&self) {
        self.writes.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a page write that took `elapsed`.
    pub fn record_write_timed(&self, elapsed: Duration) {
        self.record_write();
        self.write_ns.record_duration(elapsed);
    }

    /// Records a page allocation.
    pub fn record_alloc(&self) {
        self.allocs.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a buffer-pool fetch served from a resident page.
    pub fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a buffer-pool eviction (any victim, clean or dirty).
    pub fn record_eviction(&self) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a dirty eviction that forced a write-back.
    pub fn record_writeback(&self) {
        self.writebacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a write-back that took `elapsed`.
    pub fn record_writeback_timed(&self, elapsed: Duration) {
        self.record_writeback();
        self.writeback_ns.record_duration(elapsed);
    }

    /// Records one retry of a transiently failed disk operation.
    pub fn record_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a delivered injected fault.
    pub fn record_fault(&self) {
        self.faults.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a page that failed checksum verification.
    pub fn record_corruption(&self) {
        self.corruptions.fetch_add(1, Ordering::Relaxed);
    }

    /// Fraction of pool fetches served from memory (0 before any fetch).
    pub fn hit_rate(&self) -> f64 {
        self.snapshot().hit_rate()
    }

    /// Snapshot in `hdsj-core` form.
    pub fn snapshot(&self) -> IoCounters {
        IoCounters {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            allocs: self.allocs.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            writebacks: self.writebacks.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            faults: self.faults.load(Ordering::Relaxed),
            corruptions: self.corruptions.load(Ordering::Relaxed),
        }
    }

    /// The latency distributions so far (nanoseconds), under the names a
    /// tracer records them by: reads, writes, eviction write-backs.
    pub fn latency(&self) -> [(&'static str, HistogramSnapshot); 3] {
        [
            (names::POOL_READ_NS, self.read_ns.snapshot()),
            (names::POOL_WRITE_NS, self.write_ns.snapshot()),
            (names::POOL_WRITEBACK_NS, self.writeback_ns.snapshot()),
        ]
    }

    /// Folds what the latency histograms gained since `before` (an earlier
    /// [`IoStats::latency`]) into `tracer`'s registry. The shared-cell
    /// companion of `IoCounters::diff` + `record_counters`: the histograms
    /// are cumulative over the engine's life, a traced run owns only its
    /// own operations.
    pub fn record_latency_since(
        &self,
        tracer: &Tracer,
        before: &[(&'static str, HistogramSnapshot); 3],
    ) {
        for ((name, now), (_, then)) in self.latency().iter().zip(before) {
            tracer.histogram(*name).merge(&now.since(then));
        }
    }

    /// Zeroes the counters and latency histograms.
    pub fn reset(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
        self.allocs.store(0, Ordering::Relaxed);
        self.hits.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
        self.writebacks.store(0, Ordering::Relaxed);
        self.retries.store(0, Ordering::Relaxed);
        self.faults.store(0, Ordering::Relaxed);
        self.corruptions.store(0, Ordering::Relaxed);
        self.read_ns.reset();
        self.write_ns.reset();
        self.writeback_ns.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_records_feed_latency_histograms() {
        let s = IoStats::default();
        s.record_read_timed(Duration::from_nanos(500));
        s.record_read_timed(Duration::from_micros(20));
        s.record_write_timed(Duration::from_nanos(800));
        s.record_writeback_timed(Duration::from_micros(3));
        assert_eq!(s.snapshot().reads, 2);
        assert_eq!(s.latency()[0].1.count, 2);
        assert_eq!(s.latency()[0].1.min, 500);

        let (tracer, sink) = hdsj_obs::Tracer::memory();
        let fresh = IoStats::default().latency();
        s.record_latency_since(&tracer, &fresh);
        // A second run on the same stats owns only what it added.
        let before = s.latency();
        s.record_read_timed(Duration::from_micros(7));
        s.record_latency_since(&tracer, &before);
        tracer.flush();
        let read = sink.hist_snapshot(names::POOL_READ_NS).unwrap();
        assert_eq!((read.count, read.sum, read.min), (3, 27_500, 500));
        assert_eq!(sink.hist_snapshot(names::POOL_WRITE_NS).unwrap().count, 1);
        assert_eq!(
            sink.hist_snapshot(names::POOL_WRITEBACK_NS).unwrap().count,
            1
        );
        s.reset();
        assert_eq!(s.latency()[0].1.count, 0);
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let s = IoStats::default();
        s.record_read();
        s.record_read();
        s.record_write();
        s.record_alloc();
        s.record_hit();
        s.record_hit();
        s.record_hit();
        s.record_eviction();
        s.record_writeback();
        s.record_retry();
        s.record_fault();
        s.record_corruption();
        let snap = s.snapshot();
        assert_eq!((snap.reads, snap.writes, snap.allocs), (2, 1, 1));
        assert_eq!((snap.hits, snap.evictions, snap.writebacks), (3, 1, 1));
        assert_eq!((snap.retries, snap.faults, snap.corruptions), (1, 1, 1));
        assert!((s.hit_rate() - 0.6).abs() < 1e-12, "3 hits / 5 accesses");
        s.reset();
        assert_eq!(s.snapshot(), IoCounters::default());
        assert_eq!(s.hit_rate(), 0.0);
    }
}
