//! # hdsj-exec — the workspace's scoped thread pool
//!
//! Every parallel site in the workspace (MSJ's level assignment and sweep,
//! the brute-force loop nest) is a partition of its work into numbered
//! parts, each with an output of its own, merged in part order. This crate
//! is that one shape, std-only, built on `std::thread::scope` so borrowed
//! data needs no `Arc`:
//!
//! * [`Pool::map_chunks`] — chunked parallel-for: `0..n` is split into
//!   fixed-size chunks which workers claim from an atomic cursor; results
//!   come back **in chunk order**, so output is deterministic regardless of
//!   scheduling (serial and parallel runs produce identical vectors).
//!
//! ## Panic containment and error priority
//!
//! Worker closures run under `catch_unwind`: a panicking metric (or a chaos
//! failpoint) becomes a typed [`Error::Internal`] carrying the panic
//! message, never an unwind across the scope. When several workers fail,
//! the error of the **lowest chunk index** wins, so error reporting is as
//! deterministic as success output.
//!
//! ## Observability
//!
//! With a tracer installed the pool reports per-worker `exec.worker` spans
//! (children of the span passed to `map_chunks`) and three counters:
//! `exec.tasks` (chunks dispatched), `exec.workers` (worker threads
//! spawned), and `exec.steal_waits` (times a worker polled the cursor and
//! found no work left — a measure of tail imbalance).
//!
//! ## Concurrency contract
//!
//! Every chunk is claimed exactly once (one atomic step on the cursor),
//! results and errors are ordered by chunk index, and every worker has
//! been joined when `map_chunks` returns. The unit tests below repeat
//! small contended runs enough to catch a broken claim, sort or error
//! priority on every `cargo test` (DESIGN.md §12).
#![forbid(unsafe_code)]

pub use hdsj_core::join::resolve_threads;
use hdsj_core::obs::{names, Span, Tracer};
use hdsj_core::{Error, LifecycleCtx, Result};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

/// Best-effort human-readable message from a caught panic payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The default worker count: `HDSJ_THREADS` when set to a positive integer,
/// otherwise `1` (fully serial — parallelism is strictly opt-in).
pub fn default_threads() -> usize {
    match std::env::var("HDSJ_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) => resolve_threads(n),
            Err(_) => 1,
        },
        Err(_) => 1,
    }
}

/// A scoped thread-pool handle: a worker count plus a tracer. Cheap to
/// construct per call site — threads are spawned per operation (scoped on
/// the caller's stack), not kept alive between calls.
#[derive(Clone, Debug)]
pub struct Pool {
    threads: usize,
    tracer: Tracer,
    lifecycle: Option<LifecycleCtx>,
}

impl Default for Pool {
    fn default() -> Pool {
        Pool::new(default_threads())
    }
}

impl Pool {
    /// A pool with `threads` workers (`0` = all hardware threads) and no
    /// tracing.
    pub fn new(threads: usize) -> Pool {
        Pool {
            threads: resolve_threads(threads).max(1),
            tracer: Tracer::disabled(),
            lifecycle: None,
        }
    }

    /// A pool reporting its spans and counters to `tracer`.
    pub fn with_tracer(threads: usize, tracer: Tracer) -> Pool {
        Pool {
            threads: resolve_threads(threads).max(1),
            tracer,
            lifecycle: None,
        }
    }

    /// The pool a join run fans out over: its thread budget, its tracer
    /// and its lifecycle context.
    pub fn for_run(run: &hdsj_core::JoinRun<'_>) -> Pool {
        Pool {
            threads: run.threads(),
            tracer: run.tracer().clone(),
            lifecycle: run.lifecycle().cloned(),
        }
    }

    /// Attaches a lifecycle context: every worker polls it once per chunk
    /// claim (and the serial path once per chunk), so cancellation,
    /// deadlines, and budget exhaustion stop a parallel-for within one
    /// chunk granule, surfacing the typed lifecycle error with normal
    /// earliest-chunk priority.
    pub fn with_lifecycle(mut self, ctx: LifecycleCtx) -> Pool {
        self.lifecycle = Some(ctx);
        self
    }

    /// The worker count this pool fans out to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Chunked parallel-for over `0..n`: `f` is called once per chunk (a
    /// sub-range of length ≤ `chunk`) and the chunk results are returned
    /// **in chunk order** — byte-for-byte the same vector a serial loop
    /// would produce, for every thread count.
    ///
    /// With one worker (or one chunk) the closure runs inline on the
    /// calling thread. On error or panic the earliest chunk's failure is
    /// returned; remaining workers stop claiming new chunks.
    pub fn map_chunks<R, F>(
        &self,
        parent: Option<&Span>,
        n: usize,
        chunk: usize,
        f: F,
    ) -> Result<Vec<R>>
    where
        R: Send,
        F: Fn(Range<usize>) -> Result<R> + Sync,
    {
        let chunk = chunk.max(1);
        let nchunks = n.div_ceil(chunk);
        if nchunks == 0 {
            return Ok(Vec::new());
        }
        let traced = self.tracer.enabled();
        if traced {
            self.tracer.counter(names::EXEC_TASKS).add(nchunks as u64);
        }
        // `lo` cannot overflow (`c < nchunks` implies `c * chunk < n`) but
        // `lo + chunk` can when `n` is within one chunk of `usize::MAX`;
        // saturate before clamping to `n`.
        let chunk_range = |c: usize| {
            let lo = c * chunk;
            lo..lo.saturating_add(chunk).min(n)
        };
        let chunk_hist = traced.then(|| self.tracer.histogram(names::EXEC_CHUNK_NS));
        let workers = self.threads.min(nchunks);
        if workers <= 1 {
            let mut out = Vec::with_capacity(nchunks);
            for c in 0..nchunks {
                if let Some(lc) = &self.lifecycle {
                    lc.poll()?;
                }
                let started = chunk_hist.as_ref().map(|_| Instant::now());
                let r = f(chunk_range(c))?;
                if let (Some(h), Some(t0)) = (&chunk_hist, started) {
                    h.record_duration(t0.elapsed());
                }
                out.push(r);
            }
            return Ok(out);
        }
        if traced {
            self.tracer.counter(names::EXEC_WORKERS).add(workers as u64);
        }
        let steal_waits = self.tracer.counter(names::EXEC_STEAL_WAITS);
        let queue_hist = traced.then(|| self.tracer.histogram(names::EXEC_QUEUE_WAIT_NS));
        let spawn_epoch = Instant::now();

        // Per worker: its join result wrapping the (chunk index, chunk
        // result) pairs it claimed.
        type WorkerHarvest<R> = std::thread::Result<Vec<(usize, Result<R>)>>;
        let cursor = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let lifecycle = self.lifecycle.as_ref();
        // The workspace's one thread spawn: clippy.toml disallows it elsewhere.
        #[allow(clippy::disallowed_methods)]
        let joined: Vec<WorkerHarvest<R>> = std::thread::scope(|s| {
            let mut handles = Vec::with_capacity(workers);
            for w in 0..workers {
                let cursor = &cursor;
                let stop = &stop;
                let f = &f;
                let chunk_range = &chunk_range;
                let steal_waits = steal_waits.clone();
                let chunk_hist = chunk_hist.clone();
                let queue_hist = queue_hist.clone();
                handles.push(s.spawn(move || {
                    let mut wspan = if traced {
                        parent.map(|p| p.child("exec.worker"))
                    } else {
                        None
                    };
                    let mut local: Vec<(usize, Result<R>)> = Vec::new();
                    let mut tasks = 0u64;
                    let mut first_claim = queue_hist.is_some();
                    loop {
                        // ORDERING: advisory early-exit hint — a missed flag
                        // only runs extra chunks that the error discards; the
                        // scope join publishes all worker state to the caller.
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        // Capping at `nchunks` (instead of fetch_add past the
                        // end) keeps the cursor from ever wrapping when
                        // `nchunks` is within `workers` of `usize::MAX`.
                        // ORDERING: CAS atomicity alone makes claims unique;
                        // claim order carries no data (results are re-sorted).
                        let claimed =
                            cursor.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| {
                                if c < nchunks {
                                    Some(c + 1)
                                } else {
                                    None
                                }
                            });
                        let c = match claimed {
                            Ok(c) => c,
                            Err(_) => {
                                if traced {
                                    steal_waits.incr();
                                }
                                break;
                            }
                        };
                        if first_claim {
                            first_claim = false;
                            if let Some(h) = &queue_hist {
                                h.record_duration(spawn_epoch.elapsed());
                            }
                        }
                        // Lifecycle poll per claimed chunk: attributing the
                        // failure to chunk `c` keeps the earliest-chunk error
                        // priority deterministic.
                        if let Some(lc) = lifecycle {
                            if let Err(e) = lc.poll() {
                                // ORDERING: advisory stop (see the load above).
                                stop.store(true, Ordering::Relaxed);
                                local.push((c, Err(e)));
                                break;
                            }
                        }
                        let Range { start: lo, end: hi } = chunk_range(c);
                        let started = chunk_hist.as_ref().map(|_| Instant::now());
                        match catch_unwind(AssertUnwindSafe(|| f(lo..hi))) {
                            Ok(Ok(r)) => {
                                tasks += 1;
                                if let (Some(h), Some(t0)) = (&chunk_hist, started) {
                                    h.record_duration(t0.elapsed());
                                }
                                local.push((c, Ok(r)));
                            }
                            Ok(Err(e)) => {
                                // ORDERING: advisory stop (see the load above);
                                // the error itself travels in `local`, published
                                // by the scope join, not by this store.
                                stop.store(true, Ordering::Relaxed);
                                local.push((c, Err(e)));
                                break;
                            }
                            Err(payload) => {
                                // ORDERING: advisory stop (see the load above).
                                stop.store(true, Ordering::Relaxed);
                                local.push((
                                    c,
                                    Err(Error::Internal(format!(
                                        "exec worker panicked: {}",
                                        panic_message(payload.as_ref())
                                    ))),
                                ));
                                break;
                            }
                        }
                    }
                    if let Some(span) = wspan.as_mut() {
                        span.attr_u64("worker", w as u64);
                        span.attr_u64("tasks", tasks);
                    }
                    local
                }));
            }
            handles.into_iter().map(|h| h.join()).collect()
        });

        let mut slots: Vec<(usize, Result<R>)> = Vec::with_capacity(nchunks);
        // One iteration per worker handle, bounded by pool width; the workers
        // themselves polled per chunk.
        for worker in joined {
            match worker {
                Ok(local) => slots.extend(local),
                // catch_unwind contains all user code; an escape here means
                // the pool's own bookkeeping failed.
                Err(payload) => {
                    return Err(Error::Internal(format!(
                        "exec worker died outside containment: {}",
                        panic_message(payload.as_ref())
                    )))
                }
            }
        }
        slots.sort_unstable_by_key(|(c, _)| *c);
        let mut out = Vec::with_capacity(slots.len());
        for (_, r) in slots {
            out.push(r?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdsj_core::obs::names;
    use hdsj_core::Tracer;

    /// `0..n` cut into `chunk`-sized ranges, as a serial loop sees them.
    fn serial_chunks(n: usize, chunk: usize) -> Vec<Vec<usize>> {
        (0..n)
            .collect::<Vec<_>>()
            .chunks(chunk)
            .map(<[usize]>::to_vec)
            .collect()
    }

    #[test]
    fn map_chunks_is_deterministic_across_thread_counts() {
        // Every chunk is claimed once and comes back in chunk order. The
        // second input is small and finely chunked, and it is repeated so
        // that workers race for the cursor thousands of times: a claim that
        // is not one atomic step hands some chunk to two workers within a
        // few hundred runs.
        for (n, chunk, reps) in [(1003, 17, 1), (257, 9, 350)] {
            let want = serial_chunks(n, chunk);
            for threads in [1, 2, 3, 4, 8] {
                for _ in 0..reps {
                    let got = Pool::new(threads)
                        .map_chunks(None, n, chunk, |r| Ok(r.collect::<Vec<_>>()))
                        .unwrap();
                    assert_eq!(got, want, "n={n} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn empty_input_spawns_nothing() {
        let out: Vec<u8> = Pool::new(4).map_chunks(None, 0, 16, |_| Ok(0u8)).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn near_overflow_chunk_math_saturates() {
        // `n` within one chunk of `usize::MAX`: the last chunk's naive
        // `lo + chunk` wraps. The ranges must tile [0, n) exactly instead.
        let n = usize::MAX;
        let chunk = usize::MAX / 2 + 1;
        for threads in [1, 2] {
            let bounds: Vec<(usize, usize)> = Pool::new(threads)
                .map_chunks(None, n, chunk, |r| Ok((r.start, r.end)))
                .unwrap();
            assert_eq!(bounds, vec![(0, chunk), (chunk, n)], "threads={threads}");
        }
        // One-short-of-MAX count with chunk 1 at the tail: hi clamps to n.
        let bounds: Vec<(usize, usize)> = Pool::new(2)
            .map_chunks(None, 3, usize::MAX, |r| Ok((r.start, r.end)))
            .unwrap();
        assert_eq!(bounds, vec![(0, 3)]);
    }

    #[test]
    fn chunk_and_queue_wait_histograms_are_recorded() {
        let (tracer, sink) = Tracer::memory();
        let pool = Pool::with_tracer(3, tracer.clone());
        let out = pool.map_chunks(None, 90, 10, |r| Ok(r.len())).unwrap();
        assert_eq!(out.len(), 9);
        // Serial pools record chunk durations too.
        Pool::with_tracer(1, tracer.clone())
            .map_chunks(None, 20, 10, |r| Ok(r.len()))
            .unwrap();
        tracer.flush();
        let chunks = sink.hist_snapshot(names::EXEC_CHUNK_NS).unwrap();
        assert_eq!(chunks.count, 11, "9 parallel + 2 serial chunks");
        let waits = sink.hist_snapshot(names::EXEC_QUEUE_WAIT_NS).unwrap();
        assert!(
            (1..=3).contains(&waits.count),
            "each worker that claimed work records one wait, got {}",
            waits.count
        );
        // Under contention every chunk is counted once and timed once, on
        // every run: 29 chunks of 7 over 3 workers, each run on a fresh sink.
        let (n, chunk) = (203, 7);
        let want = serial_chunks(n, chunk);
        for _ in 0..50 {
            let (tracer, sink) = Tracer::memory();
            let got = Pool::with_tracer(3, tracer.clone())
                .map_chunks(None, n, chunk, |r| Ok(r.collect::<Vec<_>>()))
                .unwrap();
            assert_eq!(got, want);
            tracer.flush();
            assert_eq!(sink.counter_value(names::EXEC_TASKS), Some(29));
            let timed = sink.hist_snapshot(names::EXEC_CHUNK_NS).unwrap();
            assert_eq!(timed.count, 29);
        }
        // Untraced pools record nothing.
        let t = Tracer::disabled();
        Pool::with_tracer(2, t.clone())
            .map_chunks(None, 20, 10, |r| Ok(r.len()))
            .unwrap();
        assert!(t.metrics_snapshot().is_empty());
    }

    #[test]
    fn earliest_chunk_error_wins() {
        // Chunks 3..10 fail. The interleaving is forced so that errors of
        // two workers are in flight: chunk 0 waits until chunk 3 has started,
        // so chunk 3 is another worker's, and chunk 3 fails only once a
        // later chunk has started. Chunk 3's error must win whichever
        // worker ran it.
        for threads in [1, 2, 3, 4, 8] {
            for _ in 0..10 {
                let (third_started, later_started) =
                    (AtomicBool::new(false), AtomicBool::new(false));
                // A serial pool runs chunk 0 before chunk 3: it waits for nothing.
                let wait_for = |flag: &AtomicBool| {
                    while threads > 1 && !flag.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                };
                let err = Pool::new(threads)
                    .map_chunks(None, 100, 10, |r| {
                        match r.start {
                            0 => wait_for(&third_started),
                            30 => {
                                third_started.store(true, Ordering::Release);
                                wait_for(&later_started);
                            }
                            s if s > 30 => later_started.store(true, Ordering::Release),
                            _ => {}
                        }
                        if r.start >= 30 {
                            Err(Error::Internal(format!("chunk at {}", r.start)))
                        } else {
                            Ok(r.start)
                        }
                    })
                    .unwrap_err();
                assert!(
                    matches!(&err, Error::Internal(m) if m == "chunk at 30"),
                    "threads={threads}: {err}"
                );
            }
        }
        // One failing chunk among 1 500: the error is the same on every
        // run, and once the call returns no worker is still running chunks.
        let executed = AtomicUsize::new(0);
        for threads in [1, 2, 3, 4, 8] {
            for _ in 0..20 {
                let err = Pool::new(threads)
                    .map_chunks(None, 3000, 2, |r| {
                        if r.start == 20 {
                            Err(Error::Internal(format!("injected at {}", r.start)))
                        } else {
                            executed.fetch_add(1, Ordering::Relaxed);
                            Ok(())
                        }
                    })
                    .unwrap_err();
                assert!(
                    matches!(&err, Error::Internal(m) if m == "injected at 20"),
                    "threads={threads}: {err}"
                );
                let before = executed.load(Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_micros(200));
                assert_eq!(
                    executed.load(Ordering::Relaxed),
                    before,
                    "threads={threads}"
                );
            }
        }
    }

    #[test]
    fn worker_panic_becomes_typed_error() {
        let err = Pool::new(3)
            .map_chunks(None, 50, 5, |r| {
                if r.start == 20 {
                    // The containment path under test.
                    panic!("boom at {}", r.start);
                }
                Ok(r.start)
            })
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("panicked"), "{msg}");
        assert!(msg.contains("boom at 20"), "{msg}");
    }

    #[test]
    fn counters_and_worker_spans_are_reported() {
        let (tracer, sink) = Tracer::memory();
        let pool = Pool::with_tracer(4, tracer.clone());
        let root = tracer.span("root");
        let out = pool
            .map_chunks(Some(&root), 64, 8, |r| Ok(r.len()))
            .unwrap();
        assert_eq!(out.len(), 8);
        root.finish();
        tracer.flush();
        assert_eq!(sink.counter_value(names::EXEC_TASKS), Some(8));
        assert_eq!(sink.counter_value(names::EXEC_WORKERS), Some(4));
        let workers = sink
            .spans()
            .iter()
            .filter(|s| s.name == "exec.worker")
            .count();
        assert_eq!(workers, 4);
    }

    #[test]
    #[allow(clippy::disallowed_methods)]
    fn cross_thread_cancel_stops_within_one_chunk() {
        use hdsj_core::LifecycleCtx;
        let ctx = LifecycleCtx::unbounded();
        let token = ctx.cancel_token();
        let pool = Pool::new(4).with_lifecycle(ctx);
        let executed = AtomicUsize::new(0);
        let (started_tx, started_rx) = std::sync::mpsc::sync_channel::<()>(1);
        let canceler = std::thread::spawn(move || {
            // Wait for the first chunk to start, then cancel from outside.
            started_rx.recv().ok();
            token.cancel();
        });
        let err = pool
            .map_chunks(None, 4000, 1, |r| {
                executed.fetch_add(1, Ordering::Relaxed);
                if r.start == 0 {
                    started_tx.send(()).ok();
                }
                std::thread::sleep(std::time::Duration::from_micros(200));
                Ok(r.start)
            })
            .unwrap_err();
        canceler.join().unwrap();
        assert!(matches!(err, Error::Canceled(_)), "{err}");
        // Workers poll at every claim: once the flag is visible each worker
        // finishes at most the chunk it already holds, so the run stops far
        // short of the full input.
        let ran = executed.load(Ordering::Relaxed);
        assert!(ran < 4000, "canceled run executed all {ran} chunks");
    }

    #[test]
    fn serial_pool_observes_deadline_per_chunk() {
        use hdsj_core::LifecycleCtx;
        let ctx = LifecycleCtx::builder().deadline_ms(5).build();
        let pool = Pool::new(1).with_lifecycle(ctx);
        let err = pool
            .map_chunks(None, 1000, 1, |r| {
                std::thread::sleep(std::time::Duration::from_millis(1));
                Ok(r.start)
            })
            .unwrap_err();
        assert!(matches!(err, Error::DeadlineExceeded(_)), "{err}");
    }

    #[test]
    fn thread_count_resolution() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(5), 5);
        assert_eq!(Pool::new(0).threads(), resolve_threads(0));
    }
}
