//! Parallel candidate refinement.
//!
//! The sweep itself is inherently sequential (it follows the sorted stream),
//! but at large ε·d the dominant cost is the exact metric on the candidates
//! it emits (experiment E8). On [`hdsj_exec::Pool::producer_consumers`] the
//! sweep runs on the calling thread and ships **tile jobs** — one owned
//! [`SoABlock`] plus the probe windows into it, or a batch of pairs from
//! tiles too sparse to gather — through a bounded channel; workers run each
//! job through the [`Refiner`] entry points the serial path uses. Jobs are
//! numbered in sweep order and results merged by that number, so pairs
//! reach the sink in exactly the serial order at every thread count.
//!
//! With a tracer installed, each worker reports a `refine-worker` span
//! (child of the sweep span) with its pair/candidate counts and channel
//! wait, and adds to the shared `msj.refine.pairs` / `msj.refine.candidates`
//! counters; the sweep side reports `msj.sweep.send_wait_us`. A panicking
//! metric (or the chaos failpoint) is contained by the pool as a typed
//! `Error::Internal`, never an unwind across the join.

use crate::assign::RecordCodec;
use crate::sweep::{self, SweepTally};
use crossbeam::channel::Sender;
use hdsj_core::obs::{names, Span};
use hdsj_core::{
    CandidateSink, Dataset, Error, JoinKind, JoinSpec, LifecycleCtx, Refiner, Result, SoABlock,
    Tracer, VecSink,
};
use hdsj_exec::Pool;
use hdsj_storage::RecordFile;
use std::ops::Range;
use std::time::{Duration, Instant};

/// Candidate pairs per pair job: large enough to amortize channel
/// overhead, small enough to keep workers busy.
const PAIR_BATCH: usize = 4096;

/// Probe windows per tile job. A tile touched by more probes is shipped
/// again with the next windows, which bounds a message (and the work
/// between two worker polls) and splits a level-0 tile across workers.
const WINDOW_BATCH: usize = 1024;

/// `(sweep tally, matched pairs in sweep order, candidate count)` from a
/// refined sweep.
pub type RefineOutcome = (SweepTally, Vec<(u32, u32)>, u64);

/// The pairs one job produced, under the job's sweep-order number.
type JobPairs = (u64, Vec<(u32, u32)>);

/// One unit of refinement work.
enum Job {
    /// A gathered tile and `(probe, first lane, end lane)` windows into it.
    Tile(SoABlock, Vec<(u32, u32, u32)>),
    /// Candidates of tiles too sparse to gather.
    Pairs(Vec<(u32, u32)>),
}

/// The sweep-side sink: buffers the current tile's windows and the pending
/// pairs, and sends them as numbered jobs.
struct Shipper {
    tx: Sender<(u64, Job)>,
    next_seq: u64,
    tile: Option<SoABlock>,
    windows: Vec<(u32, u32, u32)>,
    pairs: Vec<(u32, u32)>,
    send_wait: Duration,
    /// Every worker is gone: they panicked, or saw the lifecycle error
    /// before the sweep did.
    closed: bool,
}

impl Shipper {
    fn send(&mut self, job: Job) {
        // allow(hdsj::determinism): backpressure timing feeds the
        // producer's obs counter only; join results never read it.
        let blocked = Instant::now();
        self.closed |= self.tx.send((self.next_seq, job)).is_err();
        self.send_wait += blocked.elapsed();
        self.next_seq += 1;
    }

    fn ship_tile(&mut self) {
        if let Some(tile) = self.tile.take() {
            let windows = std::mem::take(&mut self.windows);
            self.send(Job::Tile(tile, windows));
        }
    }

    fn ship_pairs(&mut self) {
        if !self.pairs.is_empty() {
            let pairs = std::mem::replace(&mut self.pairs, Vec::with_capacity(PAIR_BATCH));
            self.send(Job::Pairs(pairs));
        }
    }

    /// Errors once the channel has closed. The pool's error priority
    /// (worker error first) reports what made the workers leave instead.
    fn check_open(&self) -> Result<()> {
        if self.closed {
            return Err(Error::Storage("refinement channel closed early".into()));
        }
        Ok(())
    }
}

impl CandidateSink for Shipper {
    fn block(&mut self, i: u32, tile: &SoABlock, lanes: Range<usize>) {
        if self.windows.len() == WINDOW_BATCH {
            self.ship_tile();
        }
        if self.tile.is_none() {
            // Earlier sparse tiles' pairs precede this tile in sweep order.
            self.ship_pairs();
            self.tile = Some(tile.clone());
        }
        self.windows.push((i, lanes.start as u32, lanes.end as u32));
    }

    fn pair(&mut self, i: u32, j: u32) {
        self.pairs.push((i, j));
        if self.pairs.len() == PAIR_BATCH {
            self.ship_pairs();
        }
    }

    fn end_tile(&mut self) -> Result<()> {
        self.ship_tile();
        self.check_open()
    }
}

/// Runs the sweep with `threads` refinement workers. `parent` is the span
/// the per-worker spans nest under (the caller's sweep phase).
/// `fail_worker` is a chaos-test failpoint: the worker with that index
/// panics on startup, exercising the containment path.
#[allow(clippy::too_many_arguments)]
pub fn sweep_and_refine(
    sorted: &RecordFile,
    codec: &RecordCodec,
    a: &Dataset,
    b: &Dataset,
    kind: JoinKind,
    spec: &JoinSpec,
    threads: usize,
    lifecycle: Option<&LifecycleCtx>,
    tracer: &Tracer,
    parent: &Span,
    fail_worker: Option<usize>,
) -> Result<RefineOutcome> {
    let threads = threads.max(1);
    let traced = tracer.enabled();
    let pairs_counter = tracer.counter(names::MSJ_REFINE_PAIRS);
    let candidates_counter = tracer.counter(names::MSJ_REFINE_CANDIDATES);
    let mut pool = Pool::with_tracer(threads, tracer.clone());
    if let Some(lc) = lifecycle {
        pool = pool.with_lifecycle(lc.clone());
    }

    // Deep enough that the workers do not drain it while a blocked sweep
    // thread waits to be scheduled again (with 4 slots per worker they
    // idled for half of a d = 64 join); a job is at most one L1 tile plus
    // `WINDOW_BATCH` windows, so the queue stays near 0.5 MB per worker.
    let (tx, rx) = crossbeam::channel::bounded::<(u64, Job)>(threads * 16);
    let consumers: Vec<_> = (0..threads)
        .map(|_| {
            let rx = rx.clone();
            let pairs_counter = pairs_counter.clone();
            let candidates_counter = candidates_counter.clone();
            move |worker_idx: usize| -> Result<(Vec<JobPairs>, u64)> {
                let mut span = parent.child("refine-worker");
                if fail_worker == Some(worker_idx) {
                    // Deliberate chaos failpoint: the panic is contained by the
                    // pool and surfaces as a typed error at the join() site.
                    #[allow(clippy::panic)]
                    {
                        panic!("injected refine-worker failure (worker {worker_idx})");
                    }
                }
                let mut done: Vec<JobPairs> = Vec::new();
                let (mut pairs, mut candidates) = (0u64, 0u64);
                let mut wait = Duration::ZERO;
                loop {
                    // allow(hdsj::determinism): channel-wait timing feeds the
                    // worker's obs span only; join results never read it.
                    let blocked = Instant::now();
                    let received = rx.recv();
                    wait += blocked.elapsed();
                    let Ok((seq, job)) = received else {
                        break;
                    };
                    // Jobs already queued when the sweep stops must not
                    // outlive a cancellation or deadline.
                    if let Some(lc) = lifecycle {
                        lc.poll()?;
                    }
                    // The serial path's refiner, one job at a time: same
                    // counters, same canonical emission, same order.
                    let mut out = VecSink::default();
                    let mut refiner = Refiner::new(a, b, kind, spec, &mut out);
                    match job {
                        Job::Tile(tile, windows) => {
                            for (i, w0, w1) in windows {
                                refiner.offer_block(i, &tile, w0 as usize..w1 as usize);
                            }
                        }
                        Job::Pairs(batch) => {
                            for (i, j) in batch {
                                refiner.offer(i, j);
                            }
                        }
                    }
                    let (job_candidates, job_pairs, _) = refiner.counters();
                    candidates += job_candidates;
                    pairs += job_pairs;
                    if traced {
                        // Per-job shared increments: concurrent with the
                        // other workers, summing exactly to the totals.
                        candidates_counter.add(job_candidates);
                        pairs_counter.add(job_pairs);
                    }
                    if !out.pairs.is_empty() {
                        done.push((seq, out.pairs));
                    }
                }
                if traced {
                    span.attr_u64("worker", worker_idx as u64);
                    span.attr_u64("pairs", pairs);
                    span.attr_u64("candidates", candidates);
                    span.attr_u64("wait_us", wait.as_micros() as u64);
                }
                Ok((done, candidates))
            }
        })
        .collect();
    // The consumers own their receiver clones; dropping the original lets
    // worker exit terminate the producer's sends.
    drop(rx);

    // The sweep runs on the calling thread, shipping jobs outward. A send
    // only fails once every worker has left.
    let producer = move || -> Result<SweepTally> {
        let mut shipper = Shipper {
            tx,
            next_seq: 0,
            tile: None,
            windows: Vec::new(),
            pairs: Vec::with_capacity(PAIR_BATCH),
            send_wait: Duration::ZERO,
            closed: false,
        };
        let swept = sweep::sweep(sorted, codec, a, b, kind, spec.eps, lifecycle, &mut shipper);
        if swept.is_ok() {
            shipper.ship_pairs();
        }
        if traced {
            tracer
                .counter(names::MSJ_SWEEP_SEND_WAIT_US)
                .add(shipper.send_wait.as_micros() as u64);
        }
        shipper.check_open()?;
        swept
    };

    let (tally, outcomes) = pool.producer_consumers(consumers, producer)?;
    let mut jobs: Vec<JobPairs> = Vec::new();
    let mut candidates = 0u64;
    // allow(hdsj::lifecycle_poll): one outcome per consumer, bounded by
    // the worker count; the sweep polled while the consumers refined.
    for (done, c) in outcomes {
        jobs.extend(done);
        candidates += c;
    }
    jobs.sort_unstable_by_key(|job| job.0);
    let pairs = jobs.into_iter().flat_map(|job| job.1).collect();
    Ok((tally, pairs, candidates))
}
