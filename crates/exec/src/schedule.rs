//! Schedule exploration (loom-lite) for the pool — the `debug-schedules`
//! feature.
//!
//! The pool's guarantees (chunk-order determinism, earliest-chunk error
//! priority, quiescent shutdown) must hold under *every* interleaving, but
//! an ordinary test run only sees the few schedules the OS happens to
//! produce. This module makes schedules a controlled input:
//!
//! * The pool calls [`yield_point`] at each interesting transition
//!   ([`Site`]: worker start, stop-flag check, cursor claim, chunk
//!   completion, worker exit). With the feature off these
//!   are inlined no-ops; with it on, each call mixes the installed seed
//!   with a per-thread step counter and the site id through a SplitMix64
//!   hash and issues 0–3 `std::thread::yield_now()` calls. Different
//!   seeds therefore steer the scheduler through different interleavings,
//!   and the *same* seed replays (as closely as a real scheduler allows)
//!   the same perturbation — a failing seed is printed and re-runnable.
//! * Every pool worker holds a liveness guard ([`worker_guard`]) so
//!   [`live_workers`] must read zero once a pool call returns — the
//!   quiescent-shutdown assertion.
//! * The `explorer` submodule (feature-gated like the rest of this
//!   machinery) drives `map_chunks` through a seed range, asserting
//!   byte-determinism against serially computed expectations,
//!   schedule-stable metrics, deterministic error identity, and
//!   post-return quiescence for each seed.
//!
//! This is deliberately *not* loom: no model checking, no exhaustive
//! interleaving enumeration, std only. It buys a large, reproducible
//! sample of schedules for a few hundred milliseconds of test time.
//!
//! The issue sketch spells the gate `#[cfg(debug_schedules)]`; the
//! implementation uses a cargo feature (`--features debug-schedules`),
//! matching the storage crate's `debug-invariants` precedent, so CI and
//! the root package can forward it without custom `RUSTFLAGS`.

/// A named yield point inside the pool. The discriminant feeds the
/// perturbation hash, so distinct sites perturb differently under one
/// seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Site {
    /// A worker thread has started (map_chunks).
    WorkerStart,
    /// About to check the stop flag.
    StopCheck,
    /// Just claimed a chunk index from the cursor.
    CursorClaim,
    /// Finished a chunk (result recorded locally).
    ChunkDone,
    /// A worker's liveness guard is dropping.
    WorkerExit,
}

#[cfg(feature = "debug-schedules")]
mod imp {
    use super::Site;
    use std::cell::Cell;
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

    static ENABLED: AtomicBool = AtomicBool::new(false);
    static SEED: AtomicU64 = AtomicU64::new(0);
    static LIVE: AtomicUsize = AtomicUsize::new(0);
    static POINTS: AtomicU64 = AtomicU64::new(0);

    thread_local! {
        static STEP: Cell<u64> = const { Cell::new(0) };
    }

    /// SplitMix64: full-avalanche mixing of seed × site × step.
    pub(crate) fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Turns perturbation on with `seed` steering the interleavings.
    pub fn install(seed: u64) {
        SEED.store(seed, Ordering::Relaxed);
        ENABLED.store(true, Ordering::Relaxed);
    }

    /// Turns perturbation back off (yield points become cheap early
    /// returns again).
    pub fn uninstall() {
        ENABLED.store(false, Ordering::Relaxed);
    }

    /// Workers currently inside a pool primitive. Zero whenever no pool
    /// call is in flight — the quiescent-shutdown property.
    pub fn live_workers() -> usize {
        LIVE.load(Ordering::Relaxed)
    }

    /// Total yield points hit since the process started (liveness signal:
    /// proves the hooks actually fired during a sweep).
    pub fn points() -> u64 {
        POINTS.load(Ordering::Relaxed)
    }

    /// RAII liveness marker held by every pool worker for its whole run.
    pub struct WorkerGuard(());

    impl Drop for WorkerGuard {
        fn drop(&mut self) {
            yield_point(Site::WorkerExit);
            LIVE.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Marks a pool worker live until the returned guard drops.
    pub fn worker_guard() -> WorkerGuard {
        LIVE.fetch_add(1, Ordering::Relaxed);
        yield_point(Site::WorkerStart);
        WorkerGuard(())
    }

    /// The pool's scheduling hook: under an installed seed, maybe yield
    /// the OS scheduler 0–3 times, steered by (seed, thread step, site).
    pub fn yield_point(site: Site) {
        if !ENABLED.load(Ordering::Relaxed) {
            return;
        }
        POINTS.fetch_add(1, Ordering::Relaxed);
        let step = STEP.with(|s| {
            let v = s.get();
            s.set(v.wrapping_add(1));
            v
        });
        let h = mix(SEED.load(Ordering::Relaxed)
            ^ ((site as u64) << 32)
            ^ step.wrapping_mul(0x9E37));
        // At most three yields (h % 4), a perturbation knob, not an
        // input-sized loop.
        for _ in 0..(h % 4) {
            std::thread::yield_now();
        }
    }
}

#[cfg(not(feature = "debug-schedules"))]
mod imp {
    use super::Site;

    /// RAII liveness marker (no-op without `debug-schedules`).
    pub struct WorkerGuard(());

    /// No-op without `debug-schedules`.
    #[inline(always)]
    pub fn worker_guard() -> WorkerGuard {
        WorkerGuard(())
    }

    /// No-op without `debug-schedules`.
    #[inline(always)]
    pub fn yield_point(_site: Site) {}

    /// Always zero without `debug-schedules`.
    #[inline(always)]
    pub fn live_workers() -> usize {
        0
    }
}

pub use imp::*;

/// The seeded scenario driver: runs the pool under schedule perturbation
/// and checks its contracts after every seed.
#[cfg(feature = "debug-schedules")]
pub mod explorer {
    use super::imp::{install, live_workers, mix, uninstall};
    use crate::Pool;
    use hdsj_core::Error;
    use std::ops::Range;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A violated contract: which seed, which scenario, what went wrong.
    /// `seed` is all that is needed to replay — `explore(seed..seed + 1)`.
    #[derive(Debug)]
    pub struct Failure {
        pub seed: u64,
        pub scenario: &'static str,
        pub message: String,
    }

    impl std::fmt::Display for Failure {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(
                f,
                "seed {} / scenario {}: {} (replay: HDSJ_SCHED_SEEDS={}..{} \
                 cargo test -p hdsj-exec --features debug-schedules --test schedule_explorer)",
                self.seed,
                self.scenario,
                self.message,
                self.seed,
                self.seed + 1
            )
        }
    }

    /// What a completed sweep covered.
    #[derive(Debug)]
    pub struct Report {
        pub seeds: u64,
        pub scenarios_per_seed: usize,
    }

    type Scenario = (&'static str, fn() -> Result<(), String>);

    const SCENARIOS: &[Scenario] = &[
        ("map_chunks_determinism", map_chunks_determinism),
        ("error_priority_quiescence", error_priority_quiescence),
        ("traced_pool_metrics", traced_pool_metrics),
    ];

    /// Runs every scenario under every seed in `seeds`, stopping at the
    /// first violated contract. After each scenario the worker-liveness
    /// count must be back to zero (quiescent shutdown).
    pub fn explore(seeds: Range<u64>) -> Result<Report, Failure> {
        let nseeds = seeds.end.saturating_sub(seeds.start);
        for seed in seeds {
            for (name, scenario) in SCENARIOS {
                install(seed);
                let outcome = scenario();
                let live = live_workers();
                uninstall();
                if let Err(message) = outcome {
                    return Err(Failure {
                        seed,
                        scenario: name,
                        message,
                    });
                }
                if live != 0 {
                    return Err(Failure {
                        seed,
                        scenario: name,
                        message: format!("{live} workers still live after the pool returned"),
                    });
                }
            }
        }
        Ok(Report {
            seeds: nseeds,
            scenarios_per_seed: SCENARIOS.len(),
        })
    }

    /// The workload: an arbitrary but fixed pure function, so divergence
    /// anywhere in the output is visible.
    fn item(i: usize) -> u64 {
        mix(i as u64)
    }

    /// `map_chunks` must produce byte-identical output at every thread
    /// count, under any interleaving.
    fn map_chunks_determinism() -> Result<(), String> {
        let (n, chunk) = (257, 9);
        let expected: Vec<u64> = (0..n).map(item).collect();
        for threads in [2usize, 4, 8] {
            let got = Pool::new(threads)
                .map_chunks(None, n, chunk, |r: Range<usize>| {
                    Ok(r.map(item).collect::<Vec<u64>>())
                })
                .map_err(|e| format!("map_chunks failed: {e}"))?;
            let flat: Vec<u64> = got.into_iter().flatten().collect();
            if flat != expected {
                return Err(format!("output diverged from serial at {threads} threads"));
            }
        }
        Ok(())
    }

    /// A *traced* pool run (live memory-sink tracer) must not deadlock
    /// under perturbation, and its metrics must stay schedule-stable:
    /// the task counter equals the chunk count, the per-chunk latency
    /// histogram records exactly one sample per chunk, and the results
    /// themselves remain byte-deterministic. This guards the metric
    /// record paths (sharded histogram cells, counter cells) against
    /// interleaving bugs that an untraced sweep can never see.
    fn traced_pool_metrics() -> Result<(), String> {
        let (tracer, sink) = hdsj_core::obs::Tracer::memory();
        let (n, chunk) = (203usize, 7usize);
        let nchunks = n.div_ceil(chunk) as u64;
        let expected: Vec<u64> = (0..n).map(item).collect();
        let got = Pool::with_tracer(3, tracer.clone())
            .map_chunks(None, n, chunk, |r: Range<usize>| {
                Ok(r.map(item).collect::<Vec<u64>>())
            })
            .map_err(|e| format!("traced map_chunks failed: {e}"))?;
        let flat: Vec<u64> = got.into_iter().flatten().collect();
        if flat != expected {
            return Err("traced output diverged from serial".to_string());
        }
        tracer.flush();
        let tasks = sink.counter_value(hdsj_core::obs::names::EXEC_TASKS);
        if tasks != Some(nchunks) {
            return Err(format!("task counter {tasks:?} != chunks {nchunks}"));
        }
        match sink.hist_snapshot(hdsj_core::obs::names::EXEC_CHUNK_NS) {
            Some(h) if h.count == nchunks => {}
            Some(h) => {
                return Err(format!(
                    "chunk histogram saw {} samples, want {nchunks}",
                    h.count
                ))
            }
            None => return Err("chunk histogram missing from the flush".to_string()),
        }
        Ok(())
    }

    /// Error identity is schedule-independent (the earliest failing chunk
    /// wins), and after the pool returns nothing is still running: the
    /// executed-counter is stable and the liveness count is zero.
    fn error_priority_quiescence() -> Result<(), String> {
        let executed = AtomicUsize::new(0);
        let run = || {
            Pool::new(4).map_chunks(None, 3000, 2, |r: Range<usize>| {
                if r.start == 10 {
                    Err(Error::Internal(format!("injected at {}", r.start)))
                } else {
                    executed.fetch_add(1, Ordering::Relaxed);
                    Ok(())
                }
            })
        };
        let msg = match run() {
            Ok(_) => return Err("expected the injected error to surface".to_string()),
            Err(e) => e.to_string(),
        };
        if !msg.contains("injected at 10") {
            return Err(format!("error identity not deterministic: {msg}"));
        }
        // Quiescence: the scope has joined, so no straggler may still be
        // bumping the counter.
        let before = executed.load(Ordering::Relaxed);
        for _ in 0..8 {
            std::thread::yield_now();
        }
        let after = executed.load(Ordering::Relaxed);
        if before != after {
            return Err(format!(
                "workers still running after return: executed moved {before} -> {after}"
            ));
        }
        // Replay determinism of the error path: the same run yields the
        // same error identity.
        let msg2 = match run() {
            Ok(_) => return Err("expected the injected error to surface (rerun)".to_string()),
            Err(e) => e.to_string(),
        };
        if msg2 != msg {
            return Err(format!("error not replayable: {msg:?} vs {msg2:?}"));
        }
        Ok(())
    }
}
