//! Chaos integration suite: every disk-backed join runs under seeded fault
//! schedules, and must either fail with a *typed* storage-family error or
//! produce exactly the fault-free result set. Either way the buffer pool
//! must come back clean: no pinned frames, and (for MSJ, whose temp files
//! own pages) no leaked pages.
//!
//! Seeds are fixed so CI is reproducible; `HDSJ_CHAOS_SEED=n` narrows the
//! sweep to one seed (the CI chaos job fans out over several).
// Panicking is idiomatic in test code; see clippy.toml.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use hdsj::core::obs::names;
use hdsj::core::{Dataset, Error, JoinSpec, Metric, SimilarityJoin, VecSink};
use hdsj::data::uniform;
use hdsj::msj::Msj;
use hdsj::rtree::RsjJoin;
use hdsj::storage::{FaultPlan, RetryPolicy, StorageEngine};

/// Tiny pool so runs actually hit the (faulty) disk instead of staying
/// resident.
const POOL_PAGES: usize = 4;

fn seeds() -> Vec<u64> {
    match std::env::var("HDSJ_CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("HDSJ_CHAOS_SEED must be a u64")],
        Err(_) => vec![3, 17, 101],
    }
}

fn dataset() -> Dataset {
    uniform(8, 4000, 42).unwrap()
}

fn spec() -> JoinSpec {
    // ε chosen so 8-d uniform data yields a real (non-empty) result set
    // while the level files still span several times the pool capacity.
    JoinSpec::new(0.25, Metric::L2)
}

/// Unordered pairs in canonical order, for order-insensitive comparison.
fn canonical(mut pairs: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
    for p in &mut pairs {
        if p.0 > p.1 {
            *p = (p.1, p.0);
        }
    }
    pairs.sort_unstable();
    pairs
}

/// Constructor for an algorithm running on the given (possibly faulty)
/// engine.
type AlgoCtor = fn(StorageEngine) -> Box<dyn SimilarityJoin>;

/// The engine-backed algorithms: name plus a constructor taking the
/// (possibly faulty) engine to run on.
fn engine_algos() -> Vec<(&'static str, AlgoCtor)> {
    vec![
        ("msj", |e| Box::new(Msj::with_engine(e))),
        ("rsj", |e| Box::new(RsjJoin::with_engine(e))),
    ]
}

/// Fault profiles exercised per (algorithm, seed): each returns a
/// `FaultPlan` spec string for the given seed.
fn profiles(seed: u64) -> Vec<(&'static str, String)> {
    vec![
        ("transient-read", format!("seed={seed},read=0.2:transient")),
        ("transient-any", format!("seed={seed},any=0.1:transient")),
        (
            "persistent-write",
            format!("seed={seed},write=0.05:persistent"),
        ),
        ("corrupt-write", format!("seed={seed},write=0.05:corrupt")),
        ("torn-write", format!("seed={seed},write=0.05:torn")),
    ]
}

fn run_on(
    ctor: AlgoCtor,
    engine: StorageEngine,
    ds: &Dataset,
) -> (hdsj::core::Result<hdsj::core::JoinStats>, Vec<(u32, u32)>) {
    let mut algo = ctor(engine);
    let mut sink = VecSink::default();
    let out = algo.self_join(ds, &spec(), &mut sink);
    (out, sink.pairs)
}

#[test]
fn every_disk_backed_join_survives_seeded_fault_schedules() {
    let ds = dataset();
    for (name, ctor) in engine_algos() {
        // Fault-free baseline on the same tiny pool.
        let clean = StorageEngine::in_memory(POOL_PAGES);
        let (base_out, base_pairs) = run_on(ctor, clean.clone(), &ds);
        base_out.unwrap_or_else(|e| panic!("{name} baseline failed: {e}"));
        let baseline = canonical(base_pairs);
        assert_eq!(clean.pool().pinned_frames(), 0, "{name} baseline pins");

        for seed in seeds() {
            for (profile, spec_str) in profiles(seed) {
                let label = format!("{name}/{profile}/seed={seed}");
                let plan = FaultPlan::parse(&spec_str).expect("profile spec parses");
                let engine = StorageEngine::builder(POOL_PAGES)
                    .retry(RetryPolicy::backoff(6))
                    .faults(plan)
                    .in_memory();
                let (out, pairs) = run_on(ctor, engine.clone(), &ds);
                match out {
                    // Completed: results must be exactly the fault-free set.
                    Ok(_) => assert_eq!(canonical(pairs), baseline, "{label} diverged"),
                    // Aborted: only the storage error family is acceptable.
                    Err(Error::Storage(_)) | Err(Error::Corruption(_)) | Err(Error::Io(_)) => {}
                    Err(e) => panic!("{label}: untyped failure {e:?}"),
                }
                let pool = engine.pool();
                assert_eq!(pool.pinned_frames(), 0, "{label} left pinned frames");
                if name == "msj" {
                    // MSJ's temp run files own their pages and must free
                    // them on every path, including mid-join aborts.
                    assert_eq!(
                        pool.free_pages(),
                        pool.num_pages() as usize,
                        "{label} leaked pages"
                    );
                }
            }
        }
    }
}

/// The acceptance schedule from the issue: a transient fault plan that
/// aborts the join under the fail-fast policy must complete under bounded
/// retry, with the recovery visible in both the run stats and the trace.
#[test]
fn transient_schedule_recovers_under_retry_and_counts_it() {
    let ds = dataset();
    let spec_str = "seed=3,write=0.4:transient";

    // Fail fast: the schedule must actually bite.
    let engine = StorageEngine::builder(POOL_PAGES)
        .retry(RetryPolicy::none())
        .faults(FaultPlan::parse(spec_str).unwrap())
        .in_memory();
    let (out, _) = run_on(|e| Box::new(Msj::with_engine(e)), engine.clone(), &ds);
    match out {
        Err(Error::Storage(_)) | Err(Error::Io(_)) => {}
        other => panic!("expected a transient abort without retries, got {other:?}"),
    }
    assert_eq!(engine.pool().pinned_frames(), 0);
    assert!(engine.io_counters().faults > 0);

    // Same schedule, bounded backoff: completes and matches a fault-free
    // run, with the retries counted and traced.
    let clean = StorageEngine::in_memory(POOL_PAGES);
    let (base_out, base_pairs) = run_on(|e| Box::new(Msj::with_engine(e)), clean, &ds);
    base_out.unwrap();

    let (tracer, mem) = hdsj::obs::Tracer::memory();
    let engine = StorageEngine::builder(POOL_PAGES)
        .retry(RetryPolicy::backoff(8))
        .faults(FaultPlan::parse(spec_str).unwrap())
        .in_memory();
    let mut msj = Msj::with_engine(engine.clone());
    msj.set_tracer(tracer.clone());
    let mut sink = VecSink::default();
    let stats = msj
        .self_join(&ds, &spec(), &mut sink)
        .expect("retry policy should absorb the transient schedule");
    tracer.flush();
    assert_eq!(canonical(sink.pairs), canonical(base_pairs));
    assert!(stats.io.retries > 0, "recovery must be visible in stats");
    assert!(stats.io.faults > 0);
    let traced = mem.counter_value(names::POOL_RETRIES).unwrap_or(0);
    assert!(traced > 0, "pool.retries counter missing from the trace");
    assert_eq!(engine.pool().pinned_frames(), 0);
    assert_eq!(
        engine.pool().free_pages(),
        engine.pool().num_pages() as usize
    );
}

/// Detected corruption surfaces as `Error::Corruption` (not a wrong
/// answer) and is counted.
#[test]
fn corrupting_writes_yield_corruption_not_wrong_answers() {
    let ds = dataset();
    for seed in seeds() {
        let plan = FaultPlan::parse(&format!("seed={seed},write=0.3:corrupt")).unwrap();
        let engine = StorageEngine::builder(POOL_PAGES).faults(plan).in_memory();
        let (out, _) = run_on(|e| Box::new(Msj::with_engine(e)), engine.clone(), &ds);
        match out {
            Err(Error::Corruption(msg)) => {
                assert!(msg.contains("checksum"), "seed {seed}: {msg}");
                assert!(engine.io_counters().corruptions > 0);
            }
            // A seed may corrupt only pages that are never re-read (or
            // that stay resident); completing with correct results is the
            // other legal outcome.
            Ok(_) => {}
            other => panic!("seed {seed}: expected Corruption or success, got {other:?}"),
        }
        assert_eq!(engine.pool().pinned_frames(), 0);
    }
}

/// A panicking sweep worker is contained as a typed error and leaves the
/// shared engine reusable.
#[test]
fn refine_worker_panic_is_contained_and_engine_stays_usable() {
    let ds = dataset();
    let engine = StorageEngine::in_memory(POOL_PAGES);
    let mut msj = Msj::with_engine(engine.clone());
    msj.env.threads = 3;
    msj.fail_sweep_worker = Some(1);
    let mut sink = VecSink::default();
    let err = msj.self_join(&ds, &spec(), &mut sink).unwrap_err();
    // The exec pool contains worker panics as Error::Internal.
    assert!(matches!(err, Error::Internal(_)), "{err:?}");
    assert!(err.to_string().contains("panicked"), "{err}");
    assert!(
        err.to_string().contains("injected sweep-worker failure"),
        "{err}"
    );
    assert_eq!(engine.pool().pinned_frames(), 0);
    assert_eq!(
        engine.pool().free_pages(),
        engine.pool().num_pages() as usize
    );

    // Same engine, failpoint off: the join completes normally.
    let mut msj = Msj::with_engine(engine);
    msj.env.threads = 3;
    let mut sink = VecSink::default();
    msj.self_join(&ds, &spec(), &mut sink).unwrap();
    assert!(!sink.pairs.is_empty());
}

/// The in-memory algorithms have no storage surface: under the same
/// harness they are deterministic run-to-run, which is what "unaffected by
/// fault plans" means for them.
#[test]
fn memory_resident_algorithms_are_deterministic_under_the_harness() {
    let ds = uniform(4, 800, 7).unwrap();
    let spec = JoinSpec::new(0.15, Metric::L2);
    for mut algo in hdsj::all_algorithms() {
        let mut first = VecSink::default();
        match algo.self_join(&ds, &spec, &mut first) {
            Ok(_) => {}
            Err(Error::Unsupported(_)) => continue,
            Err(e) => panic!("{}: {e}", algo.name()),
        }
        let mut second = VecSink::default();
        algo.self_join(&ds, &spec, &mut second).unwrap();
        assert_eq!(
            canonical(first.pairs),
            canonical(second.pairs),
            "{} not deterministic",
            algo.name()
        );
    }
}
