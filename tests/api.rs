//! Public-API integration tests: the umbrella crate's advertised workflows
//! work end to end as documented in the README.
// Panicking is idiomatic in test code; see clippy.toml.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use hdsj::all_algorithms;
use hdsj::core::{CallbackSink, CountSink, Dataset, JoinSpec, Metric, SimilarityJoin, VecSink};

#[test]
fn roster_is_complete_and_named() {
    let names: Vec<&str> = all_algorithms().iter().map(|a| a.name()).collect();
    assert_eq!(names, vec!["BF", "SM1D", "GRID", "EKDB", "RSJ", "MSJ"]);
}

#[test]
fn readme_workflow_normalize_then_join() {
    // Raw, un-normalized business data: two feature tables on different
    // scales, joined after shared normalization.
    let a = Dataset::from_rows(&[vec![10.0, 2000.0], vec![12.0, 2100.0], vec![90.0, 9000.0]])
        .unwrap();
    let b = Dataset::from_rows(&[vec![11.0, 2050.0], vec![50.0, 5000.0]]).unwrap();

    let (na, nb, scale) = Dataset::normalize_pair(&a, &b).unwrap();
    // "within 300 units" in original space becomes scale*300 in the cube.
    let eps = scale * 300.0;
    let spec = JoinSpec::new(eps, Metric::L2);

    let mut sink = VecSink::default();
    hdsj::msj::Msj::default()
        .join(&na, &nb, &spec, &mut sink)
        .unwrap();
    // a0 and a1 are within 300 of b0; a2 is far from everything.
    sink.pairs.sort_unstable();
    assert_eq!(sink.pairs, vec![(0, 0), (1, 0)]);
}

#[test]
fn callback_sink_streams_pairs() {
    let ds = hdsj::data::uniform(3, 300, 1).unwrap();
    let spec = JoinSpec::new(0.1, Metric::L2);
    let mut streamed = 0u64;
    {
        let mut sink = CallbackSink(|_i, _j| streamed += 1);
        hdsj::grid::GridJoin::default()
            .self_join(&ds, &spec, &mut sink)
            .unwrap();
    }
    let mut count = CountSink::default();
    hdsj::grid::GridJoin::default()
        .self_join(&ds, &spec, &mut count)
        .unwrap();
    assert_eq!(streamed, count.count);
}

#[test]
fn algorithms_are_reusable_across_calls() {
    // `&mut self` lets implementations cache scratch space; repeated use of
    // one instance must keep producing correct, identical results.
    let ds1 = hdsj::data::uniform(4, 300, 2).unwrap();
    let ds2 = hdsj::data::uniform(4, 250, 3).unwrap();
    for mut algo in all_algorithms() {
        let spec = JoinSpec::new(0.2, Metric::L2);
        let mut first = VecSink::default();
        if algo.self_join(&ds1, &spec, &mut first).is_err() {
            continue;
        }
        let mut other = VecSink::default();
        algo.join(&ds1, &ds2, &spec, &mut other).unwrap();
        let mut again = VecSink::default();
        algo.self_join(&ds1, &spec, &mut again).unwrap();
        hdsj::core::verify::assert_same_results(algo.name(), &first.pairs, &again.pairs);
    }
}

#[test]
fn errors_are_reported_not_panicked() {
    let ds = hdsj::data::uniform(3, 10, 4).unwrap();
    let other = hdsj::data::uniform(4, 10, 5).unwrap();
    for mut algo in all_algorithms() {
        let mut sink = CountSink::default();
        // eps <= 0
        assert!(algo.self_join(&ds, &JoinSpec::l2(0.0), &mut sink).is_err());
        // NaN eps
        assert!(algo
            .self_join(&ds, &JoinSpec::l2(f64::NAN), &mut sink)
            .is_err());
        // dimension mismatch
        assert!(algo
            .join(&ds, &other, &JoinSpec::l2(0.1), &mut sink)
            .is_err());
        // invalid Lp
        assert!(algo
            .self_join(&ds, &JoinSpec::new(0.1, Metric::Lp(0.5)), &mut sink)
            .is_err());
    }
}

#[test]
fn stats_phases_are_populated_for_all_structured_algorithms() {
    let ds = hdsj::data::uniform(4, 400, 6).unwrap();
    let spec = JoinSpec::new(0.2, Metric::L2);
    for mut algo in all_algorithms() {
        let mut sink = CountSink::default();
        let stats = match algo.self_join(&ds, &spec, &mut sink) {
            Ok(s) => s,
            Err(_) => continue,
        };
        assert!(
            !stats.phases.is_empty(),
            "{} reports no phases",
            algo.name()
        );
        assert!(stats.total_time().as_nanos() > 0);
    }
}

#[test]
#[allow(clippy::disallowed_methods)]
fn msj_sweep_observes_deadline_and_cross_thread_cancel() {
    use hdsj::core::{Error, LifecycleCtx};
    use std::time::{Duration, Instant};

    // ε·d this large puts every point in level 0: the whole join is one
    // cell's sweep, with no page fetch or phase boundary left to poll at.
    let flat = hdsj::data::uniform(16, 3000, 12).unwrap();
    // The opposite shape: a deep hierarchy of thousands of small cells,
    // whose sweep narrows a view per cell and stripes the big joins. Assign
    // and sort are close to half of this join and poll per record, so a stop
    // a twentieth of the way in would never reach the sweep: this case alone
    // times its stop, and its bound, from where the uncancelled sweep began.
    let deep = hdsj::data::uniform(4, 40_000, 12).unwrap();
    let cases = [
        (&flat, JoinSpec::new(0.5, Metric::L2), 1_000_000, false),
        (&deep, JoinSpec::new(0.02, Metric::L2), 100_000, true),
    ];
    for (ds, spec, candidates, from_sweep) in cases {
        for threads in [1usize, 2] {
            let run = |lc: Option<LifecycleCtx>| {
                let mut msj = hdsj::msj::Msj::with_threads(threads);
                if let Some(lc) = lc {
                    msj.set_lifecycle(lc);
                }
                let started = Instant::now();
                let outcome = msj.self_join(ds, &spec, &mut CountSink::default());
                (outcome, started.elapsed())
            };
            let (full, uncancelled) = run(None);
            let full = full.unwrap();
            assert!(full.candidates > candidates);
            let head = if from_sweep {
                uncancelled.saturating_sub(full.phase("sweep").unwrap())
            } else {
                Duration::ZERO
            };
            let after = head + ((uncancelled - head) / 20).max(Duration::from_millis(1));
            let limit = head + (uncancelled - head) / 2;
            let case = format!("d={} threads={threads}", ds.dims());

            let lc = LifecycleCtx::builder()
                .deadline_ms(after.as_millis() as u64)
                .build();
            let (outcome, took) = run(Some(lc));
            let err = outcome.unwrap_err();
            assert!(matches!(err, Error::DeadlineExceeded(_)), "{case}: {err:?}");
            assert!(
                took < limit,
                "{case}: deadline {after:?} honoured only after {took:?}, limit {limit:?} of {uncancelled:?}"
            );

            let lc = LifecycleCtx::unbounded();
            let token = lc.cancel_token();
            let (go, wait) = std::sync::mpsc::channel::<()>();
            // The join is timed from the instant of the `cancel()` call:
            // `sleep` may oversleep by most of a millisecond-scale budget,
            // and that is the canceller's lateness, not the join's.
            let canceller = std::thread::spawn(move || {
                wait.recv().unwrap();
                std::thread::sleep(after);
                let at = Instant::now();
                token.cancel();
                at
            });
            go.send(()).unwrap();
            let (outcome, _) = run(Some(lc));
            let lag = canceller.join().unwrap().elapsed();
            let err = outcome.unwrap_err();
            assert!(matches!(err, Error::Canceled(_)), "{case}: {err:?}");
            assert!(
                lag < limit - head,
                "{case}: cancel honoured only after {lag:?}, limit {:?} of {uncancelled:?}",
                limit - head
            );
        }
    }
}

#[test]
fn ekdb_observes_deadline_inside_one_leaf() {
    use hdsj::core::{Error, LifecycleCtx};
    use std::time::{Duration, Instant};

    // Identical points never separate: past depth == dims they share one
    // leaf that grows without bound, and its 8·10⁸-candidate join is a
    // single leaf pair — no traversal step left to poll at.
    let ds = Dataset::from_flat(2, vec![0.5; 2 * 40_000]).unwrap();
    let mut ekdb = hdsj::ekdb::EkdbJoin::default();
    ekdb.set_lifecycle(LifecycleCtx::builder().deadline_ms(100).build());
    let started = Instant::now();
    let err = ekdb
        .self_join(&ds, &JoinSpec::l2(0.01), &mut CountSink::default())
        .unwrap_err();
    assert!(matches!(err, Error::DeadlineExceeded(_)), "{err:?}");
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "stopped after {took:?}");
}
