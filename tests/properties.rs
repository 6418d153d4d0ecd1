//! Property-based integration tests: randomized point sets and join
//! parameters, with brute force as the oracle.
// Panicking is idiomatic in test code; see clippy.toml.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use hdsj::all_algorithms;
use hdsj::bruteforce::BruteForce;
use hdsj::core::{verify, Dataset, JoinSpec, Metric, SimilarityJoin, VecSink};
use proptest::prelude::*;

/// A random dataset: dims in 1..=8, up to 120 points in [0,1).
fn dataset_strategy() -> impl Strategy<Value = Dataset> {
    (1usize..=8).prop_flat_map(|dims| {
        proptest::collection::vec(proptest::collection::vec(0.0f64..1.0, dims), 0..120)
            .prop_map(move |rows| {
                let clamped: Vec<Vec<f64>> = rows
                    .into_iter()
                    .map(|r| r.into_iter().map(|v| v.min(1.0 - 1e-12)).collect())
                    .collect();
                if clamped.is_empty() {
                    Dataset::new(dims).unwrap()
                } else {
                    Dataset::from_rows(&clamped).unwrap()
                }
            })
    })
}

fn metric_strategy() -> impl Strategy<Value = Metric> {
    prop_oneof![
        Just(Metric::L1),
        Just(Metric::L2),
        Just(Metric::Linf),
        (1.5f64..4.0).prop_map(Metric::Lp),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_algorithm_matches_brute_force(
        ds in dataset_strategy(),
        eps in 0.01f64..0.6,
        metric in metric_strategy(),
    ) {
        let spec = JoinSpec::new(eps, metric);
        let mut want = VecSink::default();
        BruteForce::default().self_join(&ds, &spec, &mut want).unwrap();
        for mut algo in all_algorithms() {
            let mut got = VecSink::default();
            match algo.self_join(&ds, &spec, &mut got) {
                Ok(_) => verify::assert_same_results(algo.name(), &want.pairs, &got.pairs),
                Err(hdsj::core::Error::Unsupported(_)) => {}
                Err(e) => panic!("{}: {e}", algo.name()),
            }
        }
    }

    #[test]
    fn two_set_join_matches_brute_force(
        a in dataset_strategy(),
        eps in 0.05f64..0.5,
    ) {
        // Second dataset with the same dims, fixed contents derived from a.
        let dims = a.dims();
        let b = hdsj::data::uniform(dims, 60, dims as u64 + 99).unwrap();
        let spec = JoinSpec::new(eps, Metric::L2);
        let mut want = VecSink::default();
        BruteForce::default().join(&a, &b, &spec, &mut want).unwrap();
        for mut algo in all_algorithms() {
            let mut got = VecSink::default();
            match algo.join(&a, &b, &spec, &mut got) {
                Ok(_) => verify::assert_same_results(algo.name(), &want.pairs, &got.pairs),
                Err(hdsj::core::Error::Unsupported(_)) => {}
                Err(e) => panic!("{}: {e}", algo.name()),
            }
        }
    }

    #[test]
    fn self_join_pairs_are_canonical_and_unique(
        ds in dataset_strategy(),
        eps in 0.05f64..0.5,
    ) {
        for mut algo in all_algorithms() {
            let mut got = VecSink::default();
            if algo.self_join(&ds, &JoinSpec::l2(eps), &mut got).is_err() {
                continue;
            }
            let mut seen = std::collections::HashSet::new();
            for &(i, j) in &got.pairs {
                prop_assert!(i < j, "{}: pair ({i},{j}) not canonical", algo.name());
                prop_assert!(seen.insert((i, j)), "{}: duplicate ({i},{j})", algo.name());
            }
        }
    }

    #[test]
    fn thread_count_never_changes_results(
        ds in dataset_strategy(),
        eps in 0.05f64..0.5,
        threads in 2usize..=8,
    ) {
        // `set_threads` is part of the SimilarityJoin contract: every
        // algorithm (parallel or not) must return the same result set at
        // every thread count. Exercised across all algorithms, with the
        // parallel ones (BF, MSJ) taking their worker-pool paths — and
        // swept across every SIMD dispatch tier the host supports, so
        // results provably depend on neither the worker count nor the
        // kernel tier (the serial-scalar run is the single baseline).
        use hdsj::core::simd;
        let spec = JoinSpec::l2(eps);
        let saved = simd::level();
        for (mut serial, parallel_name) in all_algorithms()
            .into_iter()
            .zip(all_algorithms().iter().map(|a| a.name().to_string()))
        {
            simd::set_level(simd::Level::Scalar);
            serial.set_threads(1);
            let mut want = VecSink::default();
            match serial.self_join(&ds, &spec, &mut want) {
                Ok(_) => {}
                Err(_) => continue,
            }
            for tier in simd::supported() {
                simd::set_level(tier);
                let mut parallel = all_algorithms()
                    .into_iter()
                    .find(|a| a.name() == parallel_name)
                    .unwrap();
                parallel.set_threads(threads);
                let mut got = VecSink::default();
                parallel.self_join(&ds, &spec, &mut got).unwrap();
                verify::assert_same_results(parallel.name(), &want.pairs, &got.pairs);
            }
        }
        simd::set_level(saved);
    }

    #[test]
    fn candidates_bound_results_and_dist_evals(
        ds in dataset_strategy(),
        eps in 0.05f64..0.5,
    ) {
        for mut algo in all_algorithms() {
            let mut got = VecSink::default();
            let stats = match algo.self_join(&ds, &JoinSpec::l2(eps), &mut got) {
                Ok(s) => s,
                Err(_) => continue,
            };
            prop_assert!(stats.results <= stats.candidates, "{}", algo.name());
            prop_assert!(stats.results <= stats.dist_evals, "{}", algo.name());
            prop_assert_eq!(stats.results as usize, got.pairs.len());
        }
    }
}
