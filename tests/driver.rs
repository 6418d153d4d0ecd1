//! One table, six rows: what the join driver (`hdsj::core::join`) records
//! for every algorithm, on success and on every kind of early exit.
//!
//! The rows differ only in the documented per-algorithm extras — root-span
//! attributes, phase names, own counters. Every metric name a traced join
//! emits must be in `obs::names::ALL`: the driver builds names with
//! `format!`, which no compiler check can see, so this suite is what
//! registers them. The same rows bound the work a join does between two
//! lifecycle polls, which is how far it can overrun a cancel or deadline.
// Panicking is idiomatic in test code; see clippy.toml.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use hdsj::core::obs::{names, AttrValue, Event, MemorySink, SpanEvent, TraceSink};
use hdsj::core::{
    CancelToken, Dataset, Error, JoinSpec, LifecycleCtx, PairSink, SimilarityJoin, Tracer,
    VecSink,
};
use hdsj::storage::{FaultPlan, StorageEngine};
use hdsj::{
    bruteforce::BruteForce, ekdb::EkdbJoin, grid::GridJoin, msj::Msj, rtree::RsjJoin,
    sortmerge::SortMergeJoin,
};
use std::sync::{Arc, Mutex};

/// One row: an algorithm, sized so that every one of its loops runs more
/// than once on [`points`], and what it records beyond the common set.
struct Row {
    algo: Box<dyn SimilarityJoin>,
    /// Root-span attributes beyond the standard seven.
    extra_attrs: &'static [&'static str],
    phases: &'static [&'static str],
    /// Whether its leaf join records the five `sweep.*` tile counters.
    tallied: bool,
}

/// The six rows; RSJ and MSJ on `engine` when one is given.
fn rows(engine: Option<&StorageEngine>) -> Vec<Row> {
    let row = |algo, extra_attrs, phases, tallied| Row {
        algo,
        extra_attrs,
        phases,
        tallied,
    };
    let bf = BruteForce {
        block: 64,
        ..Default::default()
    };
    let (rsj, msj) = match engine {
        Some(e) => (RsjJoin::with_engine(e.clone()), Msj::with_engine(e.clone())),
        None => Default::default(),
    };
    let (sm1d, grid, ekdb) = (
        Box::<SortMergeJoin>::default(),
        Box::<GridJoin>::default(),
        Box::<EkdbJoin>::default(),
    );
    vec![
        row(Box::new(bf), &["threads"], &["join"], false),
        row(sm1d, &["projection_dim"], &["sort", "sweep"], false),
        row(grid, &[], &["build", "probe"], true),
        row(ekdb, &[], &["build", "join"], true),
        row(Box::new(rsj), &[], &["build", "join"], true),
        row(
            Box::new(msj),
            &["depth", "threads"],
            &["assign", "sort", "sweep"],
            true,
        ),
    ]
}

fn points(seed: u64) -> Dataset {
    hdsj::data::uniform(4, 2000, seed).unwrap()
}

fn prefix(algo: &dyn SimilarityJoin) -> String {
    algo.name().to_ascii_lowercase()
}

fn root_of(sink: &MemorySink, algo: &str) -> SpanEvent {
    let name = format!("{algo}.join");
    let roots: Vec<_> = sink
        .spans()
        .into_iter()
        .filter(|s| s.name == name)
        .collect();
    assert_eq!(roots.len(), 1, "{algo}: one root span per join");
    roots.into_iter().next().unwrap()
}

fn attr<'a>(span: &'a SpanEvent, key: &str) -> Option<&'a AttrValue> {
    span.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn assert_names_registered(sink: &MemorySink, algo: &str) {
    let counters = sink.counters().into_iter().map(|c| c.name);
    let hists = sink.hists().into_iter().map(|h| h.name);
    let gauges = sink.events().into_iter().filter_map(|e| match e {
        hdsj::core::obs::Event::Gauge(g) => Some(g.name),
        _ => None,
    });
    for name in counters.chain(hists).chain(gauges) {
        assert!(
            names::ALL.contains(&name.as_str()),
            "{algo} recorded {name}, which obs::names does not register"
        );
    }
}

/// Cancels its token at the first pair it sees, as a client that has seen
/// enough would.
struct CancelAtFirstPair(CancelToken, u64);

impl PairSink for CancelAtFirstPair {
    fn push(&mut self, _i: u32, _j: u32) {
        self.0.cancel();
        self.1 += 1;
    }
}

#[test]
fn a_successful_join_records_the_same_shape_for_every_algorithm() {
    let (a, b) = (points(1), points(2));
    let spec = JoinSpec::l2(0.1);
    for two_sets in [false, true] {
        for mut row in rows(None) {
            let (tracer, sink) = Tracer::memory();
            row.algo.set_tracer(tracer.clone());
            let mut pairs = VecSink::default();
            let stats = match two_sets {
                false => row.algo.self_join(&a, &spec, &mut pairs).unwrap(),
                true => row.algo.join(&a, &b, &spec, &mut pairs).unwrap(),
            };
            tracer.flush();
            let algo = prefix(row.algo.as_ref());
            assert!(stats.results > 0 && stats.results == pairs.pairs.len() as u64);

            // The root span: the standard attributes, then the extras.
            let root = root_of(&sink, &algo);
            let mut want = vec!["algo", "n_a", "n_b", "dims", "eps"];
            want.extend(row.extra_attrs);
            want.extend(["candidates", "results"]);
            let keys: Vec<&str> = root.attrs.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, want, "{algo}");
            assert_eq!(
                attr(&root, "candidates"),
                Some(&AttrValue::U64(stats.candidates))
            );

            // One child span per phase, timed by the same clock.
            let names: Vec<&str> = stats.phases.iter().map(|p| p.name).collect();
            assert_eq!(names, row.phases, "{algo}");
            let spans = sink.spans();
            for phase in &stats.phases {
                let children: Vec<_> = spans
                    .iter()
                    .filter(|s| s.name == phase.name && s.parent == Some(root.id))
                    .collect();
                assert_eq!(children.len(), 1, "{algo}.{}", phase.name);
                assert_eq!(children[0].dur_us, phase.elapsed.as_micros() as u64);
                let hist = format!("{algo}.phase.{}_ns", phase.name);
                assert_eq!(sink.hist_snapshot(&hist).unwrap().count, 1, "{hist}");
            }

            // Counters: the two every algorithm has, its own, nothing else.
            let counter = |name: &str| sink.counter_value(&format!("{algo}.{name}"));
            assert_eq!(counter("candidates"), Some(stats.candidates), "{algo}");
            assert_eq!(counter("results"), Some(stats.results), "{algo}");
            for &(name, value) in &stats.counters {
                assert_eq!(counter(name), Some(value), "{algo}.{name}");
            }
            if row.tallied {
                let tally = |name| stats.counter(name).expect(name);
                assert_eq!(
                    tally("sweep.block_candidates") + tally("sweep.pair_candidates"),
                    stats.candidates,
                    "{algo}: the tile tally accounts for every candidate"
                );
            } else {
                assert_eq!(stats.counters, [], "{algo}");
            }
            assert!(stats.structure_bytes > 0, "{algo}");
            assert!(attr(&root, "error").is_none(), "{algo}");
            assert_names_registered(&sink, &algo);
        }
    }
}

/// What every early exit must leave behind: the typed error, the counts so
/// far, the lifecycle's polls, and the variant on the root span.
fn assert_error_exit_reported(sink: &MemorySink, algo: &str, variant: &str) -> u64 {
    let root = root_of(sink, algo);
    assert_eq!(
        attr(&root, "error"),
        Some(&AttrValue::Str(variant.to_string())),
        "{algo}: {:?}",
        root.attrs
    );
    let polls = sink.counter_value(names::LIFECYCLE_CANCEL_POLLS);
    assert!(polls.is_some_and(|n| n > 0), "{algo}: polls {polls:?}");
    assert_names_registered(sink, algo);
    sink.counter_value(&format!("{algo}.candidates"))
        .unwrap_or_else(|| panic!("{algo}.candidates must be recorded on an error exit"))
}

#[test]
fn a_join_cancelled_mid_phase_still_reports() {
    let ds = points(3);
    for mut row in rows(None) {
        let (tracer, sink) = Tracer::memory();
        let lc = LifecycleCtx::unbounded();
        let mut pairs = CancelAtFirstPair(lc.cancel_token(), 0);
        row.algo.set_tracer(tracer.clone());
        row.algo.set_lifecycle(lc);
        let err = row
            .algo
            .self_join(&ds, &JoinSpec::l2(0.1), &mut pairs)
            .unwrap_err();
        tracer.flush();
        let algo = prefix(row.algo.as_ref());
        assert!(matches!(err, Error::Canceled(_)), "{algo}: {err:?}");
        let candidates = assert_error_exit_reported(&sink, &algo, "Canceled");
        assert!(
            candidates >= pairs.1 && pairs.1 > 0,
            "{algo}: {candidates} candidates, {} pairs",
            pairs.1
        );
        // The phase it was cancelled in was closed, not dropped.
        let last = *row.phases.last().unwrap();
        let hist = format!("{algo}.phase.{last}_ns");
        assert_eq!(
            sink.hist_snapshot(&hist).map(|h| h.count),
            Some(1),
            "{hist}"
        );
    }
}

#[test]
fn a_join_past_its_deadline_still_reports() {
    let ds = points(4);
    for mut row in rows(None) {
        let (tracer, sink) = Tracer::memory();
        row.algo.set_tracer(tracer.clone());
        row.algo
            .set_lifecycle(LifecycleCtx::builder().deadline_ms(0).build());
        let mut pairs = VecSink::default();
        let err = row
            .algo
            .self_join(&ds, &JoinSpec::l2(0.1), &mut pairs)
            .unwrap_err();
        tracer.flush();
        let algo = prefix(row.algo.as_ref());
        assert!(matches!(err, Error::DeadlineExceeded(_)), "{algo}: {err:?}");
        assert_eq!(
            assert_error_exit_reported(&sink, &algo, "DeadlineExceeded"),
            0
        );
        assert!(pairs.pairs.is_empty(), "{algo}");
    }
}

/// The two disk-backed rows, RSJ and MSJ, on `engine`.
fn disk_rows(engine: &StorageEngine) -> Vec<Row> {
    rows(Some(engine)).split_off(4)
}

#[test]
fn a_storage_fault_still_reports_the_page_traffic() {
    let ds = points(5);
    // A two-frame pool, so that both joins really read.
    let plan = FaultPlan::parse("seed=3,read=1:persistent").unwrap();
    let engine = StorageEngine::builder(2).faults(plan).in_memory();
    for mut row in disk_rows(&engine) {
        let (tracer, sink) = Tracer::memory();
        row.algo.set_tracer(tracer.clone());
        let mut pairs = VecSink::default();
        let err = row
            .algo
            .self_join(&ds, &JoinSpec::l2(0.1), &mut pairs)
            .unwrap_err();
        tracer.flush();
        let algo = prefix(row.algo.as_ref());
        assert!(matches!(err, Error::Storage(_)), "{algo}: {err:?}");
        let root = root_of(&sink, &algo);
        assert_eq!(
            attr(&root, "error"),
            Some(&AttrValue::Str("Storage".into()))
        );
        assert!(sink.counter_value(names::POOL_READS).is_some(), "{algo}");
        assert!(sink.counter_value(names::POOL_WRITES) > Some(0), "{algo}");
        assert!(sink.counter_value(names::POOL_FAULTS) > Some(0), "{algo}");
        assert!(sink.counter_value(&format!("{algo}.candidates")).is_some());
        assert_names_registered(&sink, &algo);
        assert_eq!(engine.pool().pinned_frames(), 0, "{algo}");
    }
}

#[test]
fn a_join_over_its_io_budget_still_reports() {
    // Three disk operations do not get either disk-backed join past its
    // first pages; the pool charges the budget, the driver reports the exit.
    let ds = points(7);
    let engine = StorageEngine::in_memory(4);
    for mut row in disk_rows(&engine) {
        let (tracer, sink) = Tracer::memory();
        row.algo.set_tracer(tracer.clone());
        row.algo
            .set_lifecycle(LifecycleCtx::builder().io_budget(3).build());
        let mut pairs = VecSink::default();
        let err = row
            .algo
            .self_join(&ds, &JoinSpec::l2(0.1), &mut pairs)
            .unwrap_err();
        tracer.flush();
        let algo = prefix(row.algo.as_ref());
        assert!(matches!(err, Error::BudgetExhausted(_)), "{algo}: {err:?}");
        assert_error_exit_reported(&sink, &algo, "BudgetExhausted");
        assert!(sink.counter_value(names::POOL_ALLOCS) > Some(0), "{algo}");
        assert_eq!(engine.pool().pinned_frames(), 0, "{algo}");
    }
}

#[test]
fn joins_sharing_an_engine_each_count_their_own_page_latencies() {
    // The pool's latency histograms are cumulative over the engine's life;
    // a traced join owns what it added, as with the counters beside them.
    let ds = points(6);
    let engine = StorageEngine::in_memory(2);
    let (tracer, sink) = Tracer::memory();
    let mut reads = 0;
    for mut row in disk_rows(&engine).into_iter().chain(disk_rows(&engine)) {
        row.algo.set_tracer(tracer.clone());
        let mut pairs = VecSink::default();
        let stats = row
            .algo
            .self_join(&ds, &JoinSpec::l2(0.1), &mut pairs)
            .unwrap();
        assert!(
            stats.io.reads > 0,
            "{}: a two-frame pool must miss",
            row.algo.name()
        );
        reads += stats.io.reads;
    }
    tracer.flush();
    assert_eq!(sink.counter_value(names::POOL_READS), Some(reads));
    let timed = sink.hist_snapshot(names::POOL_READ_NS).unwrap();
    assert_eq!(timed.count, reads, "every read timed once, in one join");
}

/// Counts the pairs a join emits between two consecutive lifecycle polls:
/// it holds a clone of the join's context and reads its poll count at every
/// pair.
#[derive(Default)]
struct PollGaps {
    lc: LifecycleCtx,
    polls: u64,
    gap: u64,
    widest: u64,
    pairs: u64,
}

impl PairSink for PollGaps {
    fn push(&mut self, _i: u32, _j: u32) {
        let polls = self.lc.stats().polls;
        if polls != self.polls {
            (self.polls, self.gap) = (polls, 0);
        }
        self.gap += 1;
        self.widest = self.widest.max(self.gap);
        self.pairs += 1;
    }
}

/// `n` points of a cube of side 0.05 at the centre of `[0,1)^4`.
fn cluster(n: usize, seed: u64) -> Dataset {
    let unit = hdsj::data::uniform(4, n, seed).unwrap();
    let mut ds = Dataset::new(4).unwrap();
    for (_, p) in unit.iter() {
        let q: Vec<f64> = p.iter().map(|x| 0.475 + 0.05 * x).collect();
        ds.push(&q).unwrap();
    }
    ds
}

/// A cancel or a deadline is seen only at a poll, so the work between two
/// polls is how far a join can overrun one. Here every candidate is a
/// result — both sets lie in one cube of diameter 0.1 and ε = 0.4 — and the
/// sink sees each pair as it is emitted, so the pairs between two polls
/// are the work between them.
///
/// At this ε the two sets are one leaf (ε-KDB), one level-0 cell (MSJ), one
/// cell (GRID) and one sorted run (SM1D): nothing but the leaf join's own
/// poll, every 1 024 probes in `core::sweep`, interrupts their sweeps, and
/// nothing but BF's per-(probe block, tile) poll its loop nest. A deleted
/// hot-loop poll leaves all `PROBES × LANES` pairs in one gap, 8× the bound.
#[test]
fn every_hot_loop_polls_within_a_bounded_stride() {
    const PROBES: usize = 8 * 1024;
    const LANES: usize = 32;
    // 1 024 probes × at most `LANES` candidates each; BF's 64 × 32 units
    // are smaller.
    const STRIDE: u64 = 1024 * LANES as u64;
    let (a, b) = (cluster(PROBES, 1), cluster(LANES, 2));
    for mut row in rows(None) {
        let lc = LifecycleCtx::unbounded();
        row.algo.set_lifecycle(lc.clone());
        let mut gaps = PollGaps {
            lc,
            ..Default::default()
        };
        row.algo
            .join(&a, &b, &JoinSpec::l2(0.4), &mut gaps)
            .unwrap();
        let algo = prefix(row.algo.as_ref());
        assert_eq!(gaps.pairs, (PROBES * LANES) as u64, "{algo}");
        assert!(
            gaps.widest <= STRIDE,
            "{algo}: {} pairs between two polls, bound {STRIDE}",
            gaps.widest
        );
    }

    // MSJ's level histogram (E9) runs outside a join: one poll per 4 096
    // points it assigns.
    let lc = LifecycleCtx::unbounded();
    let mut msj = Msj::default();
    msj.set_lifecycle(lc.clone());
    msj.level_histogram(&a, 0.4).unwrap();
    let polls = lc.stats().polls;
    assert!(polls * 4096 >= PROBES as u64, "{polls} polls");
}

/// Reads the join's poll count as each span ends. A phase's span ends after
/// its last poll and before the next phase's boundary poll, so the count at
/// one phase's end less the count at the previous one's is the polls of
/// that phase, its boundary poll included.
#[derive(Clone)]
struct PhasePolls {
    lc: LifecycleCtx,
    ends: Arc<Mutex<Vec<(String, u64)>>>,
}

impl TraceSink for PhasePolls {
    fn record(&self, event: &Event) {
        if let Event::Span(span) = event {
            let polls = self.lc.stats().polls;
            self.ends.lock().unwrap().push((span.name.clone(), polls));
        }
    }
}

/// The phases before a join's first pair — builds, level assignment,
/// sorts — emit nothing, so the pair-counting test above cannot see a loop
/// of theirs that stops polling. Here the input is spread thin (16 384
/// points in the unit square at ε = 10⁻⁴, two result pairs), so every cell,
/// leaf, tile and page holds a handful of points and each phase's loops run
/// once per few points; every such phase must poll at least once per 1 024
/// points on average.
///
/// Two phases poll only at their boundary: SM1D's `sort` and ε-KDB's
/// `build`. Each is an in-memory sort or insert of the points, O(n log n)
/// with no I/O, and neither is handed the lifecycle context. BF runs on
/// 1 024 points — its one phase is quadratic — and polls once per
/// (64-probe block, 64-lane tile) unit.
#[test]
fn every_input_sized_phase_polls() {
    const N: usize = 16 * 1024;
    const BF_N: usize = 1024;
    let spread = hdsj::data::uniform(2, N, 7).unwrap();
    let bf_input = hdsj::data::uniform(2, BF_N, 7).unwrap();
    for mut row in rows(None) {
        let lc = LifecycleCtx::unbounded();
        let sink = PhasePolls {
            lc: lc.clone(),
            ends: Arc::default(),
        };
        row.algo.set_lifecycle(lc);
        row.algo.set_tracer(Tracer::with_sink(sink.clone()));
        let algo = prefix(row.algo.as_ref());
        let input = if algo == "bf" { &bf_input } else { &spread };
        row.algo
            .self_join(input, &JoinSpec::l2(1e-4), &mut VecSink::default())
            .unwrap();

        let ends = sink.ends.lock().unwrap();
        let ends: Vec<_> = ends
            .iter()
            .filter(|(name, _)| row.phases.contains(&name.as_str()))
            .collect();
        let names: Vec<&str> = ends.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names, row.phases, "{algo}");
        let mut before = 0;
        for (phase, polls_at_end) in ends {
            let polls = polls_at_end - before;
            before = *polls_at_end;
            let floor = match (algo.as_str(), phase.as_str()) {
                ("sm1d", "sort") | ("ekdb", "build") => 1,
                ("bf", _) => ((BF_N / 64) * (BF_N / 64)) as u64,
                _ => (N / 1024) as u64,
            };
            assert!(
                polls >= floor,
                "{algo}.{phase}: {polls} polls over {} points, floor {floor}",
                input.len()
            );
        }
    }
}
