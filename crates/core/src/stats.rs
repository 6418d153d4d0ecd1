//! Uniform instrumentation for the experiment harness.
//!
//! Every join reports a [`JoinStats`]: how many candidate pairs the filter
//! structure produced, how many survived exact-metric refinement, how many
//! exact distance evaluations were spent, the paged-storage I/O counters,
//! the peak structure-resident memory, a list of named phases with
//! wall-clock durations, and the filter's own named counters. All of it is
//! filled in by the one join driver (`crate::join`); the experiment binaries
//! print these fields as the columns of the reproduced tables and figures.

use std::time::Duration;

/// Page-level I/O counters filled in by the `hdsj-storage` buffer pool.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoCounters {
    /// Pages fetched from the backing store (buffer-pool misses).
    pub reads: u64,
    /// Pages written back to the backing store.
    pub writes: u64,
    /// Pages newly allocated in the backing store.
    pub allocs: u64,
    /// Buffer-pool fetches satisfied without touching the backing store.
    pub hits: u64,
    /// Pages evicted from the buffer pool (clean or dirty).
    pub evictions: u64,
    /// Dirty evictions — the subset of `evictions` that forced a write.
    pub writebacks: u64,
    /// Disk operations retried after a transient fault (buffer-pool
    /// recovery; see the storage crate's `RetryPolicy`).
    pub retries: u64,
    /// Faults the injection layer actually delivered.
    pub faults: u64,
    /// Pages that failed their checksum on read.
    pub corruptions: u64,
}

impl IoCounters {
    /// Total page transfers (reads + writes).
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }

    /// Fraction of buffer-pool fetches served from memory:
    /// `hits / (hits + reads)`, or 0 when no fetch happened.
    pub fn hit_rate(&self) -> f64 {
        let accesses = self.hits + self.reads;
        if accesses == 0 {
            0.0
        } else {
            self.hits as f64 / accesses as f64
        }
    }

    /// Accumulates another counter set (e.g. across join phases).
    pub fn add(&mut self, other: &IoCounters) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.allocs += other.allocs;
        self.hits += other.hits;
        self.evictions += other.evictions;
        self.writebacks += other.writebacks;
        self.retries += other.retries;
        self.faults += other.faults;
        self.corruptions += other.corruptions;
    }

    /// Field-wise `after − before`, for algorithms that snapshot shared
    /// counters around a run.
    pub fn diff(after: &IoCounters, before: &IoCounters) -> IoCounters {
        IoCounters {
            reads: after.reads - before.reads,
            writes: after.writes - before.writes,
            allocs: after.allocs - before.allocs,
            hits: after.hits - before.hits,
            evictions: after.evictions - before.evictions,
            writebacks: after.writebacks - before.writebacks,
            retries: after.retries - before.retries,
            faults: after.faults - before.faults,
            corruptions: after.corruptions - before.corruptions,
        }
    }

    /// Records every field into the tracer's counter registry under
    /// `<prefix>.<field>` names (e.g. `pool.hits`).
    pub fn record_counters(&self, tracer: &hdsj_obs::Tracer, prefix: &str) {
        if !tracer.enabled() {
            return;
        }
        for (field, value) in [
            ("reads", self.reads),
            ("writes", self.writes),
            ("allocs", self.allocs),
            ("hits", self.hits),
            ("evictions", self.evictions),
            ("writebacks", self.writebacks),
            ("retries", self.retries),
            ("faults", self.faults),
            ("corruption_detected", self.corruptions),
        ] {
            tracer.counter(format!("{prefix}.{field}")).add(value);
        }
    }
}

/// One named, timed phase of a join (e.g. MSJ's "level assignment", "sort",
/// "sweep"). The phase-breakdown table (experiment E8) is produced directly
/// from these.
#[derive(Clone, Debug)]
pub struct Phase {
    /// Phase label.
    pub name: &'static str,
    /// Wall-clock time spent in the phase.
    pub elapsed: Duration,
}

/// Everything a join run reports back to the caller.
#[derive(Clone, Debug, Default)]
pub struct JoinStats {
    /// Candidate pairs emitted by the filter structure (before refinement).
    pub candidates: u64,
    /// Pairs that passed the exact metric test — the join result size.
    pub results: u64,
    /// Exact distance evaluations performed (== candidates for all the
    /// filter-and-refine algorithms; may be larger for plane-sweep variants
    /// that test the metric during sweeping).
    pub dist_evals: u64,
    /// Paged-storage I/O, when the algorithm ran on the storage engine.
    pub io: IoCounters,
    /// Peak bytes resident in the algorithm's own data structures (trees,
    /// level files' in-memory portions, hash directories). Input datasets
    /// are excluded: they are common to all algorithms.
    pub structure_bytes: u64,
    /// Named, ordered phases with wall-clock durations.
    pub phases: Vec<Phase>,
    /// What the filter did beyond `candidates`, by the name the trace
    /// records it under less the `<algo>.` prefix (`leaf_pairs`,
    /// `sweep.block_calls`, …): the join driver's `JoinRun::count` and
    /// `JoinRun::tally`, in recording order.
    pub counters: Vec<(&'static str, u64)>,
}

impl JoinStats {
    /// Total wall-clock across all recorded phases.
    pub fn total_time(&self) -> Duration {
        self.phases.iter().map(|p| p.elapsed).sum()
    }

    /// Wall-clock of a named phase, if recorded.
    pub fn phase(&self, name: &str) -> Option<Duration> {
        self.phases
            .iter()
            .find(|p| p.name == name)
            .map(|p| p.elapsed)
    }

    /// A named counter, if the join recorded it.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|c| c.0 == name).map(|c| c.1)
    }

    /// Filter selectivity: results / candidates (1.0 when no candidates,
    /// since a filter that emits nothing is vacuously exact).
    pub fn filter_precision(&self) -> f64 {
        if self.candidates == 0 {
            1.0
        } else {
            self.results as f64 / self.candidates as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdsj_obs::names;

    #[test]
    fn io_counters_accumulate() {
        let mut a = IoCounters {
            reads: 1,
            writes: 2,
            allocs: 3,
            hits: 4,
            evictions: 5,
            writebacks: 6,
            retries: 7,
            faults: 8,
            corruptions: 9,
        };
        a.add(&IoCounters {
            reads: 10,
            writes: 20,
            allocs: 30,
            hits: 40,
            evictions: 50,
            writebacks: 60,
            retries: 70,
            faults: 80,
            corruptions: 90,
        });
        assert_eq!(
            a,
            IoCounters {
                reads: 11,
                writes: 22,
                allocs: 33,
                hits: 44,
                evictions: 55,
                writebacks: 66,
                retries: 77,
                faults: 88,
                corruptions: 99,
            }
        );
        assert_eq!(a.total(), 33);
    }

    #[test]
    fn io_counter_diff_and_hit_rate() {
        let before = IoCounters {
            reads: 5,
            hits: 10,
            ..Default::default()
        };
        let after = IoCounters {
            reads: 9,
            hits: 22,
            evictions: 3,
            writebacks: 1,
            ..Default::default()
        };
        let d = IoCounters::diff(&after, &before);
        assert_eq!(d.reads, 4);
        assert_eq!(d.hits, 12);
        assert_eq!(d.evictions, 3);
        assert_eq!(d.writebacks, 1);
        assert!((d.hit_rate() - 12.0 / 16.0).abs() < 1e-12);
        assert_eq!(IoCounters::default().hit_rate(), 0.0);
    }

    #[test]
    fn io_counters_record_into_tracer() {
        let (tracer, sink) = hdsj_obs::Tracer::memory();
        let io = IoCounters {
            reads: 2,
            hits: 7,
            evictions: 1,
            retries: 3,
            faults: 4,
            corruptions: 2,
            ..Default::default()
        };
        io.record_counters(&tracer, "pool");
        tracer.flush();
        assert_eq!(sink.counter_value(names::POOL_HITS), Some(7));
        assert_eq!(sink.counter_value(names::POOL_READS), Some(2));
        assert_eq!(sink.counter_value(names::POOL_EVICTIONS), Some(1));
        assert_eq!(sink.counter_value(names::POOL_RETRIES), Some(3));
        assert_eq!(sink.counter_value(names::POOL_FAULTS), Some(4));
        assert_eq!(sink.counter_value(names::POOL_CORRUPTION_DETECTED), Some(2));
    }

    /// One traced run of the driver with a single `sort` phase.
    fn one_phase_run(
        tracer: &hdsj_obs::Tracer,
        class: hdsj_obs::PhaseClass,
        work: impl FnOnce(),
    ) -> JoinStats {
        let env = crate::join::JoinEnv {
            tracer: tracer.clone(),
            ..Default::default()
        };
        let spec = crate::join::JoinSpec::l2(0.1);
        crate::join::drive("MSJ", &env, [(0, 2); 2], &spec, |run| {
            run.phase("sort", class, |_| {
                work();
                Ok(())
            })
        })
        .unwrap()
    }

    #[test]
    fn traced_phase_records_both_phase_and_span() {
        let (tracer, sink) = hdsj_obs::Tracer::memory();
        let stats = one_phase_run(&tracer, hdsj_obs::PhaseClass::Cpu, || ());
        assert_eq!(stats.phases.len(), 1);
        assert_eq!(stats.phases[0].name, "sort");
        let spans = sink.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "sort");
        assert_eq!(spans[1].name, "msj.join");
        assert_eq!(spans[0].parent, Some(spans[1].id));
    }

    #[test]
    fn classed_phase_records_class_and_histogram() {
        let (tracer, sink) = hdsj_obs::Tracer::memory();
        let stats = one_phase_run(&tracer, hdsj_obs::PhaseClass::Io, || ());
        tracer.flush();
        assert_eq!(stats.phases[0].name, "sort");
        assert_eq!(
            sink.spans()[0].attrs,
            vec![(
                hdsj_obs::PHASE_ATTR.to_string(),
                hdsj_obs::AttrValue::Str("io".to_string())
            )]
        );
        let hist = sink.hist_snapshot("msj.phase.sort_ns").unwrap();
        assert_eq!(hist.count, 1);

        // Disabled tracer: the phase is still clocked into the stats.
        let disabled = hdsj_obs::Tracer::disabled();
        let stats = one_phase_run(&disabled, hdsj_obs::PhaseClass::Cpu, || ());
        assert_eq!(stats.phases.len(), 1);
    }

    #[test]
    fn phase_timer_records_named_phase() {
        let stats = one_phase_run(
            &hdsj_obs::Tracer::disabled(),
            hdsj_obs::PhaseClass::Cpu,
            || std::thread::sleep(Duration::from_millis(1)),
        );
        assert_eq!(stats.phases.len(), 1);
        assert_eq!(stats.phases[0].name, "sort");
        assert!(stats.phases[0].elapsed >= Duration::from_millis(1));
    }

    #[test]
    fn stats_lookup_and_totals() {
        let stats = JoinStats {
            candidates: 10,
            results: 4,
            phases: vec![
                Phase {
                    name: "a",
                    elapsed: Duration::from_millis(2),
                },
                Phase {
                    name: "b",
                    elapsed: Duration::from_millis(3),
                },
            ],
            ..Default::default()
        };
        assert_eq!(stats.total_time(), Duration::from_millis(5));
        assert_eq!(stats.phase("b"), Some(Duration::from_millis(3)));
        assert_eq!(stats.phase("missing"), None);
        assert!((stats.filter_precision() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn empty_filter_is_vacuously_precise() {
        assert_eq!(JoinStats::default().filter_precision(), 1.0);
    }
}
