//! Metric-name registry: the single source of truth for every counter,
//! gauge, and histogram name the workspace records.
//!
//! Metric names are stringly-typed at their call sites; a typo there (or
//! in a test's `counter_value` assertion) silently creates a metric nobody
//! else reads. The `hdsj-analyze` rule R6 (`counter_registry`)
//! cross-checks every literal metric name in the workspace against the
//! string literals in **this file** — add new names here first.
//!
//! Naming convention: histograms of durations end in `_ns` (values are
//! nanoseconds); per-phase duration histograms are
//! `<algo>.phase.<phase>_ns`.
//!
//! Dynamically built names (`IoCounters::record_counters` emits
//! `<prefix>.<field>`, `TileTally::record` emits `<algo>.sweep.<field>`)
//! cannot be checked lexically; their expansions for the `pool` prefix and
//! for the four algorithms that record a tally are listed here so literal
//! references to them (tests, the trace reporter) still verify.

/// Declares the names and collects them into [`ALL`], so a name cannot be
/// declared and left out of the list the exhaustiveness tests walk.
macro_rules! registry {
    ($($(#[$doc:meta])* pub const $name:ident: &str = $value:literal;)*) => {
        $($(#[$doc])* pub const $name: &str = $value;)*

        /// Every registered metric name, for exhaustiveness tests.
        pub const ALL: &[&str] = &[$($name),*];
    };
}

registry! {
    /// Candidate pairs examined by the brute-force join.
    pub const BF_CANDIDATES: &str = "bf.candidates";
    /// Result pairs emitted by the brute-force join.
    pub const BF_RESULTS: &str = "bf.results";

    /// Candidate pairs examined by the ε-KDB-tree join.
    pub const EKDB_CANDIDATES: &str = "ekdb.candidates";
    /// Result pairs emitted by the ε-KDB-tree join.
    pub const EKDB_RESULTS: &str = "ekdb.results";
    /// Leaf pairs (a leaf with itself included) the ε-KDB traversal joined;
    /// `candidates / leaf_pairs` tells traversal-bound from kernel-bound runs.
    pub const EKDB_LEAF_PAIRS: &str = "ekdb.leaf_pairs";
    /// Candidate tiles the ε-KDB leaf joins transposed into the SoA scratch.
    pub const EKDB_SWEEP_TILES_GATHERED: &str = "ekdb.sweep.tiles_gathered";
    /// Lanes (rows) copied by those transposes.
    pub const EKDB_SWEEP_LANES_GATHERED: &str = "ekdb.sweep.lanes_gathered";
    /// ε-KDB candidates emitted as lane windows of a gathered tile.
    pub const EKDB_SWEEP_BLOCK_CANDIDATES: &str = "ekdb.sweep.block_candidates";
    /// Lane windows those candidates came in — block-kernel calls; EKDB's
    /// leaf-sized windows make `block_candidates / block_calls` small.
    pub const EKDB_SWEEP_BLOCK_CALLS: &str = "ekdb.sweep.block_calls";
    /// ε-KDB candidates emitted pair by pair (tile too sparse to gather).
    pub const EKDB_SWEEP_PAIR_CANDIDATES: &str = "ekdb.sweep.pair_candidates";

    /// Candidate pairs examined by the ε-grid join.
    pub const GRID_CANDIDATES: &str = "grid.candidates";
    /// Result pairs emitted by the ε-grid join.
    pub const GRID_RESULTS: &str = "grid.results";
    /// Occupied cell pairs (a cell with itself included) the ε-grid probe
    /// joined — the hits of its `3^d` neighbourhood enumeration.
    pub const GRID_CELL_PAIRS: &str = "grid.cell_pairs";
    /// Candidate tiles the ε-grid cell joins transposed into the SoA scratch.
    pub const GRID_SWEEP_TILES_GATHERED: &str = "grid.sweep.tiles_gathered";
    /// Lanes (rows) copied by those transposes.
    pub const GRID_SWEEP_LANES_GATHERED: &str = "grid.sweep.lanes_gathered";
    /// ε-grid candidates emitted as lane windows of a gathered tile.
    pub const GRID_SWEEP_BLOCK_CANDIDATES: &str = "grid.sweep.block_candidates";
    /// Lane windows those candidates came in — block-kernel calls.
    pub const GRID_SWEEP_BLOCK_CALLS: &str = "grid.sweep.block_calls";
    /// ε-grid candidates emitted pair by pair (cell too small to gather).
    pub const GRID_SWEEP_PAIR_CANDIDATES: &str = "grid.sweep.pair_candidates";

    /// Candidate pairs examined by the multidimensional spatial join (MSJ).
    pub const MSJ_CANDIDATES: &str = "msj.candidates";
    /// Result pairs emitted by MSJ.
    pub const MSJ_RESULTS: &str = "msj.results";
    /// Candidate tiles the MSJ sweep transposed into its SoA scratch block.
    pub const MSJ_SWEEP_TILES_GATHERED: &str = "msj.sweep.tiles_gathered";
    /// Lanes (rows) copied by those transposes; `block_candidates /
    /// lanes_gathered` is the reuse each gathered lane got.
    pub const MSJ_SWEEP_LANES_GATHERED: &str = "msj.sweep.lanes_gathered";
    /// MSJ candidates emitted as lane windows of a gathered tile.
    pub const MSJ_SWEEP_BLOCK_CANDIDATES: &str = "msj.sweep.block_candidates";
    /// Lane windows those candidates came in — block-kernel calls;
    /// `block_candidates / block_calls` is the lanes per call.
    pub const MSJ_SWEEP_BLOCK_CALLS: &str = "msj.sweep.block_calls";
    /// MSJ candidates emitted pair by pair (tile too sparse to gather).
    pub const MSJ_SWEEP_PAIR_CANDIDATES: &str = "msj.sweep.pair_candidates";
    /// Ancestor entries the MSJ sweep tested while narrowing cell views.
    pub const MSJ_SWEEP_VIEW_TESTED: &str = "msj.sweep.view_tested";
    /// Of those, entries whose ε-cube met the cell (`view_kept ≤ view_tested`).
    pub const MSJ_SWEEP_VIEW_KEPT: &str = "msj.sweep.view_kept";
    /// MSJ cell-pair joins partitioned by a second dimension's ε-stripes.
    pub const MSJ_SWEEP_STRIPED_JOINS: &str = "msj.sweep.striped_joins";

    /// Chunks dispatched by the hdsj-exec pool.
    pub const EXEC_TASKS: &str = "exec.tasks";
    /// Worker threads spawned by the hdsj-exec pool.
    pub const EXEC_WORKERS: &str = "exec.workers";
    /// Times an hdsj-exec worker polled the chunk cursor and found no work
    /// left (tail imbalance).
    pub const EXEC_STEAL_WAITS: &str = "exec.steal_waits";

    /// Candidate pairs examined by the R-tree spatial join (RSJ).
    pub const RSJ_CANDIDATES: &str = "rsj.candidates";
    /// Result pairs emitted by RSJ.
    pub const RSJ_RESULTS: &str = "rsj.results";
    /// Node pairs (a node with itself included) the synchronized traversal
    /// visited, leaves and inner nodes alike: what fat MBRs fail to prune.
    pub const RSJ_NODE_PAIRS: &str = "rsj.node_pairs";
    /// Of those, the leaf pairs handed to the tile join; `candidates /
    /// leaf_pairs` tells traversal-bound from kernel-bound runs.
    pub const RSJ_LEAF_PAIRS: &str = "rsj.leaf_pairs";
    /// Candidate tiles the RSJ leaf joins transposed into the SoA scratch.
    pub const RSJ_SWEEP_TILES_GATHERED: &str = "rsj.sweep.tiles_gathered";
    /// Lanes (rows) copied by those transposes.
    pub const RSJ_SWEEP_LANES_GATHERED: &str = "rsj.sweep.lanes_gathered";
    /// RSJ candidates emitted as lane windows of a gathered tile.
    pub const RSJ_SWEEP_BLOCK_CANDIDATES: &str = "rsj.sweep.block_candidates";
    /// Lane windows those candidates came in — block-kernel calls.
    pub const RSJ_SWEEP_BLOCK_CALLS: &str = "rsj.sweep.block_calls";
    /// RSJ candidates emitted pair by pair (leaf too small to gather: every
    /// leaf at d = 64, where a page holds 7 points).
    pub const RSJ_SWEEP_PAIR_CANDIDATES: &str = "rsj.sweep.pair_candidates";

    /// Candidate pairs examined by the 1-d sort-merge baseline.
    pub const SM1D_CANDIDATES: &str = "sm1d.candidates";
    /// Result pairs emitted by the 1-d sort-merge baseline.
    pub const SM1D_RESULTS: &str = "sm1d.results";

    /// Buffer-pool pages read from disk (`IoCounters::reads`).
    pub const POOL_READS: &str = "pool.reads";
    /// Buffer-pool pages written to disk (`IoCounters::writes`).
    pub const POOL_WRITES: &str = "pool.writes";
    /// Buffer-pool pages allocated (`IoCounters::allocs`).
    pub const POOL_ALLOCS: &str = "pool.allocs";
    /// Buffer-pool cache hits (`IoCounters::hits`).
    pub const POOL_HITS: &str = "pool.hits";
    /// Frames evicted to make room (`IoCounters::evictions`).
    pub const POOL_EVICTIONS: &str = "pool.evictions";
    /// Dirty frames written back on eviction (`IoCounters::writebacks`).
    pub const POOL_WRITEBACKS: &str = "pool.writebacks";
    /// Transient-fault retries that eventually succeeded (`IoCounters::retries`).
    pub const POOL_RETRIES: &str = "pool.retries";
    /// Injected faults observed (`IoCounters::faults`).
    pub const POOL_FAULTS: &str = "pool.faults";
    /// Checksum mismatches detected on page read (`IoCounters::corruptions`).
    pub const POOL_CORRUPTION_DETECTED: &str = "pool.corruption_detected";
    /// Buffer-pool hit rate over a run (gauge, 0.0–1.0).
    pub const POOL_HIT_RATE: &str = "pool.hit_rate";

    /// Disk-read latency per buffer-pool page (histogram, ns).
    pub const POOL_READ_NS: &str = "pool.read_ns";
    /// Disk-write latency per buffer-pool page (histogram, ns).
    pub const POOL_WRITE_NS: &str = "pool.write_ns";
    /// Eviction write-back latency per dirty frame (histogram, ns).
    pub const POOL_WRITEBACK_NS: &str = "pool.writeback_ns";

    /// Per-chunk execution time in the hdsj-exec pool (histogram, ns).
    pub const EXEC_CHUNK_NS: &str = "exec.chunk_ns";
    /// Time each hdsj-exec worker waited between spawn and its first chunk
    /// claim (histogram, ns) — queue/startup latency.
    pub const EXEC_QUEUE_WAIT_NS: &str = "exec.queue_wait_ns";

    /// Brute-force join phase duration (histogram, ns).
    pub const BF_PHASE_JOIN_NS: &str = "bf.phase.join_ns";
    /// 1-d sort-merge sort-phase duration (histogram, ns).
    pub const SM1D_PHASE_SORT_NS: &str = "sm1d.phase.sort_ns";
    /// 1-d sort-merge sweep-phase duration (histogram, ns).
    pub const SM1D_PHASE_SWEEP_NS: &str = "sm1d.phase.sweep_ns";
    /// ε-grid build-phase duration (histogram, ns).
    pub const GRID_PHASE_BUILD_NS: &str = "grid.phase.build_ns";
    /// ε-grid probe-phase duration (histogram, ns).
    pub const GRID_PHASE_PROBE_NS: &str = "grid.phase.probe_ns";
    /// ε-KDB-tree build-phase duration (histogram, ns).
    pub const EKDB_PHASE_BUILD_NS: &str = "ekdb.phase.build_ns";
    /// ε-KDB-tree join-phase duration (histogram, ns).
    pub const EKDB_PHASE_JOIN_NS: &str = "ekdb.phase.join_ns";
    /// R-tree spatial join build-phase duration (histogram, ns).
    pub const RSJ_PHASE_BUILD_NS: &str = "rsj.phase.build_ns";
    /// R-tree spatial join join-phase duration (histogram, ns).
    pub const RSJ_PHASE_JOIN_NS: &str = "rsj.phase.join_ns";
    /// MSJ assign-phase duration (histogram, ns).
    pub const MSJ_PHASE_ASSIGN_NS: &str = "msj.phase.assign_ns";
    /// MSJ sort-phase duration (histogram, ns).
    pub const MSJ_PHASE_SORT_NS: &str = "msj.phase.sort_ns";
    /// MSJ sweep-phase duration (histogram, ns).
    pub const MSJ_PHASE_SWEEP_NS: &str = "msj.phase.sweep_ns";

    /// Cooperative cancellation/deadline polls observed by a query's
    /// lifecycle context (`LifecycleStats::polls`).
    pub const LIFECYCLE_CANCEL_POLLS: &str = "lifecycle.cancel_polls";
    /// Durable checkpoints written by a resumable query
    /// (`LifecycleStats::checkpoints`).
    pub const LIFECYCLE_CHECKPOINTS: &str = "lifecycle.checkpoints";
    /// Manifest files reused (not recomputed) by a resumed join.
    pub const JOIN_RESUMED_LEVELS: &str = "join.resumed_levels";
}

#[cfg(test)]
mod tests {
    use super::ALL;

    #[test]
    fn names_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for name in ALL {
            assert!(seen.insert(name), "duplicate registry entry {name:?}");
        }
    }

    #[test]
    fn names_are_well_formed() {
        for name in ALL {
            assert!(
                name.chars().all(|c| c.is_ascii_lowercase()
                    || c.is_ascii_digit()
                    || c == '.'
                    || c == '_'),
                "metric name {name:?} must be lowercase dotted.snake_case"
            );
            assert!(!name.starts_with('.') && !name.ends_with('.'));
        }
    }
}
