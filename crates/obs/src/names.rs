//! Metric-name registry: the single source of truth for every counter,
//! gauge, and histogram name the workspace records.
//!
//! A metric name typed wrong at a call site (or in a test's
//! `counter_value` assertion) would silently create a metric nobody else
//! reads. Three things hold call sites to this file:
//!
//! * **Constants.** Code names a metric through the `pub const`s below
//!   (`names::POOL_HITS`), so a misspelt name does not compile. No product
//!   code passes a literal name.
//! * **`registry!`** puts every constant into [`ALL`], so a name cannot be
//!   declared and left out of the list the exhaustiveness tests walk.
//! * **The driver suite** (`tests/driver.rs`) checks the **derived names**,
//!   which the one join driver (`hdsj_core::join`) builds at run time from
//!   an algorithm's lower-cased `name()`: `<algo>.candidates`,
//!   `<algo>.results`, `<algo>.phase.<phase>_ns` for every
//!   `JoinRun::phase`, `<algo>.<count>` for every `JoinRun::count`, and
//!   `<algo>.sweep.<field>` for a recorded `TileTally`. They are registered
//!   by the `joins` table below — one row per algorithm: its phases and its
//!   own counts — which the macro expands into [`ALL`], and the suite fails
//!   on any name a traced join of any algorithm emits that [`ALL`] lacks. A
//!   new phase or count is one word in its algorithm's row.
//!
//! Naming convention: histograms of durations end in `_ns` (values are
//! nanoseconds). `IoCounters::record_counters` emits `pool.<field>`; those
//! expansions are listed as constants too.

/// Declares the names and collects them, with the expansions of the
/// `joins` table, into [`ALL`], so a name cannot be declared and left out
/// of the list the exhaustiveness tests walk.
macro_rules! registry {
    (
        joins { $($algo:literal: phases [$($phase:literal),*], counts [$($count:literal),*];)* }
        tallied [$($swept:literal),*]
        $($(#[$doc:meta])* pub const $name:ident: &str = $value:literal;)*
    ) => {
        $($(#[$doc])* pub const $name: &str = $value;)*

        /// Every registered metric name, for exhaustiveness tests.
        pub const ALL: &[&str] = &[
            $($name,)*
            $(
                concat!($algo, ".candidates"),
                concat!($algo, ".results"),
                $(concat!($algo, ".phase.", $phase, "_ns"),)*
                $(concat!($algo, ".", $count),)*
            )*
            $(
                concat!($swept, ".sweep.tiles_gathered"),
                concat!($swept, ".sweep.lanes_gathered"),
                concat!($swept, ".sweep.block_candidates"),
                concat!($swept, ".sweep.block_calls"),
                concat!($swept, ".sweep.pair_candidates"),
            )*
        ];
    };
}

registry! {
    joins {
        "bf": phases ["join"], counts [];
        "sm1d": phases ["sort", "sweep"], counts [];
        // `cell_pairs`: occupied cell pairs (a cell with itself included)
        // the probe joined — the hits of its `3^d` neighbourhood walk.
        "grid": phases ["build", "probe"], counts ["cell_pairs"];
        // `leaf_pairs`: leaf pairs (a leaf with itself included) the
        // traversal joined; `candidates / leaf_pairs` tells traversal-bound
        // from kernel-bound runs.
        "ekdb": phases ["build", "join"], counts ["leaf_pairs"];
        // `node_pairs`: node pairs the synchronized traversal visited,
        // leaves and inner nodes alike — what fat MBRs fail to prune;
        // `leaf_pairs`: those of them handed to the tile join.
        "rsj": phases ["build", "join"], counts ["node_pairs", "leaf_pairs"];
        // `sweep.view_tested`: ancestor entries tested while narrowing cell
        // views; `sweep.view_kept`: those whose ε-cube met the cell (≤
        // tested); `sweep.striped_joins`: cell-pair joins partitioned by a
        // second dimension's ε-stripes.
        "msj": phases ["assign", "sort", "sweep"],
            counts ["sweep.view_tested", "sweep.view_kept", "sweep.striped_joins"];
    }
    // The algorithms that record a `TileTally`: tiles transposed into the
    // SoA scratch, lanes copied by those transposes, candidates emitted as
    // lane windows of a gathered tile, those windows (block-kernel calls;
    // `block_candidates / block_calls` = lanes per call), and candidates
    // emitted pair by pair (tile too sparse or small to gather — every RSJ
    // leaf at d = 64). Block + pair candidates = `<algo>.candidates`.
    tallied ["grid", "ekdb", "rsj", "msj"]

    /// Chunks dispatched by the hdsj-exec pool.
    pub const EXEC_TASKS: &str = "exec.tasks";
    /// Worker threads spawned by the hdsj-exec pool.
    pub const EXEC_WORKERS: &str = "exec.workers";
    /// Times an hdsj-exec worker polled the chunk cursor and found no work
    /// left (tail imbalance).
    pub const EXEC_STEAL_WAITS: &str = "exec.steal_waits";

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
