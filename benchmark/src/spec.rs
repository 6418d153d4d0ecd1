//! The one spec table: workloads (data, ε, n, per-algorithm flags), the
//! algorithm roster, and every metric's name, unit, direction and bound.
//! `BENCHMARK.json` at the repository root mirrors it (a test keeps the two
//! in step); everything else in the harness is derived from here.

/// Seconds one pass measures for when `--seconds` is not given; the
/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 24;

/// Set-up is repeated this often per run and `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// Seed of the cluster geometry of `twoset_d8_dense` (see [`Data::ClusterSample`]).
pub const GEOMETRY_SEED: u64 = 1;

/// In-process probe sizes.
pub const LOAD_CSV_REPEATS: usize = 5;
pub const PROBE_REPEATS: usize = 3;
pub const WITHIN_EVALS: usize = 1 << 22;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    /// The comparable profile.
    Full,
    /// n ÷ 2 (a quarter of the pairs), one repetition of everything: a smoke
    /// run, not comparable.
    Quick,
}

impl Profile {
    pub fn label(self) -> &'static str {
        match self {
            Profile::Full => "full",
            Profile::Quick => "quick",
        }
    }

    pub fn scale(self, n: usize) -> usize {
        match self {
            Profile::Full => n,
            Profile::Quick => n / 2,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    Msj,
    Bf,
    Ekdb,
    Rsj,
    Grid,
    Sm1d,
}

/// The algorithms every workload runs in the layer pass, in round-robin
/// order.
pub const ROSTER: [Algo; 4] = [Algo::Msj, Algo::Bf, Algo::Ekdb, Algo::Rsj];

/// The algorithms the end-to-end pass times, each with a bounded
/// `<algo>_e2e_s`. RSJ is not among them: one of its runs takes as long as a
/// round of the other three together, so timing it there would halve every
/// cell's `k` — and on a machine as noisy as the one this was written on, `k`
/// is what the steadiness of a median of `k` hangs on (README,
/// "Noise"). Its wall time is the layer pass's `rtree.e2e_s`, unbounded.
pub const GATED: [Algo; 3] = [Algo::Msj, Algo::Bf, Algo::Ekdb];

impl Algo {
    /// The `--algo` value.
    pub fn cli(self) -> &'static str {
        match self {
            Algo::Msj => "msj",
            Algo::Bf => "bf",
            Algo::Ekdb => "ekdb",
            Algo::Rsj => "rsj",
            Algo::Grid => "grid",
            Algo::Sm1d => "sm1d",
        }
    }

    /// The layer its per-layer metrics are filed under: the crate's name.
    pub fn layer(self) -> &'static str {
        match self {
            Algo::Msj => "msj",
            Algo::Bf => "bruteforce",
            Algo::Ekdb => "ekdb",
            Algo::Rsj => "rtree",
            Algo::Grid => "grid",
            Algo::Sm1d => "sortmerge",
        }
    }

    /// Phases of `--stats json` reported as `<layer>.<phase>_s`. `join`
    /// phases are left out: they are `join_s` minus the phases named here.
    pub fn phases(self) -> &'static [&'static str] {
        match self {
            Algo::Msj => &["assign", "sort", "sweep"],
            Algo::Bf => &[],
            Algo::Ekdb | Algo::Rsj => &["build"],
            Algo::Grid => &["build", "probe"],
            Algo::Sm1d => &["sweep"],
        }
    }

    pub fn e2e_metric(self) -> String {
        format!("{}_e2e_s", self.cli())
    }
}

/// Where a workload's points come from. The program only ever sees the CSV
/// files written from them.
#[derive(Clone, Copy, Debug)]
pub enum Data {
    /// `hdsj_data::uniform(dims, n, seed)`, self-join.
    Uniform { dims: usize, n: usize },
    /// `hdsj_data::timeseries::fourier_dataset(dims, n, series_len, seed)`,
    /// self-join.
    Fourier {
        dims: usize,
        n: usize,
        series_len: usize,
    },
    /// Two-set join. `gaussian_clusters(dims, population, default,
    /// GEOMETRY_SEED)` is drawn once; the run's seed picks which
    /// `2 × per_side` of those points are used, in which order, and the
    /// first half is set A, the second set B.
    ///
    /// The geometry is not re-drawn per seed because ten random centres
    /// land differently against the faces of the unit cube each time: over
    /// seeds 1–6 that moved the pair count by ±12 % and MSJ's candidates by
    /// ±10 %, which is wider than the run-to-run spread the bounds are set
    /// for and would read as noise in every comparison.
    ClusterSample {
        dims: usize,
        population: usize,
        per_side: usize,
    },
}

pub struct Workload {
    pub name: &'static str,
    /// One line: what this workload is there to show.
    pub why: &'static str,
    pub data: Data,
    /// L2 threshold.
    pub eps: f64,
    /// Algorithms beyond [`ROSTER`] that the layer pass runs here.
    pub extra_algos: &'static [Algo],
    /// Flags added to one algorithm's `hdsj join` on this workload.
    pub algo_args: &'static [(Algo, &'static [&'static str])],
}

impl Workload {
    pub fn args_for(&self, algo: Algo) -> &'static [&'static str] {
        self.algo_args
            .iter()
            .find(|(a, _)| *a == algo)
            .map_or(&[], |(_, args)| args)
    }
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "uniform_d16",
        why: "filter prunes ~25 %, output negligible: refinement (kernel, gather) is >= 99 % of the work; parse, assign, sort, emit are almost none",
        data: Data::Uniform {
            dims: 16,
            n: 8_000,
        },
        eps: 0.5,
        extra_algos: &[],
        algo_args: &[],
    },
    Workload {
        name: "fourier_d64",
        why: "the paper's regime, high d and correlated real-like data: SIMD tier, SoA gather and cache footprint decide; CSV parse is a visible share of bf/ekdb",
        data: Data::Fourier {
            dims: 64,
            n: 6_000,
            series_len: 128,
        },
        eps: 0.07,
        extra_algos: &[],
        algo_args: &[],
    },
    Workload {
        name: "twoset_d8_dense",
        why: "two-set join with dense output: sink and pair writing are a visible share, and the only workload where the storage pool evicts and the external sort spills",
        data: Data::ClusterSample {
            dims: 8,
            population: 56_000,
            per_side: 14_000,
        },
        eps: 0.1,
        extra_algos: &[],
        algo_args: &[
            (Algo::Msj, &["--pool-pages", "32", "--sort-mem-records", "4096"]),
            (Algo::Rsj, &["--pool-pages", "32"]),
        ],
    },
    Workload {
        name: "lowdim_d4",
        why: "bypasses the distance kernel: index build and traversal dominate rsj/ekdb/grid, msj assign+sort is at its largest share, parse is a large share of ekdb; all six algorithms run",
        data: Data::Uniform {
            dims: 4,
            n: 50_000,
        },
        eps: 0.04,
        extra_algos: &[Algo::Grid, Algo::Sm1d],
        algo_args: &[],
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One metric's declaration. `bound` is the share of the parent's median an
/// end-to-end metric may worsen by; per-layer metrics have none. `moves`
/// says which end-to-end metric a per-layer metric should move, and where.
pub struct MetricSpec {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: Option<f64>,
    pub moves: &'static str,
}

const LOWER: &str = "lower";
const HIGHER: &str = "higher";

pub fn end_to_end() -> Vec<MetricSpec> {
    let gated = |name: String, unit, bound| MetricSpec {
        name,
        unit,
        better: LOWER,
        bound: Some(bound),
        moves: "",
    };
    let mut specs = vec![gated("setup_s".into(), "s", 0.25)];
    specs.extend(GATED.iter().map(|a| gated(a.e2e_metric(), "s", 0.25)));
    specs.push(gated("msj_peak_rss_mb".into(), "MB", 0.05));
    specs
}

/// The per-layer metrics every workload reports (and `BENCHMARK.json`
/// lists). `grid.*` and `sortmerge.*` exist on `lowdim_d4` only, so they are
/// printed and written to `results.json` but are not in this list.
pub fn per_layer() -> Vec<MetricSpec> {
    let m = |name: &str, unit, better, moves| MetricSpec {
        name: name.to_string(),
        unit,
        better,
        bound: None,
        moves,
    };
    let mut specs = vec![
        m("data.load_csv_s", "s", LOWER, "every *_e2e_s; visible on fourier_d64 (bf, ekdb) and lowdim_d4 (ekdb), invisible on uniform_d16"),
        m("data.load_csv_mb_per_s", "MB/s", HIGHER, "as data.load_csv_s"),
        m("cli.emit_s", "s", LOWER, "every *_e2e_s on twoset_d8_dense only"),
        m("cli.out_bytes", "bytes", LOWER, "cli.emit_s on twoset_d8_dense"),
    ];
    for algo in ROSTER {
        let own = match algo {
            Algo::Msj => "msj_e2e_s on every workload",
            Algo::Bf => "bf_e2e_s on every workload",
            Algo::Ekdb => "ekdb_e2e_s on every workload",
            _ => "rtree.e2e_s on every workload",
        };
        let layer = algo.layer();
        specs.push(m(&format!("{layer}.e2e_s"), "s", LOWER, "the same quantity as the algorithm's *_e2e_s, measured in the layer pass; rtree has no other"));
        specs.push(m(&format!("{layer}.join_s"), "s", LOWER, own));
        specs.push(m(&format!("{layer}.candidates"), "count", LOWER, own));
        specs.push(m(
            &format!("{layer}.candidates_per_result"),
            "ratio",
            LOWER,
            own,
        ));
        specs.push(m(&format!("{layer}.ns_per_candidate"), "ns", LOWER, own));
        specs.push(m(
            &format!("{layer}.peak_rss_mb"),
            "MB",
            LOWER,
            "msj_peak_rss_mb (msj); recorded for the others",
        ));
        for phase in algo.phases() {
            specs.push(m(&format!("{layer}.{phase}_s"), "s", LOWER, own));
        }
    }
    specs.extend([
        m("msj.prune_ratio", "ratio", HIGHER, "msj.candidates -> msj_e2e_s on uniform_d16 and fourier_d64; a filter-cascade change must move it, a refinement-layout change must not"),
        m("msj.level0_share", "ratio", LOWER, "msj.candidates -> msj_e2e_s on uniform_d16 and fourier_d64"),
        m("msj.sweep_overhead_x", "x", LOWER, "msj_e2e_s on uniform_d16 and fourier_d64 (base: bruteforce.ns_per_candidate, the contiguous tile kernel on the same data)"),
        m("core.within_scalar_ns", "ns", LOWER, "msj_e2e_s, ekdb_e2e_s on uniform_d16 and fourier_d64"),
        m("sfc.hilbert_ns_per_key", "ns", LOWER, "msj.assign_s -> msj_e2e_s on lowdim_d4 only; no change elsewhere"),
        m("storage.msj_reads", "count", LOWER, "msj.sort_s -> msj_e2e_s on twoset_d8_dense; zero elsewhere"),
        m("storage.msj_writes", "count", LOWER, "as storage.msj_reads"),
        m("storage.msj_evictions", "count", LOWER, "as storage.msj_reads"),
        m("storage.rsj_reads", "count", LOWER, "rtree.e2e_s on twoset_d8_dense; zero elsewhere"),
        m("storage.rsj_writes", "count", LOWER, "as storage.rsj_reads"),
        m("storage.rsj_hit_rate", "ratio", HIGHER, "as storage.rsj_reads"),
        m("exec.msj_t2_speedup", "x", HIGHER, "none: every end-to-end join runs at --threads 1 (base: join_s at --threads 1)"),
        m("exec.bf_t2_speedup", "x", HIGHER, "as exec.msj_t2_speedup"),
        m("obs.trace_overhead_pct", "%", LOWER, "none: end-to-end numbers are measured with tracing off"),
    ]);
    specs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_metric_and_workload_name_is_well_formed_and_unique() {
        let mut names: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        names.extend(end_to_end().into_iter().map(|m| m.name));
        names.extend(per_layer().into_iter().map(|m| m.name));
        for algo in [Algo::Grid, Algo::Sm1d] {
            names.push(format!("{}.join_s", algo.layer()));
        }
        for name in &names {
            assert!(name_ok(name), "bad name {name:?}");
        }
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for m in end_to_end().iter().chain(per_layer().iter()) {
            assert!(m.unit.len() <= 16 && !m.unit.is_empty());
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric()
                        || matches!(c, '_' | '/' | '%' | '.' | '-'))
            );
            assert!(m.better == "lower" || m.better == "higher");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn the_spec_table_yields_every_end_to_end_metric_for_every_workload() {
        // The end-to-end list is workload-independent by construction: one
        // wall-time metric per gated algorithm, which every workload runs,
        // plus set-up time and MSJ's memory.
        let names: Vec<String> = end_to_end().into_iter().map(|m| m.name).collect();
        assert_eq!(
            names,
            [
                "setup_s",
                "msj_e2e_s",
                "bf_e2e_s",
                "ekdb_e2e_s",
                "msj_peak_rss_mb"
            ]
        );
        for spec in end_to_end() {
            let bound = spec.bound.unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
        for w in &WORKLOADS {
            for algo in ROSTER {
                assert!(
                    !w.extra_algos.contains(&algo),
                    "{} lists {algo:?} twice",
                    w.name
                );
            }
            for (algo, _) in w.algo_args {
                assert!(ROSTER.contains(algo) || w.extra_algos.contains(algo));
            }
        }
        assert!(per_layer().len() <= 128);
    }

    /// `BENCHMARK.json` is what the driver reads; the spec table is what
    /// the harness reports. They must say the same thing.
    #[test]
    fn benchmark_json_mirrors_the_spec_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_u64),
            Some(RUN_SECONDS)
        );

        let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (json, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(json.get("name").and_then(Json::as_str), Some(w.name));
            assert_eq!(json.get("why").and_then(Json::as_str), Some(w.why));
            assert_eq!(json.as_obj().unwrap().len(), 2);
        }

        for (key, specs) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
            let listed = doc.get(key).and_then(Json::as_arr).unwrap();
            assert_eq!(listed.len(), specs.len(), "{key}");
            for (json, spec) in listed.iter().zip(&specs) {
                assert_eq!(
                    json.get("name").and_then(Json::as_str),
                    Some(spec.name.as_str())
                );
                assert_eq!(json.get("unit").and_then(Json::as_str), Some(spec.unit));
                assert_eq!(json.get("better").and_then(Json::as_str), Some(spec.better));
                assert_eq!(json.get("bound").and_then(Json::as_f64), spec.bound);
                let fields = if spec.bound.is_some() { 4 } else { 3 };
                assert_eq!(json.as_obj().unwrap().len(), fields, "{}", spec.name);
            }
        }
    }
}
