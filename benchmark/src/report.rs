//! Turning a pass's runs into named metrics, and the two passes themselves.

use crate::calibrate::slowdown;
use crate::join::{Cell, CellRuns};
use crate::json::Json;
use crate::probes::Probes;
use crate::setup::{Inputs, Oracle};
use crate::spec::{self, Algo, Workload, GATED, ROSTER};
use crate::stats::{median, Metric};
use crate::Harness;

/// What one workload produced in one invocation.
pub struct WorkloadReport {
    pub workload: &'static Workload,
    pub oracle_pairs: u64,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// `Some` when the end-to-end pass ran.
    pub end_to_end: Option<Vec<Metric>>,
    /// `Some` when the layer pass ran. Holds the metrics `spec::per_layer`
    /// lists, then the ones only some workloads have.
    pub per_layer: Option<Vec<Metric>>,
}

fn runs_of(runs: &[CellRuns], cell: Cell) -> Result<&CellRuns, String> {
    runs.iter()
        .find(|r| r.cell == cell && !r.samples.is_empty())
        .ok_or_else(|| format!("no successful run of {cell:?}: nothing to report for it"))
}

fn tally(report: &mut WorkloadReport, runs: &[CellRuns]) {
    for r in runs {
        report.attempted += (r.samples.len() + r.failures.len()) as u64;
        report.failures.extend(r.failures.iter().cloned());
    }
}

type Sample = crate::join::Sample;

/// The median of `f` over a cell's runs.
fn typical(runs: &CellRuns, f: impl Fn(&Sample) -> f64) -> f64 {
    median(&runs.series(f)).unwrap_or(f64::NAN)
}

/// Scales every duration among `metrics` by the machine's slowdown over one
/// stretch of the benchmark, and returns the calibrator's own raw times of
/// that stretch as `harness.<stretch>_calibrator_s`.
fn scale_durations(
    calibrator_s: Vec<f64>,
    stretch: &str,
    metrics: &mut [Metric],
) -> Result<Metric, String> {
    let slowdown = slowdown(&calibrator_s)?;
    for m in metrics.iter_mut().filter(|m| m.is_duration) {
        m.slowdown = slowdown;
    }
    let name = format!("harness.{stretch}_calibrator_s");
    Ok(Metric::new(name, "s", calibrator_s))
}

/// The end-to-end metrics, in `spec::end_to_end` order, then the
/// calibrators'. Set-up ran before the pass, against its own calibrator
/// runs.
fn end_to_end_metrics(
    setup_s: Vec<f64>,
    setup_calibrator_s: Vec<f64>,
    runs: &[CellRuns],
    calibrator_s: Vec<f64>,
) -> Result<Vec<Metric>, String> {
    let mut setup = [Metric::time("setup_s", "s", setup_s)];
    let setup_calibrator = scale_durations(setup_calibrator_s, "setup", &mut setup)?;
    let mut timed = Vec::new();
    for algo in GATED {
        let r = runs_of(runs, Cell::plain(algo))?;
        timed.push(Metric::time(algo.e2e_metric(), "s", r.series(|s| s.wall_s)));
    }
    let msj = runs_of(runs, Cell::plain(Algo::Msj))?;
    timed.push(Metric::new(
        "msj_peak_rss_mb",
        "MB",
        msj.series(|s| s.peak_rss_mb),
    ));
    let pass_calibrator = scale_durations(calibrator_s, "pass", &mut timed)?;
    Ok(setup
        .into_iter()
        .chain(timed)
        .chain([pass_calibrator, setup_calibrator])
        .collect())
}

fn ns_per_candidate(s: &Sample) -> f64 {
    s.stats.join_s * 1e9 / s.stats.candidates.max(1) as f64
}

/// One algorithm's block of the layer pass, from its `--stats json`.
fn algo_metrics(algo: Algo, r: &CellRuns, out: &mut Vec<Metric>) {
    let layer = algo.layer();
    out.push(Metric::time(
        format!("{layer}.e2e_s"),
        "s",
        r.series(|s| s.wall_s),
    ));
    out.push(Metric::time(
        format!("{layer}.join_s"),
        "s",
        r.series(|s| s.stats.join_s),
    ));
    // Counts repeat exactly at one thread; they are kept as samples anyway so
    // a run where they did not shows in min/max.
    out.push(Metric::new(
        format!("{layer}.candidates"),
        "count",
        r.series(|s| s.stats.candidates as f64),
    ));
    out.push(Metric::new(
        format!("{layer}.candidates_per_result"),
        "ratio",
        r.series(|s| s.stats.candidates as f64 / s.stats.results.max(1) as f64),
    ));
    out.push(Metric::time(
        format!("{layer}.ns_per_candidate"),
        "ns",
        r.series(ns_per_candidate),
    ));
    out.push(Metric::new(
        format!("{layer}.peak_rss_mb"),
        "MB",
        r.series(|s| s.peak_rss_mb),
    ));
    for phase in algo.phases() {
        out.push(Metric::time(
            format!("{layer}.{phase}_s"),
            "s",
            r.series(|s| s.stats.phase_s(phase).unwrap_or(f64::NAN)),
        ));
    }
}

fn layer_metrics(
    w: &Workload,
    inputs: &Inputs,
    oracle: &Oracle,
    probes: Probes,
    runs: &[CellRuns],
    calibrator_s: Vec<f64>,
) -> Result<Vec<Metric>, String> {
    // Numbers derived below from durations are derived from scaled ones.
    let slowdown = slowdown(&calibrator_s)?;
    let seconds = |r: &CellRuns, f: fn(&Sample) -> f64| typical(r, f) / slowdown;
    // A number derived from other metrics' reported values: one sample.
    let one = |name: &str, unit, value: f64| Metric::new(name, unit, vec![value]);
    let plain = |algo| runs_of(runs, Cell::plain(algo));
    let with_threads = |algo, threads| {
        let cell = Cell {
            threads,
            ..Cell::plain(algo)
        };
        runs_of(runs, cell)
    };
    let msj = plain(Algo::Msj)?;
    let bf = plain(Algo::Bf)?;
    let rsj = plain(Algo::Rsj)?;

    let load_csv_s = median(&probes.load_csv_s).unwrap_or(f64::NAN) / slowdown;
    let mut out = vec![
        Metric::time("data.load_csv_s", "s", probes.load_csv_s),
        one(
            "data.load_csv_mb_per_s",
            "MB/s",
            inputs.csv_bytes as f64 / 1e6 / load_csv_s,
        ),
    ];

    // What a process spends outside the join and outside parsing: start-up,
    // the unit-domain check, and writing the pairs file. Over every
    // untraced run of the pass, whatever the algorithm.
    let outside: Vec<f64> = runs
        .iter()
        .filter(|r| !r.cell.traced)
        .flat_map(|r| r.series(|s| s.wall_s - s.stats.join_s))
        .collect();
    let outside = median(&outside).unwrap_or(f64::NAN) / slowdown;
    out.push(one("cli.emit_s", "s", outside - load_csv_s));
    out.push(Metric::new(
        "cli.out_bytes",
        "bytes",
        msj.series(|s| s.out_bytes as f64),
    ));

    for algo in ROSTER {
        algo_metrics(algo, plain(algo)?, &mut out);
    }

    let candidates = median(&msj.series(|s| s.stats.candidates as f64)).unwrap_or(f64::NAN);
    out.push(one(
        "msj.prune_ratio",
        "ratio",
        1.0 - candidates / inputs.all_pairs() as f64,
    ));
    out.push(one("msj.level0_share", "ratio", probes.level0_share));
    out.push(one(
        "msj.sweep_overhead_x",
        "x",
        seconds(msj, ns_per_candidate) / seconds(bf, ns_per_candidate),
    ));
    out.push(Metric::time(
        "core.within_scalar_ns",
        "ns",
        probes.within_scalar_ns,
    ));
    out.push(Metric::time(
        "sfc.hilbert_ns_per_key",
        "ns",
        probes.hilbert_ns_per_key,
    ));

    for (name, r, f) in [
        (
            "storage.msj_reads",
            msj,
            (|s| s.stats.reads as f64) as fn(&Sample) -> f64,
        ),
        ("storage.msj_writes", msj, |s| s.stats.writes as f64),
        ("storage.msj_evictions", msj, |s| s.stats.evictions as f64),
        ("storage.rsj_reads", rsj, |s| s.stats.reads as f64),
        ("storage.rsj_writes", rsj, |s| s.stats.writes as f64),
    ] {
        out.push(Metric::new(name, "count", r.series(f)));
    }
    out.push(Metric::new(
        "storage.rsj_hit_rate",
        "ratio",
        rsj.series(|s| s.stats.hit_rate),
    ));

    for (name, algo) in [
        ("exec.msj_t2_speedup", Algo::Msj),
        ("exec.bf_t2_speedup", Algo::Bf),
    ] {
        let t1 = seconds(plain(algo)?, |s| s.stats.join_s);
        let t2 = seconds(with_threads(algo, 2)?, |s| s.stats.join_s);
        out.push(one(name, "x", t1 / t2));
    }
    let traced = runs_of(
        runs,
        Cell {
            traced: true,
            ..Cell::plain(Algo::Msj)
        },
    )?;
    let untraced = seconds(msj, |s| s.wall_s);
    out.push(one(
        "obs.trace_overhead_pct",
        "%",
        (seconds(traced, |s| s.wall_s) - untraced) / untraced * 100.0,
    ));

    // Beyond `spec::per_layer`: what only this workload has, and the
    // harness's own oracle.
    for &algo in w.extra_algos {
        algo_metrics(algo, plain(algo)?, &mut out);
    }
    out.push(one("harness.oracle_s", "s", oracle.seconds));
    let calibrator = scale_durations(calibrator_s, "pass", &mut out)?;
    out.push(calibrator);
    Ok(out)
}

/// The cells of the layer pass: every algorithm that runs on `w` as in the
/// end-to-end pass, the two-thread probes, and one traced MSJ.
fn layer_cells(w: &Workload) -> Vec<Cell> {
    let mut cells: Vec<Cell> = ROSTER
        .iter()
        .chain(w.extra_algos)
        .map(|&a| Cell::plain(a))
        .collect();
    for algo in [Algo::Msj, Algo::Bf] {
        cells.push(Cell {
            algo,
            threads: 2,
            traced: false,
        });
    }
    cells.push(Cell {
        traced: true,
        ..Cell::plain(Algo::Msj)
    });
    cells
}

impl Harness {
    /// Sets `w` up and runs the requested passes over it.
    pub fn run_workload(
        &mut self,
        w: &'static Workload,
        end_to_end: bool,
        layers: bool,
    ) -> Result<WorkloadReport, String> {
        let span = self.trace.begin("workload", w.name);
        let repeats = match self.profile {
            spec::Profile::Full => spec::SETUP_REPEATS,
            spec::Profile::Quick => 1,
        };
        let (inputs, setup_s, setup_calibrator_s) = self.set_up(w, repeats)?;
        let oracle = self.oracle(w, &inputs)?;
        let mut report = WorkloadReport {
            workload: w,
            oracle_pairs: oracle.pairs.count,
            attempted: 0,
            failures: Vec::new(),
            end_to_end: None,
            per_layer: None,
        };
        if end_to_end {
            let pass = self.trace.begin("pass.end_to_end", w.name);
            let cells: Vec<Cell> = GATED.iter().map(|&a| Cell::plain(a)).collect();
            let (runs, calibrator_s) = self.run_cells(w, &inputs, &oracle, &cells)?;
            self.trace.end(pass);
            tally(&mut report, &runs);
            report.end_to_end = Some(end_to_end_metrics(
                setup_s,
                setup_calibrator_s,
                &runs,
                calibrator_s,
            )?);
        }
        if layers {
            let pass = self.trace.begin("pass.layers", w.name);
            let (runs, calibrator_s) = self.run_cells(w, &inputs, &oracle, &layer_cells(w))?;
            let probes = self.probe(w, &inputs)?;
            self.trace.end(pass);
            tally(&mut report, &runs);
            report.per_layer = Some(layer_metrics(
                w,
                &inputs,
                &oracle,
                probes,
                &runs,
                calibrator_s,
            )?);
        }
        self.trace.end(span);
        Ok(report)
    }
}

impl WorkloadReport {
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Every metric by name with its unit, for people.
    pub fn render(&self) -> String {
        let mut text = format!(
            "\n== {} — {}\n   oracle pairs {}, ops_attempted {}, ops_failed {}\n",
            self.workload.name,
            self.workload.why,
            self.oracle_pairs,
            self.attempted,
            self.failed()
        );
        for (title, metrics) in [
            ("end to end (tracing off, --threads 1)", &self.end_to_end),
            ("per layer", &self.per_layer),
        ] {
            if let Some(metrics) = metrics {
                text.push_str(&format!(" - {title}\n"));
                for m in metrics {
                    text.push_str(&format!("   {}\n", m.render()));
                }
            }
        }
        for why in &self.failures {
            text.push_str(&format!("   FAILED {why}\n"));
        }
        text
    }

    pub fn to_json(&self) -> Json {
        let block = |metrics: &Option<Vec<Metric>>| match metrics {
            Some(metrics) => Json::Obj(
                metrics
                    .iter()
                    .map(|m| (m.name.clone(), m.to_json()))
                    .collect(),
            ),
            None => Json::Null,
        };
        Json::obj(vec![
            ("why", Json::str(self.workload.why)),
            ("oracle_pairs", Json::Num(self.oracle_pairs as f64)),
            ("ops_attempted", Json::Num(self.attempted as f64)),
            ("ops_failed", Json::Num(self.failed() as f64)),
            (
                "failures",
                Json::Arr(self.failures.iter().map(Json::str).collect()),
            ),
            ("end_to_end", block(&self.end_to_end)),
            ("per_layer", block(&self.per_layer)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::REFERENCE_S;
    use crate::join::JoinStats;
    use crate::spec::WORKLOADS;

    fn sample(algo: Algo, wall_s: f64) -> Sample {
        let phases = algo
            .phases()
            .iter()
            .map(|p| (p.to_string(), wall_s / 10.0))
            .collect();
        Sample {
            wall_s,
            peak_rss_mb: 10.0,
            out_bytes: 100,
            stats: JoinStats {
                results: 10,
                candidates: 1000,
                join_s: wall_s * 0.9,
                phases,
                reads: 1,
                writes: 2,
                evictions: 3,
                hit_rate: 0.5,
            },
        }
    }

    fn canned_runs(cells: &[Cell]) -> Vec<CellRuns> {
        cells
            .iter()
            .map(|&cell| CellRuns {
                cell,
                samples: vec![
                    sample(cell.algo, 1.0),
                    sample(cell.algo, 3.0),
                    sample(cell.algo, 2.0),
                ],
                failures: Vec::new(),
            })
            .collect()
    }

    #[test]
    fn end_to_end_pass_reports_exactly_the_declared_metrics() {
        let cells: Vec<Cell> = GATED.iter().map(|&a| Cell::plain(a)).collect();
        // The machine ran at reference speed during set-up and at half of it
        // during the pass.
        let cal =
            |factor: f64| vec![9.0 * REFERENCE_S, factor * REFERENCE_S, 0.1 * REFERENCE_S];
        let metrics = end_to_end_metrics(
            vec![0.5, 0.7, 0.6],
            cal(1.0),
            &canned_runs(&cells),
            cal(2.0),
        )
        .unwrap();
        let declared = spec::end_to_end();
        for (m, spec) in metrics.iter().zip(&declared) {
            assert_eq!((m.name.as_str(), m.unit), (spec.name.as_str(), spec.unit));
        }
        let extra: Vec<&str> = metrics[declared.len()..]
            .iter()
            .map(|m| m.name.as_str())
            .collect();
        assert_eq!(
            extra,
            ["harness.pass_calibrator_s", "harness.setup_calibrator_s"]
        );
        // Durations report the median over the machine's slowdown, memory
        // the plain median; the calibrator's own times stay raw.
        assert_eq!(metrics[0].value(), Some(0.6));
        assert_eq!(metrics[1].value(), Some(1.0));
        assert_eq!(metrics[4].value(), Some(10.0));
        assert_eq!(metrics[5].value(), Some(2.0 * REFERENCE_S));
        // A roster algorithm without one good run is an error, not a gap;
        // so is a pass without a calibrator run.
        assert!(
            end_to_end_metrics(vec![0.5], cal(1.0), &canned_runs(&cells[..2]), cal(1.0))
                .is_err()
        );
        assert!(end_to_end_metrics(vec![0.5], cal(1.0), &canned_runs(&cells), vec![]).is_err());
    }

    #[test]
    fn layer_pass_reports_the_declared_metrics_first_on_every_workload() {
        for w in &WORKLOADS {
            let inputs = {
                let (a, b) = crate::setup::generate(w, 1, spec::Profile::Quick).unwrap();
                Inputs {
                    a,
                    b,
                    a_csv: "a.csv".into(),
                    b_csv: None,
                    csv_bytes: 1_000_000,
                }
            };
            let probes = Probes {
                load_csv_s: vec![0.01, 0.02],
                within_scalar_ns: vec![5.0],
                hilbert_ns_per_key: vec![50.0],
                level0_share: 0.25,
            };
            let oracle = Oracle {
                pairs: Default::default(),
                seconds: 1.0,
            };
            let runs = canned_runs(&layer_cells(w));
            let metrics =
                layer_metrics(w, &inputs, &oracle, probes, &runs, vec![REFERENCE_S]).unwrap();
            let declared = spec::per_layer();
            for (m, spec) in metrics.iter().zip(&declared) {
                assert_eq!(
                    (m.name.as_str(), m.unit),
                    (spec.name.as_str(), spec.unit),
                    "{}",
                    w.name
                );
                assert!(
                    m.value().is_some_and(f64::is_finite),
                    "{} {}",
                    w.name,
                    m.name
                );
            }
            assert!(metrics.len() > declared.len());
            let extra: Vec<&str> = metrics[declared.len()..]
                .iter()
                .map(|m| m.name.as_str())
                .collect();
            assert_eq!(extra.contains(&"grid.probe_s"), w.name == "lowdim_d4");
            assert_eq!(
                extra[extra.len() - 2..],
                ["harness.oracle_s", "harness.pass_calibrator_s"]
            );
        }
    }
}
