//! Driving `hdsj join`: one run and its checks, and the closed-loop
//! round-robin schedule both passes use.

use crate::digest::{parse_pairs, PairSet};
use crate::json::Json;
use crate::setup::{path_arg, Inputs, Oracle};
use crate::spec::{Algo, Profile, Workload};
use crate::Harness;
use std::time::{Duration, Instant};

/// One kind of `hdsj join` run within a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cell {
    pub algo: Algo,
    pub threads: u32,
    /// Run with `--trace FILE` (the tracing-overhead probe).
    pub traced: bool,
}

impl Cell {
    /// The end-to-end configuration: one thread, tracing off.
    pub fn plain(algo: Algo) -> Cell {
        Cell {
            algo,
            threads: 1,
            traced: false,
        }
    }
}

/// The fields of the `--stats json` object the harness uses.
#[derive(Clone, Debug, PartialEq)]
pub struct JoinStats {
    pub results: u64,
    pub candidates: u64,
    /// `time_us`: the join alone, without parsing the CSV or writing pairs.
    pub join_s: f64,
    /// `(phase, seconds)` in the order printed.
    pub phases: Vec<(String, f64)>,
    pub reads: u64,
    pub writes: u64,
    pub evictions: u64,
    pub hit_rate: f64,
}

impl JoinStats {
    pub fn parse(line: &str) -> Result<JoinStats, String> {
        let doc = Json::parse(line.trim()).map_err(|e| format!("stats JSON: {e}"))?;
        let count = |path: &[&str]| {
            doc.at(path)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("stats JSON: no count at {}", path.join(".")))
        };
        let phases = doc
            .get("phases")
            .and_then(Json::as_obj)
            .ok_or("stats JSON: no phases object")?
            .iter()
            .map(|(name, us)| {
                us.as_f64()
                    .map(|us| (name.clone(), us / 1e6))
                    .ok_or_else(|| format!("stats JSON: phase {name} is not a number"))
            })
            .collect::<Result<_, _>>()?;
        Ok(JoinStats {
            results: count(&["results"])?,
            candidates: count(&["candidates"])?,
            join_s: count(&["time_us"])? as f64 / 1e6,
            phases,
            reads: count(&["io", "reads"])?,
            writes: count(&["io", "writes"])?,
            evictions: count(&["io", "evictions"])?,
            hit_rate: doc
                .at(&["io", "hit_rate"])
                .and_then(Json::as_f64)
                .ok_or("stats JSON: no io.hit_rate")?,
        })
    }

    pub fn phase_s(&self, name: &str) -> Option<f64> {
        self.phases.iter().find(|(n, _)| n == name).map(|(_, s)| *s)
    }
}

/// One successful, checked run.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Spawn to exit: CSV parse, join, pairs file written.
    pub wall_s: f64,
    pub peak_rss_mb: f64,
    pub out_bytes: u64,
    pub stats: JoinStats,
}

/// Everything one cell did in a pass.
pub struct CellRuns {
    pub cell: Cell,
    pub samples: Vec<Sample>,
    /// Why each failed run failed.
    pub failures: Vec<String>,
}

impl CellRuns {
    pub fn series(&self, f: impl Fn(&Sample) -> f64) -> Vec<f64> {
        self.samples.iter().map(f).collect()
    }
}

/// Compares a run's output with the oracle. A run fails on a non-zero exit,
/// a pair count that differs from the `results` it reported, a repeated
/// pair, or a pair set that is not the oracle's.
fn check(stats: &JoinStats, written: &PairSet, oracle: &PairSet) -> Result<(), String> {
    if written.count != stats.results {
        return Err(format!(
            "wrote {} pairs but reported results = {}",
            written.count, stats.results
        ));
    }
    if written.duplicates > 0 {
        return Err(format!("{} pairs were written twice", written.duplicates));
    }
    if written.count != oracle.count {
        return Err(format!(
            "{} pairs, the oracle has {}",
            written.count, oracle.count
        ));
    }
    if written.digest != oracle.digest {
        return Err(format!(
            "same count as the oracle ({}) but a different pair set",
            oracle.count
        ));
    }
    Ok(())
}

impl Harness {
    /// Runs one `hdsj join` and checks what it wrote. `Ok(Err(why))` is a
    /// failed operation (counted, the benchmark goes on); `Err` is the
    /// harness itself failing.
    fn join_once(
        &mut self,
        w: &Workload,
        inputs: &Inputs,
        oracle: &Oracle,
        cell: Cell,
    ) -> Result<Result<Sample, String>, String> {
        let out = self.work.join(format!("{}.pairs.csv", w.name));
        let mut args: Vec<String> = ["join", "--algo", cell.algo.cli(), "--metric", "l2"]
            .map(String::from)
            .to_vec();
        args.extend(["--eps".to_string(), w.eps.to_string()]);
        args.extend(["--input".to_string(), path_arg(&inputs.a_csv)?]);
        if let Some(b) = &inputs.b_csv {
            args.extend(["--other".to_string(), path_arg(b)?]);
        }
        args.extend(["--threads".to_string(), cell.threads.to_string()]);
        args.extend(["--out".to_string(), path_arg(&out)?]);
        args.extend(["--stats".to_string(), "json".to_string()]);
        args.extend(w.args_for(cell.algo).iter().map(|s| s.to_string()));
        if cell.traced {
            let trace_file = self.work.join(format!("{}.trace.jsonl", w.name));
            args.extend(["--trace".to_string(), path_arg(&trace_file)?]);
        }
        // A stale file from the previous run must not pass for this one's.
        let _ = std::fs::remove_file(&out);

        let name = format!(
            "join.{}{}{}",
            cell.algo.cli(),
            if cell.threads == 1 { "" } else { ".t2" },
            if cell.traced { ".traced" } else { "" }
        );
        let span = self.trace.begin(&name, w.name);
        let run = crate::proc::run(&self.hdsj, &args, &self.work);
        self.trace.end(span);
        let run = run?;

        let span = self.trace.begin("check", w.name);
        let checked = (|| {
            if !run.success() {
                return Err(format!(
                    "exit code {:?}: {}",
                    run.exit_code,
                    run.stderr.trim()
                ));
            }
            let stats = JoinStats::parse(&run.stdout)?;
            let text = std::fs::read_to_string(&out).map_err(|e| format!("pairs file: {e}"))?;
            let written = PairSet::of(&parse_pairs(&text)?);
            check(&stats, &written, &oracle.pairs)?;
            Ok(Sample {
                wall_s: run.wall_s,
                peak_rss_mb: run.peak_rss_kb as f64 / 1024.0,
                out_bytes: text.len() as u64,
                stats,
            })
        })();
        self.trace.end(span);
        Ok(checked.map_err(|why| format!("{} {}: {why}", w.name, &name["join.".len()..])))
    }

    /// One run of the calibrator child; its wall time, spawn to exit.
    pub fn calibrate_once(&mut self, workload: &str) -> Result<f64, String> {
        let span = self.trace.begin("calibrate", workload);
        let run = crate::proc::run(&self.this_exe, &["--calibrate".to_string()], &self.work);
        self.trace.end(span);
        let run = run?;
        if run.success() {
            Ok(run.wall_s)
        } else {
            Err(format!("the calibrator failed: {}", run.stderr.trim()))
        }
    }

    /// The load model: a closed loop with one client. The next `hdsj join`
    /// starts only after the previous one has exited, and repetitions are
    /// interleaved round-robin across `cells`, so a slow spell of the machine
    /// falls on every algorithm alike. The first round runs every cell; after
    /// it a cell runs only while its last duration still fits before the
    /// deadline, so an expensive cell ends up with a smaller `k` than a cheap
    /// one and the pass does not overrun. The pass ends when nothing fits.
    /// Every round starts with one run of the calibrator, under the same
    /// rule; its wall times come back beside the cells' runs.
    pub fn run_cells(
        &mut self,
        w: &Workload,
        inputs: &Inputs,
        oracle: &Oracle,
        cells: &[Cell],
    ) -> Result<(Vec<CellRuns>, Vec<f64>), String> {
        let deadline = Instant::now() + self.budget;
        let mut runs: Vec<CellRuns> = cells
            .iter()
            .map(|&cell| CellRuns {
                cell,
                samples: Vec::new(),
                failures: Vec::new(),
            })
            .collect();
        let mut last = vec![Duration::ZERO; cells.len()];
        let mut calibrator_s: Vec<f64> = Vec::new();
        for round in 0.. {
            let mut ran = false;
            let left = deadline.saturating_duration_since(Instant::now());
            let too_long = |&s: &f64| s >= left.as_secs_f64();
            if !calibrator_s.last().is_some_and(too_long) {
                calibrator_s.push(self.calibrate_once(w.name)?);
            }
            for (slot, &cell) in cells.iter().enumerate() {
                let left = deadline.saturating_duration_since(Instant::now());
                if round > 0 && last[slot] >= left {
                    continue;
                }
                let started = Instant::now();
                match self.join_once(w, inputs, oracle, cell)? {
                    Ok(sample) => runs[slot].samples.push(sample),
                    Err(why) => {
                        eprintln!("FAILED {why}");
                        runs[slot].failures.push(why);
                    }
                }
                last[slot] = started.elapsed();
                ran = true;
            }
            if !ran || self.profile == Profile::Quick {
                break;
            }
        }
        Ok((runs, calibrator_s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A line `hdsj join --stats json` printed (MSJ, twoset_d8_dense).
    const CANNED: &str = r#"{"algorithm":"MSJ","results":1255090,"candidates":121485829,"dist_evals":121485829,"filter_precision":0.010331163810060513,"time_us":1916331,"structure_bytes":404568,"phases":{"assign":11788,"sort":25348,"sweep":1878932},"io":{"reads":258,"writes":260,"allocs":260,"hits":2,"evictions":466,"writebacks":260,"retries":0,"faults":0,"corruptions":0,"hit_rate":0.007692307692307693}}"#;

    #[test]
    fn extracts_the_stats_json_fields() {
        let stats = JoinStats::parse(&format!("{CANNED}\n")).unwrap();
        assert_eq!(stats.results, 1_255_090);
        assert_eq!(stats.candidates, 121_485_829);
        assert_eq!(stats.join_s, 1.916331);
        assert_eq!(
            stats.phases,
            vec![
                ("assign".to_string(), 0.011788),
                ("sort".to_string(), 0.025348),
                ("sweep".to_string(), 1.878932)
            ]
        );
        assert_eq!(stats.phase_s("sort"), Some(0.025348));
        assert_eq!(stats.phase_s("build"), None);
        assert_eq!(
            (stats.reads, stats.writes, stats.evictions),
            (258, 260, 466)
        );
        assert_eq!(stats.hit_rate, 0.007692307692307693);
    }

    #[test]
    fn rejects_stats_lines_with_missing_fields() {
        assert!(JoinStats::parse("algorithm : MSJ").is_err());
        assert!(JoinStats::parse(r#"{"results":1}"#).is_err());
        let no_io = CANNED.replace("\"io\"", "\"oi\"");
        assert!(JoinStats::parse(&no_io).is_err());
    }

    #[test]
    fn the_gate_names_the_check_that_broke() {
        let stats = JoinStats::parse(CANNED).unwrap();
        let oracle = PairSet::of(&[(0, 1), (2, 3)]);
        let with = |results, pairs: &[(u32, u32)]| {
            let stats = JoinStats {
                results,
                ..stats.clone()
            };
            check(&stats, &PairSet::of(pairs), &oracle)
        };
        assert!(with(2, &[(2, 3), (0, 1)]).is_ok());
        assert!(with(3, &[(0, 1), (2, 3)]).unwrap_err().contains("reported"));
        assert!(with(3, &[(0, 1), (2, 3), (2, 3)])
            .unwrap_err()
            .contains("twice"));
        assert!(with(1, &[(0, 1)]).unwrap_err().contains("oracle has 2"));
        assert!(with(2, &[(0, 1), (2, 4)])
            .unwrap_err()
            .contains("different pair set"));
    }
}
