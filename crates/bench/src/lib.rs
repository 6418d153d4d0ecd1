//! # hdsj-bench — the experiment harness
//!
//! One binary per reproduced table/figure (see `DESIGN.md` §4 for the
//! experiment index and `EXPERIMENTS.md` for recorded results):
//!
//! | target | artefact |
//! |--------|----------|
//! | `fig_time_vs_dim`     | E1  — response time vs dimensionality |
//! | `fig_time_vs_eps`     | E2  — response time vs ε |
//! | `fig_time_vs_n`       | E3  — response time vs dataset size |
//! | `fig_io_vs_n`         | E4  — page I/O vs dataset size |
//! | `tbl_memory_vs_dim`   | E5  — structure memory vs dimensionality |
//! | `fig_skew`            | E6  — clustered / skewed data |
//! | `fig_real_data`       | E7  — time-series Fourier features |
//! | `tbl_msj_phases`      | E8  — MSJ phase breakdown |
//! | `tbl_level_occupancy` | E9  — MSJ level-file occupancy |
//! | `tbl_filter_quality`  | E10 — candidates vs results |
//! | `fig_buffer_sweep`    | E11 — I/O vs buffer-pool size |
//! | `tbl_ablation`        | E12 — curve, build-strategy and leaf-capacity ablations |
//!
//! Each binary prints an aligned table and writes
//! `target/experiments/<name>.csv`. Set `HDSJ_QUICK=1` to shrink the
//! workloads (used by the smoke tests), `HDSJ_SCALE=<f64>` to scale them.
#![forbid(unsafe_code)]

use hdsj_bruteforce::BruteForce;
use hdsj_core::{CountSink, Dataset, JoinSpec, JoinStats, Result, SimilarityJoin};
use hdsj_ekdb::EkdbJoin;
use hdsj_grid::GridJoin;
use hdsj_msj::Msj;
use hdsj_rtree::RsjJoin;
use hdsj_sortmerge::SortMergeJoin;
use std::io::Write;
use std::time::Instant;

/// The algorithm roster of the evaluation, in the order the tables list
/// them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    /// Block nested loops.
    Bf,
    /// 1-D projection sort-merge.
    Sm1d,
    /// ε-grid hash join.
    Grid,
    /// ε-KDB tree join.
    Ekdb,
    /// R-tree spatial join.
    Rsj,
    /// Multidimensional spatial join (the contribution).
    Msj,
}

impl Algo {
    /// All algorithms, baseline first, contribution last.
    pub fn all() -> [Algo; 6] {
        [
            Algo::Bf,
            Algo::Sm1d,
            Algo::Grid,
            Algo::Ekdb,
            Algo::Rsj,
            Algo::Msj,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Algo::Bf => "BF",
            Algo::Sm1d => "SM1D",
            Algo::Grid => "GRID",
            Algo::Ekdb => "EKDB",
            Algo::Rsj => "RSJ",
            Algo::Msj => "MSJ",
        }
    }

    /// A fresh instance with default configuration.
    pub fn make(&self) -> Box<dyn SimilarityJoin> {
        match self {
            Algo::Bf => Box::new(BruteForce::default()),
            Algo::Sm1d => Box::new(SortMergeJoin::default()),
            Algo::Grid => Box::new(GridJoin::default()),
            Algo::Ekdb => Box::new(EkdbJoin::default()),
            Algo::Rsj => Box::new(RsjJoin::default()),
            Algo::Msj => Box::new(Msj::default()),
        }
    }
}

/// One measured join run.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Wall-clock of the whole call (build + join phases).
    pub elapsed_ms: f64,
    /// The join's own statistics.
    pub stats: JoinStats,
}

/// Runs a self-join with a counting sink and wall-clock measurement.
/// `Err` (e.g. GRID above its dimensionality cap) is returned as-is so the
/// caller can print `n/a`, which is how the paper's plots show infeasible
/// configurations.
pub fn measure_self_join(
    algo: &mut dyn SimilarityJoin,
    ds: &Dataset,
    spec: &JoinSpec,
) -> Result<Measurement> {
    let mut sink = CountSink::default();
    let start = Instant::now();
    let stats = algo.self_join(ds, spec, &mut sink)?;
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
    debug_assert_eq!(sink.count, stats.results);
    Ok(Measurement { elapsed_ms, stats })
}

/// Scale factor for workload sizes: `HDSJ_QUICK=1` → 0.1, else
/// `HDSJ_SCALE` (default 1.0).
pub fn scale() -> f64 {
    if std::env::var("HDSJ_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
    {
        return 0.1;
    }
    std::env::var("HDSJ_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0)
}

/// `n` scaled by [`scale`], with a floor so experiments stay meaningful.
pub fn scaled(n: usize) -> usize {
    ((n as f64 * scale()) as usize).max(200)
}

/// An experiment output table: aligned stdout rendering plus CSV export.
pub struct Table {
    name: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table named after its experiment (used for the CSV filename).
    pub fn new(name: &str, headers: &[&str]) -> Table {
        Table {
            name: name.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Renders the aligned table to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// One JSON object per row: `{"experiment": <name>, <header>: <cell>, ...}`.
    /// Cells that parse as plain numbers are emitted as numbers, everything
    /// else (units like `12.3ms`, `n/a`) as strings, so downstream tools get
    /// typed values without the harness committing to a column schema.
    pub fn json_rows(&self) -> Vec<String> {
        use hdsj_core::obs::json::{encode_f64, encode_str};
        let cell_value = |cell: &str| -> String {
            if let Ok(v) = cell.parse::<u64>() {
                return v.to_string();
            }
            match cell.parse::<f64>() {
                Ok(v) if v.is_finite() => encode_f64(v),
                _ => encode_str(cell),
            }
        };
        self.rows
            .iter()
            .map(|row| {
                let mut out = format!("{{\"experiment\":{}", encode_str(&self.name));
                for (header, cell) in self.headers.iter().zip(row) {
                    out.push(',');
                    out.push_str(&encode_str(header));
                    out.push(':');
                    out.push_str(&cell_value(cell));
                }
                out.push('}');
                out
            })
            .collect()
    }

    /// Prints the table and writes `target/experiments/<name>.csv` plus
    /// `target/experiments/<name>.jsonl` (one structured JSON row per
    /// experiment point).
    pub fn emit(&self) -> std::io::Result<()> {
        println!("\n== {} ==", self.name);
        print!("{}", self.render());
        let dir = std::path::Path::new("target/experiments");
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.csv", self.name));
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(f, "{}", self.headers.join(","))?;
        for row in &self.rows {
            writeln!(f, "{}", row.join(","))?;
        }
        f.flush()?;
        let json_path = dir.join(format!("{}.jsonl", self.name));
        let mut j = std::io::BufWriter::new(std::fs::File::create(&json_path)?);
        for line in self.json_rows() {
            writeln!(j, "{line}")?;
        }
        j.flush()?;
        println!("(csv written to {})", path.display());
        println!("(jsonl written to {})", json_path.display());
        Ok(())
    }
}

/// Estimates the ε at which a self-join selects roughly `frac` of all
/// pairs, by sampling `samples` random pairs and taking the `frac`-quantile
/// of their distances. Used where no closed form exists (clustered and
/// real-surrogate workloads).
pub fn eps_for_sample_quantile(
    ds: &Dataset,
    metric: hdsj_core::Metric,
    frac: f64,
    samples: usize,
) -> f64 {
    let n = ds.len();
    if n < 2 {
        return 0.1;
    }
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut dists: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let i = (next() % n as u64) as u32;
        let mut j = (next() % n as u64) as u32;
        if i == j {
            j = (j + 1) % n as u32;
        }
        dists.push(metric.distance(ds.point(i), ds.point(j)));
    }
    dists.sort_unstable_by(f64::total_cmp);
    let idx = ((dists.len() as f64 * frac) as usize).min(dists.len() - 1);
    dists[idx].max(1e-6)
}

/// Formats a millisecond value compactly.
pub fn fmt_ms(ms: f64) -> String {
    if ms >= 1000.0 {
        format!("{:.2}s", ms / 1000.0)
    } else {
        format!("{ms:.1}ms")
    }
}

/// Formats a byte count compactly.
pub fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 20 {
        format!("{:.1}MiB", b as f64 / (1 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1}KiB", b as f64 / (1 << 10) as f64)
    } else {
        format!("{b}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdsj_core::Metric;

    #[test]
    fn roster_runs_and_agrees() {
        let ds = hdsj_data::uniform(4, 300, 1).unwrap();
        let spec = JoinSpec::new(0.2, Metric::L2);
        let mut counts = Vec::new();
        for algo in Algo::all() {
            let mut a = algo.make();
            let m = measure_self_join(a.as_mut(), &ds, &spec).unwrap();
            counts.push(m.stats.results);
        }
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
    }

    #[test]
    fn grid_reports_unsupported_high_d() {
        let ds = hdsj_data::uniform(32, 50, 1).unwrap();
        let spec = JoinSpec::l2(0.5);
        let mut g = Algo::Grid.make();
        assert!(measure_self_join(g.as_mut(), &ds, &spec).is_err());
    }

    #[test]
    fn table_renders_and_aligns() {
        let mut t = Table::new("unit_test_table", &["a", "long_header"]);
        t.row(vec!["1".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("long_header"));
        assert_eq!(s.lines().count(), 3);
    }

    #[test]
    fn json_rows_type_cells_and_parse() {
        use hdsj_core::obs::json;
        let mut t = Table::new("e2e", &["algo", "n", "time", "precision"]);
        t.row(vec![
            "MSJ".into(),
            "1000".into(),
            "12.3ms".into(),
            "0.5".into(),
        ]);
        t.row(vec!["GRID".into(), "1000".into(), "n/a".into(), "1".into()]);
        let rows = t.json_rows();
        assert_eq!(rows.len(), 2);
        let first = json::parse(&rows[0]).unwrap();
        assert_eq!(
            first.get("experiment").and_then(|v| v.as_str()),
            Some("e2e")
        );
        assert_eq!(first.get("algo").and_then(|v| v.as_str()), Some("MSJ"));
        assert_eq!(first.get("n").and_then(|v| v.as_u64()), Some(1000));
        assert_eq!(first.get("time").and_then(|v| v.as_str()), Some("12.3ms"));
        assert_eq!(first.get("precision").and_then(|v| v.as_f64()), Some(0.5));
        let second = json::parse(&rows[1]).unwrap();
        assert_eq!(second.get("time").and_then(|v| v.as_str()), Some("n/a"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_ms(12.34), "12.3ms");
        assert_eq!(fmt_ms(1234.5), "1.23s");
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(2048), "2.0KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.0MiB");
    }

    #[test]
    fn scaled_applies_floor() {
        assert!(scaled(100) >= 200 || scale() >= 1.0);
    }
}
