//! E12 — design ablations: MSJ's space-filling curve (Hilbert vs Z-order),
//! RSJ's build strategy (Hilbert pack vs STR vs dynamic inserts), and the
//! ε-KDB leaf capacity that sets its default.

use hdsj_bench::{eps_for_sample_quantile, fmt_ms, measure_self_join, scaled, Table};
use hdsj_core::{Dataset, JoinSpec, Metric};
use hdsj_data::analytic::eps_for_expected_pairs;
use hdsj_data::timeseries::fourier_dataset;
use hdsj_ekdb::EkdbJoin;
use hdsj_msj::Msj;
use hdsj_rtree::{BuildStrategy, RsjJoin};
use hdsj_sfc::Curve;

fn main() -> hdsj_core::Result<()> {
    let d = 8;
    let n = scaled(20_000);
    let ds = hdsj_data::uniform(d, n, 29)?;
    let spec = JoinSpec::new(0.15, Metric::L2);

    let mut table = Table::new(
        "E12_ablation",
        &["variant", "time", "candidates", "results"],
    );
    for curve in [Curve::Hilbert, Curve::ZOrder] {
        let mut msj = Msj::with_curve(curve);
        let m = measure_self_join(&mut msj, &ds, &spec)?;
        table.row(vec![
            format!("MSJ/{}", curve.label()),
            fmt_ms(m.elapsed_ms),
            m.stats.candidates.to_string(),
            m.stats.results.to_string(),
        ]);
    }
    for threads in [2usize, 4] {
        let mut msj = Msj::with_threads(threads);
        let m = measure_self_join(&mut msj, &ds, &spec)?;
        table.row(vec![
            format!("MSJ/threads x{threads}"),
            fmt_ms(m.elapsed_ms),
            m.stats.candidates.to_string(),
            m.stats.results.to_string(),
        ]);
    }
    for strategy in [
        BuildStrategy::HilbertPack,
        BuildStrategy::Str,
        BuildStrategy::DynamicInsert,
    ] {
        let mut rsj = RsjJoin::with_strategy(strategy);
        let m = measure_self_join(&mut rsj, &ds, &spec)?;
        table.row(vec![
            format!("RSJ/{strategy:?}"),
            fmt_ms(m.elapsed_ms),
            m.stats.candidates.to_string(),
            m.stats.results.to_string(),
        ]);
    }
    table.emit()?;
    leaf_capacity_sweep()
}

/// ε-KDB's join time (min of 5, capacities interleaved) and leaf pairs per
/// leaf capacity, on the inputs where its default decides the most: the
/// benchmark's `lowdim_d4` and `fourier_d64` shapes and the E1, E2 and E7
/// rows ε-KDB used to lose to SM1D.
fn leaf_capacity_sweep() -> hdsj_core::Result<()> {
    const CAPACITIES: [usize; 5] = [32, 64, 128, 256, 512];
    let (n, e1_n) = (scaled(50_000), scaled(10_000));
    let e1_eps = eps_for_expected_pairs(Metric::L2, 8, e1_n, 2.0 * e1_n as f64);
    let e2 = hdsj_data::uniform(8, e1_n, 42)?;
    let e7 = fourier_dataset(16, scaled(8_000), 128, 2024)?;
    // E7's ε: 4 n of the n (n − 1) / 2 pairs.
    let e7_eps =
        eps_for_sample_quantile(&e7, Metric::L2, 8.0 / (e7.len() as f64 - 1.0), 20_000);
    let rows: Vec<(String, Dataset, f64)> = vec![
        ("uniform d=4".into(), hdsj_data::uniform(4, n, 1)?, 0.04),
        (
            "fourier d=64".into(),
            fourier_dataset(64, scaled(6_000), 128, 1)?,
            0.07,
        ),
        ("E1 d=8".into(), hdsj_data::uniform(8, e1_n, 8)?, e1_eps),
        ("E2 eps=0.05".into(), e2.clone(), 0.05),
        ("E2 eps=0.2".into(), e2, 0.2),
        ("E7 d=16".into(), e7, e7_eps),
    ];
    let mut headers = vec!["input".to_string(), "eps".into()];
    for cap in CAPACITIES {
        headers.push(format!("leaf {cap}"));
        headers.push(format!("leaf_pairs {cap}"));
    }
    let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new("E12_ekdb_leaf_capacity", &headers);
    for (label, ds, eps) in rows {
        let spec = JoinSpec::new(eps, Metric::L2);
        let mut best = [f64::INFINITY; CAPACITIES.len()];
        let mut leaf_pairs = [0; CAPACITIES.len()];
        for _ in 0..5 {
            for (k, &leaf_capacity) in CAPACITIES.iter().enumerate() {
                let mut ekdb = EkdbJoin {
                    leaf_capacity,
                    ..Default::default()
                };
                let m = measure_self_join(&mut ekdb, &ds, &spec)?;
                best[k] = best[k].min(m.elapsed_ms);
                leaf_pairs[k] = m.stats.counter("leaf_pairs").unwrap_or(0);
            }
        }
        let mut cells = vec![label, format!("{eps:.4}")];
        for (ms, pairs) in best.iter().zip(leaf_pairs) {
            cells.push(fmt_ms(*ms));
            cells.push(pairs.to_string());
        }
        table.row(cells);
    }
    table.emit()?;
    Ok(())
}
