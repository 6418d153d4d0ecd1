//! E12 — design ablations: MSJ's space-filling curve (Hilbert vs Z-order)
//! and RSJ's build strategy (Hilbert pack vs STR vs dynamic inserts).

use hdsj_bench::{fmt_ms, measure_self_join, scaled, Table};
use hdsj_core::{JoinSpec, Metric};
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
    Ok(())
}
