//! E9 — MSJ level-file occupancy: how many points land in each hierarchy
//! level as ε and d vary, and how many candidates each level's cells cost.
//!
//! Small ε pushes cubes into deep (fine) levels; large ε and high d push
//! mass toward level 0 — the size-separation behaviour that drives MSJ's
//! costs. Occupancy is a property of the level assignment alone; the
//! candidate column is what the sweep makes of it: every candidate is
//! counted at the level of the deeper of its two cells (a level-`l` cell
//! joined against itself or against an ancestor's points).

use hdsj_bench::{scaled, Table};
use hdsj_core::{CountSink, Dataset, JoinSpec, Metric, SimilarityJoin};
use hdsj_msj::assign::Assigner;
use hdsj_msj::Msj;

/// Candidates by the level of the deeper cell, from the join itself. A cell
/// is joined with itself and its ancestors only, so `Msj::self_join` over
/// the points of levels `0..=l` emits exactly what the full join emits for
/// the cells of those levels: a level costs the difference of two prefixes.
fn candidates_by_level(ds: &Dataset, eps: f64) -> hdsj_core::Result<Vec<u64>> {
    let mut msj = Msj::default();
    let depth = msj.effective_depth(eps);
    let mut assigner = Assigner::new(ds.dims(), depth, eps, msj.curve)?;
    let levels: Vec<u8> = ds.iter().map(|(_, p)| assigner.assign(p).1).collect();
    let spec = JoinSpec::new(eps, Metric::L2);
    let (mut counts, mut above) = (Vec::new(), 0);
    for l in 0..=depth as u8 {
        let mut prefix = Dataset::new(ds.dims())?;
        for (_, p) in ds.iter().filter(|(id, _)| levels[*id as usize] <= l) {
            prefix.push(p)?;
        }
        let upto = if prefix.is_empty() {
            0
        } else {
            let stats = msj.self_join(&prefix, &spec, &mut CountSink::default())?;
            stats.candidates
        };
        counts.push(upto - above);
        above = upto;
    }
    Ok(counts)
}

fn main() -> hdsj_core::Result<()> {
    let n = scaled(20_000);
    let mut table = Table::new(
        "E9_level_occupancy",
        &[
            "d",
            "eps",
            "depth",
            "level_counts (0..depth)",
            "candidates by level (0..depth)",
        ],
    );
    let join = |counts: &[u64]| {
        let counts: Vec<String> = counts.iter().map(|c| c.to_string()).collect();
        counts.join(" ")
    };
    for (d, eps) in [(2usize, 0.01f64), (2, 0.1), (8, 0.05), (8, 0.2), (32, 0.5)] {
        let ds = hdsj_data::uniform(d, n, d as u64)?;
        let hist = Msj::default().level_histogram(&ds, eps)?;
        table.row(vec![
            d.to_string(),
            format!("{eps}"),
            (hist.len() - 1).to_string(),
            join(&hist),
            join(&candidates_by_level(&ds, eps)?),
        ]);
    }
    table.emit()?;
    Ok(())
}
