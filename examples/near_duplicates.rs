//! Near-duplicate detection over clustered feature vectors — the data
//! cleaning scenario the similarity-join literature motivates: records are
//! embedded as points and near-duplicates are pairs within ε.
//!
//! The example also shows picking the right algorithm per regime: the grid
//! join wins at low dimensionality, MSJ takes over when the grid's 3^d
//! neighbourhood becomes infeasible.
//!
//! ```sh
//! cargo run --release --example near_duplicates
//! ```

use hdsj::core::{CountSink, JoinSpec, Metric, SimilarityJoin, VecSink};
use hdsj::data::{gaussian_clusters, ClusterSpec};
use hdsj::grid::GridJoin;
use hdsj::msj::Msj;
use std::collections::HashMap;

fn main() -> hdsj::core::Result<()> {
    // 20,000 "records": duplicates cluster tightly around shared sources.
    let dims = 6;
    let spec_ds = ClusterSpec {
        clusters: 2_000,
        sigma: 0.002,
        zipf_theta: 1.2,
        noise_fraction: 0.3,
    };
    let records = gaussian_clusters(dims, 20_000, spec_ds, 5150)?;
    let spec = JoinSpec::new(0.01, Metric::L2);

    // Low dimensionality: the ε-grid is the right tool.
    let mut sink = VecSink::default();
    let stats = GridJoin::default().self_join(&records, &spec, &mut sink)?;
    println!(
        "GRID found {} near-duplicate pairs among {} records ({} candidates)",
        stats.results,
        records.len(),
        stats.candidates
    );

    // Group pairs into duplicate clusters with a union-find.
    let mut parent: Vec<u32> = (0..records.len() as u32).collect();
    fn find(parent: &mut [u32], x: u32) -> u32 {
        let mut root = x;
        while parent[root as usize] != root {
            root = parent[root as usize];
        }
        let mut cur = x;
        while parent[cur as usize] != root {
            let next = parent[cur as usize];
            parent[cur as usize] = root;
            cur = next;
        }
        root
    }
    for &(i, j) in &sink.pairs {
        let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
        if ri != rj {
            parent[ri as usize] = rj;
        }
    }
    let mut sizes: HashMap<u32, usize> = HashMap::new();
    for i in 0..records.len() as u32 {
        *sizes.entry(find(&mut parent, i)).or_default() += 1;
    }
    let mut cluster_sizes: Vec<usize> = sizes.into_values().filter(|&s| s > 1).collect();
    cluster_sizes.sort_unstable_by(|a, b| b.cmp(a));
    println!(
        "{} duplicate groups; largest: {:?}",
        cluster_sizes.len(),
        &cluster_sizes[..cluster_sizes.len().min(5)]
    );

    // High dimensionality: the grid refuses (3^24 neighbours!), MSJ carries on.
    let wide = gaussian_clusters(24, 5_000, spec_ds, 5151)?;
    let wide_spec = JoinSpec::new(0.01, Metric::L2);
    let mut count = CountSink::default();
    match GridJoin::default().self_join(&wide, &wide_spec, &mut count) {
        Err(e) => println!("\nat d=24 the grid declines: {e}"),
        Ok(_) => {
            return Err(hdsj::core::Error::Internal(
                "grid must refuse d=24".to_string(),
            ))
        }
    }
    let stats = Msj::default().self_join(&wide, &wide_spec, &mut count)?;
    println!(
        "MSJ handles d=24 fine: {} near-duplicate pairs",
        stats.results
    );
    Ok(())
}
