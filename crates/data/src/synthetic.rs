//! Synthetic point distributions: uniform, Gaussian clusters (optionally
//! Zipf-skewed), and diagonal-correlated data.

use hdsj_core::{Dataset, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Largest representable coordinate inside the `[0, 1)` convention.
const MAX_COORD: f64 = 1.0 - 1e-12;

/// Opens a generation span on the process-global tracer (a no-op unless
/// one was installed via `hdsj_core::obs::set_global`). Free functions have
/// no struct to hang a tracer on, hence the global.
pub(crate) fn gen_span(
    name: &'static str,
    dims: usize,
    n: usize,
    seed: u64,
) -> hdsj_core::obs::Span {
    let tracer = hdsj_core::obs::global();
    let mut span = tracer.span(name);
    span.attr_u64("dims", dims as u64);
    span.attr_u64("n", n as u64);
    span.attr_u64("seed", seed);
    span
}

/// `n` i.i.d. uniform points in `[0,1)^d`. Errors on `dims == 0`.
pub fn uniform(dims: usize, n: usize, seed: u64) -> Result<Dataset> {
    let _span = gen_span("data.uniform", dims, n, seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ds = Dataset::with_capacity(dims, n)?;
    let mut p = vec![0.0; dims];
    for _ in 0..n {
        for v in p.iter_mut() {
            *v = rng.gen::<f64>().min(MAX_COORD);
        }
        ds.push(&p)?;
    }
    Ok(ds)
}

/// Points on a 1/64 lattice, `sizes[s]` of them in dimension-0 stripe `s`
/// of width 8/64: joined at ε = 8/64, duplicates, dimension-0 gaps of
/// exactly ε and points on cell, stripe and MBR faces are the common case —
/// the boundary input of the index joins' tests. Errors on `dims == 0`.
pub fn lattice_stripes(dims: usize, sizes: &[usize], seed: u64) -> Result<Dataset> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut flat = Vec::new();
    for (s, &k) in sizes.iter().enumerate() {
        for _ in 0..k {
            flat.push((s as u64 * 8 + rng.gen_range(0..8u64)) as f64 / 64.0);
            flat.extend((1..dims).map(|_| rng.gen_range(0..64u64) as f64 / 64.0));
        }
    }
    Dataset::from_flat(dims, flat)
}

/// Shape of a clustered workload.
#[derive(Clone, Copy, Debug)]
pub struct ClusterSpec {
    /// Number of Gaussian clusters.
    pub clusters: usize,
    /// Standard deviation of each cluster (unit-domain units).
    pub sigma: f64,
    /// Zipf exponent for cluster sizes; `0.0` gives equal-size clusters,
    /// larger values concentrate points in few clusters.
    pub zipf_theta: f64,
    /// Fraction of points drawn uniformly instead of from a cluster
    /// (background noise).
    pub noise_fraction: f64,
}

impl Default for ClusterSpec {
    fn default() -> ClusterSpec {
        ClusterSpec {
            clusters: 10,
            sigma: 0.05,
            zipf_theta: 0.0,
            noise_fraction: 0.0,
        }
    }
}

/// `n` points from `spec.clusters` Gaussian clusters with uniformly placed
/// centers. Coordinates are clamped into `[0,1)`. Errors on `dims == 0`.
pub fn gaussian_clusters(
    dims: usize,
    n: usize,
    spec: ClusterSpec,
    seed: u64,
) -> Result<Dataset> {
    let _span = gen_span("data.gaussian_clusters", dims, n, seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let k = spec.clusters.max(1);
    // Cluster centres.
    let mut centers = Vec::with_capacity(k);
    for _ in 0..k {
        let c: Vec<f64> = (0..dims).map(|_| rng.gen::<f64>()).collect();
        centers.push(c);
    }
    // Zipf weights over clusters: w_i ∝ 1 / (i+1)^theta.
    let weights: Vec<f64> = (0..k)
        .map(|i| 1.0 / ((i + 1) as f64).powf(spec.zipf_theta))
        .collect();
    let total: f64 = weights.iter().sum();
    let cumulative: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w / total;
            Some(*acc)
        })
        .collect();

    let mut ds = Dataset::with_capacity(dims, n)?;
    let mut gauss = BoxMuller::default();
    let mut p = vec![0.0; dims];
    for _ in 0..n {
        if rng.gen::<f64>() < spec.noise_fraction {
            for v in p.iter_mut() {
                *v = rng.gen::<f64>().min(MAX_COORD);
            }
        } else {
            let u = rng.gen::<f64>();
            let c = cumulative.partition_point(|&cum| cum < u).min(k - 1);
            for (v, center) in p.iter_mut().zip(&centers[c]) {
                *v = (center + spec.sigma * gauss.sample(&mut rng)).clamp(0.0, MAX_COORD);
            }
        }
        ds.push(&p)?;
    }
    Ok(ds)
}

/// `n` points along the main diagonal of the unit cube with per-dimension
/// uniform jitter of half-width `noise` — a simple model of strongly
/// correlated attributes (the regime where space-filling-curve methods
/// shine and stripe-based structures degrade).
pub fn correlated(dims: usize, n: usize, noise: f64, seed: u64) -> Result<Dataset> {
    let _span = gen_span("data.correlated", dims, n, seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ds = Dataset::with_capacity(dims, n)?;
    let mut p = vec![0.0; dims];
    for _ in 0..n {
        let base = rng.gen::<f64>();
        for v in p.iter_mut() {
            let jitter = (rng.gen::<f64>() - 0.5) * 2.0 * noise;
            *v = (base + jitter).clamp(0.0, MAX_COORD);
        }
        ds.push(&p)?;
    }
    Ok(ds)
}

/// Standard-normal sampler (Box–Muller, caching the second variate).
/// `rand` ships only uniform distributions; the Gaussian machinery lives in
/// the separate `rand_distr` crate, which is outside the allowed dependency
/// list — two lines of Box–Muller replace it.
#[derive(Debug, Default)]
pub struct BoxMuller {
    cached: Option<f64>,
}

impl BoxMuller {
    /// One standard-normal sample.
    pub fn sample(&mut self, rng: &mut impl Rng) -> f64 {
        if let Some(z) = self.cached.take() {
            return z;
        }
        // u1 in (0, 1] so the log is finite.
        let u1: f64 = 1.0 - rng.gen::<f64>();
        let u2: f64 = rng.gen();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.cached = Some(r * theta.sin());
        r * theta.cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_deterministic_and_in_domain() {
        let a = uniform(5, 200, 99).unwrap();
        let b = uniform(5, 200, 99).unwrap();
        assert_eq!(a, b);
        a.check_unit_domain().unwrap();
        let c = uniform(5, 200, 100).unwrap();
        assert_ne!(a, c, "different seeds differ");
    }

    #[test]
    fn uniform_covers_the_cube() {
        let ds = uniform(2, 2000, 1).unwrap();
        // Every quadrant of the unit square should be populated.
        let mut quadrants = [0usize; 4];
        for (_, p) in ds.iter() {
            let q = (p[0] >= 0.5) as usize * 2 + (p[1] >= 0.5) as usize;
            quadrants[q] += 1;
        }
        assert!(quadrants.iter().all(|&c| c > 300), "{quadrants:?}");
    }

    #[test]
    fn clusters_concentrate_points() {
        let spec = ClusterSpec {
            clusters: 4,
            sigma: 0.01,
            ..Default::default()
        };
        let ds = gaussian_clusters(3, 1000, spec, 7).unwrap();
        ds.check_unit_domain().unwrap();
        // With sigma=0.01 nearly all points lie within 0.05 of some of the 4
        // centers; estimate centers by averaging nearest-of-4 assignment via
        // a crude check: count points whose nearest neighbour among a sample
        // is very close.
        let mut close = 0;
        for i in 0..200u32 {
            let p = ds.point(i);
            let near = ds
                .iter()
                .filter(|(j, _)| *j != i)
                .map(|(_, q)| {
                    p.iter()
                        .zip(q)
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum::<f64>()
                        .sqrt()
                })
                .fold(f64::INFINITY, f64::min);
            if near < 0.05 {
                close += 1;
            }
        }
        assert!(
            close > 180,
            "clustered data must have close neighbours, got {close}"
        );
    }

    #[test]
    fn zipf_skews_cluster_sizes() {
        let spec = ClusterSpec {
            clusters: 8,
            sigma: 1e-4,
            zipf_theta: 1.5,
            ..Default::default()
        };
        let ds = gaussian_clusters(2, 4000, spec, 11).unwrap();
        // With sigma tiny, points sit essentially on their centre: bucket by
        // rounded coordinates to recover cluster sizes.
        use std::collections::HashMap;
        let mut sizes: HashMap<(i64, i64), usize> = HashMap::new();
        for (_, p) in ds.iter() {
            let key = ((p[0] * 500.0) as i64, (p[1] * 500.0) as i64);
            *sizes.entry(key).or_default() += 1;
        }
        let mut counts: Vec<usize> = sizes.into_values().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        assert!(
            counts[0] > 4000 / 8 * 2,
            "largest cluster should dominate with theta=1.5: {counts:?}"
        );
    }

    #[test]
    fn noise_fraction_spreads_points() {
        let tight = ClusterSpec {
            clusters: 1,
            sigma: 1e-3,
            ..Default::default()
        };
        let noisy = ClusterSpec {
            noise_fraction: 0.5,
            ..tight
        };
        let a = gaussian_clusters(2, 500, tight, 5).unwrap();
        let b = gaussian_clusters(2, 500, noisy, 5).unwrap();
        let spread = |ds: &Dataset| {
            let mean: f64 = ds.iter().map(|(_, p)| p[0]).sum::<f64>() / ds.len() as f64;
            ds.iter().map(|(_, p)| (p[0] - mean).abs()).sum::<f64>() / ds.len() as f64
        };
        assert!(spread(&b) > spread(&a) * 5.0);
    }

    #[test]
    fn correlated_points_hug_the_diagonal() {
        let ds = correlated(6, 300, 0.02, 3).unwrap();
        ds.check_unit_domain().unwrap();
        for (_, p) in ds.iter() {
            let min = p.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = p.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            assert!(max - min <= 0.08 + 1e-9, "diagonal spread too wide: {p:?}");
        }
    }

    #[test]
    fn box_muller_has_sane_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut g = BoxMuller::default();
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| g.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }
}
