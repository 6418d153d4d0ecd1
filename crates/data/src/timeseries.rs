//! The real-data surrogate: time series reduced to Fourier features.
//!
//! The paper's "real" workloads are feature vectors extracted from
//! proprietary time series (the standard pipeline of the era: keep the first
//! few DFT coefficients of each series, as in the time-series indexing
//! literature the paper builds on). Those datasets are not available, so
//! this module *builds the same pipeline on synthetic series*: seeded
//! random walks with optional seasonal structure, a direct DFT, and the
//! leading coefficients packed into a [`Dataset`]. The DFT reads its
//! `cos`/`sin` factors from a table computed once per dataset and sums
//! with time outer and frequency inner, so the inner loop vectorises while
//! each coefficient keeps the arithmetic, and the bits, of the textbook
//! double loop. The resulting points are strongly correlated with rapidly
//! decaying variance per dimension — exactly the structure that
//! distinguishes "real" from uniform workloads in the evaluation (see
//! `DESIGN.md` §5 for the substitution argument).

use hdsj_core::{Dataset, Result};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A random-walk series of `len` steps with standard-normal-ish increments.
pub fn random_walk(len: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut gauss = crate::synthetic::BoxMuller::default();
    let mut out = Vec::with_capacity(len);
    let mut level = 0.0;
    for _ in 0..len {
        level += gauss.sample(&mut rng);
        out.push(level);
    }
    out
}

/// A random walk plus a sinusoidal seasonal component of the given period
/// and amplitude.
pub fn seasonal(len: usize, period: usize, amplitude: f64, seed: u64) -> Vec<f64> {
    let base = random_walk(len, seed);
    base.iter()
        .enumerate()
        .map(|(t, &v)| {
            v + amplitude * (2.0 * std::f64::consts::PI * t as f64 / period as f64).sin()
        })
        .collect()
}

/// First `k` DFT coefficients (excluding the DC term) of `series`, returned
/// as `2k` interleaved `(re, im)` values, normalized by the series length.
///
/// A direct `O(len · k)` evaluation over a table of the `2k · len` twiddle
/// factors, each accumulator summing `x_t · cos` or `x_t · sin` in `t`
/// order — `k` is a handful, so an FFT would be overkill and would drag in
/// no end of machinery.
pub fn dft_coeffs(series: &[f64], k: usize) -> Vec<f64> {
    Twiddles::new(series.len(), 2 * k).coeffs(series)
}

/// The `cos` and `sin` of every DFT angle a series of `len` samples needs
/// for its first `width` interleaved `(re, im)` outputs, computed once and
/// shared by every series of that length.
///
/// Output `j` is the real (`j` even) or imaginary (`j` odd) part at
/// frequency `f = j / 2 + 1`; row `t` holds `cos` or `sin` of
/// `w_f · t` with `w_f = −2π·f / len`, the same expressions a per-series
/// loop would evaluate. Each output's accumulator then takes the same
/// `+= x_t · table` steps in the same `t` order as that loop, so the result
/// is bit-identical; only the loop nest is swapped (`t` outer, outputs
/// inner), which lets the inner loop vectorise across frequencies.
struct Twiddles {
    width: usize,
    n: f64,
    /// `len` rows of `width` entries, `t`-major.
    table: Vec<f64>,
}

impl Twiddles {
    fn new(len: usize, width: usize) -> Twiddles {
        let n = len.max(1) as f64;
        let mut table = Vec::with_capacity(len * width);
        for t in 0..len {
            for j in 0..width {
                let w = -2.0 * std::f64::consts::PI * (j / 2 + 1) as f64 / n;
                let angle = w * t as f64;
                table.push(if j % 2 == 0 { angle.cos() } else { angle.sin() });
            }
        }
        Twiddles { width, n, table }
    }

    /// The first `width` interleaved coefficients of `series`, which must
    /// have the table's length.
    fn coeffs(&self, series: &[f64]) -> Vec<f64> {
        let mut acc = vec![0.0; self.width];
        // A zero width has an empty table; `max(1)` only keeps
        // `chunks_exact` from panicking on it.
        let rows = self.table.chunks_exact(self.width.max(1));
        for (&x, row) in series.iter().zip(rows) {
            for (a, &c) in acc.iter_mut().zip(row) {
                *a += x * c;
            }
        }
        for a in acc.iter_mut() {
            *a /= self.n;
        }
        acc
    }
}

/// Builds a `dims`-dimensional dataset from `n` series of length
/// `series_len`: each point is the leading `ceil(dims/2)` DFT coefficients
/// of one series (truncated to `dims` values), jointly rescaled into
/// `[0,1)^dims`.
///
/// Mean-centring each series first removes the level of the walk so the
/// features capture *shape*, matching the similarity-search pipelines the
/// paper references. One twiddle table, computed up front, serves all `n`
/// series.
pub fn fourier_dataset(dims: usize, n: usize, series_len: usize, seed: u64) -> Result<Dataset> {
    let _span = crate::synthetic::gen_span("data.fourier_dataset", dims, n, seed);
    let twiddles = Twiddles::new(series_len, dims);
    let mut rows = Vec::with_capacity(n);
    for i in 0..n {
        let mut series = if i % 3 == 0 {
            seasonal(series_len, 16 + (i % 48), 3.0, seed.wrapping_add(i as u64))
        } else {
            random_walk(series_len, seed.wrapping_add(i as u64))
        };
        let mean = series.iter().sum::<f64>() / series.len().max(1) as f64;
        for v in series.iter_mut() {
            *v -= mean;
        }
        rows.push(twiddles.coeffs(&series));
    }
    let raw = Dataset::from_rows(&rows)?;
    Ok(raw.normalized())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_walk_is_deterministic() {
        assert_eq!(random_walk(100, 5), random_walk(100, 5));
        assert_ne!(random_walk(100, 5), random_walk(100, 6));
    }

    #[test]
    fn seasonal_adds_periodicity() {
        let plain = random_walk(256, 9);
        let season = seasonal(256, 32, 5.0, 9);
        let diff: Vec<f64> = season.iter().zip(&plain).map(|(a, b)| a - b).collect();
        // The injected component has period 32 and amplitude 5.
        for (t, d) in diff.iter().enumerate() {
            let want = 5.0 * (2.0 * std::f64::consts::PI * t as f64 / 32.0).sin();
            assert!((d - want).abs() < 1e-9);
        }
    }

    #[test]
    fn dft_recovers_a_pure_tone() {
        // x_t = cos(2π·3t/64): coefficient 3 has re ≈ 1/2, everything else ≈ 0.
        let n = 64;
        let series: Vec<f64> = (0..n)
            .map(|t| (2.0 * std::f64::consts::PI * 3.0 * t as f64 / n as f64).cos())
            .collect();
        let coeffs = dft_coeffs(&series, 5);
        for f in 1..=5usize {
            let (re, im) = (coeffs[2 * (f - 1)], coeffs[2 * (f - 1) + 1]);
            if f == 3 {
                assert!((re - 0.5).abs() < 1e-9, "re(3) = {re}");
                assert!(im.abs() < 1e-9);
            } else {
                assert!(re.abs() < 1e-9 && im.abs() < 1e-9, "f={f}: ({re}, {im})");
            }
        }
    }

    #[test]
    fn zero_width_dft_is_empty_not_a_panic() {
        assert!(dft_coeffs(&[1.0, 2.0], 0).is_empty());
        assert!(dft_coeffs(&[], 2).iter().all(|&c| c == 0.0));
        assert!(fourier_dataset(0, 3, 16, 1).is_err());
    }

    #[test]
    fn fourier_dataset_shape_and_domain() {
        for dims in [3usize, 8] {
            let ds = fourier_dataset(dims, 50, 128, 21).unwrap();
            assert_eq!(ds.dims(), dims);
            assert_eq!(ds.len(), 50);
            ds.check_unit_domain().unwrap();
        }
    }

    #[test]
    fn fourier_energy_concentrates_in_low_dims() {
        // Random-walk spectra decay with frequency: the variance of the
        // first feature dimension should dominate the last.
        let ds = fourier_dataset(8, 300, 256, 13).unwrap();
        let var = |dim: usize| {
            let mean: f64 = ds.iter().map(|(_, p)| p[dim]).sum::<f64>() / ds.len() as f64;
            ds.iter().map(|(_, p)| (p[dim] - mean).powi(2)).sum::<f64>() / ds.len() as f64
        };
        assert!(
            var(0) > 4.0 * var(7),
            "low-frequency variance must dominate: {} vs {}",
            var(0),
            var(7)
        );
    }
}
