//! Pins the generators' output: an FNV-1a hash over the f64 bits of each
//! generator at a small n and fixed seeds. The experiment tables and the
//! benchmark's inputs are made by these functions, so any change to a
//! single coordinate of their output, however small, fails here.

use hdsj_core::Dataset;
use hdsj_data::{
    correlated, gaussian_clusters, timeseries::fourier_dataset, uniform, ClusterSpec,
};

/// FNV-1a over the dimension count, the point count and every coordinate's
/// bits, little-endian.
fn digest(ds: &Dataset) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let head = [ds.dims() as u64, ds.len() as u64];
    let bits = ds.flat().iter().map(|v| v.to_bits());
    for word in head.into_iter().chain(bits) {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn generator_output_is_pinned_bit_for_bit() {
    let cases: [(&str, Dataset, u64); 8] = [
        (
            "fourier_dataset(64, 60, 128, 1)",
            fourier_dataset(64, 60, 128, 1).unwrap(),
            0x7a7d_31c1_fb66_1506,
        ),
        (
            "fourier_dataset(16, 200, 256, 7)",
            fourier_dataset(16, 200, 256, 7).unwrap(),
            0xbab7_eba1_c193_3d2a,
        ),
        (
            "fourier_dataset(5, 90, 100, 3)",
            fourier_dataset(5, 90, 100, 3).unwrap(),
            0x7f95_4412_26b8_8205,
        ),
        (
            "uniform(16, 500, 1)",
            uniform(16, 500, 1).unwrap(),
            0x3080_1c6f_471d_7e7a,
        ),
        (
            "uniform(4, 1000, 2)",
            uniform(4, 1000, 2).unwrap(),
            0x4987_d386_dafa_589d,
        ),
        (
            "gaussian_clusters(8, 800, default, 3)",
            gaussian_clusters(8, 800, ClusterSpec::default(), 3).unwrap(),
            0x9b0e_19a4_42e4_fabc,
        ),
        (
            "gaussian_clusters(3, 400, zipf 1.2 noise 0.1, 4)",
            gaussian_clusters(
                3,
                400,
                ClusterSpec {
                    zipf_theta: 1.2,
                    noise_fraction: 0.1,
                    ..ClusterSpec::default()
                },
                4,
            )
            .unwrap(),
            0x2718_9c06_9b09_9bd2,
        ),
        (
            "correlated(6, 500, 0.05, 5)",
            correlated(6, 500, 0.05, 5).unwrap(),
            0x2d18_2be1_fef0_cd00,
        ),
    ];
    let got: Vec<String> = cases
        .iter()
        .map(|(name, ds, _)| format!("{name}: {:#018x}", digest(ds)))
        .collect();
    let want: Vec<String> = cases
        .iter()
        .map(|(name, _, pin)| format!("{name}: {pin:#018x}"))
        .collect();
    assert_eq!(got, want, "a generator's output changed");
}
