//! # hdsj-data — workload generators for the evaluation
//!
//! Everything the experiment harness joins comes from here:
//!
//! * [`uniform`] — i.i.d. uniform points in `[0,1)^d`, the baseline
//!   synthetic workload;
//! * [`gaussian_clusters`] — Gaussian clusters with optional Zipf-skewed
//!   cluster sizes and background noise, the "skewed / clustered" workload
//!   (experiment E6);
//! * [`correlated`] — points concentrated around the main diagonal,
//!   modelling strongly correlated attributes;
//! * [`timeseries`] — the real-data surrogate (see `DESIGN.md` §5): seeded
//!   random-walk / seasonal series reduced to their leading DFT
//!   coefficients, reproducing the correlated, energy-concentrated feature
//!   vectors the paper's real datasets consist of (experiment E7);
//! * [`analytic`] — closed-form selectivity helpers used to pick ε values
//!   that keep the expected result size constant across dimensionalities
//!   (experiment E1).
//!
//! All generators are deterministic in their `seed` so every experiment is
//! reproducible bit-for-bit.
#![forbid(unsafe_code)]

pub mod analytic;
pub mod histograms;
pub mod io;
pub mod synthetic;
pub mod timeseries;
pub mod util;

pub use histograms::{color_histograms, HistogramSpec};
pub use synthetic::{correlated, gaussian_clusters, lattice_stripes, uniform, ClusterSpec};
pub use util::{concat, eps_for_target_pairs, estimate_self_join_size, sample, split};

#[cfg(test)]
mod tests {
    #[test]
    fn reexports_work() {
        let ds = super::uniform(3, 10, 1).unwrap();
        assert_eq!((ds.dims(), ds.len()), (3, 10));
    }

    #[test]
    fn generators_record_spans_on_the_global_tracer() {
        use hdsj_core::obs;
        let (tracer, events) = obs::Tracer::memory();
        obs::set_global(tracer);
        let _ = super::uniform(3, 50, 9);
        let _ = super::gaussian_clusters(3, 40, super::ClusterSpec::default(), 9);
        obs::set_global(obs::Tracer::disabled());
        let spans = events.spans();
        for name in ["data.uniform", "data.gaussian_clusters"] {
            let span = spans.iter().find(|s| s.name == name).expect(name);
            assert!(span.attrs.iter().any(|(k, _)| k == "seed"));
        }
        // Generators after the reset stay untraced.
        let before = events.spans().len();
        let _ = super::uniform(2, 10, 1);
        assert_eq!(events.spans().len(), before);
    }
}
