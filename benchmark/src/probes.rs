//! In-process probes of single layers, on the workload's own data.
//!
//! They bind to these public symbols only, chosen because the roadmap does
//! not plan to change them: `hdsj_data::io::load_csv`,
//! `hdsj_core::{Dataset, Metric::within}`, `hdsj_sfc::Curve::key`,
//! `hdsj_msj::Msj::{default, effective_depth, level_histogram}`. Later
//! changes may not edit this package, so each signature bound here is one
//! they cannot change.

use crate::rng::SplitMix64;
use crate::setup::Inputs;
use crate::spec::{Profile, Workload, LOAD_CSV_REPEATS, PROBE_REPEATS, WITHIN_EVALS};
use crate::Harness;
use hdsj_core::Metric;
use hdsj_data::io::load_csv;
use hdsj_msj::Msj;
use hdsj_sfc::Curve;
use std::hint::black_box;

pub struct Probes {
    /// Seconds to parse the workload's CSVs (both files of a two-set join).
    pub load_csv_s: Vec<f64>,
    /// ns per scalar `Metric::within` at scattered `(i, j)`.
    pub within_scalar_ns: Vec<f64>,
    /// ns per Hilbert key at MSJ's depth for the workload's ε.
    pub hilbert_ns_per_key: Vec<f64>,
    /// Share of points MSJ assigns to level 0, the level it cannot prune.
    pub level0_share: f64,
}

impl Harness {
    pub fn probe(&mut self, w: &Workload, inputs: &Inputs) -> Result<Probes, String> {
        let profile = self.profile;
        let repeats = |n: usize| match profile {
            Profile::Full => n,
            Profile::Quick => 1,
        };
        let err = |e: hdsj_core::Error| e.to_string();

        let mut load_csv_s = Vec::new();
        for _ in 0..repeats(LOAD_CSV_REPEATS) {
            let span = self.trace.begin("probe.data.load_csv", w.name);
            for csv in inputs.csv_paths() {
                black_box(load_csv(csv).map_err(err)?);
            }
            load_csv_s.push(self.trace.end(span));
        }

        // The scattered-access scalar cost per evaluation: what a candidate
        // costs once a filter has picked it out of a sorted run.
        let other = inputs.b.as_ref().unwrap_or(&inputs.a);
        let mut rng = SplitMix64(self.seed);
        let picks: Vec<(u32, u32)> = (0..WITHIN_EVALS)
            .map(|_| {
                let i = rng.below(inputs.a.len()) as u32;
                (i, rng.below(other.len()) as u32)
            })
            .collect();
        let mut within_scalar_ns = Vec::new();
        for _ in 0..repeats(PROBE_REPEATS) {
            let span = self.trace.begin("probe.core.within", w.name);
            let mut hits = 0u64;
            for &(i, j) in &picks {
                hits += u64::from(Metric::L2.within(inputs.a.point(i), other.point(j), w.eps));
            }
            black_box(hits);
            within_scalar_ns.push(self.trace.end(span) * 1e9 / picks.len() as f64);
        }

        let msj = Msj::default();
        let bits = msj.effective_depth(w.eps);
        let cells = f64::from(1u32 << bits);
        let coords: Vec<u32> = inputs
            .a
            .flat()
            .iter()
            .map(|&x| (x * cells).floor().clamp(0.0, cells - 1.0) as u32)
            .collect();
        let mut hilbert_ns_per_key = Vec::new();
        for _ in 0..repeats(PROBE_REPEATS) {
            let span = self.trace.begin("probe.sfc.hilbert", w.name);
            for point in coords.chunks_exact(inputs.a.dims()) {
                black_box(Curve::Hilbert.key(black_box(point), bits));
            }
            hilbert_ns_per_key.push(self.trace.end(span) * 1e9 / inputs.a.len() as f64);
        }

        let span = self.trace.begin("probe.msj.level_histogram", w.name);
        let mut level0 = 0;
        let mut points = 0;
        for ds in std::iter::once(&inputs.a).chain(&inputs.b) {
            let hist = msj.level_histogram(ds, w.eps).map_err(err)?;
            level0 += hist.first().copied().unwrap_or(0);
            points += hist.iter().sum::<u64>();
        }
        self.trace.end(span);

        Ok(Probes {
            load_csv_s,
            within_scalar_ns,
            hilbert_ns_per_key,
            level0_share: level0 as f64 / points.max(1) as f64,
        })
    }
}
