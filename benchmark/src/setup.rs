//! Set-up: make a workload's inputs from the seed, write them as the CSV
//! files the program reads, warm them, and compute the oracle.

use crate::digest::PairSet;
use crate::rng::SplitMix64;
use crate::spec::{Data, Profile, Workload, GEOMETRY_SEED};
use crate::Harness;
use hdsj_core::{Dataset, Metric};
use hdsj_data::{
    gaussian_clusters, io::save_csv, timeseries::fourier_dataset, uniform, ClusterSpec,
};
use std::path::PathBuf;

/// What a workload joins: in memory for the oracle and the in-process
/// probes, on disk for the program.
pub struct Inputs {
    pub a: Dataset,
    /// `Some` for a two-set join.
    pub b: Option<Dataset>,
    pub a_csv: PathBuf,
    pub b_csv: Option<PathBuf>,
    pub csv_bytes: u64,
}

impl Inputs {
    /// Pairs a join without any filter would test.
    pub fn all_pairs(&self) -> u64 {
        let n = self.a.len() as u64;
        match &self.b {
            Some(b) => n * b.len() as u64,
            None => n * n.saturating_sub(1) / 2,
        }
    }

    pub fn csv_paths(&self) -> impl Iterator<Item = &PathBuf> {
        std::iter::once(&self.a_csv).chain(&self.b_csv)
    }
}

/// The expected result of a workload's join.
pub struct Oracle {
    pub pairs: PairSet,
    pub seconds: f64,
}

fn err(e: hdsj_core::Error) -> String {
    e.to_string()
}

/// The datasets of `w` for `seed`: the same seed gives the same points.
pub fn generate(
    w: &Workload,
    seed: u64,
    profile: Profile,
) -> Result<(Dataset, Option<Dataset>), String> {
    match w.data {
        Data::Uniform { dims, n } => {
            Ok((uniform(dims, profile.scale(n), seed).map_err(err)?, None))
        }
        Data::Fourier {
            dims,
            n,
            series_len,
        } => {
            let ds = fourier_dataset(dims, profile.scale(n), series_len, seed).map_err(err)?;
            Ok((ds, None))
        }
        Data::ClusterSample {
            dims,
            population,
            per_side,
        } => {
            let (population, per_side) = (profile.scale(population), profile.scale(per_side));
            let pool =
                gaussian_clusters(dims, population, ClusterSpec::default(), GEOMETRY_SEED)
                    .map_err(err)?;
            // Partial Fisher–Yates: the first `2 × per_side` slots end up a
            // uniform sample of the population in uniform order.
            let mut ids: Vec<u32> = (0..population as u32).collect();
            let mut rng = SplitMix64(seed);
            let mut a = Dataset::with_capacity(dims, per_side).map_err(err)?;
            let mut b = Dataset::with_capacity(dims, per_side).map_err(err)?;
            for slot in 0..2 * per_side {
                let pick = slot + rng.below(population - slot);
                ids.swap(slot, pick);
                let side = if slot < per_side { &mut a } else { &mut b };
                side.push(pool.point(ids[slot])).map_err(err)?;
            }
            Ok((a, Some(b)))
        }
    }
}

impl Harness {
    /// One set-up pass: generate, write the CSVs, and read each once with
    /// an untimed-by-the-joins `hdsj info` so every join finds them cached.
    /// Returns the inputs and the pass's seconds.
    fn set_up_once(&mut self, w: &Workload) -> Result<(Inputs, f64), String> {
        let pass = self.trace.begin("setup", w.name);

        let step = self.trace.begin("setup.generate", w.name);
        let (a, b) = generate(w, self.seed, self.profile)?;
        self.trace.end(step);

        let step = self.trace.begin("setup.save_csv", w.name);
        let a_csv = self.work.join(format!("{}.a.csv", w.name));
        save_csv(&a, &a_csv).map_err(err)?;
        let b_csv = match &b {
            Some(b) => {
                let path = self.work.join(format!("{}.b.csv", w.name));
                save_csv(b, &path).map_err(err)?;
                Some(path)
            }
            None => None,
        };
        self.trace.end(step);

        let mut inputs = Inputs {
            a,
            b,
            a_csv,
            b_csv,
            csv_bytes: 0,
        };
        let step = self.trace.begin("setup.warm_up", w.name);
        for csv in inputs.csv_paths() {
            let args = ["info".to_string(), "--input".to_string(), path_arg(csv)?];
            let run = crate::proc::run(&self.hdsj, &args, &self.work)?;
            if !run.success() {
                return Err(format!(
                    "hdsj info {}: {}",
                    csv.display(),
                    run.stderr.trim()
                ));
            }
        }
        self.trace.end(step);
        let seconds = self.trace.end(pass);

        let mut csv_bytes = 0;
        for csv in inputs.csv_paths() {
            let meta = std::fs::metadata(csv).map_err(|e| format!("{}: {e}", csv.display()))?;
            csv_bytes += meta.len();
        }
        inputs.csv_bytes = csv_bytes;
        Ok((inputs, seconds))
    }

    /// Sets `w` up `repeats` times over (each pass rewrites the same files
    /// from the same seed), a calibrator run before each pass. Returns the
    /// inputs, every pass's seconds and every calibrator run's.
    pub fn set_up(
        &mut self,
        w: &Workload,
        repeats: usize,
    ) -> Result<(Inputs, Vec<f64>, Vec<f64>), String> {
        let (mut seconds, mut calibrator_s, mut inputs) = (Vec::new(), Vec::new(), None);
        for _ in 0..repeats {
            calibrator_s.push(self.calibrate_once(w.name)?);
            let (again, s) = self.set_up_once(w)?;
            seconds.push(s);
            inputs = Some(again);
        }
        let inputs = inputs.ok_or("set-up needs at least one pass")?;
        Ok((inputs, seconds, calibrator_s))
    }

    /// The expected pair set, by a plain nested loop over the scalar
    /// `Metric::within` (self-join: `i < j`; two-set: every `(a, b)`).
    /// Sharing no filter, index or batch kernel with the algorithms is the
    /// point. An oracle with no pairs would make every check pass
    /// vacuously, so it is an error.
    pub fn oracle(&mut self, w: &Workload, inputs: &Inputs) -> Result<Oracle, String> {
        let span = self.trace.begin("oracle", w.name);
        let mut pairs = PairSet::default();
        match &inputs.b {
            Some(b) => {
                for (i, p) in inputs.a.iter() {
                    for (j, q) in b.iter() {
                        if Metric::L2.within(p, q, w.eps) {
                            pairs.push(i, j);
                        }
                    }
                }
            }
            None => {
                let n = inputs.a.len() as u32;
                for i in 0..n {
                    let p = inputs.a.point(i);
                    for j in i + 1..n {
                        if Metric::L2.within(p, inputs.a.point(j), w.eps) {
                            pairs.push(i, j);
                        }
                    }
                }
            }
        }
        let seconds = self.trace.end(span);
        if pairs.count == 0 {
            return Err(format!(
                "{}: the oracle found no pair within eps = {}; a workload with an empty result checks nothing",
                w.name, w.eps
            ));
        }
        Ok(Oracle { pairs, seconds })
    }
}

pub fn path_arg(path: &std::path::Path) -> Result<String, String> {
    path.to_str()
        .map(str::to_string)
        .ok_or_else(|| format!("path {} is not UTF-8", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn the_same_seed_gives_the_same_inputs_and_another_seed_others() {
        for w in &WORKLOADS {
            let (a1, b1) = generate(w, 7, Profile::Quick).unwrap();
            let (a2, b2) = generate(w, 7, Profile::Quick).unwrap();
            let (a3, _) = generate(w, 8, Profile::Quick).unwrap();
            assert_eq!(a1, a2, "{}", w.name);
            assert_eq!(b1, b2, "{}", w.name);
            assert_ne!(a1, a3, "{}", w.name);
            assert_eq!(b1.is_some(), matches!(w.data, Data::ClusterSample { .. }));
            a1.check_unit_domain().unwrap();
        }
    }

    #[test]
    fn cluster_sample_sides_are_disjoint_draws_of_the_requested_size() {
        let w = crate::spec::workload("twoset_d8_dense").unwrap();
        let Data::ClusterSample { per_side, .. } = w.data else {
            panic!("twoset_d8_dense is a cluster sample");
        };
        let (a, b) = generate(w, 3, Profile::Quick).unwrap();
        let b = b.unwrap();
        assert_eq!((a.len(), b.len()), (per_side / 2, per_side / 2));
        // Continuous coordinates: a shared point would mean a shared id.
        let first_b = b.point(0);
        assert!(a.iter().all(|(_, p)| p != first_b));
    }
}
