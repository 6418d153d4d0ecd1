//! Sample bookkeeping: a metric is reported as the median of its `k` samples
//! with `k`, min and max stated. `k` is far too small for a tail percentile
//! (that needs ten samples beyond it), and the output says so.

use crate::json::Json;

/// Median, extremes and count of one metric's samples.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub k: usize,
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `samples` (mean of the two middle values when `k` is even).
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let mid = v.len() / 2;
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[mid]),
        _ => Some((v[mid - 1] + v[mid]) / 2.0),
    }
}

pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let v = sorted(samples);
    Some(Summary {
        k: v.len(),
        median: median(&v)?,
        min: *v.first()?,
        max: *v.last()?,
    })
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles Python's `statistics.quantiles(values, n=4)` gives
/// (its default, exclusive method) — the spread the benchmark's bounds are
/// judged against. Needs two samples.
pub fn quartile_spread(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    if v.len() < 2 {
        return None;
    }
    let m = v.len() + 1;
    let quartile = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let mid = median(&v)?;
    (mid != 0.0).then(|| (quartile(3) - quartile(1)) / mid.abs())
}

/// One reported metric: its unit, every raw sample and the number reported,
/// which is their median — for a duration, over the machine's slowdown.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    /// Raw samples, as measured.
    pub samples: Vec<f64>,
    /// A duration: `slowdown` applies to it.
    pub is_duration: bool,
    /// How much slower than the reference machine the machine ran while a
    /// duration was measured (`calibrate::slowdown`); 1 until it is known,
    /// and for everything that is not a duration.
    pub slowdown: f64,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, samples: Vec<f64>) -> Metric {
        Metric {
            name: name.into(),
            unit,
            samples,
            is_duration: false,
            slowdown: 1.0,
        }
    }

    /// A duration, which the pass's calibration will scale.
    pub fn time(name: impl Into<String>, unit: &'static str, samples: Vec<f64>) -> Metric {
        Metric {
            is_duration: true,
            ..Metric::new(name, unit, samples)
        }
    }

    /// The reported value: the median of the samples, in reference seconds
    /// when it is a duration.
    pub fn value(&self) -> Option<f64> {
        median(&self.samples).map(|m| m / self.slowdown)
    }

    /// `name value unit (k, raw median, min, max)` — the line the one
    /// command prints.
    pub fn render(&self) -> String {
        match (self.value(), summarize(&self.samples)) {
            // One sample: a number derived from other metrics' values.
            (Some(value), Some(s)) if s.k == 1 => {
                format!("{:<28} {:>14} {:<6}", self.name, short(value), self.unit)
            }
            (Some(value), Some(s)) => format!(
                "{:<28} {:>14} {:<6} median of k={} (raw: median {}, min {}, max {})",
                self.name,
                short(value),
                self.unit,
                s.k,
                short(s.median),
                short(s.min),
                short(s.max)
            ),
            _ => format!("{:<28} {:>14} {:<6} no samples", self.name, "-", self.unit),
        }
    }

    pub fn to_json(&self) -> Json {
        let s = summarize(&self.samples);
        let num = |f: fn(&Summary) -> f64| s.as_ref().map_or(Json::Null, |s| Json::Num(f(s)));
        Json::obj(vec![
            ("unit", Json::str(self.unit)),
            ("value", self.value().map_or(Json::Null, Json::Num)),
            ("machine_slowdown", Json::Num(self.slowdown)),
            ("median", num(|s| s.median)),
            ("min", num(|s| s.min)),
            ("max", num(|s| s.max)),
            ("k", Json::Num(self.samples.len() as f64)),
            ("samples", Json::nums(&self.samples)),
        ])
    }
}

/// Six significant digits for the table; the JSON keeps every digit.
fn short(v: f64) -> String {
    if v == 0.0 || (v.fract() == 0.0 && v.abs() < 1e15) {
        format!("{v}")
    } else {
        let digits = (5 - v.abs().log10().floor() as i32).clamp(0, 12) as usize;
        format!("{v:.digits$}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_min_max_bookkeeping() {
        assert_eq!(median(&[]), None);
        assert!(summarize(&[]).is_none());
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0]), Some(2.5));
        let s = summarize(&[5.0, 1.0, 9.0, 3.0, 7.0]).unwrap();
        assert_eq!(
            s,
            Summary {
                k: 5,
                median: 5.0,
                min: 1.0,
                max: 9.0
            }
        );
        let mut m = Metric::time("msj_e2e_s", "s", vec![2.0, 1.0, 4.0]);
        assert_eq!(m.value(), Some(2.0));
        // A machine running 1.25x slower than the reference: the same runs
        // are worth 1.6 reference seconds.
        m.slowdown = 1.25;
        assert_eq!(m.value(), Some(1.6));
        assert_eq!(Metric::time("t", "s", vec![]).value(), None);
        let line = m.render();
        assert!(
            line.contains("msj_e2e_s")
                && line.contains("median of k=3")
                && line.contains(" s ")
        );
        let json = m.to_json();
        assert_eq!(json.get("value").and_then(Json::as_f64), Some(1.6));
        assert_eq!(
            json.get("machine_slowdown").and_then(Json::as_f64),
            Some(1.25)
        );
        assert_eq!(json.get("median").and_then(Json::as_f64), Some(2.0));
        assert_eq!(
            json.get("samples")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(3)
        );
    }

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = quartile_spread(&v).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let spread = quartile_spread(&[2.0, 1.0]).unwrap();
        assert!((spread - (2.25 - 0.75) / 1.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[1.0]), None);
    }

    #[test]
    fn short_keeps_six_significant_digits() {
        assert_eq!(short(74.0), "74");
        assert_eq!(short(1.234_567_89), "1.23457");
        assert_eq!(short(0.000_123_456_789), "0.000123457");
        assert_eq!(short(123_456.789), "123457");
    }
}
