//! `--compare A.json B.json`: for every (workload, end-to-end metric) both
//! medians, their ratio with its base, and whether B is within the
//! benchmark's bound of A. The tool the "two sets of runs of one commit
//! agree" criterion is checked with.

use crate::json::Json;
use crate::spec;
use crate::stats::{quartile_spread, Metric};
use std::path::Path;

fn side(doc: &Json, workload: &str, metric: &str) -> Option<Metric> {
    let m = doc.at(&["workloads", workload, "end_to_end", metric])?;
    let samples = m
        .get("samples")?
        .as_arr()?
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    let mut rebuilt = Metric::new(metric, "", samples);
    rebuilt.slowdown = m.get("machine_slowdown")?.as_f64()?;
    Some(rebuilt)
}

/// `ok`, `beyond bound`, or `unresolved` when either side's median is not
/// pinned down to within the bound — unless every sample of B beats every
/// sample of A, which no spread can explain away. A median of `k` samples is
/// about `sqrt(k)` times steadier than the samples, so the yardstick is the
/// samples' quartile spread over `sqrt(k)`.
fn verdict(a: &Metric, b: &Metric, lower_is_better: bool, bound: f64) -> &'static str {
    let (Some(va), Some(vb)) = (a.value(), b.value()) else {
        return "unresolved";
    };
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let worse_by = sign * (vb - va) / va.abs();
    let spread = [a, b]
        .iter()
        .filter_map(|m| Some(quartile_spread(&m.samples)? / (m.samples.len() as f64).sqrt()))
        .fold(0.0, f64::max);
    let b_always_better = a.samples.iter().all(|&x| {
        let scaled = |y: &f64| sign * y / b.slowdown < sign * x / a.slowdown;
        b.samples.iter().all(scaled)
    });
    if spread > bound && !b_always_better {
        "unresolved"
    } else if worse_by > bound {
        "beyond bound"
    } else {
        "ok"
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn compare(a_path: &Path, b_path: &Path) -> Result<String, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut text = format!("A = {}\nB = {}\n", a_path.display(), b_path.display());
    for (label, doc) in [("A", &a), ("B", &b)] {
        if doc.get("comparable") != Some(&Json::Bool(true)) {
            text.push_str(&format!("WARNING: {label} is not a full-profile result; its numbers compare with nothing\n"));
        }
    }
    for key in ["seed", "seconds_per_pass"] {
        if a.get(key) != b.get(key) {
            text.push_str(&format!("WARNING: {key} differs between A and B\n"));
        }
    }
    text.push_str(&format!(
        "{:<16} {:<16} {:>12} {:>12} {:>9} {:>6}  verdict\n",
        "workload", "metric", "A", "B", "B/A", "bound"
    ));
    let mut rows = 0;
    for w in &spec::WORKLOADS {
        for m in spec::end_to_end() {
            let (Some(sa), Some(sb)) = (side(&a, w.name, &m.name), side(&b, w.name, &m.name))
            else {
                continue;
            };
            let bound = m.bound.unwrap_or(0.0);
            let (va, vb) = (
                sa.value().unwrap_or(f64::NAN),
                sb.value().unwrap_or(f64::NAN),
            );
            text.push_str(&format!(
                "{:<16} {:<16} {:>12.6} {:>12.6} {:>9.4} {:>6}  {}\n",
                w.name,
                m.name,
                va,
                vb,
                vb / va,
                bound,
                verdict(&sa, &sb, m.better == "lower", bound)
            ));
            rows += 1;
        }
    }
    if rows == 0 {
        return Err("the two files share no (workload, end-to-end metric) cell".into());
    }
    text.push_str(
        "A and B are the reported values (a time: its median in reference seconds); B/A has A as\n\
         its base; unresolved = a side's quartile spread / sqrt(k) is wider than the bound\n",
    );
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(samples: &[f64]) -> Metric {
        Metric::new("m", "", samples.to_vec())
    }

    #[test]
    fn verdicts() {
        let a = s(&[1.00, 1.01, 1.02]);
        assert_eq!(verdict(&a, &s(&[1.05, 1.06, 1.07]), true, 0.10), "ok");
        assert_eq!(
            verdict(&a, &s(&[1.20, 1.21, 1.22]), true, 0.10),
            "beyond bound"
        );
        // Faster is never beyond the bound, and higher-is-better flips it.
        assert_eq!(verdict(&a, &s(&[0.50, 0.51, 0.52]), true, 0.10), "ok");
        assert_eq!(
            verdict(&a, &s(&[0.50, 0.51, 0.52]), false, 0.10),
            "beyond bound"
        );
        // A side noisier than the bound resolves nothing …
        let noisy = s(&[0.9, 1.2, 1.6]);
        assert_eq!(verdict(&a, &noisy, true, 0.10), "unresolved");
        // … unless every run of B beats every run of A.
        assert_eq!(
            verdict(&s(&[2.0, 2.5, 3.1]), &s(&[1.0, 1.4, 1.9]), true, 0.10),
            "ok"
        );
        // One sample a side has no spread to speak of.
        assert_eq!(verdict(&s(&[1.0]), &s(&[1.3]), true, 0.25), "beyond bound");
        // A slower machine on B's side is not a slower program.
        let mut b = s(&[1.5, 1.52, 1.54]);
        assert_eq!(verdict(&a, &b, true, 0.10), "beyond bound");
        b.slowdown = 1.5;
        assert_eq!(verdict(&a, &b, true, 0.10), "ok");
        assert_eq!(verdict(&s(&[]), &s(&[1.0]), true, 0.10), "unresolved");
    }

    #[test]
    fn compares_two_result_files_cell_by_cell() {
        let dir =
            std::env::temp_dir().join(format!("hdsj-benchmark-cmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = |name: &str, msj: &[f64], comparable: bool| {
            let metric = Metric::time("msj_e2e_s", "s", msj.to_vec());
            let doc = Json::obj(vec![
                ("comparable", Json::Bool(comparable)),
                ("seed", Json::Num(1.0)),
                (
                    "workloads",
                    Json::obj(vec![(
                        "lowdim_d4",
                        Json::obj(vec![(
                            "end_to_end",
                            Json::obj(vec![("msj_e2e_s", metric.to_json())]),
                        )]),
                    )]),
                ),
            ]);
            let path = dir.join(name);
            std::fs::write(&path, doc.render_pretty()).unwrap();
            path
        };
        let a = file("a.json", &[1.0, 1.0, 1.0], true);
        let b = file("b.json", &[1.5, 1.5, 1.5], false);
        let text = compare(&a, &b).unwrap();
        let row = text.lines().find(|l| l.starts_with("lowdim_d4")).unwrap();
        assert!(
            row.contains("msj_e2e_s")
                && row.contains("1.5000")
                && row.ends_with("beyond bound")
        );
        assert!(text.contains("WARNING: B is not a full-profile result"));
        assert!(!text.contains("WARNING: A"));
        assert!(compare(&a, &dir.join("missing.json")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
