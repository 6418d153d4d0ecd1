//! Where and on what a result was measured; written into `results.json` so
//! two files can be told apart before they are compared.

use crate::json::Json;
use crate::spec;
use std::path::Path;
use std::process::Command;

fn first_line_of(program: &str, args: &[&str], cwd: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(cwd)
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    let line = text.lines().next()?.trim();
    (out.status.success() && !line.is_empty()).then(|| line.to_string())
}

/// `(model name, has flag…)` from the first processor of `/proc/cpuinfo`.
/// x86 lists `flags`, aarch64 `Features` (where NEON is `asimd`).
fn cpu(cpuinfo: &str) -> (String, [bool; 3]) {
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
    };
    let flags = field("flags")
        .or_else(|| field("Features"))
        .unwrap_or_default();
    let has = |flag: &str| flags.split_whitespace().any(|f| f == flag);
    (
        field("model name").unwrap_or_else(|| "unknown".into()),
        [has("sse2"), has("avx2"), has("neon") || has("asimd")],
    )
}

pub fn collect(repo: &Path) -> Json {
    let unknown = || "unknown".to_string();
    // A checkout need not be a git repository.
    let commit = first_line_of("git", &["rev-parse", "HEAD"], repo).unwrap_or_else(unknown);
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let rustc = first_line_of(&rustc, &["--version"], repo).unwrap_or_else(unknown);
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let (model, [sse2, avx2, neon]) =
        cpu(&std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default());
    Json::obj(vec![
        ("git_commit", Json::str(commit)),
        ("rustc", Json::str(rustc)),
        ("nproc", Json::Num(nproc as f64)),
        ("cpu_model", Json::str(model)),
        (
            "cpu_flags",
            Json::obj(vec![
                ("sse2", Json::Bool(sse2)),
                ("avx2", Json::Bool(avx2)),
                ("neon", Json::Bool(neon)),
            ]),
        ),
        (
            "calibrator_reference_s",
            Json::Num(crate::calibrate::REFERENCE_S),
        ),
        ("setup_repeats", Json::Num(spec::SETUP_REPEATS as f64)),
        ("load_csv_repeats", Json::Num(spec::LOAD_CSV_REPEATS as f64)),
        ("probe_repeats", Json::Num(spec::PROBE_REPEATS as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_model_and_flags_from_cpuinfo() {
        let x86 = "processor\t: 0\nmodel name\t: Intel(R) Xeon(R) Processor @ 2.10GHz\nflags\t\t: fpu sse sse2 avx avx2\n\nprocessor\t: 1\nmodel name\t: other\n";
        assert_eq!(
            cpu(x86),
            (
                "Intel(R) Xeon(R) Processor @ 2.10GHz".to_string(),
                [true, true, false]
            )
        );
        let arm = "processor\t: 0\nFeatures\t: fp asimd crc32\n";
        assert_eq!(cpu(arm), ("unknown".to_string(), [false, false, true]));
        // `sse2` must not match inside `ssse2x`.
        assert_eq!(cpu("flags : ssse2x").1, [false, false, false]);
    }

    #[test]
    fn collects_every_provenance_field() {
        let doc = collect(Path::new("."));
        for key in ["git_commit", "rustc", "nproc", "cpu_model", "cpu_flags"] {
            assert!(doc.get(key).is_some(), "{key}");
        }
        assert!(doc.at(&["cpu_flags", "avx2"]).is_some());
    }
}
