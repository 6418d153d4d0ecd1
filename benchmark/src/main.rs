//! `hdsj-benchmark` — the committed benchmark: CSV in → pairs out per
//! algorithm on four workloads, with per-layer attribution and a
//! correctness gate. See `README.md` beside this package.
//!
//! ```text
//! hdsj-benchmark [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--quick]
//! hdsj-benchmark --compare A.json B.json
//! ```
//!
//! Without `--workload` every workload runs; without `--trace` both passes
//! run (end to end with tracing off, then the layer pass). The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`.
#![forbid(unsafe_code)]

mod calibrate;
mod compare;
mod digest;
mod join;
mod json;
mod probes;
mod proc;
mod provenance;
mod report;
mod rng;
mod setup;
mod spec;
mod stats;
mod trace;

use json::Json;
use report::WorkloadReport;
use spec::{Profile, Workload, WORKLOADS};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// State shared by everything one invocation does.
pub struct Harness {
    /// The program under test: the real `hdsj` binary.
    pub hdsj: PathBuf,
    /// This executable, which `--calibrate` turns into the calibrator.
    pub this_exe: PathBuf,
    /// Where CSVs, pair files and child output go.
    pub work: PathBuf,
    pub seed: u64,
    /// How long one pass measures for.
    pub budget: Duration,
    pub profile: Profile,
    pub trace: trace::Trace,
}

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: u64,
    /// `Some(false)`: end-to-end pass only; `Some(true)`: layer pass only.
    trace: Option<bool>,
    profile: Profile,
}

const USAGE: &str =
    "usage: hdsj-benchmark [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--quick]
       hdsj-benchmark --compare A.json B.json";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS,
        trace: None,
        profile: Profile::Full,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            parsed.profile = Profile::Quick;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value:?}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                parsed.workload = Some(spec::workload(value).ok_or_else(|| {
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?,
            "--trace" => {
                parsed.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?}: expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(parsed)
}

/// The repository this package sits in: the harness is compiled in place,
/// so its manifest's parent is the checkout it measures.
fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
}

/// The target directory this executable was built into
/// (`<target>/<profile>/hdsj-benchmark`).
fn target_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    exe.parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .ok_or_else(|| format!("{} is not inside a target directory", exe.display()))
}

/// Builds the program under test from the checkout's sources into this
/// executable's own target directory and returns the binary. Cargo makes
/// this a no-op when it is already fresh.
fn build_hdsj(target: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = std::process::Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "hdsj",
        ])
        .arg("--manifest-path")
        .arg(repo_root().join("Cargo.toml"))
        .arg("--target-dir")
        .arg(target)
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building hdsj failed: {status}"));
    }
    let binary = target.join("release").join("hdsj");
    binary
        .is_file()
        .then_some(binary)
        .ok_or_else(|| "cargo build succeeded but left no release/hdsj".to_string())
}

/// The one JSON object of the last line. With one workload the metric names
/// are the declared ones; with several each is prefixed `workload:`.
fn last_line(reports: &[WorkloadReport], declared_only: bool) -> Json {
    let declared: Vec<String> = spec::end_to_end()
        .into_iter()
        .chain(spec::per_layer())
        .map(|m| m.name)
        .collect();
    let mut metrics = Vec::new();
    for report in reports {
        for m in report.end_to_end.iter().chain(&report.per_layer).flatten() {
            if declared_only && !declared.contains(&m.name) {
                continue;
            }
            let name = match reports.len() {
                1 => m.name.clone(),
                _ => format!("{}:{}", report.workload.name, m.name),
            };
            let value = m.value().map_or(Json::Null, Json::Num);
            metrics.push((
                name,
                Json::obj(vec![("value", value), ("unit", Json::str(m.unit))]),
            ));
        }
    }
    let failed: u64 = reports.iter().map(WorkloadReport::failed).sum();
    let attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    Json::obj(vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

fn write(path: &Path, doc: &Json) -> Result<(), String> {
    std::fs::write(path, doc.render_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

fn run(args: Args) -> Result<bool, String> {
    let target = target_dir()?;
    let out_dir = target.join("benchmark");
    let work = out_dir.join("work");
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;

    let mut trace = trace::Trace::new();
    let span = trace.begin("build", "");
    let hdsj = build_hdsj(&target)?;
    trace.end(span);
    let mut harness = Harness {
        hdsj,
        this_exe: std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?,
        work,
        seed: args.seed,
        budget: Duration::from_secs(args.seconds),
        profile: args.profile,
        trace,
    };

    if args.profile == Profile::Quick {
        println!(
            "QUICK PROFILE: n / 2 and one repetition. A smoke run; compare it with nothing."
        );
    }
    println!(
        "closed loop, one client, --threads 1; a time is the median of its k runs over the \
         machine's slowdown during the pass (calibrator: {} s nominal), with the raw median, \
         min and max beside it; k is too small for a tail percentile; seed {}, {} s per pass",
        calibrate::REFERENCE_S,
        args.seed,
        args.seconds
    );
    let workloads: Vec<&'static Workload> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let (end_to_end, layers) = match args.trace {
        None => (true, true),
        Some(layers) => (!layers, layers),
    };
    let mut reports = Vec::new();
    for w in workloads {
        let report = harness.run_workload(w, end_to_end, layers)?;
        print!("{}", report.render());
        reports.push(report);
    }

    // The driver's form: one workload, one pass.
    let driver_form = args.workload.is_some() && args.trace.is_some();
    if layers && !driver_form {
        println!("\nwhat each per-layer metric should move, and where:");
        for m in spec::per_layer() {
            println!("   {:<28} [{}] -> {}", m.name, m.unit, m.moves);
        }
    }

    let results = Json::obj(vec![
        ("schema", Json::Num(1.0)),
        ("profile", Json::str(args.profile.label())),
        ("comparable", Json::Bool(args.profile == Profile::Full)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds_per_pass", Json::Num(args.seconds as f64)),
        ("provenance", provenance::collect(repo_root())),
        (
            "workloads",
            Json::Obj(
                reports
                    .iter()
                    .map(|r| (r.workload.name.to_string(), r.to_json()))
                    .collect(),
            ),
        ),
    ]);
    write(&out_dir.join("results.json"), &results)?;
    write(&out_dir.join("trace.json"), &harness.trace.to_json())?;
    println!(
        "\nwrote {0}/results.json and {0}/trace.json",
        out_dir.display()
    );

    // The driver's form gets exactly the declared metrics on the last line;
    // anything else gets everything that was measured.
    let summary = last_line(&reports, driver_form);
    println!("{}", summary.render());
    Ok(summary.get("correct") == Some(&Json::Bool(true)))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("--compare") => match &args[1..] {
            [a, b] => compare::compare(Path::new(a), Path::new(b)).map(|text| {
                print!("{text}");
                true
            }),
            _ => Err(USAGE.to_string()),
        },
        // The calibrator child (see `calibrate`): the fixed job, nothing else.
        Some("--calibrate") => {
            calibrate::job();
            Ok(true)
        }
        Some("--help" | "-h") => {
            println!("{USAGE}");
            Ok(true)
        }
        _ => parse_args(&args)
            .map_err(|e| format!("{e}\n{USAGE}"))
            .and_then(run),
    };
    let code = match outcome {
        Ok(true) => 0,
        // Some output was wrong: the numbers above are not to be used.
        Ok(false) => 1,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    };
    std::process::exit(code);
}
