//! End-to-end tests of the `hdsj` command-line tool: generate → info →
//! join round trips through real files and real process invocations.
// Panicking is idiomatic in test code; see clippy.toml.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::PathBuf;
use std::process::Command;

fn hdsj() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hdsj"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hdsj-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn generate_info_join_round_trip() {
    let csv = tmp("uniform.csv");
    let out = hdsj()
        .args(["generate", "--kind", "uniform", "--dims", "4", "--n", "500"])
        .args(["--seed", "9", "--out", csv.to_str().unwrap()])
        .output()
        .expect("run generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let info = hdsj()
        .args(["info", "--input", csv.to_str().unwrap()])
        .output()
        .expect("run info");
    let text = String::from_utf8_lossy(&info.stdout);
    assert!(text.contains("points : 500"), "{text}");
    assert!(text.contains("dims   : 4"), "{text}");
    assert!(text.contains("[0,1)^d"), "{text}");

    let pairs_path = tmp("pairs.csv");
    let join = hdsj()
        .args(["join", "--algo", "msj", "--eps", "0.2", "--metric", "l2"])
        .args([
            "--input",
            csv.to_str().unwrap(),
            "--out",
            pairs_path.to_str().unwrap(),
        ])
        .output()
        .expect("run join");
    assert!(
        join.status.success(),
        "{}",
        String::from_utf8_lossy(&join.stderr)
    );
    let stdout = String::from_utf8_lossy(&join.stdout);
    assert!(stdout.contains("algorithm : MSJ"), "{stdout}");
    assert!(stdout.contains("pairs"), "{stdout}");

    // The pair file parses and matches the reported count.
    let reported: u64 = stdout
        .lines()
        .find(|l| l.starts_with("pairs"))
        .and_then(|l| l.split(':').nth(1))
        .and_then(|v| v.trim().parse().ok())
        .expect("parse pair count");
    let lines = std::fs::read_to_string(&pairs_path).unwrap();
    assert_eq!(lines.lines().count() as u64, reported);
    for line in lines.lines().take(5) {
        let (i, j) = line.split_once(',').expect("i,j");
        let i: u32 = i.parse().unwrap();
        let j: u32 = j.parse().unwrap();
        assert!(i < j, "self-join pairs are canonical");
    }
}

#[test]
fn join_algorithms_agree_through_the_cli() {
    let csv = tmp("agree.csv");
    hdsj()
        .args([
            "generate", "--kind", "clusters", "--dims", "5", "--n", "400",
        ])
        .args(["--clusters", "6", "--sigma", "0.04", "--seed", "3"])
        .args(["--out", csv.to_str().unwrap()])
        .status()
        .expect("generate");
    let mut counts = Vec::new();
    for algo in ["bf", "sm1d", "grid", "ekdb", "rsj", "msj"] {
        let out = hdsj()
            .args(["join", "--algo", algo, "--eps", "0.08", "--quiet"])
            .args(["--input", csv.to_str().unwrap()])
            .output()
            .expect("join");
        assert!(out.status.success(), "{algo}");
        let text = String::from_utf8_lossy(&out.stdout);
        let n: u64 = text
            .lines()
            .find(|l| l.starts_with("pairs"))
            .and_then(|l| l.split(':').nth(1))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("{algo}: no pair count in {text}"));
        counts.push(n);
    }
    assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
}

#[test]
fn errors_exit_nonzero_with_message() {
    // Unknown command.
    let out = hdsj().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    // Missing threshold (neither --eps nor --target-pairs).
    let ok_csv = tmp("ok.csv");
    std::fs::write(&ok_csv, "0.1,0.2\n0.3,0.4\n").unwrap();
    let out = hdsj()
        .args(["join", "--algo", "msj", "--input", ok_csv.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--eps"));

    // Out-of-domain data gets the rescale hint.
    let bad = tmp("bad.csv");
    std::fs::write(&bad, "5.0,2.0\n1.0,9.0\n").unwrap();
    let out = hdsj()
        .args([
            "join",
            "--algo",
            "bf",
            "--eps",
            "0.1",
            "--input",
            bad.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("rescale"));
}

#[test]
fn two_set_join_via_cli() {
    let a = tmp("left.csv");
    let b = tmp("right.csv");
    for (path, seed) in [(&a, "1"), (&b, "2")] {
        hdsj()
            .args(["generate", "--kind", "uniform", "--dims", "3", "--n", "200"])
            .args(["--seed", seed, "--out", path.to_str().unwrap()])
            .status()
            .expect("generate");
    }
    let out = hdsj()
        .args(["join", "--algo", "rsj", "--eps", "0.15", "--quiet"])
        .args([
            "--input",
            a.to_str().unwrap(),
            "--other",
            b.to_str().unwrap(),
        ])
        .output()
        .expect("join");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("algorithm : RSJ"));
}

#[test]
fn stats_block_goes_to_stderr_unless_quiet() {
    let csv = tmp("stderr-stats.csv");
    hdsj()
        .args(["generate", "--kind", "uniform", "--dims", "4", "--n", "300"])
        .args(["--seed", "17", "--out", csv.to_str().unwrap()])
        .status()
        .expect("generate");

    let out = hdsj()
        .args(["join", "--algo", "msj", "--eps", "0.2"])
        .args(["--input", csv.to_str().unwrap()])
        .output()
        .expect("join");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stdout.contains("algorithm : MSJ"), "{stdout}");
    assert!(stdout.contains("pairs"), "{stdout}");
    for detail in ["candidates:", "time", "simd", "assign", "sort", "sweep"] {
        assert!(stderr.contains(detail), "stderr missing {detail}: {stderr}");
        assert!(
            !stdout.contains(detail),
            "{detail} leaked to stdout: {stdout}"
        );
    }

    let quiet = hdsj()
        .args(["join", "--algo", "msj", "--eps", "0.2", "--quiet"])
        .args(["--input", csv.to_str().unwrap()])
        .output()
        .expect("join quiet");
    assert!(quiet.status.success());
    let quiet_err = String::from_utf8_lossy(&quiet.stderr);
    assert!(
        !quiet_err.contains("candidates:"),
        "--quiet must suppress the stderr stats: {quiet_err}"
    );
}

#[test]
fn stats_json_emits_one_parseable_object() {
    let csv = tmp("stats-json.csv");
    hdsj()
        .args(["generate", "--kind", "uniform", "--dims", "4", "--n", "300"])
        .args(["--seed", "19", "--out", csv.to_str().unwrap()])
        .status()
        .expect("generate");
    let out = hdsj()
        .args(["join", "--algo", "msj", "--eps", "0.2", "--stats", "json"])
        .args(["--input", csv.to_str().unwrap()])
        .output()
        .expect("join");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let obj = hdsj::obs::json::parse(stdout.trim()).expect("valid JSON");
    assert_eq!(obj.get("algorithm").and_then(|v| v.as_str()), Some("MSJ"));
    assert!(obj.get("results").and_then(|v| v.as_u64()).is_some());
    let phases = obj.get("phases").expect("phases object");
    for phase in ["assign", "sort", "sweep"] {
        assert!(phases.get(phase).is_some(), "missing phase {phase}");
    }
    assert!(obj.get("io").and_then(|io| io.get("reads")).is_some());
    // The kernel tier that produced the numbers: the probed one by default,
    // and `HDSJ_SIMD=<name>` round-trips for every tier the host has.
    let supported = hdsj::core::simd::supported();
    let tier = obj.get("simd").and_then(|v| v.as_str()).expect("simd key");
    assert!(supported.iter().any(|l| l.name() == tier), "{tier}");
    for cap in supported.iter().map(|l| l.name()).chain(["off"]) {
        let out = hdsj()
            .env("HDSJ_SIMD", cap)
            .args(["join", "--algo", "msj", "--eps", "0.2", "--stats", "json"])
            .args(["--input", csv.to_str().unwrap()])
            .output()
            .expect("join");
        let capped = String::from_utf8(out.stdout).unwrap();
        let capped = hdsj::obs::json::parse(capped.trim()).expect("valid JSON");
        let want = if cap == "off" { "scalar" } else { cap };
        assert_eq!(capped.get("simd").and_then(|v| v.as_str()), Some(want));
        assert_eq!(capped.get("results"), obj.get("results"), "{cap}");
    }

    // The filter funnel needs no trace: the driver's named counters, which
    // account for every candidate.
    let counters = obj.get("counters").expect("counters object");
    let count = |name: &str| counters.get(name).and_then(|v| v.as_u64()).expect(name);
    assert_eq!(
        count("sweep.block_candidates") + count("sweep.pair_candidates"),
        obj.get("candidates").and_then(|v| v.as_u64()).unwrap()
    );
    assert_eq!(obj.get("eps").and_then(|v| v.as_f64()), Some(0.2));

    // A calibrated threshold is still one object on stdout: the value is a
    // key of it, the human-readable line goes to stderr.
    let out = hdsj()
        .args(["join", "--algo", "ekdb", "--target-pairs", "500"])
        .args(["--stats", "json", "--input", csv.to_str().unwrap()])
        .output()
        .expect("join");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout.trim().lines().count(), 1, "{stdout}");
    let obj = hdsj::obs::json::parse(stdout.trim()).expect("valid JSON");
    let eps = obj.get("eps").and_then(|v| v.as_f64()).expect("eps key");
    assert!(eps > 0.0 && eps < 1.0, "{eps}");
    assert!(obj
        .get("counters")
        .and_then(|c| c.get("leaf_pairs"))
        .is_some());
    assert!(String::from_utf8_lossy(&out.stderr).contains("calibrated eps"));
}

#[test]
fn mistyped_simd_cap_is_rejected_at_startup() {
    // A cap the probe cannot parse used to run the host's best tier
    // silently; now no command starts, and the message names the variable
    // and the spellings it takes.
    // `neon` named a tier no host ever ran; it is a typo like the rest.
    for bad in ["avx", "AVX-2", "of", "", "neon"] {
        let out = hdsj()
            .env("HDSJ_SIMD", bad)
            .args(["info", "--input", "/nonexistent.csv"])
            .output()
            .expect("info");
        assert_eq!(out.status.code(), Some(2), "HDSJ_SIMD={bad:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("HDSJ_SIMD"), "{err}");
        assert!(err.contains("avx512") && err.contains("off"), "{err}");
    }
    // The other variable read at startup: a thread count that is not one
    // used to run serial, silently.
    let out = hdsj()
        .env("HDSJ_THREADS", "four")
        .args(["info", "--input", "/nonexistent.csv"])
        .output()
        .expect("info");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("HDSJ_THREADS") && err.contains("four"),
        "{err}"
    );
    // Case and surrounding whitespace are still forgiven.
    let out = hdsj()
        .env("HDSJ_THREADS", " 2\n")
        .env("HDSJ_SIMD", " Off\n")
        .arg("help")
        .output()
        .expect("help");
    assert!(out.status.success());
}

#[test]
fn trace_file_has_nested_spans_and_pool_counters() {
    let csv = tmp("traced.csv");
    hdsj()
        .args(["generate", "--kind", "uniform", "--dims", "4", "--n", "500"])
        .args(["--seed", "23", "--out", csv.to_str().unwrap()])
        .status()
        .expect("generate");
    let trace_path = tmp("join.jsonl");
    let out = hdsj()
        .args(["join", "--algo", "msj", "--eps", "0.2", "--quiet"])
        .args(["--input", csv.to_str().unwrap()])
        .args(["--trace", trace_path.to_str().unwrap()])
        .output()
        .expect("join");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let text = std::fs::read_to_string(&trace_path).unwrap();
    let trace = hdsj::obs::report::Trace::parse(&text).expect("valid JSONL");
    let root = trace.span("msj.join").expect("root span");
    for phase in ["assign", "sort", "sweep"] {
        let span = trace.span(phase).unwrap_or_else(|| panic!("span {phase}"));
        assert_eq!(span.parent, Some(root.id), "{phase} nests under the root");
    }
    for counter in ["pool.reads", "pool.writes", "pool.hits", "pool.evictions"] {
        assert!(
            trace.counter(counter).is_some(),
            "missing counter {counter}: {:?}",
            trace.counters
        );
    }
    assert!(trace.counter("msj.results").is_some());

    // The reporter renders the same file as a phase tree.
    let report = hdsj()
        .args(["trace-report", trace_path.to_str().unwrap()])
        .output()
        .expect("trace-report");
    assert!(report.status.success());
    let rendered = String::from_utf8_lossy(&report.stdout);
    for needle in ["msj.join", "assign", "sort", "sweep", "pool.reads"] {
        assert!(
            rendered.contains(needle),
            "report missing {needle}:\n{rendered}"
        );
    }
}

#[test]
fn help_lists_commands() {
    let out = hdsj().arg("help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for cmd in ["generate", "join", "info"] {
        assert!(text.contains(cmd), "help is missing {cmd}");
    }
}

/// Exit codes distinguish the error families, and stderr names the
/// variant, so scripts can tell bad flags from bad disks.
#[test]
fn exit_codes_reflect_error_families() {
    // 2: invalid input (unknown command).
    let out = hdsj().arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("InvalidInput"));

    let csv = tmp("chaos.csv");
    hdsj()
        .args([
            "generate", "--kind", "uniform", "--dims", "8", "--n", "6000",
        ])
        .args(["--seed", "5", "--out", csv.to_str().unwrap()])
        .status()
        .expect("generate");
    let input = ["--input", csv.to_str().unwrap()];

    // 3: engine flags on an algorithm with no storage surface.
    let out = hdsj()
        .args(["join", "--algo", "bf", "--eps", "0.25", "--quiet"])
        .args(input)
        .args(["--inject-faults", "seed=1,read=0.1:transient"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stderr).contains("Unsupported"));

    // 4: a persistent storage fault aborts the join.
    let out = hdsj()
        .args(["join", "--algo", "msj", "--eps", "0.25", "--quiet"])
        .args(input)
        .args(["--inject-faults", "alloc@1=persistent"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("Storage"), "{stderr}");
    assert!(stderr.contains("injected persistent fault"), "{stderr}");

    // 5: corrupting writes are caught by the page checksum on re-read
    // (the 2-frame pool forces eviction and re-read of damaged pages).
    let out = hdsj()
        .args(["join", "--algo", "msj", "--eps", "0.25", "--quiet"])
        .args(input)
        .args(["--pool-pages", "2"])
        .args(["--inject-faults", "seed=3,write=1:corrupt"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(5));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("Corruption"), "{stderr}");
    assert!(stderr.contains("checksum"), "{stderr}");

    // 9: an already-expired deadline stops the join before any phase —
    // and the trace of the failed run is still written out.
    let trace_path = tmp("deadline.jsonl");
    let out = hdsj()
        .args(["join", "--algo", "msj", "--eps", "0.25", "--quiet"])
        .args(input)
        .args(["--deadline-ms", "0"])
        .args(["--trace", trace_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(9));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("DeadlineExceeded"), "{stderr}");
    let text = std::fs::read_to_string(&trace_path).unwrap();
    let trace = hdsj::obs::report::Trace::parse(&text).expect("valid JSONL");
    assert!(trace.span("msj.join").is_some(), "{text}");
    assert_eq!(trace.counter("msj.candidates"), Some(0), "{text}");
    assert!(trace.counter("lifecycle.cancel_polls") > Some(0), "{text}");
    assert!(text.contains(r#""error":"DeadlineExceeded""#), "{text}");

    // 10: a one-page memory budget cannot hold the level files.
    let out = hdsj()
        .args(["join", "--algo", "msj", "--eps", "0.25", "--quiet"])
        .args(input)
        .args(["--mem-budget-pages", "1"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(10));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("BudgetExhausted"), "{stderr}");
}

/// The acceptance schedule end to end: a transient fault plan that kills
/// the run fail-fast completes under --retries, with the recovery counted
/// in the stderr fault line.
#[test]
fn transient_faults_recover_with_retries_through_the_cli() {
    let csv = tmp("retry.csv");
    hdsj()
        .args([
            "generate", "--kind", "uniform", "--dims", "8", "--n", "6000",
        ])
        .args(["--seed", "5", "--out", csv.to_str().unwrap()])
        .status()
        .expect("generate");
    let base = [
        "join",
        "--algo",
        "msj",
        "--eps",
        "0.25",
        "--input",
        csv.to_str().unwrap(),
        "--pool-pages",
        "2",
        "--inject-faults",
        "seed=3,write=0.4:transient",
    ];

    // Without retries the schedule aborts with a storage-family code.
    let out = hdsj().args(base).arg("--quiet").output().unwrap();
    assert!(
        matches!(out.status.code(), Some(4) | Some(6)),
        "expected storage/io exit, got {:?}",
        out.status.code()
    );

    // With retries it completes; the fault line reports the recoveries.
    let out = hdsj().args(base).args(["--retries", "8"]).output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    let fault_line = stderr
        .lines()
        .find(|l| l.starts_with("faults"))
        .unwrap_or_else(|| panic!("no fault line in {stderr}"));
    assert!(fault_line.contains("retries"), "{fault_line}");
    assert!(!fault_line.contains(" 0 retries"), "{fault_line}");
}
