//! Kill-and-restart chaos harness: real `hdsj` child processes are killed
//! mid-join — by seeded crash faults (SIGABRT at a named checkpoint) and
//! by a bare SIGKILL — then resumed from their manifest, and the resumed
//! output must be byte-identical to an uninterrupted run.
//!
//! This is the cross-process end of the recovery test pyramid: the
//! in-process halt-injection property tests (`hdsj-storage::sort`,
//! `hdsj-msj`) cover many more crash points and seeds cheaply; this file
//! proves the same guarantees survive an actual process death, where no
//! destructor runs and the manifest tail may be torn.
// Panicking is idiomatic in test code; see clippy.toml.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::{Path, PathBuf};
use std::process::Command;

fn hdsj() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hdsj"))
}

fn work_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hdsj-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn generate(csv: &Path, n: usize, seed: u64) {
    let out = hdsj()
        .args(["generate", "--kind", "uniform", "--dims", "8"])
        .args(["--n", &n.to_string(), "--seed", &seed.to_string()])
        .args(["--out", csv.to_str().unwrap()])
        .output()
        .expect("generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// One `hdsj join --algo msj` invocation; `resume` checkpoints to that
/// manifest, `faults` arms the crash plan. Returns the raw process output.
fn join(
    csv: &Path,
    out: &Path,
    resume: Option<&Path>,
    faults: Option<&str>,
) -> std::process::Output {
    let mut cmd = hdsj();
    cmd.args(["join", "--algo", "msj", "--eps", "0.25", "--quiet"])
        .args(["--input", csv.to_str().unwrap()])
        .args(["--out", out.to_str().unwrap()])
        .args(["--pool-pages", "128"])
        // Force multi-run external sorts so run/merge checkpoints fire
        // several times even on a 6k-record input.
        .args(["--sort-mem-records", "1000"]);
    if let Some(manifest) = resume {
        cmd.args(["--resume", manifest.to_str().unwrap()]);
    }
    if let Some(spec) = faults {
        cmd.args(["--inject-faults", spec]);
    }
    cmd.output().expect("join")
}

fn assert_completed(out: &std::process::Output) {
    assert!(
        out.status.success(),
        "join failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The crashed child must die from the abort, not exit cleanly.
fn assert_died(out: &std::process::Output, what: &str) {
    assert!(
        !out.status.success(),
        "{what}: expected the child to die, but it completed"
    );
    assert_ne!(out.status.code(), Some(0), "{what}");
}

/// Crash a child at each durable checkpoint in turn, resume, and require
/// the resumed pair file to match an uninterrupted run byte for byte.
#[test]
fn crash_at_every_checkpoint_then_resume_is_byte_identical() {
    let dir = work_dir("points");
    let csv = dir.join("pts.csv");
    generate(&csv, 6000, 5);

    let fresh = dir.join("fresh.csv");
    assert_completed(&join(&csv, &fresh, None, None));
    let fresh_bytes = std::fs::read(&fresh).unwrap();
    assert!(!fresh_bytes.is_empty(), "fresh run found no pairs");

    for (i, point) in [
        "msj.assign_sealed@1",
        "sort.run_sealed@1",
        "sort.run_sealed@3",
        "sort.merge_sealed@1",
        "msj.sort_sealed@1",
    ]
    .iter()
    .enumerate()
    {
        let manifest = dir.join(format!("crash{i}.manifest"));
        let out_path = dir.join(format!("crash{i}.csv"));
        let crashed = join(
            &csv,
            &out_path,
            Some(&manifest),
            Some(&format!("crash={point}")),
        );
        assert_died(&crashed, point);
        assert!(
            manifest.exists(),
            "{point}: crash fired before the manifest was created"
        );

        let resumed = join(&csv, &out_path, Some(&manifest), None);
        assert_completed(&resumed);
        assert_eq!(
            std::fs::read(&out_path).unwrap(),
            fresh_bytes,
            "{point}: resumed output differs from the uninterrupted run"
        );
    }
}

/// Repeated crashes — each resume dies at the next checkpoint of the same
/// name — must still converge to the uninterrupted result.
#[test]
fn repeated_crashes_converge() {
    let dir = work_dir("repeat");
    let csv = dir.join("pts.csv");
    generate(&csv, 6000, 7);

    let fresh = dir.join("fresh.csv");
    assert_completed(&join(&csv, &fresh, None, None));

    let manifest = dir.join("join.manifest");
    let out_path = dir.join("resumed.csv");
    let mut deaths = 0;
    for attempt in 0..10 {
        let out = join(
            &csv,
            &out_path,
            Some(&manifest),
            Some("crash=sort.run_sealed@1"),
        );
        if out.status.success() {
            // All runs were already sealed; the crash point never fired.
            assert!(attempt > 0, "first attempt cannot have every run sealed");
            break;
        }
        deaths += 1;
        assert!(attempt < 9, "join never converged after {deaths} crashes");
    }
    assert!(deaths >= 2, "expected several crashes, got {deaths}");
    assert_eq!(
        std::fs::read(&out_path).unwrap(),
        std::fs::read(&fresh).unwrap(),
        "converged output differs from the uninterrupted run"
    );
}

/// A bare SIGKILL — no abort handler, no destructors, mid-write tail —
/// is recovered by manifest replay exactly like a seeded crash.
#[test]
fn sigkill_mid_join_then_resume_is_byte_identical() {
    let dir = work_dir("sigkill");
    let csv = dir.join("pts.csv");
    // Large enough that the child is reliably still joining when killed.
    generate(&csv, 20_000, 11);

    let fresh = dir.join("fresh.csv");
    assert_completed(&join(&csv, &fresh, None, None));

    let manifest = dir.join("join.manifest");
    let out_path = dir.join("resumed.csv");
    let mut child = hdsj()
        .args(["join", "--algo", "msj", "--eps", "0.25", "--quiet"])
        .args(["--input", csv.to_str().unwrap()])
        .args(["--out", out_path.to_str().unwrap()])
        .args(["--pool-pages", "128"])
        .args(["--sort-mem-records", "1000"])
        .args(["--resume", manifest.to_str().unwrap()])
        .spawn()
        .expect("spawn join");
    std::thread::sleep(std::time::Duration::from_millis(150));
    child.kill().expect("SIGKILL");
    child.wait().expect("reap");

    let resumed = join(&csv, &out_path, Some(&manifest), None);
    assert_completed(&resumed);
    assert_eq!(
        std::fs::read(&out_path).unwrap(),
        std::fs::read(&fresh).unwrap(),
        "post-SIGKILL resume differs from the uninterrupted run"
    );

    // The manifest + page file stay mutually consistent after success: a
    // further resumed run replays them cleanly and agrees again.
    let again = join(&csv, &out_path, Some(&manifest), None);
    assert_completed(&again);
    assert_eq!(
        std::fs::read(&out_path).unwrap(),
        std::fs::read(&fresh).unwrap()
    );
}

/// A manifest written for one query must refuse to resume a different one
/// instead of silently mixing checkpoints.
#[test]
fn resume_with_changed_parameters_is_rejected() {
    let dir = work_dir("fingerprint");
    let csv = dir.join("pts.csv");
    generate(&csv, 2000, 3);

    let manifest = dir.join("join.manifest");
    let out_path = dir.join("out.csv");
    assert_completed(&join(&csv, &out_path, Some(&manifest), None));

    let mut cmd = hdsj();
    cmd.args(["join", "--algo", "msj", "--eps", "0.30", "--quiet"])
        .args(["--input", csv.to_str().unwrap()])
        .args(["--resume", manifest.to_str().unwrap()]);
    let out = cmd.output().expect("join");
    assert_eq!(
        out.status.code(),
        Some(2),
        "fingerprint mismatch is InvalidInput"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("different join"), "{stderr}");
}
