//! The live-workspace self-check: running the full rule set over this
//! repository's own sources must produce zero deny-level findings. This is
//! the same gate CI applies via `cargo run -p hdsj-analyze -- check`; as a
//! test it fails the ordinary `cargo test` run too, so a patch cannot land
//! by skipping the analyze job.
// Panicking is idiomatic in test code; see clippy.toml.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::Path;

#[test]
fn live_workspace_has_zero_deny_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = hdsj_analyze::check_workspace(&root).expect("workspace must be readable");
    assert!(
        !report.failed(),
        "the workspace no longer passes its own static analysis:\n{}",
        report.render_human()
    );
}

#[test]
fn live_workspace_report_counts_are_consistent() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = hdsj_analyze::check_workspace(&root).expect("workspace must be readable");
    assert_eq!(
        report.denies() + report.warns(),
        report.diagnostics.len(),
        "every diagnostic is deny or warn"
    );
    // JSONL rendering emits exactly one line per diagnostic.
    assert_eq!(
        report.render_json().lines().count(),
        report.diagnostics.len()
    );
}
