//! Fixture-driven rule tests: each rule has a `bad` fixture whose exact
//! diagnostics are pinned (rule, path, line, level) and a `good` fixture
//! that must come back clean. Fixtures live under `tests/fixtures/` and
//! are fed through [`Workspace::from_sources`], the same pipeline as a
//! real checkout minus the directory walk.
// Panicking is idiomatic in test code; see clippy.toml / analyzer policy.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use hdsj_analyze::{Level, Workspace};
use std::path::{Path, PathBuf};

/// Loads `tests/fixtures/<name>` and mounts it at `mount` in the fixture
/// workspace (the registry fixture is mounted at the real registry path).
fn fixture(name: &str, mount: &str) -> (PathBuf, String) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {name} unreadable: {e}"));
    (PathBuf::from(mount), text)
}

#[test]
fn bad_fixtures_produce_exactly_the_expected_diagnostics() {
    let ws = Workspace::from_sources(&[
        fixture("r3_bad.rs", "r3_bad.rs"),
        fixture("r4_bad.rs", "r4_bad.rs"),
        fixture("r4_cycle.rs", "r4_cycle.rs"),
        fixture("r5_bad.rs", "r5_bad.rs"),
        fixture("r6_bad.rs", "r6_bad.rs"),
        fixture("r6_names.rs", "obs/src/names.rs"),
        // The concurrency and lifecycle rules key off workspace paths
        // (per-crate atomic table, byte-deterministic module list,
        // crates/exec exemption, storage/manifest protocol scope), so
        // their fixtures mount at realistic crate paths. The r8 fixture
        // mounts under kernels — in R8's scope but outside R10's — so
        // its loops exercise exactly one rule.
        fixture("r7_bad.rs", "crates/exec/src/r7_bad.rs"),
        fixture("r8_bad.rs", "crates/core/src/kernels/r8_bad.rs"),
        // R8's scope includes `core::refine`; the same fixture remounts
        // there to pin it.
        fixture("r8_bad.rs", "crates/core/src/refine/r8_bad.rs"),
        fixture("r9_bad.rs", "crates/storage/src/r9_bad.rs"),
        fixture("r10_bad.rs", "crates/msj/src/r10_bad.rs"),
        fixture("r11_bad.rs", "crates/storage/src/r11_bad.rs"),
        fixture("r12_bad.rs", "crates/storage/src/manifest/r12_bad.rs"),
    ]);
    let got: Vec<(String, &str, u32, Level)> = ws
        .check()
        .into_iter()
        .map(|d| {
            (
                d.path.to_string_lossy().into_owned(),
                d.rule,
                d.line,
                d.level,
            )
        })
        .collect();
    let want: Vec<(String, &str, u32, Level)> = vec![
        (
            "crates/core/src/kernels/r8_bad.rs".into(),
            "determinism",
            2,
            Level::Deny,
        ),
        (
            "crates/core/src/kernels/r8_bad.rs".into(),
            "determinism",
            5,
            Level::Deny,
        ),
        (
            "crates/core/src/kernels/r8_bad.rs".into(),
            "determinism",
            6,
            Level::Deny,
        ),
        (
            "crates/core/src/kernels/r8_bad.rs".into(),
            "determinism",
            6,
            Level::Deny,
        ),
        (
            "crates/core/src/refine/r8_bad.rs".into(),
            "determinism",
            2,
            Level::Deny,
        ),
        (
            "crates/core/src/refine/r8_bad.rs".into(),
            "determinism",
            5,
            Level::Deny,
        ),
        (
            "crates/core/src/refine/r8_bad.rs".into(),
            "determinism",
            6,
            Level::Deny,
        ),
        (
            "crates/core/src/refine/r8_bad.rs".into(),
            "determinism",
            6,
            Level::Deny,
        ),
        (
            "crates/exec/src/r7_bad.rs".into(),
            "atomic_ordering",
            5,
            Level::Deny,
        ),
        (
            "crates/exec/src/r7_bad.rs".into(),
            "atomic_ordering",
            6,
            Level::Deny,
        ),
        (
            "crates/msj/src/r10_bad.rs".into(),
            "lifecycle_poll",
            5,
            Level::Deny,
        ),
        (
            "crates/msj/src/r10_bad.rs".into(),
            "lifecycle_poll",
            12,
            Level::Deny,
        ),
        (
            "crates/storage/src/manifest/r12_bad.rs".into(),
            "durability_order",
            19,
            Level::Deny,
        ),
        (
            "crates/storage/src/r11_bad.rs".into(),
            "budget_charge",
            9,
            Level::Deny,
        ),
        (
            "crates/storage/src/r9_bad.rs".into(),
            "exec_only",
            4,
            Level::Deny,
        ),
        (
            "crates/storage/src/r9_bad.rs".into(),
            "exec_only",
            5,
            Level::Deny,
        ),
        ("r3_bad.rs".into(), "pin_pairing", 4, Level::Deny),
        ("r3_bad.rs".into(), "pin_pairing", 7, Level::Deny),
        ("r4_bad.rs".into(), "lock_order", 4, Level::Deny),
        ("r4_cycle.rs".into(), "lock_order", 6, Level::Deny),
        ("r5_bad.rs".into(), "error_taxonomy", 4, Level::Deny),
        ("r6_bad.rs".into(), "counter_registry", 3, Level::Deny),
        ("r6_bad.rs".into(), "counter_registry", 4, Level::Deny),
    ];
    assert_eq!(got, want, "diagnostic set drifted");
}

#[test]
fn bad_fixture_messages_name_the_offence() {
    let ws = Workspace::from_sources(&[
        fixture("r5_bad.rs", "r5_bad.rs"),
        fixture("r6_bad.rs", "r6_bad.rs"),
        fixture("r6_names.rs", "obs/src/names.rs"),
    ]);
    let diags = ws.check();
    assert!(
        diags
            .iter()
            .any(|d| d.rule == "error_taxonomy" && d.message.contains("Error::Lost")),
        "{diags:?}"
    );
    assert!(
        diags
            .iter()
            .any(|d| d.rule == "counter_registry" && d.message.contains("pool.hit")),
        "{diags:?}"
    );
    assert!(
        diags
            .iter()
            .any(|d| d.rule == "counter_registry" && d.message.contains("pool.read_latency")),
        "{diags:?}"
    );
}

#[test]
fn good_fixtures_are_clean() {
    let ws = Workspace::from_sources(&[
        fixture("r3_good.rs", "r3_good.rs"),
        fixture("r4_good.rs", "r4_good.rs"),
        fixture("r5_good.rs", "r5_good.rs"),
        fixture("r6_good.rs", "r6_good.rs"),
        fixture("r6_names.rs", "obs/src/names.rs"),
        fixture("r7_good.rs", "crates/storage/src/r7_good.rs"),
        fixture("r8_good.rs", "crates/core/src/kernels/r8_good.rs"),
        fixture("r9_good.rs", "crates/storage/src/r9_good.rs"),
        fixture("r10_good.rs", "crates/msj/src/r10_good.rs"),
        fixture("r11_good.rs", "crates/storage/src/r11_good.rs"),
        fixture("r12_good.rs", "crates/storage/src/manifest/r12_good.rs"),
        fixture("r8_good.rs", "crates/core/src/refine/r8_good.rs"),
    ]);
    let diags = ws.check();
    assert!(diags.is_empty(), "good fixtures must be clean:\n{diags:#?}");
}

#[test]
fn rule_filter_restricts_the_run() {
    let ws = Workspace::from_sources(&[
        fixture("r3_bad.rs", "r3_bad.rs"),
        fixture("r7_bad.rs", "crates/exec/src/r7_bad.rs"),
        fixture("r8_bad.rs", "crates/msj/src/r8_bad.rs"),
    ]);
    let filter = hdsj_analyze::rules::parse_filter("r7,determinism").unwrap();
    let diags = ws.check_filtered(&filter);
    assert!(!diags.is_empty());
    assert!(
        diags
            .iter()
            .all(|d| d.rule == "atomic_ordering" || d.rule == "determinism"),
        "filter leaked other rules:\n{diags:#?}"
    );
    // The unfiltered run on the same sources does report R3.
    assert!(ws.check().iter().any(|d| d.rule == "pin_pairing"));
    // Typos — and the ids of rules that left for clippy or with the raw
    // loads they guarded — fail loudly rather than silently checking nothing.
    for gone in ["r42", "r1", "r2", "r13", "r14", "r15"] {
        assert!(hdsj_analyze::rules::parse_filter(gone).is_err(), "{gone}");
    }
    assert!(hdsj_analyze::rules::parse_filter("").is_err());
}

#[test]
fn rule_list_names_r3_to_r12_under_their_ids() {
    let listing = hdsj_analyze::render_rule_list();
    for (id, name) in [
        ("r3", "pin_pairing"),
        ("r4", "lock_order"),
        ("r5", "error_taxonomy"),
        ("r6", "counter_registry"),
        ("r7", "atomic_ordering"),
        ("r8", "determinism"),
        ("r9", "exec_only"),
        ("r10", "lifecycle_poll"),
        ("r11", "budget_charge"),
        ("r12", "durability_order"),
    ] {
        let line = listing
            .lines()
            .find(|l| l.split_whitespace().next() == Some(id))
            .unwrap_or_else(|| panic!("rule {id} missing from listing:\n{listing}"));
        assert!(line.contains(name), "{line}");
        assert!(line.contains("deny"), "{line}");
    }
    assert_eq!(listing.lines().count(), 10);
}

#[test]
fn explain_renders_doc_example_and_suppression() {
    for key in ["r4", "lifecycle_poll", "hdsj::budget_charge"] {
        let text =
            hdsj_analyze::render_explain(key).unwrap_or_else(|e| panic!("explain {key}: {e}"));
        assert!(text.contains("allow(hdsj::"), "{text}");
        assert!(text.contains("Example"), "{text}");
    }
    assert!(hdsj_analyze::render_explain("r42").is_err());
}

#[test]
fn sarif_rendering_carries_rules_and_results() {
    let ws = Workspace::from_sources(&[fixture("r3_bad.rs", "r3_bad.rs")]);
    let report = hdsj_analyze::CheckReport {
        diagnostics: ws.check(),
    };
    let sarif = report.render_sarif();
    assert!(sarif.contains("\"version\":\"2.1.0\""), "{sarif}");
    assert!(
        sarif.contains("\"ruleId\":\"hdsj::pin_pairing\""),
        "{sarif}"
    );
    assert!(sarif.contains("\"startLine\":4"), "{sarif}");
    assert!(sarif.contains("\"level\":\"error\""), "{sarif}");
    // Every rule in the catalog is declared in the driver section.
    assert!(
        sarif.contains("\"id\":\"hdsj::durability_order\""),
        "{sarif}"
    );
}

#[test]
fn diagnostics_render_as_path_line_level_rule() {
    let ws = Workspace::from_sources(&[fixture("r3_bad.rs", "r3_bad.rs")]);
    let diags = ws.check();
    assert_eq!(diags.len(), 2);
    let line = diags[0].to_string();
    assert!(
        line.starts_with("r3_bad.rs:4: deny[hdsj::pin_pairing]"),
        "human rendering drifted: {line}"
    );
}
