//! Fixture-driven rule tests: each rule has a `bad` fixture whose exact
//! diagnostics are pinned (rule, path, line, level) and a `good` fixture
//! that must come back clean. Fixtures live under `tests/fixtures/` and
//! are fed through [`Workspace::from_sources`], the same pipeline as a
//! real checkout minus the directory walk.
// Panicking is idiomatic in test code; see clippy.toml.
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
        fixture("r6_bad.rs", "r6_bad.rs"),
        fixture("r6_names.rs", "obs/src/names.rs"),
        // The lifecycle and durability rules key off workspace paths
        // (algorithm-crate scope, storage/manifest protocol scope), so
        // their fixtures mount at realistic crate paths.
        fixture("r10_bad.rs", "crates/msj/src/r10_bad.rs"),
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
        ("r6_bad.rs".into(), "counter_registry", 3, Level::Deny),
        ("r6_bad.rs".into(), "counter_registry", 4, Level::Deny),
    ];
    assert_eq!(got, want, "diagnostic set drifted");
}

#[test]
fn bad_fixture_messages_name_the_offence() {
    let ws = Workspace::from_sources(&[
        fixture("r6_bad.rs", "r6_bad.rs"),
        fixture("r6_names.rs", "obs/src/names.rs"),
    ]);
    let diags = ws.check();
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
        fixture("r6_good.rs", "r6_good.rs"),
        fixture("r6_names.rs", "obs/src/names.rs"),
        fixture("r10_good.rs", "crates/msj/src/r10_good.rs"),
        fixture("r12_good.rs", "crates/storage/src/manifest/r12_good.rs"),
    ]);
    let diags = ws.check();
    assert!(diags.is_empty(), "good fixtures must be clean:\n{diags:#?}");
}

#[test]
fn rule_filter_restricts_the_run() {
    let ws = Workspace::from_sources(&[
        fixture("r6_bad.rs", "r6_bad.rs"),
        fixture("r6_names.rs", "obs/src/names.rs"),
        fixture("r10_bad.rs", "crates/msj/src/r10_bad.rs"),
        fixture("r12_bad.rs", "crates/storage/src/manifest/r12_bad.rs"),
    ]);
    let filter = hdsj_analyze::rules::parse_filter("r10,durability_order").unwrap();
    let diags = ws.check_filtered(&filter);
    assert!(!diags.is_empty());
    assert!(
        diags
            .iter()
            .all(|d| d.rule == "lifecycle_poll" || d.rule == "durability_order"),
        "filter leaked other rules:\n{diags:#?}"
    );
    // The unfiltered run on the same sources does report R6.
    assert!(ws.check().iter().any(|d| d.rule == "counter_registry"));
    // Typos — and the ids of rules that left for clippy, runtime checks,
    // or for never having caught a defect — fail loudly rather than
    // silently checking nothing.
    for gone in [
        "r42", "r1", "r2", "r3", "r4", "r5", "r7", "r8", "r9", "r11", "r13", "r14", "r15",
    ] {
        assert!(hdsj_analyze::rules::parse_filter(gone).is_err(), "{gone}");
    }
    assert!(hdsj_analyze::rules::parse_filter("").is_err());
}

#[test]
fn rule_list_names_r6_r10_r12_under_their_ids() {
    let listing = hdsj_analyze::render_rule_list();
    for (id, name) in [
        ("r6", "counter_registry"),
        ("r10", "lifecycle_poll"),
        ("r12", "durability_order"),
    ] {
        let line = listing
            .lines()
            .find(|l| l.split_whitespace().next() == Some(id))
            .unwrap_or_else(|| panic!("rule {id} missing from listing:\n{listing}"));
        assert!(line.contains(name), "{line}");
        assert!(line.contains("deny"), "{line}");
    }
    assert_eq!(listing.lines().count(), 3);
}

#[test]
fn explain_renders_doc_example_and_suppression() {
    for key in ["r6", "lifecycle_poll", "hdsj::durability_order"] {
        let text =
            hdsj_analyze::render_explain(key).unwrap_or_else(|e| panic!("explain {key}: {e}"));
        assert!(text.contains("allow(hdsj::"), "{text}");
        assert!(text.contains("Example"), "{text}");
    }
    assert!(hdsj_analyze::render_explain("r42").is_err());
    assert!(hdsj_analyze::render_explain("r4").is_err());
}

#[test]
fn sarif_rendering_carries_rules_and_results() {
    let ws = Workspace::from_sources(&[
        fixture("r6_bad.rs", "r6_bad.rs"),
        fixture("r6_names.rs", "obs/src/names.rs"),
    ]);
    let report = hdsj_analyze::CheckReport {
        diagnostics: ws.check(),
    };
    let sarif = report.render_sarif();
    assert!(sarif.contains("\"version\":\"2.1.0\""), "{sarif}");
    assert!(
        sarif.contains("\"ruleId\":\"hdsj::counter_registry\""),
        "{sarif}"
    );
    assert!(sarif.contains("\"startLine\":3"), "{sarif}");
    assert!(sarif.contains("\"level\":\"error\""), "{sarif}");
    // Every rule in the catalog is declared in the driver section.
    assert!(
        sarif.contains("\"id\":\"hdsj::durability_order\""),
        "{sarif}"
    );
}

#[test]
fn diagnostics_render_as_path_line_level_rule() {
    let ws = Workspace::from_sources(&[
        fixture("r6_bad.rs", "r6_bad.rs"),
        fixture("r6_names.rs", "obs/src/names.rs"),
    ]);
    let diags = ws.check();
    assert_eq!(diags.len(), 2);
    let line = diags[0].to_string();
    assert!(
        line.starts_with("r6_bad.rs:3: deny[hdsj::counter_registry]"),
        "human rendering drifted: {line}"
    );
}
