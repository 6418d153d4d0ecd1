//! # hdsj-analyze — workspace-wide static invariant checker
//!
//! Clippy's generic lints cannot see project rules: that obs metric
//! names match the registry, that input-sized loops reach a lifecycle
//! poll, that the manifest seals only after the data fsync. This crate is
//! a std-only diagnostics engine — hand-rolled lexer, light structural
//! parser, a workspace symbol table and conservative call graph
//! ([`symbols`], [`callgraph`]), three rules (R6, R10, R12) — that
//! enforces exactly those, with `file:line` output,
//! deny/warn levels, and comment-based suppression
//! (`// allow(hdsj::<rule>): why`). What clippy *can* see — panics in
//! library code, undocumented `unsafe` — is left to it
//! (`[workspace.lints.clippy]`).
//!
//! Entry points: `cargo run -p hdsj-analyze -- check` (CI gate) and
//! [`Workspace::check`] for tests. Rules are documented in [`rules`] and
//! DESIGN.md §10; the complementary *runtime* invariant layer is the
//! storage crate's `debug-invariants` feature.
#![forbid(unsafe_code)]

pub mod callgraph;
pub mod diag;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod symbols;
pub mod workspace;

pub use diag::{Diagnostic, Level};
pub use workspace::Workspace;

use std::path::Path;

/// Outcome of a check run, with the CLI's render helpers.
pub struct CheckReport {
    pub diagnostics: Vec<Diagnostic>,
}

impl CheckReport {
    pub fn denies(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.level == Level::Deny)
            .count()
    }

    pub fn warns(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.level == Level::Warn)
            .count()
    }

    /// True when the check should fail (any deny-level finding).
    pub fn failed(&self) -> bool {
        self.denies() > 0
    }

    /// Human-readable rendering: one line per finding plus a summary.
    pub fn render_human(&self) -> String {
        let mut s = String::new();
        for d in &self.diagnostics {
            s.push_str(&d.to_string());
            s.push('\n');
        }
        s.push_str(&format!(
            "hdsj-analyze: {} deny, {} warn\n",
            self.denies(),
            self.warns()
        ));
        s
    }

    /// JSONL rendering (one object per finding).
    pub fn render_json(&self) -> String {
        let mut s = String::new();
        for d in &self.diagnostics {
            s.push_str(&d.to_json());
            s.push('\n');
        }
        s
    }

    /// SARIF 2.1.0 rendering — the minimal subset code-review UIs ingest:
    /// one run, a driver with the rule catalog, one result per finding.
    /// String escaping reuses the repo's `{:?}` idiom from `Diagnostic::to_json`.
    pub fn render_sarif(&self) -> String {
        let mut s = String::new();
        s.push_str("{\"version\":\"2.1.0\",\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\"runs\":[{\"tool\":{\"driver\":{\"name\":\"hdsj-analyze\",\"rules\":[");
        for (i, r) in rules::RULES.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"id\":{:?},\"name\":{:?},\"shortDescription\":{{\"text\":{:?}}}}}",
                format!("hdsj::{}", r.name),
                r.name,
                r.summary
            ));
        }
        s.push_str("]}},\"results\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let level = match d.level {
                Level::Deny => "error",
                Level::Warn => "warning",
            };
            s.push_str(&format!(
                "{{\"ruleId\":{:?},\"level\":{:?},\"message\":{{\"text\":{:?}}},\"locations\":[{{\"physicalLocation\":{{\"artifactLocation\":{{\"uri\":{:?}}},\"region\":{{\"startLine\":{}}}}}}}]}}",
                format!("hdsj::{}", d.rule),
                level,
                d.message,
                d.path.to_string_lossy(),
                d.line
            ));
        }
        s.push_str("]}]}\n");
        s
    }
}

/// Checks the workspace rooted at `root`.
pub fn check_workspace(root: &Path) -> std::io::Result<CheckReport> {
    let ws = Workspace::load(root)?;
    Ok(CheckReport {
        diagnostics: ws.check(),
    })
}

/// Checks the workspace rooted at `root`, running only the rules named in
/// `filter` (a `--rules` spec like `"r6,r10"`; ids or names).
pub fn check_workspace_filtered(root: &Path, filter: &str) -> Result<CheckReport, String> {
    let set = rules::parse_filter(filter)?;
    let ws = Workspace::load(root).map_err(|e| e.to_string())?;
    Ok(CheckReport {
        diagnostics: ws.check_filtered(&set),
    })
}

/// Long-form documentation for one rule (for `explain <rule>`): the
/// rationale, a fixture excerpt that trips it, and the suppression syntax.
pub fn render_explain(rule: &str) -> Result<String, String> {
    let key = rule.trim().to_ascii_lowercase();
    let Some(r) = rules::RULES
        .iter()
        .find(|r| r.id == key || r.name == key || format!("hdsj::{}", r.name) == key)
    else {
        let known = rules::RULES
            .iter()
            .map(|r| r.id)
            .collect::<Vec<_>>()
            .join(", ");
        return Err(format!("unknown rule {rule:?}; known: {known}"));
    };
    let mut s = String::new();
    s.push_str(&format!("{} hdsj::{} ({})\n\n", r.id, r.name, r.level));
    s.push_str(r.doc.trim_end());
    s.push_str("\n\nExample (from the rule's fixture; every line marked here is denied):\n\n");
    for line in r.example.trim_end().lines() {
        s.push_str("    ");
        s.push_str(line);
        s.push('\n');
    }
    s.push_str(&format!(
        "\nSuppress a finding with a justified comment on or just above the line:\n\n    // allow(hdsj::{}): <reason>\n",
        r.name
    ));
    Ok(s)
}

/// One line per rule: `id  level      name — summary` (for `--list-rules`).
pub fn render_rule_list() -> String {
    let mut s = String::new();
    for r in rules::RULES {
        s.push_str(&format!(
            "{:<4} {:<10} {:<17} {}\n",
            r.id,
            r.level,
            r.name,
            r.summary.split_whitespace().collect::<Vec<_>>().join(" ")
        ));
    }
    s
}
