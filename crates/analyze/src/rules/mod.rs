//! The project rule set. One module per rule; `run_all` wires the
//! per-file rule, the cross-file context (counter registry), and the
//! two-pass analysis (symbol table + call graph) that the
//! interprocedural rules consume.
//!
//! | rule | name | scope | default |
//! |------|-----------------------|----------------------------------|---------|
//! | R6   | `counter_registry`    | per file + registry              | deny    |
//! | R10  | `lifecycle_poll`      | algorithm/exec/storage loops + call graph | deny |
//! | R12  | `durability_order`    | storage::manifest sealing fns     | deny   |
//!
//! Ids are stable names (CI filters and suppressions cite them), which is
//! why they are not renumbered: R3–R5, R7–R9 and R11 became runtime
//! checks or clippy lints, or were dropped for never having caught a
//! defect (DESIGN §10 keeps the ledger).
//!
//! Suppression: a comment containing `allow(hdsj::<rule>)` on the same
//! line or up to two lines above the flagged line silences that rule
//! there. Always pair the suppression with a justification.

pub mod r10_lifecycle_poll;
pub mod r12_durability_order;
pub mod r6_counter_registry;

use crate::callgraph::CallGraph;
use crate::diag::Diagnostic;
use crate::parse::FileModel;
use crate::symbols::SymbolTable;
use std::collections::BTreeSet;

/// Pass-1 output shared by the interprocedural rules: the parsed files,
/// the workspace symbol table, and the conservative call graph. Built once
/// per run; rules must not mutate it.
pub struct Analysis<'a> {
    pub files: &'a [FileModel],
    pub symbols: SymbolTable,
    pub graph: CallGraph,
}

impl<'a> Analysis<'a> {
    /// Runs pass 1 over `files`.
    pub fn build(files: &'a [FileModel]) -> Analysis<'a> {
        let symbols = SymbolTable::build(files);
        let graph = CallGraph::build(files, &symbols);
        Analysis {
            files,
            symbols,
            graph,
        }
    }
}

/// Static metadata for one rule, for `--list-rules`, `--rules` filters,
/// and `explain <rule>`.
pub struct RuleInfo {
    /// Short id (`"r10"`), accepted by filters.
    pub id: &'static str,
    /// Rule name (`"lifecycle_poll"`), also accepted by filters.
    pub name: &'static str,
    /// Worst level the rule emits.
    pub level: &'static str,
    /// One-line description.
    pub summary: &'static str,
    /// Multi-line rationale and semantics, printed by `explain`.
    pub doc: &'static str,
    /// A fixture that trips the rule, printed by `explain`.
    pub example: &'static str,
}

/// Every rule the checker knows, in id order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "r6",
        name: r6_counter_registry::RULE,
        level: "deny",
        summary: "literal counter/gauge names must appear in obs/src/names.rs",
        doc: "Metric names are a cross-cutting contract (dashboards, \
              tests, docs grep for them), so every literal counter/gauge \
              name must be declared in the obs registry before use.",
        example: include_str!("../../tests/fixtures/r6_bad.rs"),
    },
    RuleInfo {
        id: "r10",
        name: r10_lifecycle_poll::RULE,
        level: "deny",
        summary: "input-sized loops in algorithm/exec/storage crates must reach a \
                  lifecycle poll()",
        doc: "A loop whose trip count scales with the input and never \
              reaches `poll()` makes the query uncancelable: no cancel \
              flag, deadline, or budget can fire inside it. The rule \
              checks every outermost input-sized loop (literal and \
              ALL_CAPS-const bounds are exempt) in the algorithm, exec, \
              and storage-sort crates; a poll satisfies it either \
              directly in the body or transitively through any called \
              function (the buffer pool polls on every disk op, so \
              I/O-doing loops pass automatically).",
        example: include_str!("../../tests/fixtures/r10_bad.rs"),
    },
    RuleInfo {
        id: "r12",
        name: r12_durability_order::RULE,
        level: "deny",
        summary: "in storage::manifest, data fsync precedes the manifest append on \
                  sealing paths",
        doc: "The manifest is the commit record: a sealed file's record \
              must only become durable after the data it points at. In \
              storage::manifest functions that both fsync data (a \
              `sync`/`flush_all` on a StorageEngine-typed receiver) and \
              append manifest records (an `append` on a Manifest-typed \
              receiver), every append must come after the data fsync in \
              straight-line order — receivers are distinguished by their \
              resolved field types, not names.",
        example: include_str!("../../tests/fixtures/r12_bad.rs"),
    },
];

/// Resolves a comma-separated filter (`"r6,r10"` or `"lifecycle_poll"`) into a
/// set of rule names. Errors on unknown entries so typos fail loudly.
pub fn parse_filter(spec: &str) -> Result<BTreeSet<&'static str>, String> {
    let mut set = BTreeSet::new();
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let hit = RULES
            .iter()
            .find(|r| r.id.eq_ignore_ascii_case(part) || r.name == part);
        match hit {
            Some(r) => {
                set.insert(r.name);
            }
            None => {
                let known: Vec<&str> = RULES.iter().map(|r| r.id).collect();
                return Err(format!(
                    "unknown rule {part:?}; known rules: {}",
                    known.join(", ")
                ));
            }
        }
    }
    if set.is_empty() {
        return Err("empty rule filter".to_string());
    }
    Ok(set)
}

/// Runs every rule over `files`. `registry_path_hint` names the obs
/// registry file (matched by suffix) among `files`; when absent, R6 is
/// skipped (fixture sets that don't care about counters).
pub fn run_all(files: &[FileModel], registry_suffix: &str) -> Vec<Diagnostic> {
    run_impl(files, registry_suffix, None)
}

/// Runs only the rules named in `filter` (rule names, from [`parse_filter`]).
pub fn run_filtered(
    files: &[FileModel],
    registry_suffix: &str,
    filter: &BTreeSet<&'static str>,
) -> Vec<Diagnostic> {
    run_impl(files, registry_suffix, Some(filter))
}

fn run_impl(
    files: &[FileModel],
    registry_suffix: &str,
    filter: Option<&BTreeSet<&'static str>>,
) -> Vec<Diagnostic> {
    let on = |name: &str| filter.is_none_or(|f| f.contains(name));
    let mut out = Vec::new();

    // Pass 1: the symbol table and call graph, when any consuming rule is
    // enabled.
    let analysis = [r10_lifecycle_poll::RULE, r12_durability_order::RULE]
        .iter()
        .any(|r| on(r))
        .then(|| Analysis::build(files));

    // Cross-file context.
    let registry: Option<BTreeSet<String>> = files
        .iter()
        .find(|f| f.path.to_string_lossy().ends_with(registry_suffix))
        .map(r6_counter_registry::load_registry);

    if on(r6_counter_registry::RULE) {
        if let Some(reg) = &registry {
            for f in files {
                r6_counter_registry::check(f, reg, &mut out);
            }
        }
    }
    // Pass 2, interprocedural: these rules walk functions via the symbol
    // table rather than per file.
    if let Some(a) = &analysis {
        if on(r10_lifecycle_poll::RULE) {
            r10_lifecycle_poll::check(a, &mut out);
        }
        if on(r12_durability_order::RULE) {
            r12_durability_order::check(a, &mut out);
        }
    }

    // Stable output: (path, line, rule) — rule as the tiebreak so files
    // whose line draws from several rules render identically regardless
    // of rule execution order.
    out.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    out
}
