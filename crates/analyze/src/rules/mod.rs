//! The project rule set. One module per rule; `run_all` wires the
//! single-file rules, the cross-file context (error taxonomy, counter
//! registry), and the two-pass analysis (symbol table + call graph) that
//! the interprocedural rules consume.
//!
//! | rule | name | scope | default |
//! |------|-----------------------|----------------------------------|---------|
//! | R3   | `pin_pairing`         | per function                     | deny    |
//! | R4   | `lock_order`          | per function + call graph        | deny    |
//! | R5   | `error_taxonomy`      | workspace-wide                   | deny/warn |
//! | R6   | `counter_registry`    | per file + registry              | deny    |
//! | R7   | `atomic_ordering`     | per file + per-crate atomic table | deny   |
//! | R8   | `determinism`         | byte-deterministic modules        | deny   |
//! | R9   | `exec_only`           | per file, outside crates/exec     | deny   |
//! | R10  | `lifecycle_poll`      | algorithm/exec/storage loops + call graph | deny |
//! | R11  | `budget_charge`       | crates/storage + call graph       | deny   |
//! | R12  | `durability_order`    | storage::manifest sealing fns     | deny   |
//!
//! Ids are stable names (CI filters and suppressions cite them), so they
//! start at R3: panic-freedom and `SAFETY:` comments are clippy lints in
//! `[workspace.lints.clippy]`, not rules here.
//!
//! Suppression: a comment containing `allow(hdsj::<rule>)` on the same
//! line or up to two lines above the flagged line silences that rule
//! there. Always pair the suppression with a justification.

pub mod r10_lifecycle_poll;
pub mod r11_budget_charge;
pub mod r12_durability_order;
pub mod r3_pin_pairing;
pub mod r4_lock_order;
pub mod r5_error_taxonomy;
pub mod r6_counter_registry;
pub mod r7_atomic_ordering;
pub mod r8_determinism;
pub mod r9_exec_only;

use crate::callgraph::CallGraph;
use crate::diag::Diagnostic;
use crate::parse::FileModel;
use crate::symbols::SymbolTable;
use std::collections::{BTreeMap, BTreeSet};

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
    /// Short id (`"r7"`), accepted by filters.
    pub id: &'static str,
    /// Rule name (`"atomic_ordering"`), also accepted by filters.
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
        id: "r3",
        name: r3_pin_pairing::RULE,
        level: "deny",
        summary: "buffer-pool pins pair with RAII guards; no mem::forget/leak of guards",
        doc: "A leaked pin wedges a buffer-pool frame forever (it can \
              never be evicted). Pins must be held through the RAII \
              guard, and guards must never pass through `mem::forget` or \
              `Box::leak`.",
        example: include_str!("../../tests/fixtures/r3_bad.rs"),
    },
    RuleInfo {
        id: "r4",
        name: r4_lock_order::RULE,
        level: "deny",
        summary: "blocking locks are acquired in the declared global rank order, \
                  including across calls",
        doc: "Deadlock freedom comes from one global lock order: pool \
              (rank 0) < fault plan (1) < disks (2) < obs sinks (3). \
              Within a function, a held higher rank must not acquire a \
              strictly lower one. Across functions, a call made while \
              holding rank k is denied when the callee's transitive \
              acquire set (from the call graph) contains any rank ≤ k — \
              same-rank is denied across boundaries because it may be the \
              same mutex re-entered.",
        example: include_str!("../../tests/fixtures/r4_cycle.rs"),
    },
    RuleInfo {
        id: "r5",
        name: r5_error_taxonomy::RULE,
        level: "deny/warn",
        summary: "Error variants must be both constructed and matched somewhere",
        doc: "A variant nobody constructs is dead taxonomy; a variant \
              nobody matches is an error callers cannot handle. Both \
              drift the error contract, so the workspace Error enum is \
              checked for dead and unhandled variants.",
        example: include_str!("../../tests/fixtures/r5_bad.rs"),
    },
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
        id: "r7",
        name: r7_atomic_ordering::RULE,
        level: "deny",
        summary: "atomics are declared in the per-crate table; relaxed ops on gate \
                  atomics carry an ORDERING: comment",
        doc: "Memory orderings are a contract between all code touching \
              one atomic, so each atomic is declared (per crate) and \
              classified Gate or Stat. Receivers are resolved through the \
              symbol table — `self.field`, `let`-bound aliases, typed \
              params, statics — so renaming a binding cannot dodge the \
              table, and Ordering-taking calls on receivers whose \
              resolved type is not atomic are skipped. Relaxed operations \
              on Gate atomics need an `// ORDERING:` justification within \
              3 lines.",
        example: include_str!("../../tests/fixtures/r7_bad.rs"),
    },
    RuleInfo {
        id: "r8",
        name: r8_determinism::RULE,
        level: "deny",
        summary: "no HashMap/HashSet, Instant::now, RandomState, or thread-identity \
                  branching in byte-deterministic modules",
        doc: "The byte-deterministic modules (kernels, bruteforce, msj, \
              sortmerge, the external sort, the lifecycle layer, the \
              manifest) promise identical output at every thread count. \
              Seeded hash iteration, wall-clock reads, and thread-identity \
              branching all braid nondeterminism into results, so they are \
              denied there; justified exemptions use the allow comment.",
        example: include_str!("../../tests/fixtures/r8_bad.rs"),
    },
    RuleInfo {
        id: "r9",
        name: r9_exec_only::RULE,
        level: "deny",
        summary: "no thread::spawn/scope/Builder outside crates/exec; use the pool",
        doc: "All threading flows through the exec pool so determinism, \
              schedule exploration, and shutdown have one choke point. \
              Raw `thread::spawn`/`scope`/`Builder` outside crates/exec \
              is denied.",
        example: include_str!("../../tests/fixtures/r9_bad.rs"),
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
        id: "r11",
        name: r11_budget_charge::RULE,
        level: "deny",
        summary: "storage functions reaching disk primitives must charge an I/O \
                  budget or be called only from charging wrappers",
        doc: "Every disk primitive (read_page/write_page, positioned \
              read/write, sync_all…) must count against the query's I/O \
              budget, or the budget is a lie. A function calling a \
              primitive passes when it charges (`charge_io`/\
              `charge_pages`) directly or transitively, or when every \
              non-test caller path is covered by a charging wrapper \
              (Disk-impl boundary methods `read_page`/`write_page`/\
              `sync` propagate the obligation to their callers — the \
              buffer pool charges at its `retrying` choke point).",
        example: include_str!("../../tests/fixtures/r11_bad.rs"),
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

/// Resolves a comma-separated filter (`"r7,r8"` or `"determinism"`) into a
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
    let analysis = [
        r4_lock_order::RULE,
        r7_atomic_ordering::RULE,
        r10_lifecycle_poll::RULE,
        r11_budget_charge::RULE,
        r12_durability_order::RULE,
    ]
    .iter()
    .any(|r| on(r))
    .then(|| Analysis::build(files));

    // Cross-file context.
    let registry: Option<BTreeSet<String>> = files
        .iter()
        .find(|f| f.path.to_string_lossy().ends_with(registry_suffix))
        .map(r6_counter_registry::load_registry);
    let mut variants = Vec::new();
    if on(r5_error_taxonomy::RULE) {
        for f in files {
            let v = r5_error_taxonomy::find_error_enum(f);
            if v.len() > variants.len() {
                variants = v; // the workspace Error enum (richest definition wins)
            }
        }
    }
    let mut tally: BTreeMap<String, r5_error_taxonomy::Usage> = variants
        .iter()
        .map(|v| (v.name.clone(), r5_error_taxonomy::Usage::default()))
        .collect();

    for (fi, f) in files.iter().enumerate() {
        if on(r3_pin_pairing::RULE) {
            r3_pin_pairing::check(f, &mut out);
        }
        if on(r6_counter_registry::RULE) {
            if let Some(reg) = &registry {
                r6_counter_registry::check(f, reg, &mut out);
            }
        }
        if on(r7_atomic_ordering::RULE) {
            if let Some(a) = &analysis {
                r7_atomic_ordering::check(a, fi, &mut out);
            }
        }
        if on(r8_determinism::RULE) {
            r8_determinism::check(f, &mut out);
        }
        if on(r9_exec_only::RULE) {
            r9_exec_only::check(f, &mut out);
        }
        if on(r5_error_taxonomy::RULE) {
            r5_error_taxonomy::scan_usage(f, &mut tally);
        }
    }
    // Pass 2, interprocedural: these rules walk functions via the symbol
    // table rather than per file.
    if let Some(a) = &analysis {
        if on(r4_lock_order::RULE) {
            r4_lock_order::check(a, &mut out);
        }
        if on(r10_lifecycle_poll::RULE) {
            r10_lifecycle_poll::check(a, &mut out);
        }
        if on(r11_budget_charge::RULE) {
            r11_budget_charge::check(a, &mut out);
        }
        if on(r12_durability_order::RULE) {
            r12_durability_order::check(a, &mut out);
        }
    }
    if on(r5_error_taxonomy::RULE) {
        r5_error_taxonomy::report(&variants, &tally, &mut out);
    }

    // Stable output: (path, line, rule) — rule as the tiebreak so files
    // whose line draws from several rules render identically regardless
    // of rule execution order.
    out.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    out
}
