//! R6 `counter_registry` — obs counter/gauge/histogram names referenced
//! by string literal must exist in the registry
//! (`crates/obs/src/names.rs`).
//!
//! Metric names are stringly-typed at the call sites
//! (`tracer.counter("msj.results")`,
//! `tracer.histogram("pool.read_ns")`) and again in tests and the trace
//! reporter (`sink.counter_value("pool.hits")`,
//! `sink.hist_snapshot("exec.chunk_ns")`). A typo on either side
//! silently records (or asserts on) a counter nobody else writes. The
//! registry file is the single source of truth; this rule cross-checks
//! every literal reference against it. Dynamically built names
//! (`format!("{prefix}.{field}")`) are out of lexical reach and are
//! skipped — keep their parts in the registry by convention.

use crate::diag::{Diagnostic, Level};
use crate::parse::FileModel;
use std::collections::BTreeSet;

pub const RULE: &str = "counter_registry";

/// Methods whose first string-literal argument is a metric name.
const NAME_SINKS: &[&str] = &[
    "counter",
    "counter_value",
    "gauge",
    "histogram",
    "hist_snapshot",
];

/// Extracts the registry: every string literal in the names file.
pub fn load_registry(names_file: &FileModel) -> BTreeSet<String> {
    names_file
        .tokens
        .iter()
        .filter(|t| t.kind == crate::lexer::TokenKind::Str)
        .filter_map(|t| unquote(&t.text))
        .collect()
}

/// Strips the quotes from a plain string literal token (`"x"` → `x`);
/// raw/byte strings in the registry are not expected.
fn unquote(text: &str) -> Option<String> {
    text.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .map(str::to_string)
}

pub fn check(file: &FileModel, registry: &BTreeSet<String>, out: &mut Vec<Diagnostic>) {
    let toks = &file.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        let is_sink = NAME_SINKS.contains(&t.text.as_str())
            && i > 0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('));
        if !is_sink {
            continue;
        }
        let Some(arg) = toks.get(i + 2) else { continue };
        if arg.kind != crate::lexer::TokenKind::Str {
            continue; // dynamic name: out of lexical reach
        }
        let Some(name) = unquote(&arg.text) else {
            continue;
        };
        if registry.contains(&name) {
            continue;
        }
        let line = arg.line;
        // Unit tests may exercise the tracer with synthetic names.
        if file.is_test_line(line) || file.suppressed(RULE, line) {
            continue;
        }
        out.push(Diagnostic {
            rule: RULE,
            level: Level::Deny,
            path: file.path.clone(),
            line,
            message: format!(
                "metric name {name:?} is not in the registry \
                 (crates/obs/src/names.rs): add it there or fix the typo"
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn registry_of(src: &str) -> BTreeSet<String> {
        load_registry(&FileModel::parse(PathBuf::from("names.rs"), src))
    }

    fn run(src: &str, reg: &BTreeSet<String>) -> Vec<Diagnostic> {
        let m = FileModel::parse(PathBuf::from("t.rs"), src);
        let mut out = Vec::new();
        check(&m, reg, &mut out);
        out
    }

    #[test]
    fn registered_names_pass_and_typos_fail() {
        let reg = registry_of("pub const A: &str = \"msj.refine.pairs\";");
        let ok = run(
            "fn f(t: &Tracer) { t.counter(\"msj.refine.pairs\").incr(); }",
            &reg,
        );
        assert!(ok.is_empty(), "{ok:?}");
        let bad = run(
            "fn f(t: &Tracer) { t.counter(\"msj.refine.pair\").incr(); }",
            &reg,
        );
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].message.contains("msj.refine.pair"));
    }

    #[test]
    fn dynamic_names_are_skipped() {
        let reg = registry_of("pub const A: &str = \"pool.reads\";");
        let d = run(
            "fn f(t: &Tracer) { t.counter(format!(\"{p}.reads\")).incr(); }",
            &reg,
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn counter_value_and_gauge_are_checked() {
        let reg = registry_of("pub const A: &str = \"pool.hits\";");
        let d = run(
            "fn f(s: &MemorySink, t: &Tracer) { s.counter_value(\"pool.hit\"); \
             t.gauge(\"pool.hits\", 0.5); }",
            &reg,
        );
        assert_eq!(d.len(), 1, "{d:?}");
    }

    #[test]
    fn histogram_and_hist_snapshot_are_checked() {
        let reg = registry_of("pub const A: &str = \"pool.read_ns\";");
        let ok = run(
            "fn f(t: &Tracer, s: &MemorySink) { t.histogram(\"pool.read_ns\").record(1); \
             s.hist_snapshot(\"pool.read_ns\"); }",
            &reg,
        );
        assert!(ok.is_empty(), "{ok:?}");
        let bad = run(
            "fn f(t: &Tracer, s: &MemorySink) { t.histogram(\"pool.read_latency\").record(1); \
             s.hist_snapshot(\"pool.reads_ns\"); }",
            &reg,
        );
        assert_eq!(bad.len(), 2, "{bad:?}");
        assert!(bad[0].message.contains("pool.read_latency"));
        assert!(bad[1].message.contains("pool.reads_ns"));
    }
}
