//! R9 `exec_only` — all parallelism flows through the `hdsj-exec` pool.
//!
//! Direct `std::thread::spawn`, `std::thread::scope`, or
//! `std::thread::Builder` outside `crates/exec` is denied: the pool is
//! where panic containment (`catch_unwind` → `Error::Internal`),
//! chunk-ordered determinism, obs counters/spans, and the
//! debug-schedules yield points live, and a stray hand-rolled thread
//! bypasses every one of those guarantees. PR 4 retired the three ad-hoc
//! threading sites (msj refine, bruteforce, external sort); this rule
//! keeps new ones from appearing.
//!
//! Deliberately *not* denied: `thread::sleep` (backoff), `thread::yield_now`
//! (spin hints), `thread::panicking` (drop-path guards), and
//! `thread::available_parallelism` (sizing) — none of them create a thread.
//! Test code is exempt, as everywhere: tests may build scaffolding
//! (channels draining in a scope, etc.) without routing through the pool.

use crate::diag::{Diagnostic, Level};
use crate::parse::FileModel;

pub const RULE: &str = "exec_only";

/// `thread::<tail>` forms that create threads.
const SPAWNING: &[&str] = &["spawn", "scope", "Builder"];

pub fn check(file: &FileModel, out: &mut Vec<Diagnostic>) {
    let p = file.path.to_string_lossy();
    if p.contains("crates/exec/") {
        return;
    }
    let toks = &file.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if !t.is_ident("thread") {
            continue;
        }
        let tail = toks
            .get(i + 1)
            .filter(|t| t.is_punct(':'))
            .and_then(|_| toks.get(i + 2))
            .filter(|t| t.is_punct(':'))
            .and_then(|_| toks.get(i + 3));
        let Some(tail) = tail else { continue };
        let Some(&what) = SPAWNING.iter().find(|s| tail.is_ident(s)) else {
            continue;
        };
        let line = t.line;
        if file.is_test_line(line) || file.suppressed(RULE, line) {
            continue;
        }
        out.push(Diagnostic {
            rule: RULE,
            level: Level::Deny,
            path: file.path.clone(),
            line,
            message: format!(
                "`thread::{what}` outside crates/exec: route parallelism through the \
                 hdsj-exec pool (`Pool::map_chunks`) so panic containment, determinism, \
                 and instrumentation apply"
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn run(path: &str, src: &str) -> Vec<Diagnostic> {
        let m = FileModel::parse(PathBuf::from(path), src);
        let mut out = Vec::new();
        check(&m, &mut out);
        out
    }

    #[test]
    fn spawn_outside_exec_is_flagged() {
        let d = run(
            "crates/storage/src/x.rs",
            "fn f() { std::thread::spawn(|| {}); }",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("hdsj-exec pool"), "{d:?}");
    }

    #[test]
    fn scope_outside_exec_is_flagged() {
        let d = run(
            "crates/obs/src/x.rs",
            "fn f() { std::thread::scope(|s| {}); }",
        );
        assert_eq!(d.len(), 1, "{d:?}");
    }

    #[test]
    fn exec_crate_itself_is_exempt() {
        let d = run(
            "crates/exec/src/lib.rs",
            "fn f() { std::thread::scope(|s| {}); }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn non_spawning_thread_helpers_are_clean() {
        let d = run(
            "crates/storage/src/x.rs",
            "fn f() { std::thread::sleep(d); std::thread::yield_now(); if std::thread::panicking() {} }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn test_code_is_exempt() {
        let d = run(
            "crates/storage/src/x.rs",
            "#[cfg(test)]\nmod tests {\n    fn t() { std::thread::scope(|s| {}); }\n}",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn suppression_is_honoured() {
        let d = run(
            "crates/storage/src/x.rs",
            "fn f() {\n    // allow(hdsj::exec_only): detached watchdog, must outlive the pool.\n    std::thread::spawn(|| {});\n}",
        );
        assert!(d.is_empty(), "{d:?}");
    }
}
