//! R8 `determinism` — the modules whose output PR 4 promises is
//! byte-identical at every thread count must not consume any
//! nondeterministic source. Inside the result-producing paths of
//! `core::kernels`, `bruteforce`, `msj`, `sortmerge`, and `storage::sort`
//! this rule denies:
//!
//! * `HashMap` / `HashSet` — iteration order depends on `RandomState`'s
//!   per-process seed, so anything folded out of it varies run to run.
//!   Use `BTreeMap`/`BTreeSet` or sort before folding.
//! * `RandomState` — the seed source itself.
//! * `Instant::now` — wall-clock readings braided into results (or into
//!   tie-breaking) destroy replayability. Timing for *observability* is
//!   fine, but must be suppressed with a reason so the exemption is
//!   reviewable.
//! * `thread::current` / `ThreadId` — thread-identity-dependent branching
//!   makes output a function of scheduling.
//!
//! The scope is path-based: only files under the byte-deterministic
//! modules are checked, so the bench harness, CLI, and obs crate may keep
//! their clocks and maps.

use crate::diag::{Diagnostic, Level};
use crate::parse::FileModel;

pub const RULE: &str = "determinism";

/// Path fragments selecting the byte-deterministic modules. PR 7's
/// resume paths joined the list: lifecycle checkpoint decisions and
/// manifest replay must be a function of the recorded state alone, or a
/// resumed run diverges from the run it claims to continue. The SIMD
/// dispatch and kernel tiers joined with the vectorization PR: every
/// tier's output is part of the byte-determinism promise (results must
/// not depend on which tier ran), and the SoA tiling must not braid any
/// nondeterministic source into lane order. The batch refinement paths
/// (`core::refine`) joined with the dataflow PR: refinement reorders
/// candidate batches for SIMD, and its accept/reject stream feeds the
/// same byte-determinism promise. The tile-major plane sweep
/// (`core::sweep`) stays in scope at its new address: it left `msj`, and
/// it fixes the pair order of MSJ, EKDB and SM1D output.
const SCOPE: &[&str] = &[
    "crates/core/src/kernels",
    "crates/core/src/lifecycle",
    "crates/core/src/refine",
    "crates/core/src/simd",
    "crates/core/src/soa",
    "crates/core/src/sweep",
    "crates/bruteforce/src",
    "crates/msj/src",
    "crates/sortmerge/src",
    "crates/storage/src/manifest",
    "crates/storage/src/sort",
];

/// Bare identifiers that are nondeterministic wherever they appear.
const BANNED_IDENTS: &[(&str, &str)] = &[
    (
        "HashMap",
        "HashMap iteration order is seeded per process; use BTreeMap or sort before folding",
    ),
    (
        "HashSet",
        "HashSet iteration order is seeded per process; use BTreeSet or sort before folding",
    ),
    (
        "RandomState",
        "RandomState is a per-process random seed source",
    ),
    (
        "ThreadId",
        "branching on thread identity makes output a function of scheduling",
    ),
];

/// `a::b` token sequences that are nondeterministic calls.
const BANNED_PATHS: &[(&str, &str, &str)] = &[
    (
        "Instant",
        "now",
        "wall-clock readings in a result-producing path destroy replayability",
    ),
    (
        "thread",
        "current",
        "branching on thread identity makes output a function of scheduling",
    ),
];

fn in_scope(file: &FileModel) -> bool {
    let p = file.path.to_string_lossy();
    SCOPE.iter().any(|frag| p.contains(frag))
}

pub fn check(file: &FileModel, out: &mut Vec<Diagnostic>) {
    if !in_scope(file) {
        return;
    }
    let toks = &file.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        let line = t.line;
        let mut hit: Option<(String, &str)> = None;
        if let Some(&(name, why)) = BANNED_IDENTS.iter().find(|(n, _)| t.is_ident(n)) {
            hit = Some((format!("`{name}`"), why));
        } else if let Some(&(head, tail, why)) = BANNED_PATHS.iter().find(|(head, tail, _)| {
            t.is_ident(head)
                && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 3).is_some_and(|t| t.is_ident(tail))
        }) {
            hit = Some((format!("`{head}::{tail}`"), why));
        }
        let Some((what, why)) = hit else { continue };
        if file.is_test_line(line) || file.suppressed(RULE, line) {
            continue;
        }
        out.push(Diagnostic {
            rule: RULE,
            level: Level::Deny,
            path: file.path.clone(),
            line,
            message: format!("{what} in a byte-deterministic module: {why}"),
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
    fn hashmap_in_scope_is_flagged() {
        let d = run(
            "crates/msj/src/x.rs",
            "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }",
        );
        assert_eq!(d.len(), 3, "{d:?}");
        assert!(d[0].message.contains("BTreeMap"), "{d:?}");
    }

    #[test]
    fn instant_now_in_scope_is_flagged() {
        let d = run(
            "crates/sortmerge/src/x.rs",
            "fn f() { let t = std::time::Instant::now(); }",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("replayability"), "{d:?}");
    }

    #[test]
    fn thread_current_in_scope_is_flagged() {
        let d = run(
            "crates/bruteforce/src/x.rs",
            "fn f() { let id = std::thread::current().id(); }",
        );
        assert_eq!(d.len(), 1, "{d:?}");
    }

    #[test]
    fn out_of_scope_files_are_ignored() {
        let d = run(
            "crates/bench/src/x.rs",
            "fn f() { let t = std::time::Instant::now(); let m = std::collections::HashMap::<u8, u8>::new(); }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn suppression_with_reason_is_honoured() {
        let d = run(
            "crates/msj/src/x.rs",
            "fn f() {\n    // allow(hdsj::determinism): timing feeds obs only, never results.\n    let t = std::time::Instant::now();\n}",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn test_code_is_exempt() {
        let d = run(
            "crates/msj/src/x.rs",
            "#[cfg(test)]\nmod tests {\n    fn t() { let t = std::time::Instant::now(); }\n}",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn simd_dispatch_and_soa_are_in_scope() {
        let d = run(
            "crates/core/src/simd/mod.rs",
            "fn f() { let t = std::time::Instant::now(); }",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        let d = run("crates/core/src/soa.rs", "use std::collections::HashMap;");
        assert_eq!(d.len(), 1, "{d:?}");
    }

    #[test]
    fn lifecycle_and_manifest_resume_paths_are_in_scope() {
        let d = run(
            "crates/core/src/lifecycle.rs",
            "fn f() { let t = std::time::Instant::now(); }",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        let d = run(
            "crates/storage/src/manifest.rs",
            "use std::collections::HashMap;",
        );
        assert_eq!(d.len(), 1, "{d:?}");
    }

    #[test]
    fn refine_batch_paths_are_in_scope() {
        let d = run(
            "crates/core/src/refine.rs",
            "fn f() { let t = std::time::Instant::now(); }",
        );
        assert_eq!(d.len(), 1, "{d:?}");
    }

    #[test]
    fn deterministic_collections_are_clean() {
        let d = run(
            "crates/msj/src/x.rs",
            "use std::collections::BTreeMap;\nfn f() { let m: BTreeMap<u32, u32> = BTreeMap::new(); }",
        );
        assert!(d.is_empty(), "{d:?}");
    }
}
