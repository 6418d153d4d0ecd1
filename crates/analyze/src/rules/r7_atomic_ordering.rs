//! R7 `atomic_ordering` — every atomic the workspace uses is declared in
//! the per-crate table below, and every `Ordering::Relaxed` operation on a
//! **gate** atomic (one that other threads consult to decide whether, or
//! what, shared data may be touched) carries an `// ORDERING:` comment
//! within the three lines above it — the same discipline clippy's
//! `undocumented_unsafe_blocks` applies to `unsafe` via `// SAFETY:`.
//!
//! Why a table: memory orderings are a contract between *all* the code
//! touching one atomic, so the reviewable unit is the atomic, not the call
//! site. The table names each atomic (by canonical receiver, per crate)
//! and classifies it:
//!
//! * [`Class::Gate`] — the value gates access to shared state: the exec
//!   pool's `stop` flag and chunk `cursor`, the buffer pool's `pins` /
//!   `dirty` bits, the fault plan's `armed` fast-path flag. A relaxed
//!   load/store on one of these is only correct for a *reason* (a mutex
//!   already provides the happens-before edge, the value is advisory, the
//!   scope join publishes the data…), and that reason must be written
//!   down where the operation happens.
//! * [`Class::Stat`] — monotonic counters and hints (I/O stats, obs
//!   counters, LRU ticks, span ids) whose only cross-thread requirement
//!   is the atomicity of the RMW itself; `Relaxed` is self-justifying and
//!   needs no per-site comment.
//!
//! Receivers are **resolved through the symbol table**, not taken at
//! face value: `self.cursor`, a `let c = &self.cursor;` alias, a typed
//! parameter, or a static all resolve to their canonical field/static
//! name before the table lookup, so renaming a binding can neither dodge
//! the table nor trip it falsely. When the resolved declared type is
//! known and is *not* an atomic, an Ordering-shaped call on it (a user
//! `load(x, Ordering::…)`-alike) is skipped instead of denied.
//!
//! An atomic operation on a receiver **not** in its crate's table is a
//! deny: new atomics are a concurrency-surface change and must be
//! declared (and classified) here first, exactly as new metric names must
//! enter the R6 registry. Files outside `crates/<name>/src` (the root
//! binary, fixtures) are out of scope — the workspace keeps its atomics
//! in library crates.

use crate::diag::{Diagnostic, Level};
use crate::parse::FileModel;
use crate::rules::Analysis;
use crate::symbols::resolve_receiver;

pub const RULE: &str = "atomic_ordering";

/// How many lines above the operation an `// ORDERING:` comment may sit.
const REACH: u32 = 3;

/// Classification of a declared atomic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Gates access to shared data: relaxed uses need an `// ORDERING:`
    /// justification at every site.
    Gate,
    /// Monotonic statistic or hint: relaxed is self-justifying.
    Stat,
}

/// The per-crate atomic ordering table: `(crate, receiver, class)`.
/// The receiver is the *canonical* identifier the operation resolves to
/// (`stop.store(…)` → `stop`, `frame.pins.fetch_add(…)` → `pins`, and a
/// `let c = &self.cursor; c.fetch_add(…)` alias → `cursor`).
pub const ATOMICS: &[(&str, &str, Class)] = &[
    // hdsj-core: the query-lifecycle context. The cancel flag gates
    // whether workers keep running; the rest are usage statistics read
    // after the join completes.
    ("core", "cancel", Class::Gate),
    ("core", "polls", Class::Stat),
    ("core", "io_used", Class::Stat),
    ("core", "pages_used", Class::Stat),
    ("core", "checkpoints", Class::Stat),
    // The SIMD dispatch probe: gates which block-kernel tier every tile
    // evaluation takes, so each relaxed site must justify why that is
    // sound (idempotent probe — all racers store the same value).
    ("core", "DISPATCH", Class::Gate),
    // hdsj-exec: the pool's work-distribution atomics and the
    // debug-schedules instrumentation.
    ("exec", "cursor", Class::Gate),
    ("exec", "stop", Class::Gate),
    ("exec", "ENABLED", Class::Stat),
    ("exec", "SEED", Class::Stat),
    ("exec", "LIVE", Class::Stat),
    ("exec", "POINTS", Class::Stat),
    ("exec", "executed", Class::Stat),
    // hdsj-obs: span-id source, counter cells, and the sharded histogram
    // cells (bucket counts, per-shard sum/min/max, shard round-robin).
    ("obs", "next_id", Class::Stat),
    ("obs", "cell", Class::Stat),
    ("obs", "bucket", Class::Stat),
    ("obs", "sum", Class::Stat),
    ("obs", "min", Class::Stat),
    ("obs", "max", Class::Stat),
    ("obs", "smin", Class::Stat),
    ("obs", "smax", Class::Stat),
    ("obs", "NEXT_SHARD", Class::Stat),
    // hdsj-storage: pool frame state, fault-plan fast path, I/O counters,
    // and the debug-invariants bookkeeping.
    ("storage", "pins", Class::Gate),
    ("storage", "dirty", Class::Gate),
    ("storage", "armed", Class::Gate),
    ("storage", "last_used", Class::Stat),
    ("storage", "reads", Class::Stat),
    ("storage", "writes", Class::Stat),
    ("storage", "allocs", Class::Stat),
    ("storage", "hits", Class::Stat),
    ("storage", "evictions", Class::Stat),
    ("storage", "writebacks", Class::Stat),
    ("storage", "retries", Class::Stat),
    ("storage", "faults", Class::Stat),
    ("storage", "corruptions", Class::Stat),
    ("storage", "CHECKS", Class::Stat),
    ("storage", "NEXT_TOKEN", Class::Stat),
];

/// Methods that perform an atomic memory operation when called with an
/// `Ordering` argument.
const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_nand",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

fn class_of(krate: &str, receiver: &str) -> Option<Class> {
    ATOMICS
        .iter()
        .find(|(c, r, _)| *c == krate && *r == receiver)
        .map(|&(_, _, class)| class)
}

/// The crate a workspace-relative path belongs to (`crates/<name>/…`).
fn crate_of(file: &FileModel) -> Option<String> {
    let mut comps = file.path.components().map(|c| c.as_os_str());
    while let Some(c) = comps.next() {
        if c == "crates" {
            return comps.next().map(|n| n.to_string_lossy().into_owned());
        }
    }
    None
}

pub fn check(a: &Analysis, fi: usize, out: &mut Vec<Diagnostic>) {
    let file = &a.files[fi];
    let Some(krate) = crate_of(file) else {
        return;
    };
    let toks = &file.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        let is_method = ATOMIC_METHODS.contains(&t.text.as_str())
            && i >= 2
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('));
        if !is_method {
            continue;
        }
        // Only calls that pass an `Ordering::…` are atomic operations;
        // `vec.swap(a, b)` or a serde `load()` never names one.
        let args_end = file.skip_group(i + 1);
        let orderings: Vec<&str> = (i + 2..args_end.saturating_sub(1))
            .filter(|&j| {
                toks[j].is_ident("Ordering")
                    && toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
                    && toks.get(j + 2).is_some_and(|t| t.is_punct(':'))
            })
            .filter_map(|j| toks.get(j + 3).map(|t| t.text.as_str()))
            .collect();
        if orderings.is_empty() {
            continue;
        }
        // Resolve the receiver to its canonical name and declared type.
        let recv_tok = i - 2;
        let (canonical, declared_ty) = if toks[recv_tok].kind == crate::lexer::TokenKind::Ident
        {
            let sym = file
                .enclosing_fn(i)
                .and_then(|span| a.symbols.fn_at(fi, span.body_start));
            match sym {
                Some(f) => {
                    let res = resolve_receiver(&a.symbols, file, f, recv_tok);
                    (res.name, res.ty)
                }
                None => (toks[recv_tok].text.clone(), None),
            }
        } else {
            (toks[recv_tok].text.clone(), None)
        };
        // A receiver whose declared type is known and not an atomic is
        // not an atomic operation at all (an Ordering-taking method on a
        // user type) — skip rather than deny.
        if declared_ty
            .as_deref()
            .is_some_and(|ty| !crate::symbols::ty_mentions(ty, "Atomic"))
        {
            continue;
        }
        let line = t.line;
        if file.is_test_line(line) || file.suppressed(RULE, line) {
            continue;
        }
        match class_of(&krate, &canonical) {
            None => out.push(Diagnostic {
                rule: RULE,
                level: Level::Deny,
                path: file.path.clone(),
                line,
                message: format!(
                    "atomic `{canonical}` is not declared in the R7 per-crate ordering table \
                     (crates/analyze/src/rules/r7_atomic_ordering.rs): classify it as \
                     Gate or Stat there before using it"
                ),
            }),
            Some(Class::Gate) if orderings.contains(&"Relaxed") => {
                let documented = file.comments.iter().any(|c| {
                    c.text.contains("ORDERING:")
                        && (c.line == line || (c.end_line < line && c.end_line + REACH >= line))
                });
                if !documented {
                    out.push(Diagnostic {
                        rule: RULE,
                        level: Level::Deny,
                        path: file.path.clone(),
                        line,
                        message: format!(
                            "`Ordering::Relaxed` on gate atomic `{canonical}` without an \
                             `// ORDERING:` comment explaining why relaxed is enough"
                        ),
                    });
                }
            }
            Some(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Analysis;
    use std::path::PathBuf;

    fn run(path: &str, src: &str) -> Vec<Diagnostic> {
        let files = vec![FileModel::parse(PathBuf::from(path), src)];
        let a = Analysis::build(&files);
        let mut out = Vec::new();
        check(&a, 0, &mut out);
        out
    }

    #[test]
    fn undeclared_atomic_is_flagged() {
        let d = run(
            "crates/exec/src/x.rs",
            "fn f(a: &AtomicUsize) { a.fetch_add(1, Ordering::Relaxed); }",
        );
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("not declared"), "{d:?}");
    }

    #[test]
    fn bare_relaxed_gate_is_flagged() {
        let d = run(
            "crates/exec/src/x.rs",
            "fn f(stop: &AtomicBool) { stop.store(true, Ordering::Relaxed); }",
        );
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("ORDERING:"), "{d:?}");
    }

    #[test]
    fn commented_gate_is_clean() {
        let d = run(
            "crates/exec/src/x.rs",
            "fn f(stop: &AtomicBool) {\n    // ORDERING: advisory; re-checked per claim.\n    stop.store(true, Ordering::Relaxed);\n}",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn stat_atomics_need_no_comment() {
        let d = run(
            "crates/storage/src/x.rs",
            "fn f(&self) { self.reads.fetch_add(1, Ordering::Relaxed); }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn stronger_orderings_on_gates_are_clean() {
        let d = run(
            "crates/exec/src/x.rs",
            "fn f(stop: &AtomicBool) { stop.store(true, Ordering::SeqCst); }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn non_atomic_swap_is_ignored() {
        let d = run(
            "crates/exec/src/x.rs",
            "fn f(v: &mut Vec<u8>) { v.swap(0, 1); }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn files_outside_crates_are_out_of_scope() {
        let d = run(
            "src/bin/hdsj.rs",
            "fn f(a: &AtomicUsize) { a.fetch_add(1, Ordering::Relaxed); }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn test_code_and_suppressions_are_exempt() {
        let d = run(
            "crates/exec/src/x.rs",
            "#[cfg(test)]\nmod tests {\n    fn t(a: &AtomicUsize) { a.load(Ordering::Relaxed); }\n}\nfn g(b: &AtomicU64) {\n    // allow(hdsj::atomic_ordering): scratch cell local to this fn.\n    b.load(Ordering::Relaxed);\n}",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn aliased_receivers_resolve_to_the_declared_atomic() {
        // The carried item from PR 5: `let c = &self.cursor;` used to look
        // up `c` (a false "not declared"); it now resolves to `cursor`,
        // a Gate, whose commented relaxed use is clean.
        let d = run(
            "crates/exec/src/x.rs",
            "struct Pool { cursor: AtomicUsize }\n\
             impl Pool {\n\
                 fn f(&self) {\n\
                     let c = &self.cursor;\n\
                     // ORDERING: claims are idempotent; the scope join publishes results.\n\
                     c.fetch_add(1, Ordering::Relaxed);\n\
                 }\n\
             }\n",
        );
        assert!(d.is_empty(), "{d:?}");
        // Without the comment the alias is still recognized as the gate.
        let d = run(
            "crates/exec/src/x.rs",
            "struct Pool { cursor: AtomicUsize }\n\
             impl Pool {\n\
                 fn f(&self) {\n\
                     let c = &self.cursor;\n\
                     c.fetch_add(1, Ordering::Relaxed);\n\
                 }\n\
             }\n",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("`cursor`"), "{d:?}");
    }

    #[test]
    fn known_non_atomic_receiver_types_are_skipped() {
        // An Ordering-shaped call on a receiver whose declared type is not
        // an atomic is a user method, not an atomic op.
        let d = run(
            "crates/exec/src/x.rs",
            "struct Ring { slots: SlotMap }\n\
             impl Ring { fn f(&self) { self.slots.swap(1, Ordering::Relaxed); } }\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }
}
