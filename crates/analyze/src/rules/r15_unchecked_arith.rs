//! R15 `unchecked_arith` — integer arithmetic feeding a raw-pointer
//! offset in `core::simd` must be provably non-overflowing under the
//! dataflow engine's propagated intervals, or carry a justified
//! `// BOUND:` comment.
//!
//! Three obligation sources:
//!
//! 1. The offset expression of a raw site (`.as_ptr().add(e)`,
//!    `.get_unchecked(e)`): a compound `e` is proved at the use; a plain
//!    `e` bound by a `let` with arithmetic is proved at its definition
//!    (the deny points at the `let`, where the wrap would happen).
//! 2. Arguments passed into same-file *sink helpers* — functions whose
//!    body offsets a raw pointer by one of their parameters (`load`,
//!    `load2`). The unchecked arithmetic happens at the call site, before
//!    the helper's own `debug_assert` can see it.
//! 3. Arithmetic *inside* `assert!`/`debug_assert!` conditions: a bounds
//!    check of the shape `at + k <= xs.len()` wraps before it checks in
//!    release-mode arithmetic, so the check itself must be overflow-safe
//!    (`xs.len() >= k && at <= xs.len() - k`). An assert's own conjunct
//!    cannot discharge itself; earlier conjuncts can.
//!
//! Escape hatch: a `// BOUND: <why>` comment on the flagged line (or up
//! to two lines above) records a justified bound the engine cannot see —
//! e.g. "dims × width is allocated, so the product fits usize".

use super::r13_unsafe_bounds::raw_offset_sites;
use super::Analysis;
use crate::dataflow::{conjunct_ranges, find_cmp, render, split_args, FnFlow};
use crate::diag::{Diagnostic, Level};
use crate::lexer::TokenKind;
use crate::parse::FileModel;
use std::collections::{BTreeMap, BTreeSet};

pub const RULE: &str = "unchecked_arith";

/// Path fragment selecting the unsafe SIMD layer.
const SCOPE: &str = "core/src/simd";

/// True when a `// BOUND:` justification covers `line` (same reach as the
/// `allow(hdsj::…)` suppression syntax).
fn bound_justified(file: &FileModel, line: u32) -> bool {
    file.comments.iter().any(|c| {
        c.text.contains("BOUND:")
            && (c.line == line || (c.end_line < line && c.end_line + 2 >= line))
    })
}

/// True when `line` needs no diagnostic (test code, suppression, BOUND).
fn exempt(file: &FileModel, line: u32) -> bool {
    file.is_test_line(line) || file.suppressed(RULE, line) || bound_justified(file, line)
}

fn flow_for<'m>(
    flows: &'m mut BTreeMap<usize, FnFlow>,
    file: &FileModel,
    body_start: usize,
) -> Option<&'m FnFlow> {
    let f = file.fns.iter().find(|f| f.body_start == body_start)?;
    Some(
        flows
            .entry(body_start)
            .or_insert_with(|| FnFlow::analyze(file, f)),
    )
}

pub fn check(a: &Analysis, out: &mut Vec<Diagnostic>) {
    for (fi, file) in a.files.iter().enumerate() {
        if !file.path.to_string_lossy().contains(SCOPE) {
            continue;
        }
        let toks = &file.tokens;
        let mut flows: BTreeMap<usize, FnFlow> = BTreeMap::new();
        let mut seen: BTreeSet<(u32, String)> = BTreeSet::new();
        let push = |seen: &mut BTreeSet<(u32, String)>,
                    out: &mut Vec<Diagnostic>,
                    line: u32,
                    message: String| {
            if seen.insert((line, message.clone())) {
                out.push(Diagnostic {
                    rule: RULE,
                    level: Level::Deny,
                    path: file.path.clone(),
                    line,
                    message,
                });
            }
        };
        let sites = raw_offset_sites(file);

        // Obligation 1: raw-site offset expressions.
        for &(lo, hi, pos, _) in &sites {
            let line = toks[pos].line;
            if file.is_test_line(line) || file.suppressed(RULE, line) {
                continue;
            }
            let Some(f) = file.enclosing_fn(pos) else {
                continue;
            };
            let body_start = f.body_start;
            let Some(flow) = flow_for(&mut flows, file, body_start) else {
                continue;
            };
            let single_ident = hi - lo == 1 && toks[lo].kind == TokenKind::Ident;
            if single_ident {
                let Some(def) = flow.def_of(&toks[lo].text, pos) else {
                    continue;
                };
                if !def.has_arith || exempt(file, def.line) {
                    continue;
                }
                // Proved at the def site — that is where the wrap would
                // happen, before any later check can see the value.
                if let Err(e) = flow.prove_arith(file, def.rhs.0, def.rhs.1, def.rhs.1, None) {
                    push(
                        &mut seen,
                        out,
                        def.line,
                        format!(
                            "offset `{}` is defined by unchecked arithmetic: {e}; bound it or justify with `// BOUND:`",
                            toks[lo].text
                        ),
                    );
                }
            } else if !bound_justified(file, line) {
                if let Err(e) = flow.prove_arith(file, lo, hi, pos, None) {
                    push(
                        &mut seen,
                        out,
                        line,
                        format!("{e}; bound it or justify with `// BOUND:`"),
                    );
                }
            }
        }

        // Sink helpers: same-file fns whose raw-site offset is one of
        // their own parameters, by parameter position.
        let mut sink_params: BTreeMap<&str, BTreeSet<usize>> = BTreeMap::new();
        for sym in a.symbols.fns.iter().filter(|s| s.file == fi && !s.is_test) {
            for &(lo, hi, pos, _) in &sites {
                if pos <= sym.body_start || pos >= sym.body_end || hi - lo != 1 {
                    continue;
                }
                if toks[lo].kind != TokenKind::Ident {
                    continue;
                }
                if let Some(ix) = sym.params.iter().position(|p| p.name == toks[lo].text) {
                    sink_params.entry(&sym.name).or_default().insert(ix);
                }
            }
        }

        // Obligation 2: arithmetic arguments at sink-helper call sites.
        for i in 0..toks.len() {
            if toks[i].kind != TokenKind::Ident {
                continue;
            }
            let Some(ixs) = sink_params.get(toks[i].text.as_str()) else {
                continue;
            };
            if !toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
                continue;
            }
            if i > 0
                && (toks[i - 1].is_punct('.')
                    || toks[i - 1].is_punct(':')
                    || toks[i - 1].is_ident("fn"))
            {
                continue;
            }
            let line = toks[i].line;
            if file.is_test_line(line) || file.suppressed(RULE, line) {
                continue;
            }
            let Some(f) = file.enclosing_fn(i) else {
                continue;
            };
            let body_start = f.body_start;
            let close = file.skip_group(i + 1);
            let args = split_args(toks, i + 2, close.saturating_sub(1));
            let Some(flow) = flow_for(&mut flows, file, body_start) else {
                continue;
            };
            for &ix in ixs {
                let Some(&(alo, ahi)) = args.get(ix) else {
                    continue;
                };
                let single_ident = ahi - alo == 1 && toks[alo].kind == TokenKind::Ident;
                if single_ident {
                    let Some(def) = flow.def_of(&toks[alo].text, i) else {
                        continue;
                    };
                    if !def.has_arith || exempt(file, def.line) {
                        continue;
                    }
                    if let Err(e) =
                        flow.prove_arith(file, def.rhs.0, def.rhs.1, def.rhs.1, None)
                    {
                        push(
                            &mut seen,
                            out,
                            def.line,
                            format!(
                                "`{}` flows into sink `{}` but is defined by unchecked arithmetic: {e}; bound it or justify with `// BOUND:`",
                                toks[alo].text, toks[i].text
                            ),
                        );
                    }
                } else if !bound_justified(file, line) {
                    if let Err(e) = flow.prove_arith(file, alo, ahi, i, None) {
                        push(
                            &mut seen,
                            out,
                            line,
                            format!(
                                "argument `{}` to sink `{}`: {e}; bound it or justify with `// BOUND:`",
                                render(toks, alo, ahi),
                                toks[i].text
                            ),
                        );
                    }
                }
            }
        }

        // Obligation 3: arithmetic inside assert conditions.
        for i in 0..toks.len() {
            let is_assert = toks[i].is_ident("assert")
                || toks[i].is_ident("debug_assert")
                || toks[i].is_ident("assert_eq")
                || toks[i].is_ident("debug_assert_eq");
            if !is_assert
                || !toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
                || !toks.get(i + 2).is_some_and(|t| t.is_punct('('))
            {
                continue;
            }
            let line = toks[i].line;
            if exempt(file, line) {
                continue;
            }
            let Some(f) = file.enclosing_fn(i) else {
                continue;
            };
            let body_start = f.body_start;
            let close = file.skip_group(i + 2);
            let inner = (i + 3, close.saturating_sub(1));
            let Some(flow) = flow_for(&mut flows, file, body_start) else {
                continue;
            };
            let args = split_args(toks, inner.0, inner.1);
            let Some(&cond) = args.first() else {
                continue;
            };
            let conjuncts = if toks[i].text.ends_with("_eq") {
                // Both compared expressions, proved independently.
                args.iter().take(2).map(|&(a, b)| (a, b)).collect()
            } else {
                conjunct_ranges(toks, cond.0, cond.1).unwrap_or_default()
            };
            for &(ca, cb) in &conjuncts {
                let sides = match find_cmp(toks, ca, cb) {
                    Some(cmp) => vec![cmp.lhs, cmp.rhs],
                    None => vec![(ca, cb)],
                };
                for (slo, shi) in sides {
                    if let Err(e) = flow.prove_arith(file, slo, shi, cb, Some(ca)) {
                        push(
                            &mut seen,
                            out,
                            line,
                            format!(
                                "unchecked arithmetic inside a bounds check: {e}; use the overflow-safe form (`len >= k && i <= len - k`) or justify with `// BOUND:`"
                            ),
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn run(src: &str) -> Vec<Diagnostic> {
        let files = vec![FileModel::parse(
            PathBuf::from("crates/core/src/simd/x.rs"),
            src,
        )];
        let a = Analysis::build(&files);
        let mut out = Vec::new();
        check(&a, &mut out);
        out
    }

    #[test]
    fn legacy_assert_form_denies_and_rewrite_passes() {
        let d = run("fn legacy(xs: &[f64], at: usize) -> f64 {\n\
             debug_assert!(at + 2 <= xs.len());\n\
             unsafe { *xs.as_ptr().add(at) }\n\
             }\n\
             fn rewritten(xs: &[f64], at: usize) -> f64 {\n\
             debug_assert!(xs.len() >= 2 && at <= xs.len() - 2);\n\
             unsafe { *xs.as_ptr().add(at) }\n\
             }\n");
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 2);
        assert!(d[0].message.contains("bounds check"), "{d:?}");
    }

    #[test]
    fn arithmetic_def_feeding_an_offset_denies_at_the_let() {
        let d = run("fn gather(xs: &[f64], i: usize, stride: usize) -> f64 {\n\
             let o = i * stride;\n\
             unsafe { *xs.as_ptr().add(o) }\n\
             }\n");
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 2, "deny points at the let: {d:?}");
    }

    #[test]
    fn guard_bounded_arithmetic_passes() {
        let d = run("fn sum(a: &[f64]) -> f64 {\n\
             let d = a.len();\n\
             let mut dim = 0;\n\
             let mut acc = 0.0;\n\
             while dim + 4 <= d {\n\
             acc += unsafe { *a.as_ptr().add(dim + 2) };\n\
             dim += 4;\n\
             }\n\
             acc\n\
             }\n");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn sink_helper_call_arguments_are_checked() {
        let d = run("fn load2(xs: &[f64], at: usize) -> f64 {\n\
             debug_assert!(xs.len() >= 2 && at <= xs.len() - 2);\n\
             unsafe { *xs.as_ptr().add(at) }\n\
             }\n\
             fn column(data: &[f64], dim: usize, width: usize) -> f64 {\n\
             load2(data, dim * width)\n\
             }\n");
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 6);
        assert!(d[0].message.contains("sink `load2`"), "{d:?}");
    }

    #[test]
    fn bound_comment_justifies_the_arithmetic() {
        let d = run("fn load2(xs: &[f64], at: usize) -> f64 {\n\
             debug_assert!(xs.len() >= 2 && at <= xs.len() - 2);\n\
             unsafe { *xs.as_ptr().add(at) }\n\
             }\n\
             fn column(data: &[f64], dim: usize, width: usize) -> f64 {\n\
             // BOUND: data is dims*width long, so the product fits usize.\n\
             load2(data, dim * width)\n\
             }\n");
        assert!(d.is_empty(), "{d:?}");
    }
}
