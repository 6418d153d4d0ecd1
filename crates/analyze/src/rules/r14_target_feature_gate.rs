//! R14 `target_feature_gate` — vendor intrinsics stay behind their CPU
//! feature gates, and gated functions stay behind the runtime dispatcher.
//!
//! Two halves:
//!
//! 1. Every non-baseline vendor intrinsic (`_mm256_*`, `_mm512_*`) and
//!    every AVX-512 vector/mask type (`__m512d`, `__mmask8`, …) must be
//!    written inside a function — body or signature — carrying a matching
//!    `#[target_feature(enable = "…")]` attribute; a wider gate covers
//!    the features it implies (`avx512f` ⊇ `avx2` ⊇ `avx`). Baseline
//!    features (`sse2` via `_mm_*`, `neon` via `v*q_*`) compile
//!    unconditionally on their targets and need no gate.
//! 2. Every `#[target_feature]`-gated function with a non-baseline feature
//!    may only be entered from (a) another function gated on the same
//!    feature, (b) a dispatch shim in `simd/mod.rs` that branches on the
//!    probed `level()`, or (c) a probe wrapper that asserts the
//!    `*_available()` runtime check and is itself called only from those
//!    shims. Only *precise* call-graph edges are trusted, refined by
//!    module plausibility (a by-name edge from `neon::f` to `avx2::f` is
//!    discarded), so the deny means a real unguarded entry path.

use super::Analysis;
use crate::diag::{Diagnostic, Level};
use crate::lexer::TokenKind;
use crate::parse::{FileModel, FnSpan};
use std::collections::BTreeSet;

pub const RULE: &str = "target_feature_gate";

/// Features that are part of the compilation baseline for the targets the
/// workspace builds for; intrinsics and gates at this level are exempt.
const BASELINE: &[&str] = &["sse", "sse2", "neon"];

/// Gate features accepted for each intrinsic family. `None` marks a
/// baseline (or unrecognized) name.
fn required_features(name: &str) -> Option<&'static [&'static str]> {
    if name.starts_with("_mm512_") || name.starts_with("__m512") || name.starts_with("__mmask")
    {
        Some(&["avx512f"])
    } else if name.starts_with("_mm256_") {
        Some(&["avx2", "avx"])
    } else {
        None
    }
}

/// True when a fn gated on `gate` may use feature `feat`: the same
/// feature, or one the compiler enables along with it.
fn covers(gate: &str, feat: &str) -> bool {
    gate == feat
        || match gate {
            "avx512f" => matches!(feat, "avx2" | "avx"),
            "avx2" => feat == "avx",
            _ => false,
        }
}

/// The fn holding token `ti` in its signature or, failing that, its body:
/// vector types sit in parameter lists and return types, ahead of the `{`
/// that [`FileModel::enclosing_fn`] starts from.
fn owning_fn(file: &FileModel, ti: usize) -> Option<&FnSpan> {
    let toks = &file.tokens;
    let mut brackets = 0u32;
    for (j, t) in toks.iter().enumerate().skip(ti) {
        if t.is_punct('[') {
            brackets += 1;
        } else if t.is_punct(']') {
            brackets = brackets.saturating_sub(1);
        } else if t.is_punct('{') {
            if let Some(f) = file.fns.iter().find(|f| f.body_start == j) {
                return Some(f);
            }
            break;
        } else if t.is_punct('}') || (t.is_punct(';') && brackets == 0) {
            break;
        }
    }
    file.enclosing_fn(ti)
}

/// Token ranges (inclusive) covered by `use` declarations. An intrinsic
/// name in an import list brings the symbol into scope; it is not a use
/// of the intrinsic, so half 1 skips these ranges.
fn use_ranges(file: &FileModel) -> Vec<(usize, usize)> {
    let toks = &file.tokens;
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !toks[i].is_ident("use") {
            i += 1;
            continue;
        }
        let start = i;
        let mut j = i + 1;
        while j < toks.len() && !toks[j].is_punct(';') {
            if toks[j].is_punct('{') {
                j = file.skip_group(j);
            } else {
                j += 1;
            }
        }
        out.push((start, j));
        i = j + 1;
    }
    out
}

/// Per-file `mod name { … }` spans: (name, open token, one past close).
fn mod_spans(file: &FileModel) -> Vec<(String, usize, usize)> {
    let toks = &file.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if toks[i].is_ident("mod")
            && toks.get(i + 1).map(|t| t.kind) == Some(TokenKind::Ident)
            && toks.get(i + 2).is_some_and(|t| t.is_punct('{'))
        {
            out.push((toks[i + 1].text.clone(), i + 2, file.skip_group(i + 2)));
        }
    }
    out
}

/// Innermost `mod` containing token `pos`, if any.
fn innermost_mod(mods: &[(String, usize, usize)], pos: usize) -> Option<&str> {
    mods.iter()
        .filter(|(_, o, c)| *o < pos && pos < *c)
        .max_by_key(|(_, o, _)| *o)
        .map(|(n, _, _)| n.as_str())
}

/// `gates[fn_id]` — the feature strings from `#[target_feature(enable=…)]`
/// attributes on each function.
fn gate_map(a: &Analysis) -> Vec<Vec<String>> {
    let mut gates = vec![Vec::new(); a.symbols.fns.len()];
    for (fi, f) in a.files.iter().enumerate() {
        let toks = &f.tokens;
        let mut i = 0;
        while i < toks.len() {
            if !(toks[i].is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('['))) {
                i += 1;
                continue;
            }
            let end = f.skip_group(i + 1);
            let body = &toks[i + 2..end.saturating_sub(1).max(i + 2)];
            if body.first().is_some_and(|t| t.is_ident("target_feature")) {
                let feats: Vec<String> = body
                    .iter()
                    .filter(|t| t.kind == TokenKind::Str)
                    .map(|t| t.text.trim_matches('"').to_string())
                    .collect();
                let target = a
                    .symbols
                    .fns
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.file == fi && s.body_start >= end)
                    .min_by_key(|(_, s)| s.body_start)
                    .map(|(id, _)| id);
                if let Some(id) = target {
                    gates[id].extend(feats);
                }
            }
            i = end;
        }
    }
    gates
}

/// The `mod`-path qualifier written before a call (`x86::f(…)` → `x86`).
fn qualifier(file: &FileModel, name_tok: usize) -> Option<&str> {
    let toks = &file.tokens;
    (name_tok >= 3
        && toks[name_tok - 1].is_punct(':')
        && toks[name_tok - 2].is_punct(':')
        && toks[name_tok - 3].kind == TokenKind::Ident)
        .then(|| toks[name_tok - 3].text.as_str())
}

/// Module-plausibility refinement over a precise by-name edge: the written
/// path must actually be able to denote the target function. Kills the
/// false `neon::f` → `avx2::f` edges the name-based resolver produces.
fn plausible(
    a: &Analysis,
    mods: &[Vec<(String, usize, usize)>],
    caller: usize,
    site_tok: usize,
    target: usize,
) -> bool {
    let c = &a.symbols.fns[caller];
    let t = &a.symbols.fns[target];
    let t_mod = innermost_mod(&mods[t.file], t.body_start);
    match qualifier(&a.files[c.file], site_tok) {
        Some("crate") | Some("self") | Some("super") => true,
        Some(q) => match t_mod {
            Some(m) => q == m,
            None => {
                let stem = a.files[t.file]
                    .path
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .unwrap_or("");
                q == stem
            }
        },
        None => c.file == t.file && innermost_mod(&mods[c.file], site_tok) == t_mod,
    }
}

/// A dispatch shim: lives in `simd/mod.rs` and branches on the probed
/// `level()`.
fn is_shim(a: &Analysis, f: usize) -> bool {
    a.files[a.symbols.fns[f].file]
        .path
        .to_string_lossy()
        .ends_with("simd/mod.rs")
        && a.graph.calls_name(f, "level")
}

/// A probe wrapper: asserts a `*_available()` runtime check and is only
/// ever entered from dispatch shims (zero callers is fine).
fn is_probe(a: &Analysis, mods: &[Vec<(String, usize, usize)>], f: usize) -> bool {
    if !a.graph.calls[f]
        .iter()
        .any(|s| s.name.ends_with("_available"))
    {
        return false;
    }
    for f2 in 0..a.symbols.fns.len() {
        if a.symbols.fns[f2].is_test {
            continue;
        }
        for site in &a.graph.calls[f2] {
            if site.resolved
                && site.targets.contains(&f)
                && plausible(a, mods, f2, site.tok, f)
                && !is_shim(a, f2)
            {
                return false;
            }
        }
    }
    true
}

pub fn check(a: &Analysis, out: &mut Vec<Diagnostic>) {
    let gates = gate_map(a);
    let mods: Vec<_> = a.files.iter().map(mod_spans).collect();

    // Half 1: non-baseline intrinsics sit inside a matching gated fn.
    for (fi, f) in a.files.iter().enumerate() {
        let uses = use_ranges(f);
        for (ti, t) in f.tokens.iter().enumerate() {
            if t.kind != TokenKind::Ident {
                continue;
            }
            let Some(feats) = required_features(&t.text) else {
                continue;
            };
            if uses.iter().any(|&(lo, hi)| lo <= ti && ti <= hi) {
                continue;
            }
            if f.is_test_line(t.line) || f.suppressed(RULE, t.line) {
                continue;
            }
            let gated = owning_fn(f, ti)
                .and_then(|s| a.symbols.fn_id_at(fi, s.body_start))
                .is_some_and(|id| {
                    feats
                        .iter()
                        .any(|ft| gates[id].iter().any(|g| covers(g, ft)))
                });
            if !gated {
                out.push(Diagnostic {
                    rule: RULE,
                    level: Level::Deny,
                    path: f.path.clone(),
                    line: t.line,
                    message: format!(
                        "`{}` used outside a `#[target_feature(enable = \"{}\")]` function",
                        t.text, feats[0]
                    ),
                });
            }
        }
    }

    // Half 2: gated fns are entered only via gated callers, dispatch
    // shims, or probe wrappers.
    let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
    for g in 0..a.symbols.fns.len() {
        if a.symbols.fns[g].is_test {
            continue;
        }
        let nb: Vec<&str> = gates[g]
            .iter()
            .map(|s| s.as_str())
            .filter(|ft| !BASELINE.contains(ft))
            .collect();
        if nb.is_empty() {
            continue;
        }
        #[allow(clippy::needless_range_loop)] // `f` indexes three tables
        for f in 0..a.symbols.fns.len() {
            if f == g || a.symbols.fns[f].is_test {
                continue;
            }
            for site in &a.graph.calls[f] {
                if !site.resolved || !site.targets.contains(&g) {
                    continue;
                }
                if !plausible(a, &mods, f, site.tok, g) {
                    continue;
                }
                let cfile = &a.files[a.symbols.fns[f].file];
                if cfile.is_test_line(site.line) || cfile.suppressed(RULE, site.line) {
                    continue;
                }
                let caller_gated = nb.iter().all(|ft| gates[f].iter().any(|c| covers(c, ft)));
                if caller_gated || is_shim(a, f) || is_probe(a, &mods, f) {
                    continue;
                }
                if !seen.insert((f, site.tok)) {
                    continue;
                }
                out.push(Diagnostic {
                    rule: RULE,
                    level: Level::Deny,
                    path: cfile.path.clone(),
                    line: site.line,
                    message: format!(
                        "`{}` (gated on \"{}\") called from `{}`, which is neither gated, a `simd/mod.rs` dispatch shim, nor a probe wrapper behind one",
                        a.symbols.fns[g].name, nb[0], a.symbols.fns[f].name
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn run(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let models: Vec<FileModel> = files
            .iter()
            .map(|(p, s)| FileModel::parse(PathBuf::from(p), s))
            .collect();
        let a = Analysis::build(&models);
        let mut out = Vec::new();
        check(&a, &mut out);
        out
    }

    #[test]
    fn ungated_avx2_intrinsic_denies_and_gated_passes() {
        let d = run(&[(
            "crates/core/src/simd/x.rs",
            "fn bare() { unsafe { let _ = _mm256_setzero_pd(); } }\n\
             #[target_feature(enable = \"avx2\")]\n\
             unsafe fn gated() { let _ = _mm256_setzero_pd(); }\n",
        )]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 1);
        assert!(d[0].message.contains("_mm256_setzero_pd"), "{d:?}");
    }

    #[test]
    fn avx512_types_in_signatures_need_the_avx512f_gate() {
        let d = run(&[(
            "crates/core/src/simd/x.rs",
            "fn bare(v: __m512d) -> __mmask8 { 0 }\n\
             #[target_feature(enable = \"avx2\")]\n\
             fn narrow(v: __m512d) {}\n\
             #[target_feature(enable = \"avx512f\")]\n\
             fn wide(v: __m512d) -> __mmask8 { let _ = _mm256_setzero_pd(); 0 }\n",
        )]);
        let lines: Vec<u32> = d.iter().map(|x| x.line).collect();
        assert_eq!(lines, [1, 1, 3], "{d:?}");
        assert!(d[0].message.contains("avx512f"), "{d:?}");
    }

    #[test]
    fn a_wider_gate_may_enter_the_gates_it_implies_but_not_the_reverse() {
        let d = run(&[(
            "crates/core/src/simd/x.rs",
            "#[target_feature(enable = \"avx2\")]\n\
             fn four() { let _ = _mm256_setzero_pd(); }\n\
             #[target_feature(enable = \"avx512f\")]\n\
             fn eight() { let _ = _mm512_setzero_pd(); four(); }\n\
             #[target_feature(enable = \"avx2\")]\n\
             fn lifted() { eight(); }\n",
        )]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 6);
        assert!(d[0].message.contains("lifted"), "{d:?}");
    }

    #[test]
    fn imported_intrinsic_names_are_not_uses() {
        let d = run(&[(
            "crates/core/src/simd/x.rs",
            "use std::arch::x86_64::{__m256d, _mm256_setzero_pd};\n\
             #[target_feature(enable = \"avx2\")]\n\
             unsafe fn gated() { let _ = _mm256_setzero_pd(); }\n",
        )]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn baseline_sse2_intrinsics_need_no_gate() {
        let d = run(&[(
            "crates/core/src/simd/x.rs",
            "fn bare() { unsafe { let _ = _mm_setzero_pd(); } }\n",
        )]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn gated_fn_called_from_ungated_non_shim_denies() {
        let d = run(&[(
            "crates/core/src/simd/x.rs",
            "#[target_feature(enable = \"avx2\")]\n\
             unsafe fn kern() { let _ = _mm256_setzero_pd(); }\n\
             fn sneaky() { unsafe { kern(); } }\n",
        )]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 3);
        assert!(d[0].message.contains("sneaky"), "{d:?}");
    }

    #[test]
    fn dispatch_shim_and_probe_wrapper_paths_are_allowed() {
        let d = run(&[(
            "crates/core/src/simd/mod.rs",
            "fn level() -> u8 { 2 }\n\
             fn avx2_available() -> bool { true }\n\
             #[target_feature(enable = \"avx2\")]\n\
             unsafe fn kern() { let _ = _mm256_setzero_pd(); }\n\
             fn wrapper() {\n\
             debug_assert!(avx2_available());\n\
             unsafe { kern(); }\n\
             }\n\
             pub fn dispatch() { if level() == 2 { wrapper(); } }\n",
        )]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn generic_hand_off_is_checked_through_its_turbofish() {
        // The live shape: one generic dispatcher → one generic probe
        // wrapper per tier → the gated kernel, every call a `::<SQ, MAX>`.
        let wrapper = |probe: &str| {
            format!(
                "fn level() -> u8 {{ 2 }}\n\
                 fn avx2_available() -> bool {{ true }}\n\
                 #[target_feature(enable = \"avx2\")]\n\
                 fn kern<const SQ: bool, const MAX: bool>() {{ let _ = _mm256_setzero_pd(); }}\n\
                 fn avx2_within_block<const SQ: bool, const MAX: bool>() {{\n\
                 {probe}\n\
                 unsafe {{ kern::<SQ, MAX>() }}\n\
                 }}\n\
                 pub fn within_block<const SQ: bool, const MAX: bool>() {{\n\
                 if level() == 2 {{ avx2_within_block::<SQ, MAX>(); }}\n\
                 }}\n"
            )
        };
        let ok = wrapper("debug_assert!(avx2_available());");
        let d = run(&[("crates/core/src/simd/mod.rs", &ok)]);
        assert!(d.is_empty(), "{d:?}");
        let unprobed = wrapper("");
        let d = run(&[("crates/core/src/simd/mod.rs", &unprobed)]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 7);
        assert!(d[0].message.contains("avx2_within_block"), "{d:?}");
    }

    #[test]
    fn cross_module_by_name_edges_are_not_plausible() {
        // `neon::f` must not count as an entry into `avx2::f`.
        let d = run(&[(
            "crates/core/src/simd/x.rs",
            "mod avx2 {\n\
             #[target_feature(enable = \"avx2\")]\n\
             pub unsafe fn f() { let _ = _mm256_setzero_pd(); }\n\
             }\n\
             mod neon {\n\
             pub fn f() {}\n\
             }\n\
             fn go() { neon::f(); }\n",
        )]);
        assert!(d.is_empty(), "{d:?}");
    }
}
