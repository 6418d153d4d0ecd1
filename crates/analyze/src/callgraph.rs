//! Pass 1b — a conservative workspace call graph.
//!
//! Edges are resolved by name plus receiver type, never by full type
//! inference:
//!
//! - `recv.method(…)` — the receiver chain is resolved through the symbol
//!   table ([`crate::symbols::resolve_receiver`]). A known receiver type
//!   narrows the edge to the impls of that type; an unknown type keeps an
//!   edge to *every* method of that name (including every trait impl —
//!   this is the "trait-method edges to all impls" over-approximation).
//! - `Type::assoc(…)` — narrowed to the named type's impls (`Self::` uses
//!   the enclosing impl type).
//! - `free(…)` — bare calls cannot be method calls in Rust, so they edge
//!   only to free functions (no `self_ty`).
//! - `name!(…)` macros, keywords, and call-less parens are not edges.
//!
//! Reachability is a monotone bitset fixed-point computed once at build:
//! `reach[f] = ⋃ targets(f) ∪ reach[target]` iterated to convergence.
//! Cycles converge exactly (the transfer function is monotone on a finite
//! lattice), so the interprocedural rules (R10, R12) terminate on
//! recursion knots with the *full* closure — no under-approximation inside
//! strongly connected components.

use crate::parse::FileModel;
use crate::symbols::{resolve_receiver, FnSym, SymbolTable};

/// One call expression inside a function body.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// The callee name as written.
    pub name: String,
    /// Token index of the callee name token in the caller's file.
    pub tok: usize,
    pub line: u32,
    /// Candidate callee fn ids (empty for calls into std / out of
    /// workspace).
    pub targets: Vec<usize>,
    /// True when `targets` came from a *precise* resolution — a receiver
    /// narrowed by its declared type, a `Self::`/`Type::` path with a
    /// matching impl, or a bare free-function call. False for the
    /// keep-every-method fallback (unknown receiver, trait object,
    /// computed receiver), whose edges over-approximate heavily. A rule
    /// that *denied* on reachability would trust only precise edges; R10,
    /// which *clears* on reachability, may use all of them.
    pub resolved: bool,
}

/// The workspace call graph: per-function call sites, reverse edges, and
/// the precomputed reachability closure.
#[derive(Debug)]
pub struct CallGraph {
    /// `calls[f]` — call sites inside function `f`, in token order.
    pub calls: Vec<Vec<CallSite>>,
    /// `callers[f]` — ids of functions with an edge into `f`.
    pub callers: Vec<Vec<usize>>,
    /// `reach[f]` — bitset of every function transitively callable from
    /// `f` (excluding `f` itself unless it sits on a cycle).
    reach: Vec<Vec<u64>>,
}

/// Keywords and control constructs that look like `ident (` but are not
/// calls.
const NON_CALLS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "fn", "in", "as", "let", "else", "move",
    "break", "continue", "unsafe", "where", "impl", "dyn",
];

impl CallGraph {
    /// Builds call sites, reverse edges, and the reachability closure for
    /// every function in `table`.
    pub fn build(files: &[FileModel], table: &SymbolTable) -> CallGraph {
        let n = table.fns.len();
        let mut calls = Vec::with_capacity(n);
        for f in table.fns.iter() {
            calls.push(collect_calls(files, table, f));
        }
        let mut callers = vec![Vec::new(); n];
        for (fid, sites) in calls.iter().enumerate() {
            for site in sites {
                for &t in &site.targets {
                    if !callers[t].contains(&fid) {
                        callers[t].push(fid);
                    }
                }
            }
        }
        let words = n.div_ceil(64).max(1);
        let mut reach = vec![vec![0u64; words]; n];
        let mut changed = true;
        while changed {
            changed = false;
            for f in 0..n {
                let mut row = std::mem::take(&mut reach[f]);
                for site in &calls[f] {
                    for &t in &site.targets {
                        if row[t / 64] & (1 << (t % 64)) == 0 {
                            row[t / 64] |= 1 << (t % 64);
                            changed = true;
                        }
                        if t != f {
                            for (w, &src) in reach[t].iter().enumerate() {
                                let merged = row[w] | src;
                                if merged != row[w] {
                                    row[w] = merged;
                                    changed = true;
                                }
                            }
                        }
                    }
                }
                reach[f] = row;
            }
        }
        CallGraph {
            calls,
            callers,
            reach,
        }
    }

    /// Every function transitively callable from `f`, in id order.
    pub fn reachable_from(&self, f: usize) -> impl Iterator<Item = usize> + '_ {
        let row = &self.reach[f];
        (0..self.reach.len()).filter(move |&g| row[g / 64] & (1 << (g % 64)) != 0)
    }

    /// True when `g` is transitively callable from `f`.
    pub fn can_reach(&self, f: usize, g: usize) -> bool {
        self.reach[f][g / 64] & (1 << (g % 64)) != 0
    }

    /// True when `pred` holds for `f` or anything transitively callable
    /// from it.
    pub fn reaches<F: Fn(usize) -> bool>(&self, f: usize, pred: F) -> bool {
        pred(f) || self.reachable_from(f).any(pred)
    }

    /// True when function `f` directly contains a call named `name`
    /// (resolved or not — unresolved std calls still count as calls).
    pub fn calls_name(&self, f: usize, name: &str) -> bool {
        self.calls[f].iter().any(|s| s.name == name)
    }
}

/// Scans `f`'s body for call expressions and resolves their targets.
fn collect_calls(files: &[FileModel], table: &SymbolTable, f: &FnSym) -> Vec<CallSite> {
    let file = &files[f.file];
    let toks = &file.tokens;
    let mut out = Vec::new();
    let mut i = f.body_start + 1;
    let end = f.body_end.saturating_sub(1).min(toks.len());
    while i < end {
        let t = &toks[i];
        let is_call = t.kind == crate::lexer::TokenKind::Ident
            && toks
                .get(skip_turbofish(toks, i + 1))
                .is_some_and(|n| n.is_punct('('))
            && !NON_CALLS.contains(&t.text.as_str());
        if !is_call {
            i += 1;
            continue;
        }
        let name = t.text.clone();
        let prev_dot = i >= 1 && toks[i - 1].is_punct('.');
        let prev_path = i >= 2 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':');
        let (targets, resolved) = if prev_dot {
            resolve_method(files, table, f, i, &name)
        } else if prev_path {
            resolve_path_call(table, f, toks, i, &name)
        } else {
            // Bare call: free functions only.
            let ids = table
                .by_name
                .get(&name)
                .map(|ids| {
                    ids.iter()
                        .copied()
                        .filter(|&id| table.fns[id].self_ty.is_none())
                        .collect()
                })
                .unwrap_or_default();
            (ids, true)
        };
        out.push(CallSite {
            name,
            tok: i,
            line: t.line,
            targets,
            resolved,
        });
        i += 1;
    }
    out
}

/// Index one past a `::<…>` generic-argument list starting at `at`, or `at`
/// itself when none starts there: `name::<SQ, MAX>(…)` is as much a call of
/// `name` as `name(…)` is.
fn skip_turbofish(toks: &[crate::lexer::Token], at: usize) -> usize {
    let opens = toks.get(at).is_some_and(|t| t.is_punct(':'))
        && toks.get(at + 1).is_some_and(|t| t.is_punct(':'))
        && toks.get(at + 2).is_some_and(|t| t.is_punct('<'));
    if !opens {
        return at;
    }
    let mut depth = 0u32;
    for (j, t) in toks.iter().enumerate().skip(at + 2) {
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') && !toks[j - 1].is_punct('-') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        } else if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
    }
    at
}

/// `recv.name(…)` — narrow by resolved receiver type when possible. The
/// bool is true only for the narrowed (precise) outcome.
fn resolve_method(
    files: &[FileModel],
    table: &SymbolTable,
    f: &FnSym,
    name_tok: usize,
    name: &str,
) -> (Vec<usize>, bool) {
    let Some(ids) = table.by_name.get(name) else {
        return (Vec::new(), false);
    };
    let methods: Vec<usize> = ids
        .iter()
        .copied()
        .filter(|&id| table.fns[id].has_self)
        .collect();
    if methods.is_empty() {
        return (Vec::new(), false);
    }
    let file = &files[f.file];
    // The receiver chain ends two tokens before the method name
    // (`recv . name`); anything else there (a `)`, `]`, or `?`) means a
    // computed receiver (`foo(x).name()`) — unresolvable, keep all.
    if name_tok < 2 {
        return (methods, false);
    }
    let recv_end = name_tok - 2;
    if file.tokens[recv_end].kind != crate::lexer::TokenKind::Ident {
        return (methods, false);
    }
    let res = resolve_receiver(table, file, f, recv_end);
    let Some(ty) = res.ty else {
        return (methods, false);
    };
    let narrowed: Vec<usize> = methods
        .iter()
        .copied()
        .filter(|&id| {
            table.fns[id]
                .self_ty
                .as_deref()
                .is_some_and(|s| crate::symbols::ty_mentions(&ty, s))
        })
        .collect();
    if narrowed.is_empty() {
        // Known type but no matching impl: a trait object / generic bound
        // (`Box<dyn Disk>`) — keep every impl of the name.
        (methods, false)
    } else {
        (narrowed, true)
    }
}

/// `Qual::name(…)` — narrow to `Qual`'s impls when `Qual` is a type.
fn resolve_path_call(
    table: &SymbolTable,
    f: &FnSym,
    toks: &[crate::lexer::Token],
    name_tok: usize,
    name: &str,
) -> (Vec<usize>, bool) {
    let Some(ids) = table.by_name.get(name) else {
        return (Vec::new(), false);
    };
    let qual = if name_tok >= 3 && toks[name_tok - 3].kind == crate::lexer::TokenKind::Ident {
        Some(toks[name_tok - 3].text.clone())
    } else {
        None
    };
    let qual = match qual.as_deref() {
        Some("Self") => f.self_ty.clone(),
        other => other.map(str::to_string),
    };
    if let Some(q) = qual {
        if q.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
            let narrowed: Vec<usize> = ids
                .iter()
                .copied()
                .filter(|&id| table.fns[id].self_ty.as_deref() == Some(q.as_str()))
                .collect();
            if !narrowed.is_empty() {
                return (narrowed, true);
            }
            // A type qualifier with no matching impl (type alias, enum
            // constructor): fall through to all candidates.
            return (ids.clone(), false);
        }
        // Module path (`module::helper`): free functions only.
        let free: Vec<usize> = ids
            .iter()
            .copied()
            .filter(|&id| table.fns[id].self_ty.is_none())
            .collect();
        return (free, true);
    }
    (ids.clone(), false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn graph(src: &str) -> (CallGraph, SymbolTable) {
        let files = vec![FileModel::parse(PathBuf::from("t.rs"), src)];
        let table = SymbolTable::build(&files);
        let g = CallGraph::build(&files, &table);
        (g, table)
    }

    fn fid(t: &SymbolTable, name: &str, self_ty: Option<&str>) -> usize {
        *t.by_name[name]
            .iter()
            .find(|&&id| t.fns[id].self_ty.as_deref() == self_ty)
            .unwrap()
    }

    #[test]
    fn typed_receiver_narrows_to_the_right_impl() {
        let (g, t) = graph(
            "struct A { d: MemDisk }\n\
             struct MemDisk;\n\
             struct FileDisk;\n\
             impl MemDisk { fn read_page(&self) {} }\n\
             impl FileDisk { fn read_page(&self) {} }\n\
             impl A { fn go(&self) { self.d.read_page(); } }\n",
        );
        let go = fid(&t, "go", Some("A"));
        let mem = fid(&t, "read_page", Some("MemDisk"));
        let file = fid(&t, "read_page", Some("FileDisk"));
        let targets = &g.calls[go][0].targets;
        assert!(targets.contains(&mem));
        assert!(!targets.contains(&file), "typed receiver must narrow");
    }

    #[test]
    fn unknown_receiver_keeps_all_trait_impls() {
        let (g, t) = graph(
            "struct MemDisk; struct FileDisk;\n\
             trait Disk { fn sync(&self); }\n\
             impl Disk for MemDisk { fn sync(&self) {} }\n\
             impl Disk for FileDisk { fn sync(&self) {} }\n\
             fn go(d: &dyn Disk) { d.sync(); }\n",
        );
        let go = fid(&t, "go", None);
        let targets = &g.calls[go][0].targets;
        assert!(targets.contains(&fid(&t, "sync", Some("MemDisk"))));
        assert!(targets.contains(&fid(&t, "sync", Some("FileDisk"))));
    }

    #[test]
    fn shadowed_binding_resolves_to_the_last_type() {
        let (g, t) = graph(
            "struct A { m: MemDisk, f: FileDisk }\n\
             struct MemDisk; struct FileDisk;\n\
             impl MemDisk { fn ping(&self) {} }\n\
             impl FileDisk { fn ping(&self) {} }\n\
             impl A { fn go(&self) {\n\
                 let d = &self.m;\n\
                 let d = &self.f;\n\
                 d.ping();\n\
             } }\n",
        );
        let go = fid(&t, "go", Some("A"));
        let targets = &g.calls[go][0].targets;
        assert!(targets.contains(&fid(&t, "ping", Some("FileDisk"))));
        assert!(
            !targets.contains(&fid(&t, "ping", Some("MemDisk"))),
            "shadowing must rebind the receiver type"
        );
    }

    #[test]
    fn bare_calls_do_not_edge_to_methods() {
        let (g, t) = graph(
            "struct A;\n\
             impl A { fn helper(&self) {} }\n\
             fn helper() {}\n\
             fn go() { helper(); }\n",
        );
        let go = fid(&t, "go", None);
        let targets = &g.calls[go][0].targets;
        assert_eq!(targets, &vec![fid(&t, "helper", None)]);
    }

    #[test]
    fn self_path_calls_resolve_to_the_impl_type() {
        let (g, t) = graph(
            "struct A; struct B;\n\
             impl A { fn make() {} fn go() { Self::make(); } }\n\
             impl B { fn make() {} }\n",
        );
        let go = fid(&t, "go", Some("A"));
        let targets = &g.calls[go][0].targets;
        assert_eq!(targets, &vec![fid(&t, "make", Some("A"))]);
    }

    #[test]
    fn cycles_terminate_and_reach_across_the_knot() {
        let (g, t) = graph(
            "fn a() { b(); }\n\
             fn b() { a(); c(); }\n\
             fn c() {}\n",
        );
        let a = fid(&t, "a", None);
        let c = fid(&t, "c", None);
        assert!(g.can_reach(a, c), "closure must cross the a↔b cycle");
        assert!(g.can_reach(a, a), "a is reachable from itself via b");
        assert!(!g.can_reach(c, a), "leaf reaches nothing");
    }

    #[test]
    fn macros_and_keywords_are_not_calls() {
        let (g, t) = graph("fn go() { println!(\"x\"); if x() {} }\nfn x() -> bool { true }\n");
        let go = fid(&t, "go", None);
        assert!(g.calls[go].iter().all(|s| s.name != "println"));
        assert!(g.calls[go].iter().all(|s| s.name != "if"));
        assert!(g.calls[go].iter().any(|s| s.name == "x"));
    }

    #[test]
    fn turbofish_calls_are_calls() {
        let (g, t) = graph(
            "fn kern<const SQ: bool>() {}\n\
             fn go() { kern::<true>(); m::kern::<{ 1 }>(); let v = Vec::<Vec<u8>>::new(); }\n",
        );
        let go = fid(&t, "go", None);
        let kern = fid(&t, "kern", None);
        let sites: Vec<&CallSite> = g.calls[go].iter().filter(|s| s.name == "kern").collect();
        // The braced const argument is not followed: one site, not two.
        assert_eq!(sites.len(), 1, "{:?}", g.calls[go]);
        assert!(sites[0].resolved && sites[0].targets == [kern]);
        assert!(g.calls_name(go, "new"));
        assert_eq!(g.callers[kern], vec![go]);
    }

    #[test]
    fn reverse_edges_name_the_callers() {
        let (g, t) = graph("fn a() { b(); }\nfn b() {}\nfn c() { b(); }\n");
        let b = fid(&t, "b", None);
        let mut callers = g.callers[b].clone();
        callers.sort_unstable();
        assert_eq!(callers, vec![fid(&t, "a", None), fid(&t, "c", None)]);
    }
}
