//! Pass 1a — the workspace symbol table.
//!
//! The lexical rule (R6) only needs token adjacency; R10 (poll
//! reachability across calls) and R12 (engine-vs-manifest `sync`) need
//! to know *what a name is*: which `impl` block a
//! function lives in, what type a struct field has, what a `let` binding
//! aliases. [`SymbolTable::build`] extracts exactly that from the token
//! streams — no type inference, no generics unification, just the
//! name→type facts the rules consume.
//!
//! Approximation contract (documented in DESIGN.md §10): types are tracked
//! as their *token text* (`Arc < Mutex < Inner > >`), matched by substring
//! (`ty_contains("Mutex")`). That over-approximates (a field `not_an_atomic:
//! PseudoAtomicLog` would match "Atomic") and under-approximates (a type
//! alias hides its target). Both failure modes are deliberate: the checker
//! prefers resolving *something* over resolving nothing, and every rule
//! that consumes a resolution stays suppressible.

use crate::lexer::TokenKind;
use crate::parse::FileModel;
use std::collections::BTreeMap;

/// A named, typed slot: a function parameter or a struct field.
#[derive(Clone, Debug)]
pub struct TypedName {
    pub name: String,
    /// The declared type, as joined token text (`& AtomicBool`,
    /// `Option < LifecycleCtx >`). Matched by substring, never parsed.
    pub ty: String,
}

impl TypedName {
    /// True when the declared type mentions `needle` as a token.
    pub fn ty_contains(&self, needle: &str) -> bool {
        ty_mentions(&self.ty, needle)
    }
}

/// True when type text `ty` contains `needle` as a whole token
/// (space-delimited — the builder joins type tokens with spaces).
pub fn ty_mentions(ty: &str, needle: &str) -> bool {
    ty.split(' ').any(|t| t == needle || t.starts_with(needle))
}

/// One function item, with the impl/trait context the parser alone cannot
/// see.
#[derive(Clone, Debug)]
pub struct FnSym {
    pub name: String,
    /// The `impl` block's self type (`impl BufferPool { … }` →
    /// `BufferPool`; `impl Disk for MemDisk` → `MemDisk`). `None` for free
    /// functions and trait-default methods.
    pub self_ty: Option<String>,
    /// The trait being implemented (or defined, for trait-default
    /// methods), when any.
    pub trait_name: Option<String>,
    /// True when the first parameter is some flavour of `self`.
    pub has_self: bool,
    /// Non-self parameters, in order.
    pub params: Vec<TypedName>,
    /// Index of the containing file in the workspace file list.
    pub file: usize,
    /// Token index of the body's opening `{`.
    pub body_start: usize,
    /// Token index one past the body's closing `}`.
    pub body_end: usize,
    pub line: u32,
    /// True when the item is test-only (`#[cfg(test)]` / `#[test]`).
    pub is_test: bool,
}

/// A struct definition and its named fields.
#[derive(Clone, Debug)]
pub struct StructSym {
    pub name: String,
    pub fields: Vec<TypedName>,
}

/// The workspace-wide symbol table.
#[derive(Debug, Default)]
pub struct SymbolTable {
    pub fns: Vec<FnSym>,
    /// Function ids by name (one name, many impls — trait methods).
    pub by_name: BTreeMap<String, Vec<usize>>,
    /// Structs by type name. A name collision across crates keeps the
    /// definition with more fields.
    pub structs: BTreeMap<String, StructSym>,
    /// `static NAME: Ty` declarations by name → type text.
    pub statics: BTreeMap<String, String>,
    /// (file index, body_start) → fn id, for `enclosing_fn` → symbol hops.
    fn_by_body: BTreeMap<(usize, usize), usize>,
}

impl SymbolTable {
    /// Builds the table over every file of the workspace.
    pub fn build(files: &[FileModel]) -> SymbolTable {
        let mut t = SymbolTable::default();
        for (fi, f) in files.iter().enumerate() {
            collect_structs_and_statics(f, &mut t);
            collect_fns(fi, f, &mut t);
        }
        for (i, f) in t.fns.iter().enumerate() {
            t.by_name.entry(f.name.clone()).or_default().push(i);
            t.fn_by_body.insert((f.file, f.body_start), i);
        }
        t
    }

    /// The symbol for the function whose body opens at `body_start` in
    /// file `file` (pairs with [`FileModel::enclosing_fn`]).
    pub fn fn_at(&self, file: usize, body_start: usize) -> Option<&FnSym> {
        self.fn_by_body
            .get(&(file, body_start))
            .map(|&i| &self.fns[i])
    }

    /// The declared type of field `field` on struct `ty`, if known.
    pub fn field_ty(&self, ty: &str, field: &str) -> Option<&TypedName> {
        self.structs
            .get(ty)
            .and_then(|s| s.fields.iter().find(|f| f.name == field))
    }
}

/// What a receiver expression resolved to.
#[derive(Clone, Debug)]
pub struct Resolution {
    /// The canonical name: the struct field, static, or parameter the
    /// receiver chain bottoms out in (aliases followed). Falls back to the
    /// receiver's own text when nothing resolves.
    pub name: String,
    /// The declared type text, when the chain resolved to a typed slot.
    pub ty: Option<String>,
}

impl Resolution {
    /// True when the resolved type mentions `needle`.
    pub fn ty_mentions(&self, needle: &str) -> bool {
        self.ty.as_deref().is_some_and(|t| ty_mentions(t, needle))
    }
}

/// Resolves the receiver chain ending at token `recv_end` (the identifier
/// immediately before `.method(`) inside function `f` of `file`.
///
/// Handles, in priority order: `self.field` chains (via the impl type's
/// struct definition), `let`-bound aliases of such chains (last binding
/// before the use wins, so shadowing resolves correctly), typed `let`
/// bindings (`let x: Ty`), `Ty::new()` constructions, function parameters,
/// and statics. Anything else keeps its own name, untyped.
pub fn resolve_receiver(
    table: &SymbolTable,
    file: &FileModel,
    f: &FnSym,
    recv_end: usize,
) -> Resolution {
    resolve_chain(table, file, f, chain_of(file, recv_end), recv_end, 0)
}

/// The dotted identifier chain ending at `end`: `self . a . b` → `[self,
/// a, b]`.
fn chain_of(file: &FileModel, end: usize) -> Vec<String> {
    let toks = &file.tokens;
    let mut chain = vec![toks[end].text.clone()];
    let mut i = end;
    while i >= 2 && toks[i - 1].is_punct('.') && toks[i - 2].kind == TokenKind::Ident {
        i -= 2;
        chain.push(toks[i].text.clone());
    }
    chain.reverse();
    chain
}

fn resolve_chain(
    table: &SymbolTable,
    file: &FileModel,
    f: &FnSym,
    chain: Vec<String>,
    before: usize,
    depth: u32,
) -> Resolution {
    let fallback = Resolution {
        name: chain.last().cloned().unwrap_or_default(),
        ty: None,
    };
    if depth > 4 || chain.is_empty() {
        return fallback;
    }
    // `self.field[.field2]` — walk the impl type's fields.
    if chain[0] == "self" {
        let Some(mut ty) = f.self_ty.clone() else {
            return fallback;
        };
        let mut name = "self".to_string();
        for field in &chain[1..] {
            match table.field_ty(&ty, field) {
                Some(slot) => {
                    name = slot.name.clone();
                    ty = slot
                        .ty
                        .split(' ')
                        .find(|t| t.chars().next().is_some_and(|c| c.is_ascii_uppercase()))
                        .unwrap_or(&slot.ty)
                        .to_string();
                    if chain.last() == Some(field) {
                        // Keep the full declared text for the final hop so
                        // `ty_mentions` sees wrappers too.
                        return Resolution {
                            name,
                            ty: table
                                .field_ty(&find_owner(table, &chain, f), field)
                                .map(|s| s.ty.clone()),
                        };
                    }
                }
                None => {
                    return Resolution {
                        name: field.clone(),
                        ty: None,
                    }
                }
            }
        }
        return Resolution { name, ty: Some(ty) };
    }
    if chain.len() == 1 {
        let name = &chain[0];
        // Last `let` binding of `name` before the use site.
        if let Some(res) = resolve_let(table, file, f, name, before, depth) {
            return res;
        }
        // Function parameter.
        if let Some(p) = f.params.iter().find(|p| &p.name == name) {
            return Resolution {
                name: p.name.clone(),
                ty: Some(p.ty.clone()),
            };
        }
        // Static.
        if let Some(ty) = table.statics.get(name) {
            return Resolution {
                name: name.clone(),
                ty: Some(ty.clone()),
            };
        }
    }
    fallback
}

/// The struct owning the last field hop of a `self.…` chain (the impl type
/// for `self.f`, the type of `f` for `self.f.g`).
fn find_owner(table: &SymbolTable, chain: &[String], f: &FnSym) -> String {
    let mut ty = f.self_ty.clone().unwrap_or_default();
    for field in &chain[1..chain.len() - 1] {
        if let Some(slot) = table.field_ty(&ty, field) {
            ty = slot
                .ty
                .split(' ')
                .find(|t| t.chars().next().is_some_and(|c| c.is_ascii_uppercase()))
                .unwrap_or(&slot.ty)
                .to_string();
        }
    }
    ty
}

/// Scans `f`'s body before token `before` for the last `let <name> …`
/// binding and resolves what it binds to.
fn resolve_let(
    table: &SymbolTable,
    file: &FileModel,
    f: &FnSym,
    name: &str,
    before: usize,
    depth: u32,
) -> Option<Resolution> {
    let toks = &file.tokens;
    let mut found: Option<Resolution> = None;
    let mut i = f.body_start;
    while i < before.min(f.body_end) {
        if !toks[i].is_ident("let") {
            i += 1;
            continue;
        }
        // `let [mut] name` — only simple ident patterns participate.
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
            j += 1;
        }
        if !toks.get(j).is_some_and(|t| t.is_ident(name)) {
            i += 1;
            continue;
        }
        let after = j + 1;
        // `let name : Ty = …` — explicit type annotation.
        if toks.get(after).is_some_and(|t| t.is_punct(':')) {
            let mut k = after + 1;
            let mut ty = String::new();
            while k < f.body_end && !toks[k].is_punct('=') && !toks[k].is_punct(';') {
                if !ty.is_empty() {
                    ty.push(' ');
                }
                ty.push_str(&toks[k].text);
                k += 1;
            }
            found = Some(Resolution {
                name: name.to_string(),
                ty: Some(ty),
            });
            i = after;
            continue;
        }
        // `let name = <expr>` — follow simple aliases.
        if toks.get(after).is_some_and(|t| t.is_punct('=')) {
            let mut k = after + 1;
            // Skip leading borrows.
            while toks
                .get(k)
                .is_some_and(|t| t.is_punct('&') || t.is_ident("mut"))
            {
                k += 1;
            }
            // `Ty :: new (…)` style construction.
            if toks.get(k).map(|t| t.kind) == Some(TokenKind::Ident)
                && toks.get(k + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(k + 2).is_some_and(|t| t.is_punct(':'))
                && toks[k]
                    .text
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_uppercase())
            {
                found = Some(Resolution {
                    name: name.to_string(),
                    ty: Some(toks[k].text.clone()),
                });
                i = after;
                continue;
            }
            // An ident chain (`self . field`, `other`) possibly followed
            // by `. clone ( )` — find the chain end.
            if toks.get(k).map(|t| t.kind) == Some(TokenKind::Ident) {
                let mut end = k;
                while toks.get(end + 1).is_some_and(|t| t.is_punct('.'))
                    && toks.get(end + 2).map(|t| t.kind) == Some(TokenKind::Ident)
                    && !toks.get(end + 3).is_some_and(|t| t.is_punct('('))
                {
                    end += 2;
                }
                // Tolerate a trailing `.clone()` / `.as_ref()` hop.
                let terminator_ok = toks
                    .get(end + 1)
                    .is_none_or(|t| t.is_punct(';') || t.is_punct('.'));
                if terminator_ok {
                    let sub = chain_of(file, end);
                    if sub.first().map(String::as_str) != Some(name) {
                        let res = resolve_chain(table, file, f, sub, i, depth + 1);
                        found = Some(res);
                        i = after;
                        continue;
                    }
                }
            }
            // Opaque initializer: the binding exists but stays untyped —
            // record it so shadowing still takes effect.
            found = Some(Resolution {
                name: name.to_string(),
                ty: None,
            });
        }
        i = after;
    }
    found
}

/// Collects `struct` fields and `static` declarations from one file.
fn collect_structs_and_statics(file: &FileModel, t: &mut SymbolTable) {
    let toks = &file.tokens;
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("struct")
            && toks.get(i + 1).map(|t| t.kind) == Some(TokenKind::Ident)
        {
            let name = toks[i + 1].text.clone();
            // Find the `{` opening named fields (skip generics); a `;` or
            // `(` first means unit/tuple struct — no named fields.
            let mut j = i + 2;
            let mut open = None;
            let mut angle = 0i32;
            while j < toks.len() {
                if toks[j].is_punct('<') {
                    angle += 1;
                } else if toks[j].is_punct('>') {
                    angle -= 1;
                } else if toks[j].is_punct(';') || (toks[j].is_punct('(') && angle == 0) {
                    break;
                } else if toks[j].is_punct('{') && angle <= 0 {
                    open = Some(j);
                    break;
                }
                j += 1;
            }
            if let Some(open) = open {
                let close = file.skip_group(open);
                let fields = parse_fields(file, open + 1, close.saturating_sub(1));
                let keep = match t.structs.get(&name) {
                    Some(old) => fields.len() > old.fields.len(),
                    None => true,
                };
                if keep {
                    t.structs.insert(name.clone(), StructSym { name, fields });
                }
                i = close;
                continue;
            }
        }
        if toks[i].is_ident("static") {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            if toks.get(j).map(|t| t.kind) == Some(TokenKind::Ident)
                && toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
            {
                let name = toks[j].text.clone();
                let mut k = j + 2;
                let mut ty = String::new();
                while k < toks.len() && !toks[k].is_punct('=') && !toks[k].is_punct(';') {
                    if !ty.is_empty() {
                        ty.push(' ');
                    }
                    ty.push_str(&toks[k].text);
                    k += 1;
                }
                t.statics.entry(name).or_insert(ty);
            }
        }
        i += 1;
    }
}

/// Parses `name: Type, …` field lists between `start..end` (exclusive of
/// the braces). Attributes and visibility are skipped; the type text runs
/// to the next top-level `,`.
fn parse_fields(file: &FileModel, start: usize, end: usize) -> Vec<TypedName> {
    let toks = &file.tokens;
    let mut fields = Vec::new();
    let mut i = start;
    while i < end {
        // Skip attributes and visibility.
        if toks[i].is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            i = file.skip_group(i + 1);
            continue;
        }
        if toks[i].is_ident("pub") {
            i += 1;
            if toks.get(i).is_some_and(|t| t.is_punct('(')) {
                i = file.skip_group(i);
            }
            continue;
        }
        if toks[i].kind == TokenKind::Ident && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
        {
            let name = toks[i].text.clone();
            let mut k = i + 2;
            let mut ty = String::new();
            let mut depth = 0i32;
            while k < end {
                if toks[k].is_punct('<') || toks[k].is_punct('(') || toks[k].is_punct('[') {
                    depth += 1;
                } else if toks[k].is_punct('>')
                    || toks[k].is_punct(')')
                    || toks[k].is_punct(']')
                {
                    depth -= 1;
                } else if toks[k].is_punct(',') && depth <= 0 {
                    break;
                }
                if !ty.is_empty() {
                    ty.push(' ');
                }
                ty.push_str(&toks[k].text);
                k += 1;
            }
            fields.push(TypedName { name, ty });
            i = k + 1;
            continue;
        }
        i += 1;
    }
    fields
}

/// An `impl`/`trait` block's extent and identity, for attributing the
/// functions inside it.
struct Block {
    self_ty: Option<String>,
    trait_name: Option<String>,
    body_start: usize,
    body_end: usize,
}

/// Collects function symbols, attributing each to its innermost enclosing
/// `impl`/`trait` block.
fn collect_fns(fi: usize, file: &FileModel, t: &mut SymbolTable) {
    let blocks = find_blocks(file);
    for span in &file.fns {
        let block = blocks
            .iter()
            .filter(|b| b.body_start < span.body_start && span.body_end <= b.body_end)
            .max_by_key(|b| b.body_start);
        let (has_self, params) = parse_signature(file, span);
        t.fns.push(FnSym {
            name: span.name.clone(),
            self_ty: block.and_then(|b| b.self_ty.clone()),
            trait_name: block.and_then(|b| b.trait_name.clone()),
            has_self,
            params,
            file: fi,
            body_start: span.body_start,
            body_end: span.body_end,
            line: span.line,
            is_test: file.is_test_line(span.line),
        });
    }
}

/// Finds `impl [Trait for] Type { … }` and `trait Name { … }` extents.
fn find_blocks(file: &FileModel) -> Vec<Block> {
    let toks = &file.tokens;
    let mut blocks = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("impl") {
            // Header: skip generics, read path(s) until `for` / `{`.
            let mut j = i + 1;
            let mut angle = 0i32;
            let mut first_path: Vec<String> = Vec::new();
            let mut second_path: Vec<String> = Vec::new();
            let mut saw_for = false;
            while j < toks.len() && !(toks[j].is_punct('{') && angle <= 0) {
                if toks[j].is_punct('<') {
                    angle += 1;
                } else if toks[j].is_punct('>') {
                    angle -= 1;
                } else if angle == 0 && toks[j].is_ident("for") {
                    saw_for = true;
                } else if angle == 0 && toks[j].is_ident("where") {
                    // The rest of the header is bounds; scan to `{`.
                } else if angle == 0 && toks[j].kind == TokenKind::Ident {
                    if saw_for {
                        second_path.push(toks[j].text.clone());
                    } else {
                        first_path.push(toks[j].text.clone());
                    }
                }
                j += 1;
            }
            if j < toks.len() {
                let body_end = file.skip_group(j);
                let (trait_name, self_ty) = if saw_for {
                    (first_path.last().cloned(), last_type_name(&second_path))
                } else {
                    (None, last_type_name(&first_path))
                };
                blocks.push(Block {
                    self_ty,
                    trait_name,
                    body_start: j,
                    body_end,
                });
            }
            i = j + 1;
            continue;
        }
        if toks[i].is_ident("trait")
            && toks.get(i + 1).map(|t| t.kind) == Some(TokenKind::Ident)
        {
            let name = toks[i + 1].text.clone();
            let mut j = i + 2;
            let mut angle = 0i32;
            while j < toks.len() && !(toks[j].is_punct('{') && angle <= 0) {
                if toks[j].is_punct('<') {
                    angle += 1;
                } else if toks[j].is_punct('>') {
                    angle -= 1;
                } else if toks[j].is_punct(';') {
                    break;
                }
                j += 1;
            }
            if j < toks.len() && toks[j].is_punct('{') {
                let body_end = file.skip_group(j);
                blocks.push(Block {
                    self_ty: None,
                    trait_name: Some(name),
                    body_start: j,
                    body_end,
                });
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    blocks
}

/// The self type is the path's last plausible type name — skipping
/// keywords that may trail in a `where` clause.
fn last_type_name(path: &[String]) -> Option<String> {
    path.iter()
        .rev()
        .find(|s| s.chars().next().is_some_and(|c| c.is_ascii_uppercase()))
        .or_else(|| path.last())
        .cloned()
}

/// Parses a function's parameter list: `(self, a: Ty, b: &Ty)` →
/// (has_self, non-self params).
fn parse_signature(file: &FileModel, span: &crate::parse::FnSpan) -> (bool, Vec<TypedName>) {
    let toks = &file.tokens;
    // The parameter list is the first `(` between the fn name and the body.
    let mut open = None;
    let mut i = 0;
    // Locate the `fn` keyword for this span: scan back from body_start for
    // the matching name token.
    for j in (0..span.body_start).rev() {
        if toks[j].is_ident("fn") && toks.get(j + 1).is_some_and(|t| t.is_ident(&span.name)) {
            i = j + 2;
            break;
        }
    }
    let mut angle = 0i32;
    while i < span.body_start {
        if toks[i].is_punct('<') {
            angle += 1;
        } else if toks[i].is_punct('>') {
            angle -= 1;
        } else if toks[i].is_punct('(') && angle <= 0 {
            open = Some(i);
            break;
        }
        i += 1;
    }
    let Some(open) = open else {
        return (false, Vec::new());
    };
    let close = file.skip_group(open);
    let mut has_self = false;
    let mut params = Vec::new();
    let mut k = open + 1;
    while k + 1 < close {
        if toks[k].is_ident("self") {
            has_self = true;
            k += 1;
            continue;
        }
        if toks[k].kind == TokenKind::Ident && toks.get(k + 1).is_some_and(|t| t.is_punct(':'))
        {
            let name = toks[k].text.clone();
            let mut j = k + 2;
            let mut ty = String::new();
            let mut depth = 0i32;
            while j + 1 < close {
                if toks[j].is_punct('<') || toks[j].is_punct('(') || toks[j].is_punct('[') {
                    depth += 1;
                } else if toks[j].is_punct('>')
                    || toks[j].is_punct(')')
                    || toks[j].is_punct(']')
                {
                    depth -= 1;
                } else if toks[j].is_punct(',') && depth <= 0 {
                    break;
                }
                if !ty.is_empty() {
                    ty.push(' ');
                }
                ty.push_str(&toks[j].text);
                j += 1;
            }
            params.push(TypedName { name, ty });
            k = j + 1;
            continue;
        }
        k += 1;
    }
    (has_self, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn table(src: &str) -> (SymbolTable, Vec<FileModel>) {
        let files = vec![FileModel::parse(PathBuf::from("t.rs"), src)];
        (SymbolTable::build(&files), files)
    }

    #[test]
    fn impl_blocks_attribute_methods() {
        let (t, _) = table(
            "struct Pool { inner: Mutex<Inner> }\n\
             impl Pool { fn fetch(&self) {} }\n\
             impl Disk for Pool { fn read_page(&self) {} }\n\
             fn free() {}\n",
        );
        let fetch = &t.fns[t.by_name["fetch"][0]];
        assert_eq!(fetch.self_ty.as_deref(), Some("Pool"));
        assert_eq!(fetch.trait_name, None);
        assert!(fetch.has_self);
        let rp = &t.fns[t.by_name["read_page"][0]];
        assert_eq!(rp.self_ty.as_deref(), Some("Pool"));
        assert_eq!(rp.trait_name.as_deref(), Some("Disk"));
        let free = &t.fns[t.by_name["free"][0]];
        assert_eq!(free.self_ty, None);
        assert!(!free.has_self);
    }

    #[test]
    fn struct_fields_carry_types() {
        let (t, _) = table(
            "pub struct Ctx {\n    pub cancel: AtomicBool,\n    deadline: Option<Instant>,\n    stats: Arc<Stats>,\n}\n",
        );
        let cancel = t.field_ty("Ctx", "cancel").expect("cancel field");
        assert!(cancel.ty_contains("AtomicBool"));
        let stats = t.field_ty("Ctx", "stats").expect("stats field");
        assert!(stats.ty_contains("Stats"));
        assert!(!stats.ty_contains("AtomicBool"));
    }

    #[test]
    fn self_field_receivers_resolve_by_type() {
        let (t, files) = table(
            "struct Pool { stop: AtomicBool }\n\
             impl Pool { fn f(&self) { self.stop.store(true, Ordering::Relaxed); } }\n",
        );
        let f = &t.fns[t.by_name["f"][0]];
        let file = &files[0];
        let store = file
            .tokens
            .iter()
            .position(|x| x.is_ident("store"))
            .unwrap();
        let r = resolve_receiver(&t, file, f, store - 2);
        assert_eq!(r.name, "stop");
        assert!(r.ty_mentions("AtomicBool"), "{r:?}");
    }

    #[test]
    fn let_aliases_resolve_to_the_field_with_shadowing() {
        let (t, files) = table(
            "struct Pool { cursor: AtomicUsize, reads: AtomicU64 }\n\
             impl Pool { fn f(&self) {\n\
                 let c = &self.reads;\n\
                 let c = &self.cursor;\n\
                 c.fetch_add(1, Ordering::Relaxed);\n\
             } }\n",
        );
        let f = &t.fns[t.by_name["f"][0]];
        let file = &files[0];
        let op = file
            .tokens
            .iter()
            .position(|x| x.is_ident("fetch_add"))
            .unwrap();
        let r = resolve_receiver(&t, file, f, op - 2);
        assert_eq!(r.name, "cursor", "last binding wins");
        assert!(r.ty_mentions("AtomicUsize"), "{r:?}");
    }

    #[test]
    fn params_and_statics_resolve() {
        let (t, files) = table(
            "static NEXT: AtomicU64 = AtomicU64::new(0);\n\
             fn f(stop: &AtomicBool) { stop.load(Ordering::Relaxed); NEXT.load(Ordering::Relaxed); }\n",
        );
        let f = &t.fns[t.by_name["f"][0]];
        let file = &files[0];
        let loads: Vec<usize> = file
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, x)| x.is_ident("load"))
            .map(|(i, _)| i)
            .collect();
        let p = resolve_receiver(&t, file, f, loads[0] - 2);
        assert_eq!(p.name, "stop");
        assert!(p.ty_mentions("AtomicBool"));
        let s = resolve_receiver(&t, file, f, loads[1] - 2);
        assert_eq!(s.name, "NEXT");
        assert!(s.ty_mentions("AtomicU64"));
    }

    #[test]
    fn unresolvable_receivers_keep_their_name() {
        let (t, files) = table("fn f() { mystery.load(Ordering::Relaxed); }");
        let f = &t.fns[t.by_name["f"][0]];
        let file = &files[0];
        let op = file.tokens.iter().position(|x| x.is_ident("load")).unwrap();
        let r = resolve_receiver(&t, file, f, op - 2);
        assert_eq!(r.name, "mystery");
        assert!(r.ty.is_none());
    }
}
