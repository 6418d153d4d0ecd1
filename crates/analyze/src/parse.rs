//! A light structural pass over the token stream.
//!
//! The rules don't need a syntax tree — they need to know four structural
//! facts about every token: its brace depth, whether it lives in test-only
//! code, which function body encloses it, and whether a suppression
//! comment covers its line. [`FileModel`] precomputes exactly that.

use crate::lexer::{self, Comment, Token, TokenKind};
use std::path::PathBuf;

/// A function item: its name and the token range of its body.
#[derive(Clone, Debug)]
pub struct FnSpan {
    pub name: String,
    pub line: u32,
    /// Token index of the opening `{` of the body.
    pub body_start: usize,
    /// Token index one past the matching `}`.
    pub body_end: usize,
}

/// Lexed file plus derived structure; the unit every rule consumes.
#[derive(Debug)]
pub struct FileModel {
    /// Path as reported in diagnostics (workspace-relative when walked).
    pub path: PathBuf,
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
    /// Brace depth *before* each token.
    pub depth: Vec<u32>,
    /// Line ranges (inclusive) of items gated to test builds:
    /// `#[cfg(test)]` items and `#[test]` functions.
    pub test_ranges: Vec<(u32, u32)>,
    pub fns: Vec<FnSpan>,
}

impl FileModel {
    pub fn parse(path: PathBuf, src: &str) -> FileModel {
        let lexer::Lexed { tokens, comments } = lexer::lex(src);
        let depth = compute_depths(&tokens);
        let test_ranges = find_test_ranges(&tokens);
        let fns = find_fns(&tokens);
        FileModel {
            path,
            tokens,
            comments,
            depth,
            test_ranges,
            fns,
        }
    }

    /// True when `line` belongs to a test-only item.
    pub fn is_test_line(&self, line: u32) -> bool {
        self.test_ranges
            .iter()
            .any(|&(a, b)| a <= line && line <= b)
    }

    /// True when a comment `allow(hdsj::<rule>)` covers `line` (same line
    /// or up to two lines above — one for the comment itself, one for an
    /// attribute between comment and expression).
    pub fn suppressed(&self, rule: &str, line: u32) -> bool {
        let needle = format!("allow(hdsj::{rule})");
        self.comments.iter().any(|c| {
            c.text.contains(&needle)
                && (c.line == line || (c.end_line < line && c.end_line + 2 >= line))
        })
    }

    /// Index one past the group closed by the delimiter opened at `open`
    /// (`(`, `[` or `{`). Returns `tokens.len()` when unbalanced.
    pub fn skip_group(&self, open: usize) -> usize {
        skip_group(&self.tokens, open)
    }

    /// The function body (if any) containing token index `i`.
    pub fn enclosing_fn(&self, i: usize) -> Option<&FnSpan> {
        self.fns
            .iter()
            .filter(|f| f.body_start <= i && i < f.body_end)
            .max_by_key(|f| f.body_start)
    }
}

fn compute_depths(tokens: &[Token]) -> Vec<u32> {
    let mut depth = 0u32;
    let mut out = Vec::with_capacity(tokens.len());
    for t in tokens {
        out.push(depth);
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth = depth.saturating_sub(1);
        }
    }
    out
}

fn matching_close(open: char) -> char {
    match open {
        '(' => ')',
        '[' => ']',
        _ => '}',
    }
}

pub(crate) fn skip_group(tokens: &[Token], open: usize) -> usize {
    let Some(tok) = tokens.get(open) else {
        return tokens.len();
    };
    let open_c = tok.text.chars().next().unwrap_or('(');
    let close_c = matching_close(open_c);
    let mut depth = 0i64;
    let mut i = open;
    while i < tokens.len() {
        if tokens[i].is_punct(open_c) {
            depth += 1;
        } else if tokens[i].is_punct(close_c) {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    tokens.len()
}

/// True when the attribute body tokens mark the following item as
/// test-only. `#[test]`, `#[cfg(test)]`, `#[cfg(all(test, …))]` qualify;
/// `#[cfg(not(test))]` and unrelated attributes do not.
fn is_test_attr(body: &[Token]) -> bool {
    let has_test = body.iter().any(|t| t.is_ident("test"));
    let has_not = body.iter().any(|t| t.is_ident("not"));
    has_test && !has_not
}

fn find_test_ranges(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !tokens[i].is_punct('#') {
            i += 1;
            continue;
        }
        // Inner attribute `#![…]`: applies to the enclosing scope, never a
        // test marker for the next item.
        let mut j = i + 1;
        let inner = tokens.get(j).is_some_and(|t| t.is_punct('!'));
        if inner {
            j += 1;
        }
        if !tokens.get(j).is_some_and(|t| t.is_punct('[')) {
            i += 1;
            continue;
        }
        let attr_end = skip_group(tokens, j);
        if inner || !is_test_attr(&tokens[j + 1..attr_end.saturating_sub(1)]) {
            i = attr_end;
            continue;
        }
        // Skip any further attributes stacked on the same item.
        let mut k = attr_end;
        while tokens.get(k).is_some_and(|t| t.is_punct('#'))
            && tokens.get(k + 1).is_some_and(|t| t.is_punct('['))
        {
            k = skip_group(tokens, k + 1);
        }
        // The item extends to its `{…}` body or to a terminating `;`,
        // whichever comes first.
        let start_line = tokens[i].line;
        let mut end = k;
        while end < tokens.len() {
            if tokens[end].is_punct(';') {
                break;
            }
            if tokens[end].is_punct('{') {
                end = skip_group(tokens, end) - 1;
                break;
            }
            end += 1;
        }
        let end_line = tokens
            .get(end.min(tokens.len().saturating_sub(1)))
            .map(|t| t.line)
            .unwrap_or(start_line);
        ranges.push((start_line, end_line));
        i = end + 1;
    }
    ranges
}

fn find_fns(tokens: &[Token]) -> Vec<FnSpan> {
    let mut fns = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_ident("fn")
            && tokens.get(i + 1).map(|t| t.kind) == Some(TokenKind::Ident)
        {
            let name = tokens[i + 1].text.clone();
            let line = tokens[i].line;
            // The body is the first `{` after the signature; a `;` first
            // means a bodiless declaration (trait method, extern). `(…)`
            // and `[…]` groups are skipped whole so a `;` inside an array
            // type (`-> [f64; 4]`) does not truncate the signature.
            let mut j = i + 2;
            let mut body = None;
            while j < tokens.len() {
                if tokens[j].is_punct('(') || tokens[j].is_punct('[') {
                    j = skip_group(tokens, j);
                    continue;
                }
                if tokens[j].is_punct(';') {
                    break;
                }
                if tokens[j].is_punct('{') {
                    body = Some(j);
                    break;
                }
                j += 1;
            }
            if let Some(start) = body {
                let end = skip_group(tokens, start);
                fns.push(FnSpan {
                    name,
                    line,
                    body_start: start,
                    body_end: end,
                });
                // Continue scanning *inside* the body too (closures and
                // nested fns) — just advance past the `fn` keyword.
            }
        }
        i += 1;
    }
    fns
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src: &str) -> FileModel {
        FileModel::parse(PathBuf::from("test.rs"), src)
    }

    #[test]
    fn cfg_test_module_is_a_test_range() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\nfn tail() {}\n";
        let m = model(src);
        assert!(!m.is_test_line(1));
        assert!(m.is_test_line(3));
        assert!(m.is_test_line(4));
        assert!(!m.is_test_line(6));
    }

    #[test]
    fn test_fn_attribute_marks_only_that_fn() {
        let src = "#[test]\nfn t() {\n    x.unwrap();\n}\nfn lib() {}\n";
        let m = model(src);
        assert!(m.is_test_line(3));
        assert!(!m.is_test_line(5));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_range() {
        let m = model("#[cfg(not(test))]\nfn live() { x(); }\n");
        assert!(!m.is_test_line(2));
    }

    #[test]
    fn inner_attr_is_ignored() {
        let m = model("#![cfg_attr(not(test), warn(clippy::all))]\nfn live() {}\n");
        assert!(!m.is_test_line(2));
    }

    #[test]
    fn fn_bodies_are_found() {
        let m = model("fn a() { let x = 1; }\nimpl T { fn b(&self) -> u32 { 2 } }\n");
        let names: Vec<_> = m.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    fn array_types_in_signatures_do_not_truncate_the_fn() {
        let m = model("fn spill(v: u64) -> [f64; 4] { mark(); [0.0; 4] }\n");
        let names: Vec<_> = m.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["spill"], "`;` inside `[f64; 4]` is not an end");
        let mark = m.tokens.iter().position(|t| t.is_ident("mark")).unwrap();
        assert_eq!(m.enclosing_fn(mark).map(|f| f.name.as_str()), Some("spill"));
    }

    #[test]
    fn suppression_comments_cover_nearby_lines() {
        let src = "// allow(hdsj::determinism)\nx.now();\ny.now();\n";
        let m = model(src);
        assert!(m.suppressed("determinism", 2));
        assert!(m.suppressed("determinism", 3), "two-line reach");
        assert!(!m.suppressed("lock_order", 2), "rule name must match");
    }

    #[test]
    fn enclosing_fn_resolves_nesting() {
        let src = "fn outer() { fn inner() { mark(); } }";
        let m = model(src);
        let mark = m
            .tokens
            .iter()
            .position(|t| t.is_ident("mark"))
            .expect("mark token");
        assert_eq!(m.enclosing_fn(mark).map(|f| f.name.as_str()), Some("inner"));
    }
}
