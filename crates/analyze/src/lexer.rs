//! A hand-rolled Rust lexer, sufficient for the project's lint rules.
//!
//! This is deliberately not a full Rust lexer: it only needs to be precise
//! about the things that would otherwise produce false positives in a
//! text-level scan — comments (line, nested block, doc), string literals
//! (plain, raw with any number of `#`s, byte strings), char literals vs.
//! lifetimes, and identifiers. Everything else (numbers, punctuation)
//! is tokenized loosely; the rules never need to distinguish `1e-3` from
//! `0xFF`.
//!
//! Comments are kept out of the main token stream and returned separately:
//! the structural rules scan code tokens without tripping over doc text,
//! while the comment list drives `allow(hdsj::<rule>)` suppressions.

/// Kind of a code token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (including raw identifiers, with `r#` kept).
    Ident,
    /// `'a`, `'static`, … (but not char literals).
    Lifetime,
    /// Numeric literal, loosely consumed (suffixes and exponents included).
    Number,
    /// String literal of any flavour; `text` keeps the full source form.
    Str,
    /// Char literal, e.g. `'x'` or `'\n'`.
    Char,
    /// One punctuation character (multi-char operators arrive as
    /// consecutive tokens; the rules inspect adjacency where they care).
    Punct,
}

/// One code token with its 1-based source line.
#[derive(Clone, Debug)]
pub struct Token {
    pub kind: TokenKind,
    pub text: String,
    pub line: u32,
}

impl Token {
    /// True when this is punctuation `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.as_bytes().first() == Some(&(c as u8))
    }

    /// True when this is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == name
    }
}

/// A comment (line or block, doc or plain) with its line extent.
#[derive(Clone, Debug)]
pub struct Comment {
    pub text: String,
    /// Line of the first character.
    pub line: u32,
    /// Line of the last character (differs from `line` for block comments).
    pub end_line: u32,
}

/// Lexer output: code tokens and comments, both in source order.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
}

/// Tokenizes `src`. Unterminated constructs (string, block comment) are
/// tolerated: the remainder of the file becomes the final token, which is
/// the forgiving behaviour a diagnostics tool wants.
pub fn lex(src: &str) -> Lexed {
    Lexer {
        bytes: src.as_bytes(),
        src,
        pos: 0,
        line: 1,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer<'a> {
    bytes: &'a [u8],
    src: &'a str,
    pos: usize,
    line: u32,
    out: Lexed,
}

impl Lexer<'_> {
    fn run(mut self) -> Lexed {
        while self.pos < self.bytes.len() {
            let b = self.bytes[self.pos];
            match b {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                b' ' | b'\t' | b'\r' => self.pos += 1,
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'r' | b'b' => self.raw_or_ident(),
                b'"' => self.string(),
                b'\'' => self.char_or_lifetime(),
                _ if b.is_ascii_digit() => self.number(),
                _ if b == b'_' || b.is_ascii_alphabetic() || b >= 0x80 => self.ident(),
                _ => {
                    self.push(TokenKind::Punct, self.pos, self.pos + 1);
                    self.pos += 1;
                }
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    fn push(&mut self, kind: TokenKind, start: usize, end: usize) {
        self.out.tokens.push(Token {
            kind,
            text: self.src[start..end].to_string(),
            line: self.line,
        });
    }

    fn count_newlines(&mut self, start: usize, end: usize) {
        self.line += self.bytes[start..end]
            .iter()
            .filter(|&&b| b == b'\n')
            .count() as u32;
    }

    fn line_comment(&mut self) {
        let start = self.pos;
        while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\n' {
            self.pos += 1;
        }
        self.out.comments.push(Comment {
            text: self.src[start..self.pos].to_string(),
            line: self.line,
            end_line: self.line,
        });
    }

    fn block_comment(&mut self) {
        let start = self.pos;
        let start_line = self.line;
        self.pos += 2;
        let mut depth = 1u32;
        while self.pos < self.bytes.len() && depth > 0 {
            if self.bytes[self.pos] == b'/' && self.peek(1) == Some(b'*') {
                depth += 1;
                self.pos += 2;
            } else if self.bytes[self.pos] == b'*' && self.peek(1) == Some(b'/') {
                depth -= 1;
                self.pos += 2;
            } else {
                if self.bytes[self.pos] == b'\n' {
                    self.line += 1;
                }
                self.pos += 1;
            }
        }
        self.out.comments.push(Comment {
            text: self.src[start..self.pos].to_string(),
            line: start_line,
            end_line: self.line,
        });
    }

    /// `r` / `b` may start a raw string (`r"`, `r#"`, `br#"`…), a byte
    /// string (`b"`), a raw identifier (`r#name`), or a plain identifier.
    fn raw_or_ident(&mut self) {
        let mut probe = self.pos + 1;
        if self.bytes[self.pos] == b'b' && self.peek(1) == Some(b'r') {
            probe += 1;
        }
        // Count hashes after the prefix.
        let mut hashes = 0usize;
        while self.bytes.get(probe + hashes) == Some(&b'#') {
            hashes += 1;
        }
        match self.bytes.get(probe + hashes) {
            Some(b'"') if probe > self.pos || hashes > 0 || self.bytes[self.pos] == b'b' => {
                // br"", r"", r#""#, b"" (probe==pos+1, hashes==0, b prefix).
                if self.bytes[self.pos] == b'b' && probe == self.pos + 1 && hashes == 0 {
                    // b"...": plain byte string.
                    self.pos += 1;
                    self.string();
                    return;
                }
                self.raw_string(probe + hashes, hashes);
            }
            _ if self.bytes[self.pos] == b'r' && hashes == 1 && probe == self.pos + 1 => {
                // r#ident: raw identifier — or r#"…"# handled above.
                if self
                    .bytes
                    .get(probe + 1)
                    .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
                {
                    self.pos += 2; // skip r#
                    let start = self.pos;
                    self.consume_ident_body();
                    self.push(TokenKind::Ident, start, self.pos);
                } else {
                    self.ident();
                }
            }
            _ => self.ident(),
        }
    }

    /// Raw string whose opening quote is at `quote`, closed by `"` plus
    /// `hashes` `#`s.
    fn raw_string(&mut self, quote: usize, hashes: usize) {
        let start = self.pos;
        let start_line = self.line;
        self.pos = quote + 1;
        while self.pos < self.bytes.len() {
            if self.bytes[self.pos] == b'"' {
                let mut h = 0usize;
                while h < hashes && self.bytes.get(self.pos + 1 + h) == Some(&b'#') {
                    h += 1;
                }
                if h == hashes {
                    self.pos += 1 + hashes;
                    self.count_newlines(start, self.pos);
                    self.out.tokens.push(Token {
                        kind: TokenKind::Str,
                        text: self.src[start..self.pos].to_string(),
                        line: start_line,
                    });
                    return;
                }
            }
            self.pos += 1;
        }
        self.count_newlines(start, self.pos);
        self.out.tokens.push(Token {
            kind: TokenKind::Str,
            text: self.src[start..self.pos].to_string(),
            line: start_line,
        });
    }

    fn string(&mut self) {
        let start = self.pos;
        let start_line = self.line;
        self.pos += 1;
        while self.pos < self.bytes.len() {
            match self.bytes[self.pos] {
                b'\\' => self.pos += 2,
                b'"' => {
                    self.pos += 1;
                    break;
                }
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ => self.pos += 1,
            }
        }
        self.out.tokens.push(Token {
            kind: TokenKind::Str,
            text: self.src[start..self.pos.min(self.bytes.len())].to_string(),
            line: start_line,
        });
    }

    /// `'` starts a lifetime when followed by an identifier that is *not*
    /// closed by another `'` (that would be a char like `'a'`).
    fn char_or_lifetime(&mut self) {
        let start = self.pos;
        let next = self.peek(1);
        let is_lifetime = next.is_some_and(|b| b == b'_' || b.is_ascii_alphabetic())
            && self.peek(2) != Some(b'\'');
        if is_lifetime {
            self.pos += 1;
            let id_start = self.pos;
            self.consume_ident_body();
            self.out.tokens.push(Token {
                kind: TokenKind::Lifetime,
                text: self.src[start..self.pos].to_string(),
                line: self.line,
            });
            let _ = id_start;
            return;
        }
        // Char literal: handle escapes; scan to the closing quote.
        self.pos += 1;
        if self.peek(0) == Some(b'\\') {
            self.pos += 2;
            // \u{...} spans until the brace closes.
            while self.pos < self.bytes.len()
                && self.bytes[self.pos] != b'\''
                && self.bytes[self.pos] != b'\n'
            {
                self.pos += 1;
            }
        } else if self.pos < self.bytes.len() {
            // One (possibly multi-byte) character.
            let rest = &self.src[self.pos..];
            if let Some(c) = rest.chars().next() {
                self.pos += c.len_utf8();
            }
        }
        if self.peek(0) == Some(b'\'') {
            self.pos += 1;
        }
        self.push(TokenKind::Char, start, self.pos);
    }

    fn number(&mut self) {
        let start = self.pos;
        while self.pos < self.bytes.len() {
            let b = self.bytes[self.pos];
            if b.is_ascii_alphanumeric() || b == b'_' {
                // Exponent sign: 1e-3 / 1E+7.
                if (b == b'e' || b == b'E')
                    && start != self.pos
                    && !self.src[start..self.pos].starts_with("0x")
                    && matches!(self.peek(1), Some(b'+') | Some(b'-'))
                {
                    self.pos += 2;
                    continue;
                }
                self.pos += 1;
            } else if b == b'.'
                && self.peek(1).is_some_and(|n| n.is_ascii_digit())
                && !self.src[start..self.pos].contains('.')
            {
                self.pos += 1;
            } else {
                break;
            }
        }
        self.push(TokenKind::Number, start, self.pos);
    }

    fn ident(&mut self) {
        let start = self.pos;
        self.consume_ident_body();
        if self.pos == start {
            // Non-ASCII punctuation or stray byte: consume one char.
            let rest = &self.src[start..];
            let step = rest.chars().next().map_or(1, |c| c.len_utf8());
            self.pos += step;
            self.push(TokenKind::Punct, start, self.pos);
            return;
        }
        self.push(TokenKind::Ident, start, self.pos);
    }

    fn consume_ident_body(&mut self) {
        while self.pos < self.bytes.len() {
            let b = self.bytes[self.pos];
            if b == b'_' || b.is_ascii_alphanumeric() || b >= 0x80 {
                self.pos += 1;
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.clone())
            .collect()
    }

    #[test]
    fn strings_hide_their_contents() {
        let names = idents(r#"let x = "unwrap() panic!"; y.unwrap();"#);
        assert_eq!(names, ["let", "x", "y", "unwrap"]);
    }

    #[test]
    fn raw_strings_with_hashes() {
        let l = lex(r###"let s = r#"he said "panic!""#; s.len()"###);
        let strs: Vec<_> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Str)
            .collect();
        assert_eq!(strs.len(), 1);
        assert!(strs[0].text.contains("panic!"));
        assert_eq!(
            idents(r###"let s = r#"x"#; s.len()"###),
            ["let", "s", "s", "len"]
        );
    }

    #[test]
    fn nested_block_comments_and_lines() {
        let src = "a /* one /* two */ still */ b\nc // unwrap()\nd";
        let l = lex(src);
        assert_eq!(
            l.tokens.iter().map(|t| t.text.as_str()).collect::<Vec<_>>(),
            ["a", "b", "c", "d"]
        );
        assert_eq!(l.comments.len(), 2);
        assert_eq!(l.tokens[3].line, 3, "line counting survives comments");
    }

    #[test]
    fn lifetimes_are_not_chars() {
        let l = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        let lifetimes: Vec<_> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        let chars: Vec<_> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Char)
            .collect();
        assert_eq!(chars.len(), 1);
        assert_eq!(chars[0].text, "'x'");
    }

    #[test]
    fn escaped_char_literals() {
        let l = lex(r"let c = '\n'; let q = '\''; let u = '\u{1F600}';");
        let chars = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Char)
            .count();
        assert_eq!(chars, 3);
    }

    #[test]
    fn raw_identifiers() {
        assert_eq!(idents("let r#type = 1;"), ["let", "type"]);
    }

    #[test]
    fn byte_strings() {
        let l = lex(r##"let b = b"panic!"; let rb = br#"x"#;"##);
        let strs = l.tokens.iter().filter(|t| t.kind == TokenKind::Str).count();
        assert_eq!(strs, 2);
    }

    #[test]
    fn numbers_do_not_eat_method_calls() {
        let names = idents("let x = 1.max(2); let y = 1.5e-3; let z = 0xFFu64;");
        assert!(names.contains(&"max".to_string()));
    }

    #[test]
    fn doc_comments_are_comments() {
        let l = lex("/// calls .unwrap() on x\nfn f() {}");
        assert_eq!(idents("/// calls .unwrap() on x\nfn f() {}"), ["fn", "f"]);
        assert_eq!(l.comments.len(), 1);
    }
}
