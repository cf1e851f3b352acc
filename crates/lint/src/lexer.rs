//! A token-level Rust lexer: exactly the fidelity the determinism rules
//! need, and nothing more.
//!
//! The lexer's one job is to make the rule pass *trustworthy*: rules
//! must never fire on text inside comments, strings, char literals or
//! doc examples, and must see string-literal *contents* (for `derive`
//! stream labels) and line comments (for `// sky-lint:` pragmas) as
//! first-class items. Everything else — numbers, lifetimes, punctuation
//! — is consumed precisely but carried opaquely.
//!
//! Handled: line and (nested) block comments, string literals with
//! escapes, raw strings `r#"…"#` at any hash depth, byte and raw-byte
//! strings, char literals vs. lifetimes, raw identifiers `r#type`,
//! numeric literals (including `0..n` ranges and float exponents).
//!
//! The token accessors every later layer reads the stream through —
//! `ident`, `punct`, `str_lit`, `find_matching` (bracket matching) and
//! `is_arrow_gt` (`->` detection) — live here, once.

/// One lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword.
    Ident(String),
    /// String literal (contents, escapes left raw).
    Str(String),
    /// Char literal.
    Char,
    /// Lifetime (`'a`).
    Lifetime,
    /// Numeric literal.
    Num,
    /// Single punctuation character.
    Punct(char),
}

/// A token plus its source position (1-based line, 1-based column).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token.
    pub tok: Tok,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source byte column.
    pub col: u32,
}

/// A `//` line comment (text after the slashes, untrimmed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineComment {
    /// Comment text after the leading `//`.
    pub text: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based byte column of the leading `//`.
    pub col: u32,
    /// Whether the comment is the first non-whitespace on its line
    /// (standalone pragmas also cover the following line).
    pub standalone: bool,
}

/// Full lexer output: the token stream plus every line comment.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Tokens in source order.
    pub tokens: Vec<Token>,
    /// Line comments in source order.
    pub comments: Vec<LineComment>,
}

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek_at(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lex `src` into tokens and line comments. The lexer never fails: any
/// byte it does not recognise becomes a `Punct`, and unterminated
/// strings or comments simply end at EOF — good enough for analysis,
/// since the compiler is the arbiter of validity.
pub fn lex(src: &str) -> Lexed {
    let mut c = Cursor {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
    };
    let mut out = Lexed::default();
    let mut line_had_token = false;
    let mut last_line = 1u32;

    while let Some(b) = c.peek() {
        if c.line != last_line {
            line_had_token = false;
            last_line = c.line;
        }
        let (line, col) = (c.line, c.col);
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                c.bump();
            }
            b'/' if c.peek_at(1) == Some(b'/') => {
                c.bump();
                c.bump();
                let mut text = String::new();
                while let Some(nb) = c.peek() {
                    if nb == b'\n' {
                        break;
                    }
                    text.push(c.bump().unwrap() as char);
                }
                out.comments.push(LineComment {
                    text,
                    line,
                    col,
                    standalone: !line_had_token,
                });
            }
            b'/' if c.peek_at(1) == Some(b'*') => {
                c.bump();
                c.bump();
                let mut depth = 1u32;
                while depth > 0 {
                    match (c.peek(), c.peek_at(1)) {
                        (Some(b'/'), Some(b'*')) => {
                            c.bump();
                            c.bump();
                            depth += 1;
                        }
                        (Some(b'*'), Some(b'/')) => {
                            c.bump();
                            c.bump();
                            depth -= 1;
                        }
                        (Some(_), _) => {
                            c.bump();
                        }
                        (None, _) => break,
                    }
                }
            }
            b'"' => {
                c.bump();
                let s = lex_string_body(&mut c);
                out.tokens.push(Token {
                    tok: Tok::Str(s),
                    line,
                    col,
                });
                line_had_token = true;
            }
            b'\'' => {
                // Lifetime iff `'` + ident run not closed by another `'`.
                let mut k = 1usize;
                let lifetime = match c.peek_at(1) {
                    Some(nb) if is_ident_start(nb) => {
                        k += 1;
                        while c.peek_at(k).is_some_and(is_ident_continue) {
                            k += 1;
                        }
                        c.peek_at(k) != Some(b'\'')
                    }
                    _ => false,
                };
                if lifetime {
                    for _ in 0..k {
                        c.bump();
                    }
                    out.tokens.push(Token {
                        tok: Tok::Lifetime,
                        line,
                        col,
                    });
                } else {
                    c.bump();
                    // Char literal: consume escapes up to the closing quote.
                    while let Some(nb) = c.peek() {
                        if nb == b'\\' {
                            c.bump();
                            c.bump();
                        } else if nb == b'\'' {
                            c.bump();
                            break;
                        } else {
                            c.bump();
                        }
                    }
                    out.tokens.push(Token {
                        tok: Tok::Char,
                        line,
                        col,
                    });
                }
                line_had_token = true;
            }
            _ if b.is_ascii_digit() => {
                lex_number(&mut c);
                out.tokens.push(Token {
                    tok: Tok::Num,
                    line,
                    col,
                });
                line_had_token = true;
            }
            _ if is_ident_start(b) => {
                // Raw strings (r"...", r#"..."#, br#"..."#) and byte
                // strings (b"...") start with what looks like an ident.
                if let Some(s) = try_lex_raw_or_byte_string(&mut c) {
                    out.tokens.push(Token {
                        tok: Tok::Str(s),
                        line,
                        col,
                    });
                    line_had_token = true;
                    continue;
                }
                let mut name = String::new();
                // Raw identifier `r#type`.
                if b == b'r'
                    && c.peek_at(1) == Some(b'#')
                    && c.peek_at(2).is_some_and(is_ident_start)
                {
                    c.bump();
                    c.bump();
                }
                while c.peek().is_some_and(is_ident_continue) {
                    name.push(c.bump().unwrap() as char);
                }
                out.tokens.push(Token {
                    tok: Tok::Ident(name),
                    line,
                    col,
                });
                line_had_token = true;
            }
            _ => {
                c.bump();
                out.tokens.push(Token {
                    tok: Tok::Punct(b as char),
                    line,
                    col,
                });
                line_had_token = true;
            }
        }
    }
    out
}

/// Consume a (non-raw) string body after the opening quote; returns the
/// contents with escapes left raw.
fn lex_string_body(c: &mut Cursor<'_>) -> String {
    let mut s = String::new();
    while let Some(b) = c.peek() {
        match b {
            b'\\' => {
                s.push(c.bump().unwrap() as char);
                if let Some(e) = c.bump() {
                    s.push(e as char);
                }
            }
            b'"' => {
                c.bump();
                break;
            }
            _ => s.push(c.bump().unwrap() as char),
        }
    }
    s
}

/// Try to lex `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#` at the cursor.
/// Returns the contents, or `None` when the cursor is not at one.
fn try_lex_raw_or_byte_string(c: &mut Cursor<'_>) -> Option<String> {
    let mut k = 0usize;
    match c.peek()? {
        b'b' => {
            k += 1;
            if c.peek_at(k) == Some(b'r') {
                k += 1;
            }
        }
        b'r' => k += 1,
        _ => return None,
    }
    let raw = k > 1 || c.peek() == Some(b'r');
    let mut hashes = 0usize;
    if raw {
        while c.peek_at(k) == Some(b'#') {
            k += 1;
            hashes += 1;
        }
    }
    if c.peek_at(k) != Some(b'"') {
        return None;
    }
    // Commit: consume prefix, hashes and the opening quote.
    for _ in 0..=k {
        c.bump();
    }
    let mut s = String::new();
    if !raw {
        return Some(lex_string_body(c));
    }
    // Raw string: ends at `"` followed by `hashes` hash marks.
    while let Some(b) = c.peek() {
        if b == b'"' {
            let closed = (1..=hashes).all(|i| c.peek_at(i) == Some(b'#'));
            if closed {
                for _ in 0..=hashes {
                    c.bump();
                }
                return Some(s);
            }
        }
        s.push(c.bump().unwrap() as char);
    }
    Some(s)
}

/// Consume a numeric literal (integer, float, hex/oct/bin, suffixed),
/// stopping before `..` so ranges lex as two puncts.
fn lex_number(c: &mut Cursor<'_>) {
    while c
        .peek()
        .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_')
    {
        c.bump();
    }
    if c.peek() == Some(b'.') && c.peek_at(1).is_some_and(|b| b.is_ascii_digit()) {
        c.bump();
        while c
            .peek()
            .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_')
        {
            c.bump();
        }
    }
    // Exponent sign (`1e-9`): the alphanumeric run above stops at `-`.
    if c.peek() == Some(b'-') || c.peek() == Some(b'+') {
        let prev = c.src.get(c.pos.wrapping_sub(1)).copied();
        if matches!(prev, Some(b'e') | Some(b'E')) {
            c.bump();
            while c.peek().is_some_and(|b| b.is_ascii_digit()) {
                c.bump();
            }
        }
    }
}

/// The identifier at `toks[i]`, if there is one.
pub(crate) fn ident(toks: &[Token], i: usize) -> Option<&str> {
    match toks.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

/// The punctuation character at `toks[i]`, if there is one.
pub(crate) fn punct(toks: &[Token], i: usize) -> Option<char> {
    match toks.get(i).map(|t| &t.tok) {
        Some(Tok::Punct(c)) => Some(*c),
        _ => None,
    }
}

/// The string-literal contents at `toks[i]`, if there is one.
pub(crate) fn str_lit(toks: &[Token], i: usize) -> Option<&str> {
    match toks.get(i).map(|t| &t.tok) {
        Some(Tok::Str(s)) => Some(s.as_str()),
        _ => None,
    }
}

/// Whether the `>` at index `i` is the second half of a `->` arrow
/// (adjacent `-` on the same line), so angle-depth tracking skips it.
pub(crate) fn is_arrow_gt(toks: &[Token], i: usize) -> bool {
    i > 0
        && punct(toks, i) == Some('>')
        && punct(toks, i - 1) == Some('-')
        && toks[i - 1].line == toks[i].line
        && toks[i - 1].col + 1 == toks[i].col
}

/// Index of the bracket matching the one at `i`: searching forward from
/// `(`/`[`/`{`, backward from `)`/`]`/`}`. Returns `i` when `toks[i]` is
/// not a bracket and `toks.len()` when it is unbalanced.
pub(crate) fn find_matching(toks: &[Token], i: usize) -> usize {
    let Some(here) = punct(toks, i) else {
        return i;
    };
    let (there, forward) = match here {
        '(' => (')', true),
        '[' => (']', true),
        '{' => ('}', true),
        ')' => ('(', false),
        ']' => ('[', false),
        '}' => ('{', false),
        _ => return i,
    };
    let mut depth = 0i32;
    let mut j = i;
    loop {
        match punct(toks, j) {
            Some(c) if c == here => depth += 1,
            Some(c) if c == there => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
        j = match (forward, j.checked_sub(1)) {
            (true, _) if j + 1 < toks.len() => j + 1,
            (false, Some(prev)) => prev,
            _ => return toks.len(),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn comments_and_strings_hide_identifiers() {
        let src = r##"
            // HashMap in a comment
            /* HashMap in /* a nested */ block */
            let s = "HashMap in a string";
            let r = r#"HashMap raw "quoted" here"#;
            let real = BTreeMap::new();
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"HashMap".to_string()), "{ids:?}");
        assert!(ids.contains(&"BTreeMap".to_string()));
    }

    #[test]
    fn string_contents_are_captured() {
        let toks = lex(r#"rng.derive("day-tick")"#).tokens;
        assert!(toks
            .iter()
            .any(|t| t.tok == Tok::Str("day-tick".to_string())));
    }

    #[test]
    fn lifetimes_do_not_eat_code() {
        let ids = idents("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert_eq!(ids, ["fn", "f", "x", "str", "str", "x"]);
    }

    #[test]
    fn char_literals_do_not_eat_code() {
        let ids = idents("let c = 'x'; let esc = '\\''; after");
        assert!(ids.contains(&"after".to_string()));
    }

    #[test]
    fn line_comments_are_collected_with_position() {
        let out = lex("let x = 1; // sky-lint: allow(D001, because)\n// standalone\n");
        assert_eq!(out.comments.len(), 2);
        assert_eq!(out.comments[0].line, 1);
        assert_eq!((out.comments[0].col, out.comments[1].col), (12, 1));
        assert!(!out.comments[0].standalone);
        assert!(out.comments[1].standalone);
        assert!(out.comments[0].text.contains("sky-lint"));
    }

    #[test]
    fn positions_are_one_based_and_accurate() {
        let out = lex("ab\n  cd");
        assert_eq!((out.tokens[0].line, out.tokens[0].col), (1, 1));
        assert_eq!((out.tokens[1].line, out.tokens[1].col), (2, 3));
    }

    #[test]
    fn ranges_lex_as_two_puncts() {
        let toks = lex("for i in 0..10 {}").tokens;
        let dots = toks.iter().filter(|t| t.tok == Tok::Punct('.')).count();
        assert_eq!(dots, 2);
    }

    #[test]
    fn float_exponents_consume_sign() {
        let toks = lex("let x = 1.5e-9; done").tokens;
        assert!(toks.iter().any(|t| t.tok == Tok::Ident("done".into())));
        assert!(!toks.iter().any(|t| t.tok == Tok::Punct('-')));
    }

    #[test]
    fn brackets_match_in_both_directions() {
        // f ( a [ 0 ] , { } )  ;
        // 0 1 2 3 4 5 6 7 8 9 10
        let toks = lex("f(a[0], {}) ;").tokens;
        assert_eq!(find_matching(&toks, 1), 9);
        assert_eq!(find_matching(&toks, 9), 1);
        assert_eq!(find_matching(&toks, 5), 3);
        assert_eq!(find_matching(&toks, 7), 8);
        assert_eq!(find_matching(&toks, 0), 0, "not a bracket");
        let open = lex("f(a[0]").tokens;
        assert_eq!(find_matching(&open, 1), open.len(), "unclosed");
        let close = lex("a) b").tokens;
        assert_eq!(find_matching(&close, 1), close.len(), "unopened");
    }
}
