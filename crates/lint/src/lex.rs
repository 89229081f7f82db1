//! A small Rust lexer for the hot-path analyzer.
//!
//! Produces a flat token stream with line numbers plus the comment list
//! (the rules need `// BOUNDS:` / `// ALLOC:`-style justification markers
//! and the parser needs comments out of the way). This is not a full
//! rustc lexer — it covers the subset the workspace actually uses:
//! identifiers, numbers, all the string/char literal forms, lifetimes,
//! nested block comments, and single-character punctuation. Multi-char
//! operators stay as punctuation sequences (`::` is two `:` tokens); the
//! parser peeks for the pairs it cares about.

/// Token kind. Punctuation is kept one character at a time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword (`r#raw` identifiers are unescaped).
    Ident(String),
    /// `'a` lifetime (or loop label).
    Lifetime,
    /// Numeric literal.
    Num,
    /// String literal of any form (`"…"`, `r#"…"#`, `b"…"`, `c"…"`).
    Str,
    /// Character or byte literal (`'x'`, `b'\n'`).
    Char,
    /// Single punctuation character.
    Punct(char),
}

/// One token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    /// What it is.
    pub kind: Tok,
    /// 1-based line of the token's first character.
    pub line: usize,
}

/// A comment (line or block) with the 1-based line it *ends* on — the
/// line that matters for "marker within the preceding window" checks.
#[derive(Debug, Clone)]
pub struct Comment {
    /// Line the comment ends on.
    pub line: usize,
    /// Raw comment text (including the `//` / `/*` sigils).
    pub text: String,
}

/// Lexer output: tokens plus the comments that were skipped over.
#[derive(Debug, Default)]
pub struct Lexed {
    /// The token stream.
    pub tokens: Vec<Token>,
    /// All comments, in order.
    pub comments: Vec<Comment>,
}

/// Lex `src` into tokens and comments. Unterminated literals are treated
/// leniently (consume to end of input) — the linter must never panic on
/// the code it judges.
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1usize;
    let n = b.len();

    let count_newlines = |s: &[u8]| s.iter().filter(|&&c| c == b'\n').count();

    while i < n {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if i + 1 < n && b[i + 1] == b'/' => {
                let start = i;
                while i < n && b[i] != b'\n' {
                    i += 1;
                }
                out.comments.push(Comment {
                    line,
                    text: String::from_utf8_lossy(&b[start..i]).into_owned(),
                });
            }
            b'/' if i + 1 < n && b[i + 1] == b'*' => {
                // Block comment; Rust block comments nest.
                let start = i;
                let mut depth = 1usize;
                i += 2;
                while i < n && depth > 0 {
                    if i + 1 < n && b[i] == b'/' && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if i + 1 < n && b[i] == b'*' && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                line += count_newlines(&b[start..i]);
                out.comments.push(Comment {
                    line,
                    text: String::from_utf8_lossy(&b[start..i]).into_owned(),
                });
            }
            b'"' => {
                let tok_line = line;
                let start = i;
                i = skip_plain_string(b, i);
                line += count_newlines(&b[start..i]);
                out.tokens.push(Token {
                    kind: Tok::Str,
                    line: tok_line,
                });
            }
            b'\'' => {
                // Lifetime/label vs char literal: a lifetime is `'` +
                // ident chars *not* closed by `'`.
                let tok_line = line;
                let mut j = i + 1;
                if j < n && (b[j].is_ascii_alphabetic() || b[j] == b'_') {
                    let mut k = j + 1;
                    while k < n && (b[k].is_ascii_alphanumeric() || b[k] == b'_') {
                        k += 1;
                    }
                    if k < n && b[k] == b'\'' {
                        // 'x' char literal (single ident char).
                        i = k + 1;
                        out.tokens.push(Token {
                            kind: Tok::Char,
                            line: tok_line,
                        });
                    } else {
                        i = k;
                        out.tokens.push(Token {
                            kind: Tok::Lifetime,
                            line: tok_line,
                        });
                    }
                } else {
                    // Escaped or punctuation char literal: '\n', '\'', '('.
                    if j < n && b[j] == b'\\' {
                        j += 2;
                        while j < n && b[j] != b'\'' {
                            j += 1;
                        }
                    } else if j < n {
                        j += 1;
                    }
                    if j < n && b[j] == b'\'' {
                        j += 1;
                    }
                    line += count_newlines(&b[i..j.min(n)]);
                    i = j.min(n);
                    out.tokens.push(Token {
                        kind: Tok::Char,
                        line: tok_line,
                    });
                }
            }
            c if c.is_ascii_digit() => {
                let tok_line = line;
                i += 1;
                while i < n {
                    let d = b[i];
                    if d.is_ascii_alphanumeric() || d == b'_' {
                        i += 1;
                    } else if d == b'.' && i + 1 < n && b[i + 1] != b'.' {
                        // `1.5` continues the number, `1..n` does not.
                        i += 1;
                    } else {
                        break;
                    }
                }
                out.tokens.push(Token {
                    kind: Tok::Num,
                    line: tok_line,
                });
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let tok_line = line;
                let start = i;
                i += 1;
                while i < n && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                let word = &src[start..i];
                // String-literal prefixes: r"", r#""#, b"", br"", c"".
                if i < n && (b[i] == b'"' || b[i] == b'#') && is_string_prefix(word) {
                    let lit_start = i;
                    let end = skip_prefixed_string(b, i);
                    if end > lit_start {
                        line += count_newlines(&b[lit_start..end]);
                        i = end;
                        out.tokens.push(Token {
                            kind: Tok::Str,
                            line: tok_line,
                        });
                        continue;
                    }
                }
                // Raw identifier r#type: the prefixed-string scan bailed
                // (no `"` after the hashes), so consume `#` + ident.
                if word == "r" && i < n && b[i] == b'#' {
                    let j = i + 1;
                    if j < n && (b[j].is_ascii_alphabetic() || b[j] == b'_') {
                        let id_start = j;
                        let mut k = j + 1;
                        while k < n && (b[k].is_ascii_alphanumeric() || b[k] == b'_') {
                            k += 1;
                        }
                        i = k;
                        out.tokens.push(Token {
                            kind: Tok::Ident(src[id_start..k].to_string()),
                            line: tok_line,
                        });
                        continue;
                    }
                }
                // Byte char literal b'x'.
                if word == "b" && i < n && b[i] == b'\'' {
                    let mut j = i + 1;
                    if j < n && b[j] == b'\\' {
                        j += 2;
                    }
                    while j < n && b[j] != b'\'' {
                        j += 1;
                    }
                    i = (j + 1).min(n);
                    out.tokens.push(Token {
                        kind: Tok::Char,
                        line: tok_line,
                    });
                    continue;
                }
                let name = word.strip_prefix("r#").unwrap_or(word);
                out.tokens.push(Token {
                    kind: Tok::Ident(name.to_string()),
                    line: tok_line,
                });
            }
            c => {
                out.tokens.push(Token {
                    kind: Tok::Punct(c as char),
                    line,
                });
                i += 1;
            }
        }
    }
    out
}

/// The identifier at `i`, if that token is one.
pub(crate) fn ident_at(toks: &[Token], i: usize) -> Option<&str> {
    match toks.get(i).map(|t| &t.kind) {
        Some(Tok::Ident(s)) => Some(s),
        _ => None,
    }
}

/// Is the token at `i` the punctuation `c`?
pub(crate) fn punct_at(toks: &[Token], i: usize, c: char) -> bool {
    matches!(toks.get(i).map(|t| &t.kind), Some(Tok::Punct(p)) if *p == c)
}

/// Index just past the group opened at `open` by `(`, `[`, `{` or `<`
/// (the `>` of a `->` inside angles closes nothing), or `open + 1` when
/// no group opens there; the end of `toks` when it is unbalanced.
pub(crate) fn group_end(toks: &[Token], open: usize) -> usize {
    let close = match toks.get(open).map(|t| &t.kind) {
        Some(Tok::Punct('(')) => ')',
        Some(Tok::Punct('[')) => ']',
        Some(Tok::Punct('{')) => '}',
        Some(Tok::Punct('<')) => '>',
        _ => return open + 1,
    };
    let (opener, mut depth, mut i) = (&toks[open].kind, 0usize, open);
    while i < toks.len() {
        match &toks[i].kind {
            Tok::Punct('-') if close == '>' && punct_at(toks, i + 1, '>') => i += 1,
            k if k == opener => depth += 1,
            Tok::Punct(c) if *c == close => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    toks.len()
}

fn is_string_prefix(word: &str) -> bool {
    matches!(word, "r" | "b" | "br" | "c" | "cr")
}

/// Skip a plain `"…"` literal starting at the opening quote; returns the
/// index one past the closing quote.
fn skip_plain_string(b: &[u8], mut i: usize) -> usize {
    let n = b.len();
    i += 1;
    while i < n {
        match b[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    n
}

/// Skip a raw/byte string whose prefix ident was already consumed; `i`
/// points at `"` or the first `#`. Returns one past the end, or `i` if
/// this is not actually a string start (e.g. `r#raw_ident` — the caller
/// re-lexes as an identifier).
fn skip_prefixed_string(b: &[u8], i: usize) -> usize {
    let n = b.len();
    let mut hashes = 0usize;
    let mut j = i;
    while j < n && b[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    if j >= n || b[j] != b'"' {
        return i; // not a string (r#ident)
    }
    if hashes == 0 {
        return skip_plain_string(b, j);
    }
    // Raw string: scan for `"` followed by `hashes` hashes; no escapes.
    j += 1;
    while j < n {
        if b[j] == b'"' {
            let mut k = j + 1;
            let mut seen = 0usize;
            while k < n && b[k] == b'#' && seen < hashes {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return k;
            }
        }
        j += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.kind {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn basic_tokens_and_lines() {
        let l = lex("fn a() {\n  b.c();\n}\n");
        let lines: Vec<usize> = l.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines[0], 1);
        assert!(lines.contains(&2));
        assert_eq!(idents("fn a() { b.c(); }"), vec!["fn", "a", "b", "c"]);
    }

    #[test]
    fn comments_are_collected_not_tokenized() {
        let l = lex("let x = 1; // BOUNDS: i < n\n/* block\ncomment */ y");
        assert_eq!(l.comments.len(), 2);
        assert!(l.comments[0].text.contains("BOUNDS:"));
        assert_eq!(l.comments[0].line, 1);
        assert_eq!(l.comments[1].line, 3, "block comment ends on line 3");
        assert!(idents("x // foo()\ny").contains(&"y".to_string()));
    }

    #[test]
    fn string_forms_are_single_tokens() {
        for src in [
            "\"plain\"",
            "\"esc \\\" quote\"",
            "r\"raw\"",
            "r#\"raw # \" hash\"#",
            "b\"bytes\"",
            "br#\"raw bytes\"#",
        ] {
            let l = lex(src);
            assert_eq!(l.tokens.len(), 1, "{src}");
            assert_eq!(l.tokens[0].kind, Tok::Str, "{src}");
        }
    }

    #[test]
    fn string_contents_do_not_leak_tokens() {
        // A paren inside a string must not look like a call.
        assert_eq!(idents("let s = \"foo(bar)\";"), vec!["let", "s"]);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let l = lex("fn f<'a>(x: &'a str) { let c = 'x'; let nl = '\\n'; }");
        let lifetimes = l.tokens.iter().filter(|t| t.kind == Tok::Lifetime).count();
        let chars = l.tokens.iter().filter(|t| t.kind == Tok::Char).count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 2);
    }

    #[test]
    fn raw_identifier_is_unescaped() {
        assert_eq!(idents("let r#type = 1;"), vec!["let", "type"]);
    }

    #[test]
    fn numbers_with_ranges() {
        let l = lex("for i in 0..n { let x = 1.5e3; }");
        let nums = l.tokens.iter().filter(|t| t.kind == Tok::Num).count();
        assert!(nums >= 2);
        // The `..` survives as two dots.
        let dots = l
            .tokens
            .iter()
            .filter(|t| t.kind == Tok::Punct('.'))
            .count();
        assert_eq!(dots, 2);
    }

    #[test]
    fn nested_block_comment() {
        let l = lex("/* outer /* inner */ still comment */ x");
        assert_eq!(idents("/* a /* b */ c */ x"), vec!["x"]);
        assert_eq!(l.comments.len(), 1);
    }

    #[test]
    fn unterminated_string_is_lenient() {
        let l = lex("let s = \"never closed");
        assert!(!l.tokens.is_empty());
    }
}
