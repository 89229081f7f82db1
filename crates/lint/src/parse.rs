//! Item-level parser for the hot-path analyzer.
//!
//! Walks the token stream of one file and extracts what the call-graph
//! and the purity rules need — nothing more:
//!
//! * the module tree (inline `mod x { … }`; file modules come from the
//!   file's path, supplied by the workspace scanner);
//! * `use` imports, per module, for call-path resolution;
//! * every function (free, `impl` method, trait default method) with the
//!   *events* in its body: path calls, method calls, macro invocations
//!   and index expressions;
//! * the comments (via [`crate::lex`]) so rules can check justification
//!   markers (`// BOUNDS:`, `// ALLOC:`, …) near an event.
//!
//! `#[cfg(test)]` / `#[cfg(all(test, …))]` items are skipped entirely —
//! test code is allowed to allocate, lock and panic.

use crate::lex::{lex, Comment, Tok, Token};
use std::collections::HashMap;

/// Something a function body does that the rules care about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// `path::to::f(…)` (also `f(…)`, `Type::assoc(…)`, `Self::f(…)`).
    Call {
        /// The path segments as written.
        path: Vec<String>,
        /// 1-based source line.
        line: usize,
    },
    /// `.name(…)` method call.
    Method {
        /// Method name.
        name: String,
        /// 1-based source line.
        line: usize,
    },
    /// `name!(…)` macro invocation (contents are *not* descended into).
    Macro {
        /// Macro name (first path segment).
        name: String,
        /// 1-based source line.
        line: usize,
    },
    /// `expr[…]` index/slice expression.
    Index {
        /// 1-based source line.
        line: usize,
    },
}

impl Event {
    /// The event's source line.
    pub fn line(&self) -> usize {
        match self {
            Event::Call { line, .. }
            | Event::Method { line, .. }
            | Event::Macro { line, .. }
            | Event::Index { line } => *line,
        }
    }
}

/// One parsed function.
#[derive(Debug, Clone)]
pub struct Function {
    /// Fully qualified name: `crate::mod::f` or `crate::mod::Type::f`.
    pub qname: String,
    /// Module path (`crate::mod`).
    pub module: String,
    /// `impl`/`trait` type context, if any.
    pub self_type: Option<String>,
    /// Bare function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Body events, in order.
    pub events: Vec<Event>,
    /// Half-open token range of the body (inside the braces) into the
    /// owning [`ParsedFile::tokens`] stream. `(0, 0)` for bodyless fns.
    pub body: (usize, usize),
    /// Half-open token range of the signature (from just after the name
    /// to the opening body brace). `(0, 0)` for bodyless fns.
    pub sig: (usize, usize),
}

/// Parse result for one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// All non-test functions.
    pub functions: Vec<Function>,
    /// Per-module import map: alias → full path segments.
    pub imports: HashMap<String, HashMap<String, Vec<String>>>,
    /// All comments (for marker-window checks).
    pub comments: Vec<Comment>,
    /// The file's full token stream ([`Function::body`] indexes into it).
    pub tokens: Vec<Token>,
    /// Half-open token ranges of the skipped `#[cfg(test)]` items.
    pub test_spans: Vec<(usize, usize)>,
}

/// Keywords that must not be mistaken for a call head in expressions.
/// (`crate`, `super`, `self`, `Self` are deliberately absent — they are
/// legitimate path heads and must flow into call paths.)
const EXPR_KEYWORDS: &[&str] = &[
    "if", "else", "match", "while", "for", "loop", "return", "break", "continue", "let", "in",
    "as", "where", "unsafe", "async", "move", "mut", "ref", "dyn", "impl", "fn", "pub", "use",
    "mod", "struct", "enum", "trait", "const", "static", "type", "box", "true",
    "false", "await", "yield", "extern",
];

/// Is `s` an expression-position keyword (never a call head)?
pub(crate) fn is_expr_keyword(s: &str) -> bool {
    EXPR_KEYWORDS.contains(&s)
}

/// Parse one file. `module` is the file's module path derived from its
/// location (e.g. `dagfact_rt::native`).
pub fn parse_file(src: &str, module: &str) -> ParsedFile {
    let lexed = lex(src);
    let mut out = ParsedFile {
        comments: lexed.comments,
        ..Default::default()
    };
    let mut p = Parser {
        toks: &lexed.tokens,
        pos: 0,
    };
    p.items(module, None, &mut out);
    out.tokens = lexed.tokens;
    out
}

struct Parser<'a> {
    toks: &'a [Token],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self, off: usize) -> Option<&Tok> {
        self.toks.get(self.pos + off).map(|t| &t.kind)
    }

    fn line(&self) -> usize {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map_or(0, |t| t.line)
    }

    fn bump(&mut self) {
        self.pos += 1;
    }

    fn is_punct(&self, off: usize, c: char) -> bool {
        matches!(self.peek(off), Some(Tok::Punct(p)) if *p == c)
    }

    fn ident_at(&self, off: usize) -> Option<&str> {
        match self.peek(off) {
            Some(Tok::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Skip a balanced delimiter group starting at the current token
    /// (which must be an opener); leaves the cursor one past the closer.
    fn skip_group(&mut self, open: char, close: char) {
        debug_assert!(self.is_punct(0, open));
        let mut depth = 0usize;
        while self.pos < self.toks.len() {
            if self.is_punct(0, open) {
                depth += 1;
            } else if self.is_punct(0, close) {
                depth -= 1;
                if depth == 0 {
                    self.bump();
                    return;
                }
            }
            self.bump();
        }
    }

    /// Skip a balanced `<…>` generic-argument group (cursor on `<`).
    /// `->` inside (fn-pointer types) is handled by skipping the `-`
    /// before testing `>`.
    fn skip_angles(&mut self) {
        let mut depth = 0usize;
        while self.pos < self.toks.len() {
            if self.is_punct(0, '-') && self.is_punct(1, '>') {
                self.bump();
                self.bump();
                continue;
            }
            if self.is_punct(0, '<') {
                depth += 1;
            } else if self.is_punct(0, '>') {
                depth -= 1;
                if depth == 0 {
                    self.bump();
                    return;
                }
            }
            self.bump();
        }
    }

    /// Parse an attribute starting at `#`; returns true when it is a
    /// `cfg(test)` / `cfg(all(test, …))` attribute.
    fn attribute_is_cfg_test(&mut self) -> bool {
        self.bump(); // '#'
        if self.is_punct(0, '!') {
            self.bump();
        }
        if !self.is_punct(0, '[') {
            return false;
        }
        // Collect the idents of the attribute for a shape check.
        let start = self.pos;
        self.skip_group('[', ']');
        let toks = &self.toks[start..self.pos];
        let mut idents = toks.iter().filter_map(|t| match &t.kind {
            Tok::Ident(s) => Some(s.as_str()),
            _ => None,
        });
        match idents.next() {
            Some("cfg") => {}
            _ => return false,
        }
        matches!(idents.next(), Some("test")) || {
            // cfg(all(test, …))
            let mut idents = toks.iter().filter_map(|t| match &t.kind {
                Tok::Ident(s) => Some(s.as_str()),
                _ => None,
            });
            idents.next(); // cfg
            matches!(
                (idents.next(), idents.next()),
                (Some("all"), Some("test"))
            )
        }
    }

    /// Parse items until the end of the slice or an unmatched `}`.
    fn items(&mut self, module: &str, self_type: Option<&str>, out: &mut ParsedFile) {
        let mut cfg_test = false;
        let mut test_from = 0;
        while self.pos < self.toks.len() {
            let in_test = cfg_test;
            match self.peek(0) {
                Some(Tok::Punct('#')) => {
                    let at = self.pos;
                    if self.attribute_is_cfg_test() && !cfg_test {
                        (cfg_test, test_from) = (true, at);
                    }
                }
                Some(Tok::Punct('}')) => {
                    self.bump();
                    return;
                }
                Some(Tok::Punct('{')) => {
                    // Stray block at item level (e.g. const body we did
                    // not skip precisely) — skip balanced.
                    self.skip_group('{', '}');
                    cfg_test = false;
                }
                Some(Tok::Ident(word)) => {
                    let word = word.clone();
                    match word.as_str() {
                        "mod" => {
                            self.bump();
                            let name = self.ident_at(0).unwrap_or("").to_string();
                            self.bump();
                            if self.is_punct(0, ';') {
                                self.bump(); // file module: path-derived
                            } else if self.is_punct(0, '{') {
                                if cfg_test {
                                    self.skip_group('{', '}');
                                } else {
                                    self.bump(); // '{'
                                    let sub = format!("{module}::{name}");
                                    self.items(&sub, None, out);
                                }
                            }
                            cfg_test = false;
                        }
                        "use" => {
                            self.bump();
                            if !cfg_test {
                                self.parse_use(module, out);
                            } else {
                                self.skip_to_semi();
                            }
                            cfg_test = false;
                        }
                        "fn" => {
                            if cfg_test {
                                self.skip_fn(true);
                            } else {
                                self.parse_fn(module, self_type, out);
                            }
                            cfg_test = false;
                        }
                        "impl" => {
                            self.bump();
                            if self.is_punct(0, '<') {
                                self.skip_angles();
                            }
                            // Read the head up to `{`; if a `for` appears
                            // the type is what follows it.
                            let mut ty = String::new();
                            let mut after_for = false;
                            while self.pos < self.toks.len() && !self.is_punct(0, '{') {
                                match self.peek(0) {
                                    Some(Tok::Ident(s)) if s == "for" => {
                                        after_for = true;
                                        ty.clear();
                                        self.bump();
                                    }
                                    Some(Tok::Ident(s)) if s == "where" => {
                                        // where-clause: skip to '{'.
                                        while self.pos < self.toks.len()
                                            && !self.is_punct(0, '{')
                                        {
                                            if self.is_punct(0, '<') {
                                                self.skip_angles();
                                            } else {
                                                self.bump();
                                            }
                                        }
                                        break;
                                    }
                                    Some(Tok::Ident(s)) => {
                                        // Last path segment wins (strip
                                        // the module qualifier).
                                        ty = s.clone();
                                        self.bump();
                                    }
                                    Some(Tok::Punct('<')) => self.skip_angles(),
                                    _ => self.bump(),
                                }
                            }
                            let _ = after_for;
                            if self.is_punct(0, '{') {
                                if cfg_test {
                                    self.skip_group('{', '}');
                                } else {
                                    self.bump();
                                    let st = if ty.is_empty() { None } else { Some(ty) };
                                    self.items(module, st.as_deref(), out);
                                }
                            }
                            cfg_test = false;
                        }
                        "trait" => {
                            self.bump();
                            let name = self.ident_at(0).unwrap_or("").to_string();
                            // Skip to the body brace.
                            while self.pos < self.toks.len() && !self.is_punct(0, '{') {
                                if self.is_punct(0, '<') {
                                    self.skip_angles();
                                } else if self.is_punct(0, ';') {
                                    break; // trait alias
                                } else {
                                    self.bump();
                                }
                            }
                            if self.is_punct(0, '{') {
                                if cfg_test {
                                    self.skip_group('{', '}');
                                } else {
                                    self.bump();
                                    self.items(module, Some(&name), out);
                                }
                            }
                            cfg_test = false;
                        }
                        "struct" | "enum" | "union" | "static" | "const" | "type" => {
                            self.bump();
                            self.skip_item_tail();
                            cfg_test = false;
                        }
                        "macro_rules" => {
                            self.bump(); // macro_rules
                            if self.is_punct(0, '!') {
                                self.bump();
                            }
                            if self.ident_at(0).is_some() {
                                self.bump();
                            }
                            if self.is_punct(0, '{') {
                                self.skip_group('{', '}');
                            }
                            cfg_test = false;
                        }
                        _ => self.bump(), // pub, unsafe, async, extern, …
                    }
                }
                _ => self.bump(),
            }
            if in_test && !cfg_test {
                out.test_spans.push((test_from, self.pos));
            }
        }
    }

    fn skip_to_semi(&mut self) {
        while self.pos < self.toks.len() && !self.is_punct(0, ';') {
            if self.is_punct(0, '{') {
                self.skip_group('{', '}');
                return;
            }
            self.bump();
        }
        self.bump();
    }

    /// Skip an item body: either `… ;` or `… { … }` (whichever first).
    fn skip_item_tail(&mut self) {
        while self.pos < self.toks.len() {
            if self.is_punct(0, ';') {
                self.bump();
                return;
            }
            if self.is_punct(0, '{') {
                self.skip_group('{', '}');
                // struct Foo { … } has no trailing `;`.
                return;
            }
            if self.is_punct(0, '<') {
                self.skip_angles();
                continue;
            }
            self.bump();
        }
    }

    /// Parse `use …;` recording aliases into the module's import map.
    fn parse_use(&mut self, module: &str, out: &mut ParsedFile) {
        let mut prefix: Vec<String> = Vec::new();
        self.parse_use_tree(&mut prefix, module, out);
        if self.is_punct(0, ';') {
            self.bump();
        }
    }

    fn parse_use_tree(&mut self, prefix: &mut Vec<String>, module: &str, out: &mut ParsedFile) {
        let depth0 = prefix.len();
        loop {
            match self.peek(0) {
                Some(Tok::Ident(s)) if s == "as" => {
                    self.bump();
                    if let Some(alias) = self.ident_at(0).map(str::to_string) {
                        self.bump();
                        out.imports
                            .entry(module.to_string())
                            .or_default()
                            .insert(alias, prefix.clone());
                    }
                    prefix.truncate(depth0);
                }
                Some(Tok::Ident(s)) => {
                    prefix.push(s.clone());
                    self.bump();
                }
                Some(Tok::Punct(':')) if self.is_punct(1, ':') => {
                    self.bump();
                    self.bump();
                    if self.is_punct(0, '{') {
                        self.bump();
                        // Nested group: parse each comma-separated tree.
                        loop {
                            match self.peek(0) {
                                Some(Tok::Punct('}')) => {
                                    self.bump();
                                    break;
                                }
                                Some(Tok::Punct(',')) => self.bump(),
                                None => break,
                                _ => {
                                    let mut sub = prefix.clone();
                                    self.parse_use_tree(&mut sub, module, out);
                                }
                            }
                        }
                        prefix.truncate(depth0);
                        return;
                    }
                    if self.is_punct(0, '*') {
                        self.bump(); // glob: unresolvable, ignore
                        prefix.truncate(depth0);
                        return;
                    }
                }
                _ => break,
            }
        }
        // Leaf: `use a::b::c` imports c; `use a::b::{c}` handled above.
        if prefix.len() > depth0 {
            if let Some(last) = prefix.last().cloned() {
                out.imports
                    .entry(module.to_string())
                    .or_default()
                    .insert(last, prefix.clone());
            }
        }
        prefix.truncate(depth0);
    }

    /// Skip a `fn` item (cursor on `fn`), including its body if any.
    fn skip_fn(&mut self, _cfg_test: bool) {
        self.bump(); // fn
        while self.pos < self.toks.len() {
            if self.is_punct(0, ';') {
                self.bump();
                return;
            }
            if self.is_punct(0, '{') {
                self.skip_group('{', '}');
                return;
            }
            if self.is_punct(0, '<') {
                self.skip_angles();
                continue;
            }
            self.bump();
        }
    }

    /// Parse a `fn` item (cursor on `fn`) and record it.
    fn parse_fn(&mut self, module: &str, self_type: Option<&str>, out: &mut ParsedFile) {
        let line = self.line();
        self.bump(); // fn
        let Some(name) = self.ident_at(0).map(str::to_string) else {
            return;
        };
        self.bump();
        let sig_start = self.pos;
        // Signature: skip to the body `{` or a `;` (trait method decl).
        while self.pos < self.toks.len() {
            if self.is_punct(0, ';') {
                self.bump();
                return; // no body
            }
            if self.is_punct(0, '{') {
                break;
            }
            if self.is_punct(0, '<') {
                self.skip_angles();
                continue;
            }
            if self.is_punct(0, '(') {
                self.skip_group('(', ')');
                continue;
            }
            self.bump();
        }
        if !self.is_punct(0, '{') {
            return;
        }
        // Body: event extraction over the balanced region.
        let body_start = self.pos;
        self.skip_group('{', '}');
        let body_range = (body_start + 1, self.pos.saturating_sub(1));
        let body = &self.toks[body_range.0..body_range.1];
        let events = extract_events(body);
        let qname = match self_type {
            Some(t) => format!("{module}::{t}::{name}"),
            None => format!("{module}::{name}"),
        };
        out.functions.push(Function {
            qname,
            module: module.to_string(),
            self_type: self_type.map(str::to_string),
            name,
            line,
            events,
            body: body_range,
            sig: (sig_start, body_start),
        });
    }
}

/// Extract call/method/macro/index events from a body token slice.
/// Nested items (closures, blocks) contribute to the same event list;
/// macro argument groups are skipped.
fn extract_events(toks: &[Token]) -> Vec<Event> {
    let mut events = Vec::new();
    let mut i = 0usize;
    let n = toks.len();
    // Kind of the previous *significant* token, for index detection.
    let mut prev_indexable = false;

    let punct = |t: &Token, c: char| matches!(t.kind, Tok::Punct(p) if p == c);

    while i < n {
        match &toks[i].kind {
            Tok::Punct('#') if i + 1 < n && punct(&toks[i + 1], '[') => {
                // In-body attribute: skip it (and never treat its `[` as
                // an index).
                i += 1;
                let mut depth = 0usize;
                while i < n {
                    if punct(&toks[i], '[') {
                        depth += 1;
                    } else if punct(&toks[i], ']') {
                        depth -= 1;
                        if depth == 0 {
                            i += 1;
                            break;
                        }
                    }
                    i += 1;
                }
                prev_indexable = false;
            }
            Tok::Punct('.') => {
                // `.name(` or `.name::<…>(` method call; `.await`, field
                // access and tuple indices fall through.
                if let Some(Tok::Ident(name)) = toks.get(i + 1).map(|t| &t.kind) {
                    let line = toks[i + 1].line;
                    let mut j = i + 2;
                    // Optional turbofish.
                    if j + 2 < n
                        && punct(&toks[j], ':')
                        && punct(&toks[j + 1], ':')
                        && punct(&toks[j + 2], '<')
                    {
                        j += 2;
                        let mut depth = 0usize;
                        while j < n {
                            if punct(&toks[j], '<') {
                                depth += 1;
                            } else if punct(&toks[j], '>') {
                                depth -= 1;
                                if depth == 0 {
                                    j += 1;
                                    break;
                                }
                            }
                            j += 1;
                        }
                    }
                    if j < n && punct(&toks[j], '(') {
                        events.push(Event::Method {
                            name: name.clone(),
                            line,
                        });
                    }
                    i += 2;
                    prev_indexable = true; // field access / call result
                    continue;
                }
                i += 1;
                prev_indexable = false;
            }
            Tok::Punct('[') => {
                if prev_indexable {
                    events.push(Event::Index {
                        line: toks[i].line,
                    });
                }
                i += 1;
                prev_indexable = false;
            }
            Tok::Punct(')') | Tok::Punct(']') => {
                i += 1;
                prev_indexable = true;
            }
            Tok::Punct(_) => {
                i += 1;
                prev_indexable = false;
            }
            Tok::Ident(first) => {
                if EXPR_KEYWORDS.contains(&first.as_str()) {
                    i += 1;
                    prev_indexable = false;
                    continue;
                }
                // Collect the `a::b::c` path.
                let line = toks[i].line;
                let mut path = vec![first.clone()];
                let mut j = i + 1;
                loop {
                    if j + 1 < n && punct(&toks[j], ':') && punct(&toks[j + 1], ':') {
                        if let Some(Tok::Ident(seg)) = toks.get(j + 2).map(|t| &t.kind) {
                            path.push(seg.clone());
                            j += 3;
                            continue;
                        }
                        // Turbofish `::<…>`.
                        if j + 2 < n && punct(&toks[j + 2], '<') {
                            j += 2;
                            let mut depth = 0usize;
                            while j < n {
                                if punct(&toks[j], '<') {
                                    depth += 1;
                                } else if punct(&toks[j], '>') {
                                    depth -= 1;
                                    if depth == 0 {
                                        j += 1;
                                        break;
                                    }
                                }
                                j += 1;
                            }
                            continue;
                        }
                    }
                    break;
                }
                if j < n && punct(&toks[j], '!') {
                    // Macro invocation: record and skip the delimiter
                    // group so its contents produce no events.
                    events.push(Event::Macro {
                        name: path[0].clone(),
                        line,
                    });
                    i = j + 1;
                    if i < n {
                        let (open, close) = match toks[i].kind {
                            Tok::Punct('(') => ('(', ')'),
                            Tok::Punct('[') => ('[', ']'),
                            Tok::Punct('{') => ('{', '}'),
                            _ => {
                                prev_indexable = false;
                                continue;
                            }
                        };
                        let mut depth = 0usize;
                        while i < n {
                            if punct(&toks[i], open) {
                                depth += 1;
                            } else if punct(&toks[i], close) {
                                depth -= 1;
                                if depth == 0 {
                                    i += 1;
                                    break;
                                }
                            }
                            i += 1;
                        }
                    }
                    prev_indexable = true;
                    continue;
                }
                if j < n && punct(&toks[j], '(') {
                    events.push(Event::Call { path, line });
                }
                i = j;
                prev_indexable = true;
                continue;
            }
            _ => {
                i += 1;
                prev_indexable = false;
            }
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fns(src: &str) -> Vec<Function> {
        parse_file(src, "c::m").functions
    }

    #[test]
    fn free_fn_and_events() {
        let f = fns("pub fn go(x: &[f64]) { helper(x); y.push(1); vec![0; 3]; }");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].qname, "c::m::go");
        assert!(f[0].events.contains(&Event::Call {
            path: vec!["helper".into()],
            line: 1
        }));
        assert!(f[0].events.contains(&Event::Method {
            name: "push".into(),
            line: 1
        }));
        assert!(f[0].events.contains(&Event::Macro {
            name: "vec".into(),
            line: 1
        }));
    }

    #[test]
    fn impl_methods_are_qualified() {
        let f = fns("struct S; impl S { fn a(&self) { self.b(); } fn b(&self) {} }");
        let names: Vec<&str> = f.iter().map(|f| f.qname.as_str()).collect();
        assert_eq!(names, vec!["c::m::S::a", "c::m::S::b"]);
        assert_eq!(f[0].self_type.as_deref(), Some("S"));
    }

    #[test]
    fn trait_impl_uses_self_type_not_trait() {
        let f = fns("impl Display for Wide { fn fmt(&self) { inner(); } }");
        assert_eq!(f[0].qname, "c::m::Wide::fmt");
    }

    #[test]
    fn generic_impl_block() {
        let f = fns("impl<T: Scalar> Panel<T> { fn width(&self) -> usize { self.n } }");
        assert_eq!(f[0].qname, "c::m::Panel::width");
    }

    #[test]
    fn cfg_test_items_are_skipped() {
        let f = fns(
            "fn live() {}\n#[cfg(test)]\nmod tests { fn dead() { x.unwrap(); } }\n\
             #[cfg(all(test, not(loom)))]\nmod t2 { fn dead2() {} }\nfn live2() {}",
        );
        let names: Vec<&str> = f.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["live", "live2"]);
    }

    #[test]
    fn inline_modules_extend_the_path() {
        let f = fns("mod inner { pub fn f() {} mod deep { pub fn g() {} } }");
        let names: Vec<&str> = f.iter().map(|f| f.qname.as_str()).collect();
        assert_eq!(names, vec!["c::m::inner::f", "c::m::inner::deep::g"]);
    }

    #[test]
    fn use_imports_are_recorded() {
        let p = parse_file(
            "use crate::shared::release_pending;\nuse std::collections::{BinaryHeap, VecDeque};\nuse a::b as c;",
            "c::m",
        );
        let im = &p.imports["c::m"];
        assert_eq!(
            im["release_pending"],
            vec!["crate", "shared", "release_pending"]
        );
        assert_eq!(im["BinaryHeap"], vec!["std", "collections", "BinaryHeap"]);
        assert_eq!(im["c"], vec!["a", "b"]);
    }

    #[test]
    fn qualified_calls_and_turbofish() {
        let f = fns("fn f() { Vec::<u8>::with_capacity(4); x.collect::<Vec<_>>(); crate::a::b(1); }");
        let calls: Vec<Vec<String>> = f[0]
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Call { path, .. } => Some(path.clone()),
                _ => None,
            })
            .collect();
        assert!(calls.contains(&vec!["Vec".into(), "with_capacity".into()]));
        assert!(calls.contains(&vec!["crate".into(), "a".into(), "b".into()]));
        assert!(f[0].events.contains(&Event::Method {
            name: "collect".into(),
            line: 1
        }));
    }

    #[test]
    fn indexing_detected_only_in_expression_position() {
        let f = fns("fn f(a: &[u8], m: [u8; 4]) { let x = a[0]; let y = [1, 2]; let z = m[1]; foo(a)[2]; }");
        let idx = f[0]
            .events
            .iter()
            .filter(|e| matches!(e, Event::Index { .. }))
            .count();
        assert_eq!(idx, 3, "a[0], m[1], foo(a)[2] — not the array literal");
    }

    #[test]
    fn macro_args_do_not_produce_events() {
        let f = fns("fn f() { assert!(a[0] == b.clone()); }");
        assert_eq!(
            f[0].events,
            vec![Event::Macro {
                name: "assert".into(),
                line: 1
            }]
        );
    }

    #[test]
    fn closures_attribute_to_enclosing_fn() {
        let f = fns("fn f() { let c = |x| inner(x); c(3); }");
        assert!(f[0].events.iter().any(
            |e| matches!(e, Event::Call { path, .. } if path == &vec!["inner".to_string()])
        ));
    }

    #[test]
    fn struct_literal_is_not_a_call() {
        let f = fns("fn f() { let e = Entry { priority: 1.0, task: t }; }");
        assert!(f[0]
            .events
            .iter()
            .all(|e| !matches!(e, Event::Call { .. })));
    }

    #[test]
    fn trait_default_methods_are_parsed() {
        let f = fns("trait P { fn n(&self) -> usize; fn d(&self) { self.n(); } }");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].qname, "c::m::P::d");
    }
}
