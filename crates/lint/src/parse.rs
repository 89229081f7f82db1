//! Item-level parser for the hot-path analyzer.
//!
//! Walks the token stream of one file and extracts what the call-graph
//! and the purity rules need — nothing more:
//!
//! * the module tree (inline `mod x { … }`; file modules come from the
//!   file's path, supplied by the workspace scanner);
//! * `use` imports, per module, for call-path resolution;
//! * every function (free, `impl` method, trait default method) with the
//!   type parameters in scope and the *events* in its body: path calls,
//!   method calls, macro invocations and index expressions;
//! * invocations of the file's own `macro_rules!` items, which are not
//!   expanded: an expression-position one is an [`Event::Opaque`], and an
//!   item-position one stands in for each function it may define;
//! * the comments (via [`crate::lex`]) so rules can check justification
//!   markers (`// BOUNDS:`, `// ALLOC:`, …) near an event.
//!
//! `#[cfg(test)]` / `#[cfg(all(test, …))]` items are skipped entirely —
//! test code is allowed to allocate, lock and panic.

use crate::lex::{group_end, ident_at, lex, punct_at, Comment, Tok, Token};
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
    /// `name!(…)` invocation of a macro the file does not define (std's;
    /// its contents are *not* descended into).
    Macro {
        /// Macro name (first path segment).
        name: String,
        /// 1-based source line.
        line: usize,
    },
    /// An invocation of one of the file's own `macro_rules!` items: code
    /// the rules cannot see, since macros are not expanded.
    Opaque {
        /// Macro name.
        name: String,
        /// 1-based source line of the invocation.
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
            | Event::Opaque { line, .. }
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
    /// Type parameters in scope: the enclosing `impl`'s, then the fn's.
    pub generics: Vec<String>,
    /// Body events, in order.
    pub events: Vec<Event>,
    /// Half-open token range of the body (inside the braces) into the
    /// owning [`ParsedFile::tokens`] stream. `(0, 0)` for the stand-in of
    /// a function a macro invocation may define: it has no body.
    pub body: (usize, usize),
    /// Half-open token range of the signature (from just after the name
    /// to the opening body brace); `(0, 0)` like `body`.
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
    let macros = own_macros(&lexed.tokens);
    let mut out = ParsedFile {
        comments: lexed.comments,
        ..Default::default()
    };
    let mut p = Parser {
        toks: &lexed.tokens,
        pos: 0,
        macros: &macros,
    };
    p.items(module, None, &[], &mut out);
    out.tokens = lexed.tokens;
    out
}

struct Parser<'a> {
    toks: &'a [Token],
    pos: usize,
    /// The file's own `macro_rules!` items.
    macros: &'a Macros,
}

impl Parser<'_> {
    fn peek(&self, off: usize) -> Option<&Tok> {
        self.toks.get(self.pos + off).map(|t| &t.kind)
    }

    fn bump(&mut self) {
        self.pos += 1;
    }

    fn is_punct(&self, off: usize, c: char) -> bool {
        punct_at(self.toks, self.pos + off, c)
    }

    fn ident_at(&self, off: usize) -> Option<&str> {
        ident_at(self.toks, self.pos + off)
    }

    /// Step over the group that opens at the cursor, or one token.
    fn skip(&mut self) {
        self.pos = group_end(self.toks, self.pos);
    }

    /// Skip the attribute at the cursor (`#[…]`, `#![…]`); true when it
    /// is `cfg(test)` or `cfg(all(test, …))`.
    fn attribute_is_cfg_test(&mut self) -> bool {
        self.bump(); // '#'
        if self.is_punct(0, '!') {
            self.bump();
        }
        if !self.is_punct(0, '[') {
            return false;
        }
        let start = self.pos;
        self.skip();
        let words: Vec<&str> = (start..self.pos).filter_map(|i| ident_at(self.toks, i)).take(3).collect();
        matches!(words[..], ["cfg", "test", ..] | ["cfg", "all", "test"])
    }

    /// Parse items until the end of the slice or an unmatched `}`.
    /// `generics` are the type parameters of an enclosing `impl`.
    fn items(
        &mut self,
        module: &str,
        self_type: Option<&str>,
        generics: &[String],
        out: &mut ParsedFile,
    ) {
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
                    self.skip();
                    cfg_test = false;
                }
                Some(Tok::Ident(word)) => {
                    let word = word.clone();
                    match word.as_str() {
                        "mod" => {
                            self.bump();
                            let name = self.ident_at(0).unwrap_or("").to_string();
                            self.bump();
                            if self.is_punct(0, '{') {
                                if cfg_test {
                                    self.skip();
                                } else {
                                    self.bump(); // '{'
                                    let sub = format!("{module}::{name}");
                                    self.items(&sub, None, &[], out);
                                }
                            }
                            cfg_test = false;
                        }
                        "use" => {
                            self.bump();
                            if !cfg_test {
                                self.parse_use(module, out);
                            } else {
                                self.skip_item_tail();
                            }
                            cfg_test = false;
                        }
                        "fn" => {
                            if cfg_test {
                                self.skip_item_tail();
                            } else {
                                self.parse_fn(module, self_type, generics, out);
                            }
                            cfg_test = false;
                        }
                        "impl" => {
                            self.bump();
                            let params = self.generic_names();
                            // Read the head up to `{`; if a `for` appears
                            // the type is what follows it.
                            let mut ty = String::new();
                            while self.pos < self.toks.len() && !self.is_punct(0, '{') {
                                match self.ident_at(0) {
                                    Some("for") => ty.clear(),
                                    // The where-clause names no type.
                                    Some("where") => {
                                        while self.pos < self.toks.len() && !self.is_punct(0, '{') {
                                            self.skip();
                                        }
                                        break;
                                    }
                                    // Last path segment wins (strip the
                                    // module qualifier).
                                    Some(s) => ty = s.to_string(),
                                    None => {}
                                }
                                self.skip();
                            }
                            if self.is_punct(0, '{') {
                                if cfg_test {
                                    self.skip();
                                } else {
                                    self.bump();
                                    let st = if ty.is_empty() { None } else { Some(ty) };
                                    self.items(module, st.as_deref(), &params, out);
                                }
                            }
                            cfg_test = false;
                        }
                        "trait" => {
                            self.bump();
                            let name = self.ident_at(0).unwrap_or("").to_string();
                            // Skip to the body brace.
                            while self.pos < self.toks.len() && !self.is_punct(0, '{') {
                                if self.is_punct(0, ';') {
                                    break; // trait alias
                                }
                                self.skip();
                            }
                            if self.is_punct(0, '{') {
                                if cfg_test {
                                    self.skip();
                                } else {
                                    self.bump();
                                    self.items(module, Some(&name), &[], out);
                                }
                            }
                            cfg_test = false;
                        }
                        // `const fn` is a function.
                        "const" if self.ident_at(1) == Some("fn") => self.bump(),
                        "struct" | "enum" | "union" | "static" | "const" | "type" => {
                            self.bump();
                            self.skip_item_tail();
                            cfg_test = false;
                        }
                        "macro_rules" => {
                            self.bump(); // macro_rules
                            self.bump(); // !
                            self.bump(); // name
                            self.skip();
                            cfg_test = false;
                        }
                        _ if self.is_punct(1, '!') && self.macros.contains_key(&word) => {
                            let line = self.toks[self.pos].line;
                            let (open, end) = (self.pos + 2, group_end(self.toks, self.pos + 2));
                            self.pos = end;
                            if !cfg_test {
                                let args = self.toks.get(open + 1..end - 1).unwrap_or_default();
                                self.stand_ins(&word, args, line, module, self_type, out);
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

    /// An item-position invocation of the file's macro `name`: each
    /// identifier of the invocation and each `fn` name the macro's rules
    /// write stands in for a function it may define, with the site as its
    /// one event, so a hot call into it fails there.
    fn stand_ins(
        &self,
        name: &str,
        args: &[Token],
        line: usize,
        module: &str,
        self_type: Option<&str>,
        out: &mut ParsedFile,
    ) {
        let written = self.macros[name].iter().map(String::as_str);
        let mut names: Vec<&str> =
            (0..args.len()).filter_map(|k| ident_at(args, k)).chain(written).collect();
        names.sort_unstable();
        names.dedup();
        for f in names {
            out.functions.push(Function {
                qname: qualify(module, self_type, f),
                module: module.to_string(),
                self_type: self_type.map(str::to_string),
                name: f.to_string(),
                generics: Vec::new(),
                events: vec![Event::Opaque { name: name.to_string(), line }],
                body: (0, 0),
                sig: (0, 0),
            });
        }
    }

    /// Skip an item body: either `… ;` or `… { … }` (whichever first).
    fn skip_item_tail(&mut self) {
        while self.pos < self.toks.len() {
            if self.is_punct(0, ';') {
                self.bump();
                return;
            }
            let brace = self.is_punct(0, '{');
            self.skip();
            if brace {
                return; // struct Foo { … } has no trailing `;`
            }
        }
    }

    /// The type parameters of the `<…>` group at the cursor (none without
    /// one); leaves the cursor past it.
    fn generic_names(&mut self) -> Vec<String> {
        if !self.is_punct(0, '<') {
            return Vec::new();
        }
        let (start, end) = (self.pos, group_end(self.toks, self.pos));
        self.pos = end;
        let mut depth = 0usize;
        let mut names = Vec::new();
        for i in start..end {
            match &self.toks[i].kind {
                Tok::Punct('<') => depth += 1,
                Tok::Punct('>') if !punct_at(self.toks, i - 1, '-') => depth -= 1,
                Tok::Ident(s)
                    if depth == 1
                        && s != "const"
                        && (i == start + 1 || punct_at(self.toks, i - 1, ',')) =>
                {
                    names.push(s.clone());
                }
                _ => {}
            }
        }
        names
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

    /// Parse a `fn` item (cursor on `fn`) and record it.
    fn parse_fn(
        &mut self,
        module: &str,
        self_type: Option<&str>,
        generics: &[String],
        out: &mut ParsedFile,
    ) {
        self.bump(); // fn
        let Some(name) = self.ident_at(0).map(str::to_string) else {
            return;
        };
        self.bump();
        let sig_start = self.pos;
        let mut generics = generics.to_vec();
        generics.extend(self.generic_names());
        // Signature: skip to the body `{` or a `;` (trait method decl).
        while self.pos < self.toks.len() && !self.is_punct(0, '{') {
            if self.is_punct(0, ';') {
                self.bump();
                return; // no body
            }
            self.skip();
        }
        if !self.is_punct(0, '{') {
            return;
        }
        // Body: event extraction over the balanced region.
        let body_start = self.pos;
        self.skip();
        let body = self.toks.get(body_start + 1..self.pos - 1).unwrap_or_default();
        let events = extract_events(body, self.macros);
        out.functions.push(Function {
            qname: qualify(module, self_type, &name),
            module: module.to_string(),
            self_type: self_type.map(str::to_string),
            name,
            generics,
            events,
            body: (body_start + 1, self.pos - 1),
            sig: (sig_start, body_start),
        });
    }
}

/// A file's `macro_rules!` items by name, each with the names its rules
/// write after `fn`.
type Macros = HashMap<String, Vec<String>>;

/// Every `macro_rules! name { … }` of a token stream.
fn own_macros(toks: &[Token]) -> Macros {
    let mut out = Macros::new();
    for i in 0..toks.len() {
        let Some(name) = ident_at(toks, i + 2) else {
            continue;
        };
        if ident_at(toks, i) != Some("macro_rules") || !punct_at(toks, i + 1, '!') {
            continue;
        }
        let body = toks.get(i + 3..group_end(toks, i + 3)).unwrap_or_default();
        let fns = (1..body.len())
            .filter(|&k| ident_at(body, k - 1) == Some("fn"))
            .filter_map(|k| ident_at(body, k));
        out.entry(name.to_string()).or_default().extend(fns.map(str::to_string));
    }
    out
}

/// `module::f` or `module::Type::f`.
fn qualify(module: &str, self_type: Option<&str>, name: &str) -> String {
    match self_type {
        Some(t) => format!("{module}::{t}::{name}"),
        None => format!("{module}::{name}"),
    }
}

/// Does a `(`, `[` or `{` group open at `i`?
fn opens_group(toks: &[Token], i: usize) -> bool {
    punct_at(toks, i, '(') || punct_at(toks, i, '[') || punct_at(toks, i, '{')
}

/// Extract call/method/macro/index events from a body token slice.
/// Nested items (closures, blocks) contribute to the same event list;
/// a macro's argument group contributes none.
fn extract_events(toks: &[Token], macros: &Macros) -> Vec<Event> {
    let mut events = Vec::new();
    let mut i = 0usize;
    // Does the previous significant token end an expression, so that a
    // `[` after it indexes?
    let mut indexable = false;
    while i < toks.len() {
        let line = toks[i].line;
        match &toks[i].kind {
            Tok::Punct('#') if punct_at(toks, i + 1, '[') => {
                // In-body attribute: its `[` is no index.
                i = group_end(toks, i + 1);
                indexable = false;
            }
            Tok::Punct('.') if ident_at(toks, i + 1).is_some() => {
                // `.name(` or `.name::<…>(` method call; `.await` and
                // field access fall through.
                let mut j = i + 2;
                if punct_at(toks, j, ':') && punct_at(toks, j + 1, ':') {
                    j = group_end(toks, j + 2);
                }
                if punct_at(toks, j, '(') {
                    let name = ident_at(toks, i + 1).unwrap_or_default().to_string();
                    events.push(Event::Method { name, line });
                }
                i += 2;
                indexable = true; // field access / call result
            }
            Tok::Punct('[') => {
                if indexable {
                    events.push(Event::Index { line });
                }
                i += 1;
                indexable = false;
            }
            Tok::Punct(')') | Tok::Punct(']') => {
                i += 1;
                indexable = true;
            }
            Tok::Ident(first) if !EXPR_KEYWORDS.contains(&first.as_str()) => {
                // Collect the `a::b::c` path, past any turbofish.
                let mut path = vec![first.clone()];
                let mut j = i + 1;
                while punct_at(toks, j, ':') && punct_at(toks, j + 1, ':') {
                    match ident_at(toks, j + 2) {
                        Some(seg) => path.push(seg.to_string()),
                        None if punct_at(toks, j + 2, '<') => {}
                        None => break,
                    }
                    j = group_end(toks, j + 2);
                }
                if punct_at(toks, j, '!') && opens_group(toks, j + 1) {
                    let name = first.clone();
                    events.push(match macros.contains_key(first) {
                        true => Event::Opaque { name, line },
                        false => Event::Macro { name, line },
                    });
                    i = group_end(toks, j + 1);
                } else {
                    if punct_at(toks, j, '(') {
                        events.push(Event::Call { path, line });
                    }
                    i = j;
                }
                indexable = true;
            }
            _ => {
                i += 1;
                indexable = false;
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
