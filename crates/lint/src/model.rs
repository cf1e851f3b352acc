//! The [`WorkspaceModel`]: per-function *facts* extracted from parsed
//! files, the substrate the per-file rules D004/D006/D007 and the
//! interprocedural rules (D008–D011) run on.
//!
//! Facts are extracted once per file — derive sites with their receiver
//! roots and loop context, call sites with argument roots, metric
//! registration/touch sites, span open/close sites, rebindings — and
//! the token stream is dropped once the per-file rules have run.
//! Everything downstream (the call graph, the semantic rules) works on
//! this compact model, which keeps whole-workspace analysis cheap and,
//! because the model is sorted by path at construction, byte-stable
//! across file discovery order.

use crate::lexer::{find_matching, ident, punct, str_lit, Lexed, Tok, Token};
use crate::parser::{FileAst, FnItem, MacroUse, StaticItem, StructItem};

/// The whole-workspace model: one [`FileModel`] per file, sorted by
/// workspace-relative path.
#[derive(Debug, Clone, Default)]
pub struct WorkspaceModel {
    /// Files sorted by `path` (construction order does not matter).
    pub files: Vec<FileModel>,
}

impl WorkspaceModel {
    /// Assemble a model from per-file extractions, in any order.
    pub fn from_files(mut files: Vec<FileModel>) -> Self {
        files.sort_by(|a, b| a.path.cmp(&b.path));
        WorkspaceModel { files }
    }
}

/// One file's contribution to the model.
#[derive(Debug, Clone)]
pub struct FileModel {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Struct definitions (D006 snapshot types, D011 reachability).
    pub structs: Vec<StructItem>,
    /// `static` items (for D011).
    pub statics: Vec<StaticItem>,
    /// Macro invocations (for D011 `lazy_static!`).
    pub macro_uses: Vec<MacroUse>,
    /// Functions with their extracted facts, in source order.
    pub fns: Vec<FnModel>,
    /// Sorted, deduplicated uppercase-initial identifiers mentioned
    /// anywhere in the file — the D011 type-reference seed set.
    pub type_refs: Vec<String>,
}

/// One function: its parsed item plus the facts the rules consume.
#[derive(Debug, Clone)]
pub struct FnModel {
    /// The parsed signature (name, container, params, position).
    pub item: FnItem,
    /// Extracted body facts (empty for bodyless signatures).
    pub facts: FnFacts,
}

/// Everything the semantic rules need to know about one function body.
#[derive(Debug, Clone, Default)]
pub struct FnFacts {
    /// `.derive("literal")` sites (indexed `derive_idx` is the
    /// sanctioned loop pattern and is deliberately *not* recorded).
    pub derives: Vec<DeriveSite>,
    /// Call sites, in source order.
    pub calls: Vec<CallSite>,
    /// Metric registration / identity-use sites with two string-literal
    /// identity arguments.
    pub metric_regs: Vec<MetricReg>,
    /// Handle-based metric touches (`add`/`set_gauge`/`observe`…).
    pub metric_touches: Vec<MetricTouch>,
    /// `.open(…)` calls on a span-ish receiver.
    pub span_opens: Vec<(u32, u32)>,
    /// Number of `.close(…)` calls on a span-ish receiver.
    pub span_closes: u32,
    /// Rebindings (`let name = …`, `name = …`, `self.name = …`), in
    /// source order — they reset D008's per-root label tracking.
    pub rebinds: Vec<Rebind>,
}

/// The root of a method-call receiver chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecvRoot {
    /// A plain ident or `self.`-field chain (`rng`, `self.rng`).
    Named(String),
    /// The chain passes through a call or index — a fresh value with no
    /// nameable identity (`SimRng::seed_from(s).derive(…)`).
    Fresh,
}

/// One `.derive("label")` site.
#[derive(Debug, Clone)]
pub struct DeriveSite {
    /// The string-literal stream label.
    pub label: String,
    /// 1-based line of the `derive` ident.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Receiver-chain root.
    pub root: RecvRoot,
    /// Inside a `for`/`while`/`loop` body.
    pub in_loop: bool,
    /// In a loop *and* the receiver chain is never mentioned in the
    /// innermost loop other than to derive — so every iteration derives
    /// the byte-identical stream.
    pub loop_invariant: bool,
}

/// One call site.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name (last path segment / method name).
    pub callee: String,
    /// Path segment before `::` for qualified calls (`AzPlatform::new`).
    pub qualifier: Option<String>,
    /// `.name(…)` method-call syntax.
    pub method: bool,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Per-argument receiver root: `Some(chain)` when the argument is a
    /// bare (possibly `&`/`mut`-prefixed) ident or `self.`-field chain.
    pub args: Vec<Option<String>>,
}

/// A metric registration or identity-use site: any call to a method
/// that implies a metric kind.
#[derive(Debug, Clone)]
pub struct MetricReg {
    /// Implied kind: `counter`, `gauge` or `histogram`.
    pub kind: &'static str,
    /// The method called (`counter`, `try_histogram`, `incr`, …).
    pub method: String,
    /// `(subsystem, name)` when both identity args are string literals
    /// (only such sites join the workspace identity-kind check;
    /// dynamically built identities stay a runtime concern).
    pub identity: Option<(String, String)>,
    /// 1-based line of the method ident.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Binding the returned handle lands in, when the site is
    /// `let t = …` / `t: …` (struct literal) / `self.t = …` —
    /// tracked whether or not the identity args are literals.
    pub target: Option<String>,
}

/// A handle-based metric touch (`reg.add(handle, n)` and friends).
#[derive(Debug, Clone)]
pub struct MetricTouch {
    /// Kind the touch method implies.
    pub kind: &'static str,
    /// The method called (`add`, `set_gauge`, `observe`, …).
    pub method: String,
    /// Last segment of the first-argument chain — the handle name.
    pub target: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// A rebinding event: the named chain now refers to a new value.
#[derive(Debug, Clone)]
pub struct Rebind {
    /// The rebound chain (`rng`, `self.rng`).
    pub name: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// Methods that carry a metric identity as two leading string literals,
/// with the kind each implies.
const METRIC_IDENTITY_METHODS: [(&str, &str); 8] = [
    ("counter", "counter"),
    ("try_counter", "counter"),
    ("incr", "counter"),
    ("counter_sum", "counter"),
    ("gauge", "gauge"),
    ("try_gauge", "gauge"),
    ("histogram", "histogram"),
    ("try_histogram", "histogram"),
];

/// Handle-based touch methods and the kind each demands.
const METRIC_TOUCH_METHODS: [(&str, &str); 4] = [
    ("add", "counter"),
    ("set_gauge", "gauge"),
    ("observe", "histogram"),
    ("observe_duration", "histogram"),
];

/// Extract one file's model from its lexed tokens and parsed AST.
pub fn extract_file(path: &str, lexed: &Lexed, ast: &FileAst) -> FileModel {
    let toks = &lexed.tokens;
    let bodies: Vec<(usize, usize)> = ast.fns.iter().filter_map(|f| f.body).collect();
    let fns = ast
        .fns
        .iter()
        .map(|f| FnModel {
            item: f.clone(),
            facts: match f.body {
                Some((s, e)) => extract_facts(toks, s, e, &bodies),
                None => FnFacts::default(),
            },
        })
        .collect();
    let mut type_refs: Vec<String> = toks
        .iter()
        .filter_map(|t| match &t.tok {
            Tok::Ident(s) if s.starts_with(|c: char| c.is_ascii_uppercase()) => Some(s.clone()),
            _ => None,
        })
        .collect();
    type_refs.sort();
    type_refs.dedup();
    FileModel {
        path: path.to_string(),
        structs: ast.structs.clone(),
        statics: ast.statics.clone(),
        macro_uses: ast.macro_uses.clone(),
        fns,
        type_refs,
    }
}

/// Whether token index `i` inside the body `[start, end)` belongs to a
/// *nested* fn's body (facts there are the nested fn's, not ours).
fn in_nested_body(i: usize, start: usize, bodies: &[(usize, usize)]) -> bool {
    bodies.iter().any(|&(s, e)| s > start && i >= s && i < e)
}

/// Walk back from the `.` before a method name, collecting the receiver
/// chain. Returns the chain root plus the token index of the chain head.
fn receiver_chain(toks: &[Token], dot: usize) -> (RecvRoot, usize) {
    let mut segs: Vec<String> = Vec::new();
    let mut j = dot;
    loop {
        if j == 0 {
            break;
        }
        j -= 1; // token before the current `.`
        match &toks[j].tok {
            Tok::Ident(s) => {
                segs.push(s.clone());
                if j >= 1 && punct(toks, j - 1) == Some('.') {
                    j -= 1; // continue through the chain
                    continue;
                }
                if j >= 2 && punct(toks, j - 1) == Some(':') && punct(toks, j - 2) == Some(':') {
                    // Path-rooted receiver (`Foo::BAR.derive(…)`): no
                    // nameable local identity.
                    return (RecvRoot::Fresh, j);
                }
                segs.reverse();
                return (RecvRoot::Named(segs.join(".")), j);
            }
            _ => break, // `)`, `]`, literals: a fresh value
        }
    }
    (RecvRoot::Fresh, dot)
}

/// Parse the chain in an argument slice: `[&][mut] a.b.c` → `Some("a.b.c")`.
fn arg_root(arg: &[Token]) -> Option<String> {
    let mut s = 0usize;
    while matches!(punct(arg, s), Some('&')) || ident(arg, s) == Some("mut") {
        s += 1;
    }
    let mut segs = Vec::new();
    let mut j = s;
    loop {
        segs.push(ident(arg, j)?.to_string());
        j += 1;
        match punct(arg, j) {
            Some('.') => j += 1,
            None if j == arg.len() => return Some(segs.join(".")),
            _ => return None,
        }
    }
}

/// Split a top-level argument list (commas outside nested groups).
fn split_args(toks: &[Token], open: usize, close: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = open + 1;
    for j in open + 1..close {
        match punct(toks, j) {
            Some('(') | Some('[') | Some('{') => depth += 1,
            Some(')') | Some(']') | Some('}') => depth -= 1,
            Some(',') if depth == 0 => {
                out.push((start, j));
                start = j + 1;
            }
            _ => {}
        }
    }
    if start < close {
        out.push((start, close));
    }
    out
}

const CALL_KEYWORDS: [&str; 10] = [
    "if", "for", "while", "match", "return", "loop", "fn", "struct", "Some", "Ok",
];

/// Loop regions within a body: `(kw_idx, open_idx, close_idx)`.
fn loop_ranges(
    toks: &[Token],
    start: usize,
    end: usize,
    bodies: &[(usize, usize)],
) -> Vec<(usize, usize, usize)> {
    let mut out = Vec::new();
    let mut i = start;
    while i < end {
        if in_nested_body(i, start, bodies) {
            i += 1;
            continue;
        }
        if matches!(ident(toks, i), Some("for") | Some("while") | Some("loop")) {
            // Scan the header (skipping nested groups) to the body `{`.
            let mut j = i + 1;
            while j < end {
                match punct(toks, j) {
                    Some('(') | Some('[') => j = find_matching(toks, j),
                    Some('{') => break,
                    Some(';') => break, // not a loop header after all
                    _ => {}
                }
                j += 1;
            }
            if punct(toks, j) == Some('{') {
                let close = find_matching(toks, j);
                out.push((i, j, close));
            }
        }
        i += 1;
    }
    out
}

/// Whether the token sequence for `chain` (idents joined by `.`) occurs
/// at `toks[at..]`, not preceded by `.` (so `self.rng` does not match a
/// bare `rng` chain).
fn chain_matches(toks: &[Token], at: usize, segs: &[&str]) -> Option<usize> {
    if at > 0 && punct(toks, at - 1) == Some('.') {
        return None;
    }
    let mut j = at;
    for (k, seg) in segs.iter().enumerate() {
        if ident(toks, j) != Some(seg) {
            return None;
        }
        j += 1;
        if k + 1 < segs.len() {
            if punct(toks, j) != Some('.') {
                return None;
            }
            j += 1;
        }
    }
    Some(j) // index just past the chain
}

/// Extract the facts for one fn body `[start, end)`.
fn extract_facts(toks: &[Token], start: usize, end: usize, bodies: &[(usize, usize)]) -> FnFacts {
    let mut facts = FnFacts::default();
    let loops = loop_ranges(toks, start, end, bodies);
    let mut i = start;
    while i < end {
        if in_nested_body(i, start, bodies) {
            i += 1;
            continue;
        }
        let Tok::Ident(name) = &toks[i].tok else {
            // Rebind via plain assignment is keyed on the ident, handled
            // below; nothing else to do for puncts/literals.
            i += 1;
            continue;
        };
        let dotted = i > 0 && punct(toks, i - 1) == Some('.');
        let called = punct(toks, i + 1) == Some('(');

        // Rebinds: `[let] [mut] name = …` / `self.name = …` all reduce
        // to a chain directly followed by a single `=` (the binding
        // ident after `let`/`mut` is scanned like any other).
        if !dotted && !called && is_plain_assign(toks, i) {
            let (chain, _) = read_chain(toks, i);
            facts.rebinds.push(Rebind {
                name: chain,
                line: toks[i].line,
                col: toks[i].col,
            });
        }

        if dotted && called && name == "derive" {
            if let Some(label) = str_lit(toks, i + 2) {
                let (root, _head) = receiver_chain(toks, i - 1);
                let innermost = loops
                    .iter()
                    .filter(|&&(_, open, close)| i > open && i < close)
                    .max_by_key(|&&(_, open, _)| open);
                let (in_loop, loop_invariant) = match (&root, innermost) {
                    (RecvRoot::Named(chain), Some(&(kw, _, close))) => {
                        (true, receiver_only_derives(toks, kw, close, chain))
                    }
                    (_, Some(_)) => (true, false),
                    _ => (false, false),
                };
                facts.derives.push(DeriveSite {
                    label: label.to_string(),
                    line: toks[i].line,
                    col: toks[i].col,
                    root,
                    in_loop,
                    loop_invariant,
                });
            }
        }

        if dotted && called {
            if let Some(&(_, kind)) = METRIC_IDENTITY_METHODS.iter().find(|(m, _)| m == name) {
                let (_, head) = receiver_chain(toks, i - 1);
                facts.metric_regs.push(MetricReg {
                    kind,
                    method: name.clone(),
                    identity: identity_literals(toks, i + 1),
                    line: toks[i].line,
                    col: toks[i].col,
                    target: binding_target(toks, head),
                });
            }
            if let Some(&(_, kind)) = METRIC_TOUCH_METHODS.iter().find(|(m, _)| m == name) {
                let close = find_matching(toks, i + 1);
                if let Some(&(a, b)) = split_args(toks, i + 1, close).first() {
                    if let Some(chain) = arg_root(&toks[a..b]) {
                        let target = chain.rsplit('.').next().unwrap_or(&chain).to_string();
                        facts.metric_touches.push(MetricTouch {
                            kind,
                            method: name.clone(),
                            target,
                            line: toks[i].line,
                            col: toks[i].col,
                        });
                    }
                }
            }
            if name == "open" || name == "close" {
                let (root, _) = receiver_chain(toks, i - 1);
                if let RecvRoot::Named(chain) = &root {
                    if chain
                        .split('.')
                        .any(|seg| seg.to_ascii_lowercase().contains("span"))
                    {
                        if name == "open" {
                            facts.span_opens.push((toks[i].line, toks[i].col));
                        } else {
                            facts.span_closes += 1;
                        }
                    }
                }
            }
        }

        // Call sites (named calls only; macro `name!(…)` has a `!`
        // between the ident and paren so it never matches here).
        if called && !CALL_KEYWORDS.contains(&name.as_str()) {
            let qualified =
                i >= 2 && punct(toks, i - 1) == Some(':') && punct(toks, i - 2) == Some(':');
            if !(i > 0 && matches!(ident(toks, i - 1), Some("fn") | Some("struct"))) {
                let qualifier = if qualified {
                    ident(toks, i.wrapping_sub(3)).map(|s| s.to_string())
                } else {
                    None
                };
                let close = find_matching(toks, i + 1);
                let args = split_args(toks, i + 1, close)
                    .into_iter()
                    .map(|(a, b)| arg_root(&toks[a..b]))
                    .collect();
                facts.calls.push(CallSite {
                    callee: name.clone(),
                    qualifier,
                    method: dotted,
                    line: toks[i].line,
                    col: toks[i].col,
                    args,
                });
            }
        }
        i += 1;
    }
    facts
}

/// Whether `toks[i]` starts a plain assignment target (not a field
/// access of something else, not a comparison).
fn is_plain_assign(toks: &[Token], i: usize) -> bool {
    let (_, past) = read_chain(toks, i);
    if punct(toks, past) != Some('=') {
        return false;
    }
    // `==` and `=>` are not assignments; compound ops (`+=`) have the
    // operator punct, not the ident, before `=`.
    !matches!(punct(toks, past + 1), Some('=') | Some('>'))
        || toks.get(past + 1).map(|t| (t.line, t.col))
            != toks.get(past).map(|t| (t.line, t.col + 1))
}

/// Read an ident chain `a.b.c` starting at `i`; returns the joined
/// chain and the index just past it.
fn read_chain(toks: &[Token], i: usize) -> (String, usize) {
    let mut segs = Vec::new();
    let mut j = i;
    while let Some(s) = ident(toks, j) {
        segs.push(s.to_string());
        if punct(toks, j + 1) == Some('.') && ident(toks, j + 2).is_some() {
            j += 2;
        } else {
            j += 1;
            break;
        }
    }
    (segs.join("."), j)
}

/// Whether the receiver `chain` is mentioned in the loop `[kw, close]`
/// *only* to derive — i.e. every occurrence is immediately followed by
/// `.derive(` / `.derive_idx(`. One mention that draws from or
/// reassigns the receiver means its state can differ per iteration.
fn receiver_only_derives(toks: &[Token], kw: usize, close: usize, chain: &str) -> bool {
    let segs: Vec<&str> = chain.split('.').collect();
    let mut j = kw;
    while j <= close {
        if let Some(past) = chain_matches(toks, j, &segs) {
            let deriving = punct(toks, past) == Some('.')
                && matches!(ident(toks, past + 1), Some("derive") | Some("derive_idx"))
                && punct(toks, past + 2) == Some('(');
            if !deriving {
                return false;
            }
            j = past;
        } else {
            j += 1;
        }
    }
    true
}

/// The two leading string-literal identity args of a metric call, if
/// present (each optionally `&`-prefixed).
fn identity_literals(toks: &[Token], open: usize) -> Option<(String, String)> {
    let close = find_matching(toks, open);
    let args = split_args(toks, open, close);
    if args.len() < 2 {
        return None;
    }
    let lit = |(a, b): (usize, usize)| -> Option<String> {
        let s = if punct(toks, a) == Some('&') {
            a + 1
        } else {
            a
        };
        if s + 1 == b {
            str_lit(toks, s).map(|l| l.to_string())
        } else {
            None
        }
    };
    Some((lit(args[0])?, lit(args[1])?))
}

/// Where a registration's returned handle is bound: `let t = …`,
/// `t: …` (struct literal field), `self.t = …`.
fn binding_target(toks: &[Token], head: usize) -> Option<String> {
    if head == 0 {
        return None;
    }
    match punct(toks, head - 1) {
        Some('=') if punct(toks, head.wrapping_sub(2)) != Some('=') => {
            let t = head.checked_sub(2)?;
            let name = ident(toks, t)?;
            if name == "mut" {
                return None;
            }
            Some(name.to_string())
        }
        Some(':') => {
            // Struct-literal field `name: reg.counter(…)` — but not a
            // path `::` or a type ascription after `let name:`.
            if punct(toks, head.wrapping_sub(2)) == Some(':') {
                return None;
            }
            let t = head.checked_sub(2)?;
            let name = ident(toks, t)?;
            let before = t.checked_sub(1).and_then(|b| punct(toks, b));
            if matches!(before, Some('{') | Some(',') | None) {
                Some(name.to_string())
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Render a param type for SimRng detection.
pub fn is_simrng_ty(ty: &str) -> bool {
    ty.split(' ').any(|t| t == "SimRng")
}

/// Convenience used by tests: full single-file extraction from source.
pub fn extract_source(path: &str, source: &str) -> FileModel {
    let lexed = crate::lexer::lex(source);
    let ast = crate::parser::parse_file(&lexed);
    extract_file(path, &lexed, &ast)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn facts_of(src: &str) -> FnFacts {
        let fm = extract_source("crates/faas/src/x.rs", src);
        fm.fns.first().map(|f| f.facts.clone()).unwrap_or_default()
    }

    #[test]
    fn derive_roots_and_labels() {
        let f = facts_of(
            "fn f(rng: &mut SimRng) {\n\
                 let a = rng.derive(\"alpha\");\n\
                 let b = self_less();\n\
                 let c = SimRng::seed_from(7).derive(\"beta\");\n\
             }",
        );
        assert_eq!(f.derives.len(), 2);
        assert_eq!(f.derives[0].label, "alpha");
        assert_eq!(f.derives[0].root, RecvRoot::Named("rng".into()));
        assert_eq!(f.derives[1].root, RecvRoot::Fresh);
    }

    #[test]
    fn self_field_chain_is_a_named_root() {
        let f = facts_of("fn f(&mut self) { let r = self.rng.derive(\"day\"); }");
        assert_eq!(f.derives[0].root, RecvRoot::Named("self.rng".into()));
    }

    #[test]
    fn loop_invariant_derive_is_detected() {
        let f = facts_of(
            "fn f(rng: &mut SimRng) { for h in 0..4 { let s = rng.derive(\"host\"); use_stream(s); } }",
        );
        assert!(f.derives[0].in_loop);
        assert!(f.derives[0].loop_invariant);
    }

    #[test]
    fn advancing_receiver_in_loop_is_not_invariant() {
        let f = facts_of(
            "fn f(rng: &mut SimRng) { for h in 0..4 { let s = rng.derive(\"host\"); rng.next_u64(); } }",
        );
        assert!(f.derives[0].in_loop);
        assert!(!f.derives[0].loop_invariant);
    }

    #[test]
    fn derive_idx_is_not_recorded() {
        let f =
            facts_of("fn f(rng: &mut SimRng) { for h in 0..4 { rng.derive_idx(\"host\", h); } }");
        assert!(f.derives.is_empty());
    }

    #[test]
    fn call_sites_capture_qualifier_and_arg_roots() {
        let f = facts_of(
            "fn f(rng: SimRng) { AzPlatform::new(spec, 3, rng); helper(&mut rng); x.shift(self.buf); }",
        );
        assert_eq!(f.calls.len(), 3);
        assert_eq!(f.calls[0].callee, "new");
        assert_eq!(f.calls[0].qualifier.as_deref(), Some("AzPlatform"));
        assert_eq!(f.calls[0].args[2].as_deref(), Some("rng"));
        assert_eq!(f.calls[1].callee, "helper");
        assert_eq!(f.calls[1].args[0].as_deref(), Some("rng"));
        assert!(f.calls[2].method);
        assert_eq!(f.calls[2].args[0].as_deref(), Some("self.buf"));
    }

    #[test]
    fn metric_identity_and_touch_sites() {
        let f = facts_of(
            "fn f(m: &mut MetricsRegistry) {\n\
                 let hits = m.counter(\"faas\", \"hits\", &[]);\n\
                 m.add(hits, 1);\n\
                 m.observe(lat, 9);\n\
             }",
        );
        assert_eq!(f.metric_regs.len(), 1);
        assert_eq!(f.metric_regs[0].kind, "counter");
        assert_eq!(
            f.metric_regs[0].identity,
            Some(("faas".to_string(), "hits".to_string()))
        );
        assert_eq!(f.metric_regs[0].target.as_deref(), Some("hits"));
        assert_eq!(f.metric_touches.len(), 2);
        assert_eq!(f.metric_touches[0].target, "hits");
        assert_eq!(f.metric_touches[1].kind, "histogram");
    }

    #[test]
    fn struct_literal_registration_target() {
        let f = facts_of(
            "fn f(m: &mut MetricsRegistry) -> H { H { success: m.counter(\"faas\", \"requests\", &l), } }",
        );
        assert_eq!(f.metric_regs[0].target.as_deref(), Some("success"));
    }

    #[test]
    fn span_sites_need_a_spanish_receiver() {
        let f = facts_of(
            "fn f(&mut self) { self.spans.open(id, t); file.open(path); self.spans.close(id, t, p); }",
        );
        assert_eq!(f.span_opens.len(), 1);
        assert_eq!(f.span_closes, 1);
    }

    #[test]
    fn rebinds_are_recorded() {
        let f = facts_of("fn f() { let rng = a(); rng = b(); self.rng = c(); if x == y {} }");
        let names: Vec<&str> = f.rebinds.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["rng", "rng", "self.rng"]);
    }

    #[test]
    fn model_is_sorted_by_path() {
        let a = extract_source("b.rs", "fn x() {}");
        let b = extract_source("a.rs", "fn y() {}");
        let m = WorkspaceModel::from_files(vec![a, b]);
        assert_eq!(m.files[0].path, "a.rs");
    }
}
