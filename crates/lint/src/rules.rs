//! The per-file determinism rules (D001–D007). The interprocedural
//! rules (D008–D011) live in [`crate::semantic`]; the pragma-hygiene
//! findings (P001 malformed pragma, P002 unused pragma) are emitted by
//! the pipeline in `lib.rs`.
//!
//! Each rule reads the one parse of its file. The single-mention rules
//! (D001, D002, D003, D005) scan the token stream; D004 and D007 read
//! the per-function facts ([`crate::model::FnFacts`]) and D006 reads
//! the parsed struct items. None of them re-parses Rust here.
//!
//! Deliberately no rule needs type inference: the gate must run in
//! offline CI with zero dependencies, and a rule that needs
//! whole-program type inference is a rule whose false-negative modes
//! nobody can reason about. Where a rule is a heuristic approximation
//! of the real invariant (D005, D006, D007), the approximation is
//! documented here and in `DESIGN.md` §9, next to the semantic rules'.
//!
//! | rule | reads | invariant |
//! |------|-------|-----------|
//! | D001 | tokens | no `HashMap`/`HashSet` in sim-affecting crates (iteration order leaks into event order) |
//! | D002 | tokens | no wall clock (`Instant::now`, `SystemTime::now`) outside `bench`/`cli` |
//! | D003 | tokens | no ambient entropy (`thread_rng`, `rand::random`, `from_entropy`, `OsRng`, `getrandom`) anywhere |
//! | D004 | fn facts | no duplicate `SimRng::derive("label")` literals within one function body |
//! | D005 | tokens | no float `+=`/`.sum()` accumulation over money identifiers in sim-affecting crates |
//! | D006 | struct items | no `pub` hash-keyed map fields in `#[derive(Serialize)]` snapshot types |
//! | D007 | fn facts | no unordered parallel reductions (`.lock()` + `push`/`extend`/`insert`/`append` on one line) in sim crates or `bench` |
//!
//! D008–D011 read the workspace model plus the call graph; see
//! [`crate::semantic`].

use crate::graph::crate_key;
use crate::lexer::{ident, punct, Tok, Token};
use crate::model::FileModel;

/// All suppressible rule ids (P001/P002 are not suppressible: pragma
/// hygiene cannot be pragma'd away).
pub const RULE_IDS: [&str; 11] = [
    "D001", "D002", "D003", "D004", "D005", "D006", "D007", "D008", "D009", "D010", "D011",
];

/// Crates whose code runs inside (or feeds state into) the seeded
/// simulation — the D001/D005 scope.
pub const SIM_CRATES: [&str; 6] = ["sim-core", "cloud", "core", "faas", "mesh", "workloads"];

/// Crates allowed to read the wall clock (host-side measurement and
/// interactive tooling — never simulation state).
pub const WALLCLOCK_ALLOWLIST: [&str; 2] = ["bench", "cli"];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Rule id (`D001`…`D011`, `P001`, `P002`).
    pub rule: &'static str,
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub hint: String,
}

/// Which scoped rules apply to a file, from its crate ([`crate_key`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct FileScope {
    /// Inside one of [`SIM_CRATES`] (D001/D005 apply).
    pub sim: bool,
    /// Inside the wall-clock allowlist (D002 does not apply).
    pub wallclock_allowed: bool,
    /// Inside a crate that may run parallel code over sim results — the
    /// sim crates plus `bench`, home of the sweep runner and the sharded
    /// fleet driver (the D007 and D011 scope).
    pub parallel: bool,
}

/// The scope of the file at workspace-relative `rel_path`.
pub(crate) fn scope_of(rel_path: &str) -> FileScope {
    let krate = crate_key(rel_path);
    let sim = SIM_CRATES.contains(&krate);
    FileScope {
        sim,
        wallclock_allowed: WALLCLOCK_ALLOWLIST.contains(&krate),
        parallel: sim || krate == "bench",
    }
}

/// Raw per-file findings (D001–D007) from the file's tokens and its
/// model — no pragma suppression, no hygiene findings; the pipeline in
/// `lib.rs` applies those after merging in the semantic findings.
pub(crate) fn file_findings(toks: &[Token], model: &FileModel) -> Vec<Finding> {
    let path = model.path.as_str();
    let scope = scope_of(path);
    let mut raw: Vec<Finding> = Vec::new();
    if scope.sim {
        rule_d001_hash_collections(path, toks, &mut raw);
        rule_d005_float_money(path, toks, &mut raw);
    }
    if !scope.wallclock_allowed {
        rule_d002_wall_clock(path, toks, &mut raw);
    }
    rule_d003_ambient_entropy(path, toks, &mut raw);
    rule_d004_duplicate_stream_labels(model, &mut raw);
    rule_d006_serialized_hash_maps(toks, model, &mut raw);
    if scope.parallel {
        rule_d007_unordered_parallel_reductions(model, &mut raw);
    }
    raw
}

fn push_once_per_line(out: &mut Vec<Finding>, f: Finding) {
    let dup = out
        .iter()
        .any(|g| g.rule == f.rule && g.line == f.line && g.path == f.path);
    if !dup {
        out.push(f);
    }
}

/// D001 — hash-ordered collections in sim-affecting crates. Flags every
/// mention (imports, types, constructors): the cheapest place to stop
/// nondeterministic iteration is before the collection exists at all.
fn rule_d001_hash_collections(path: &str, toks: &[Token], out: &mut Vec<Finding>) {
    for t in toks {
        if let Tok::Ident(name) = &t.tok {
            if name == "HashMap" || name == "HashSet" {
                push_once_per_line(
                    out,
                    Finding {
                        path: path.to_string(),
                        line: t.line,
                        col: t.col,
                        rule: "D001",
                        message: format!(
                            "`{name}` in a sim-affecting crate: hash iteration order can \
                             leak into event order"
                        ),
                        hint: format!(
                            "use `BTree{}` (sorted, deterministic) or justify with \
                             `// sky-lint: allow(D001, <reason>)`",
                            &name[4..]
                        ),
                    },
                );
            }
        }
    }
}

/// D002 — wall-clock reads outside the bench/cli allowlist. Simulated
/// components must take time from `SimTime`; a single `Instant::now`
/// in a sim crate makes replay machine-dependent.
fn rule_d002_wall_clock(path: &str, toks: &[Token], out: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        let Tok::Ident(name) = &toks[i].tok else {
            continue;
        };
        if name != "Instant" && name != "SystemTime" {
            continue;
        }
        if path_then(toks, i + 1, "now") {
            push_once_per_line(
                out,
                Finding {
                    path: path.to_string(),
                    line: toks[i].line,
                    col: toks[i].col,
                    rule: "D002",
                    message: format!(
                        "wall-clock read `{name}::now` outside the bench/cli allowlist"
                    ),
                    hint: "simulated components take time from `SimTime`; host-side timing \
                           belongs in crates/bench or crates/cli"
                        .to_string(),
                },
            );
        }
    }
}

/// Whether `toks[i..]` is `:: <name>`.
fn path_then(toks: &[Token], i: usize, name: &str) -> bool {
    punct(toks, i) == Some(':')
        && punct(toks, i + 1) == Some(':')
        && ident(toks, i + 2) == Some(name)
}

/// D003 — ambient entropy anywhere in the workspace. All randomness
/// must flow through `SimRng::derive("label")` named streams.
fn rule_d003_ambient_entropy(path: &str, toks: &[Token], out: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        let Tok::Ident(name) = &toks[i].tok else {
            continue;
        };
        let hit = match name.as_str() {
            "thread_rng" | "from_entropy" | "OsRng" | "getrandom" => true,
            "rand" => path_then(toks, i + 1, "random"),
            _ => false,
        };
        if hit {
            push_once_per_line(
                out,
                Finding {
                    path: path.to_string(),
                    line: toks[i].line,
                    col: toks[i].col,
                    rule: "D003",
                    message: format!("ambient entropy source `{name}`"),
                    hint: "every random draw must come from a named stream: \
                           `SimRng::seed_from(seed).derive(\"label\")`"
                        .to_string(),
                },
            );
        }
    }
}

/// D004 — duplicate `.derive("label")` string literals within one
/// function body. Two identical labels derived from the same parent
/// state yield byte-identical streams: silently correlated randomness.
/// Every repeat after a label's first derive is flagged; a nested fn is
/// a body of its own (the model keeps its derives apart).
fn rule_d004_duplicate_stream_labels(model: &FileModel, out: &mut Vec<Finding>) {
    for f in &model.fns {
        let mut seen: Vec<&str> = Vec::new();
        for d in &f.facts.derives {
            if !seen.contains(&d.label.as_str()) {
                seen.push(&d.label);
                continue;
            }
            out.push(Finding {
                path: model.path.clone(),
                line: d.line,
                col: d.col,
                rule: "D004",
                message: format!(
                    "duplicate stream label {:?} within one function body: \
                     identical labels alias the same stream",
                    d.label
                ),
                hint: "give each derived stream a distinct label (or derive \
                       from the already-derived child)"
                    .to_string(),
            });
        }
    }
}

const MONEY_MARKERS: [&str; 7] = ["cost", "usd", "price", "bill", "spend", "revenue", "dollar"];
const INTEGER_MONEY_MARKERS: [&str; 3] = ["nano", "cents", "mb_us"];

fn is_money_ident(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    MONEY_MARKERS.iter().any(|m| lower.contains(m))
}

fn is_integer_money_ident(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    INTEGER_MONEY_MARKERS.iter().any(|m| lower.contains(m))
}

/// D005 — float accumulation over money identifiers in sim-affecting
/// crates. Canonical billing state is integer (nano-USD, mb·µs); float
/// folds are only tolerable in presentation layers, and only with a
/// pragma explaining the deterministic fold order.
///
/// Heuristic: a `+=` statement or `.sum()` call whose *line* mentions a
/// money identifier (`cost`, `usd`, `price`, `bill`, …) and no integer
/// money marker (`nano`, `cents`, `mb_us`).
fn rule_d005_float_money(path: &str, toks: &[Token], out: &mut Vec<Finding>) {
    let mut hits: Vec<(u32, u32, &'static str)> = Vec::new();
    for i in 0..toks.len() {
        match &toks[i].tok {
            Tok::Punct('+') => {
                if let Some(next) = toks.get(i + 1) {
                    if next.tok == Tok::Punct('=')
                        && next.line == toks[i].line
                        && next.col == toks[i].col + 1
                    {
                        hits.push((toks[i].line, toks[i].col, "accumulation `+=`"));
                    }
                }
            }
            Tok::Ident(name) if name == "sum" && i > 0 && punct(toks, i - 1) == Some('.') => {
                hits.push((toks[i].line, toks[i].col, "`.sum()` fold"));
            }
            _ => {}
        }
    }
    for (line, col, what) in hits {
        let line_idents: Vec<&String> = toks
            .iter()
            .filter(|t| t.line == line)
            .filter_map(|t| match &t.tok {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect();
        let money = line_idents.iter().any(|s| is_money_ident(s));
        let integer = line_idents.iter().any(|s| is_integer_money_ident(s));
        if money && !integer {
            push_once_per_line(
                out,
                Finding {
                    path: path.to_string(),
                    line,
                    col,
                    rule: "D005",
                    message: format!(
                        "floating-point {what} over a money identifier in a sim-affecting \
                         crate"
                    ),
                    hint: "keep metered money in integer nano-USD (and GB-seconds in \
                           mb\u{b7}\u{b5}s); float USD is presentation-only and needs \
                           `// sky-lint: allow(D005, <reason>)`"
                        .to_string(),
                },
            );
        }
    }
}

/// D006 — `pub` hash-keyed map fields inside `#[derive(Serialize)]`
/// types. A serialized `HashMap` writes entries in iteration order, so
/// two identical snapshots can serialize differently; exporters must
/// sort (`BTreeMap`, or a `Vec` sorted at snapshot time).
///
/// Heuristic: a plain-`pub` struct whose derive attributes name
/// `Serialize`, and in it a plain-`pub` field whose tokens (attributes
/// included) mention `HashMap`/`HashSet`. The first mention per field
/// is reported.
fn rule_d006_serialized_hash_maps(toks: &[Token], model: &FileModel, out: &mut Vec<Finding>) {
    for s in &model.structs {
        if !s.public || !s.derives.iter().any(|d| d == "Serialize") {
            continue;
        }
        for field in s.fields.iter().filter(|f| f.public) {
            let hit = toks[field.span.0..field.span.1]
                .iter()
                .find_map(|t| match &t.tok {
                    Tok::Ident(name) if name == "HashMap" || name == "HashSet" => Some((t, name)),
                    _ => None,
                });
            let Some((t, name)) = hit else {
                continue;
            };
            out.push(Finding {
                path: model.path.clone(),
                line: t.line,
                col: t.col,
                rule: "D006",
                message: format!(
                    "pub `{name}` field in a `#[derive(Serialize)]` snapshot type \
                     serializes in nondeterministic iteration order"
                ),
                hint: "exporters must sort: use `BTreeMap`, or collect into a sorted \
                       `Vec` at snapshot time"
                    .to_string(),
            });
        }
    }
}

/// Calls that grow a collection in place (the D007 growers).
const GROWERS: [&str; 4] = ["push", "extend", "insert", "append"];

/// D007 — unordered parallel reductions. A worker that does
/// `shared.lock()….push(result)` commits results in thread *completion*
/// order, which varies run to run even under a fixed seed — the one
/// nondeterminism parallelism can smuggle past it. The deterministic
/// shape is the sweep runner's: one pre-allocated slot per item index,
/// assigned under its own lock, merged in item order after the join.
///
/// Heuristic: a line that both acquires a lock (a `.lock()` method
/// call) and calls a grower (`push`/`extend`/`insert`/`append`), inside
/// the sim crates or `bench` (where the parallel drivers live). The
/// leftmost grower on the line is reported.
fn rule_d007_unordered_parallel_reductions(model: &FileModel, out: &mut Vec<Finding>) {
    let calls: Vec<_> = model.fns.iter().flat_map(|f| &f.facts.calls).collect();
    let mut lock_lines: Vec<u32> = calls
        .iter()
        .filter(|c| c.method && c.callee == "lock")
        .map(|c| c.line)
        .collect();
    lock_lines.sort_unstable();
    lock_lines.dedup();
    for line in lock_lines {
        let grower = calls
            .iter()
            .filter(|c| c.line == line && GROWERS.contains(&c.callee.as_str()))
            .min_by_key(|c| c.col);
        let Some(g) = grower else {
            continue;
        };
        out.push(Finding {
            path: model.path.clone(),
            line,
            col: g.col,
            rule: "D007",
            message: format!(
                "unordered parallel reduction: `.{}` on a lock-guarded \
                 collection commits results in thread completion order",
                g.callee
            ),
            hint: "reduce into one pre-allocated slot per item index and \
                   merge in item order (see `sky_bench::sweep::run`), or \
                   sort by a deterministic key before folding"
                .to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use crate::{lint_source, Finding};

    /// `(rule, line, col)` of each finding, in canonical order.
    fn sites(findings: &[Finding]) -> Vec<(&'static str, u32, u32)> {
        findings.iter().map(|f| (f.rule, f.line, f.col)).collect()
    }

    #[test]
    fn d006_reads_every_derive_attribute() {
        let f = lint_source(
            "crates/bench/src/x.rs",
            "#[derive(Debug)]\n\
             #[derive(Serialize)]\n\
             pub struct Snap {\n\
                 pub by_az: HashMap<String, u64>,\n\
             }",
        );
        assert_eq!(sites(&f), [("D006", 4, 12)]);
    }

    #[test]
    fn d006_skips_restricted_fields_and_private_structs() {
        let f = lint_source(
            "crates/bench/src/x.rs",
            "#[derive(Serialize)]\n\
             pub struct Snap { pub(crate) by_az: HashMap<String, u64>, n: HashSet<u8> }\n\
             #[derive(Serialize)]\n\
             struct Hidden { pub by_az: HashMap<String, u64> }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn d006_reports_a_field_once_under_two_serialize_derives() {
        let f = lint_source(
            "crates/bench/src/x.rs",
            "#[derive(Serialize)]\n\
             #[derive(serde::Serialize)]\n\
             pub struct Snap { pub a: HashMap<u8, u8>, pub b: HashSet<u8> }",
        );
        assert_eq!(sites(&f), [("D006", 3, 26), ("D006", 3, 50)]);
    }

    #[test]
    fn d007_reports_the_grower_left_of_the_lock() {
        let f = lint_source(
            "crates/bench/src/x.rs",
            "fn f(out: &mut Vec<usize>, m: &Mutex<Vec<u8>>) {\n\
                 out.push(m.lock().unwrap().len());\n\
             }",
        );
        assert_eq!(sites(&f), [("D007", 2, 5)]);
        assert!(f[0].message.contains("`.push`"));
    }

    #[test]
    fn d007_needs_a_lock_method_call_on_the_growers_line() {
        let f = lint_source(
            "crates/bench/src/x.rs",
            "fn f(m: &Mutex<Vec<u8>>) {\n\
                 let mut g = m.lock().unwrap();\n\
                 g.push(1);\n\
                 Mutex::lock(&m).unwrap().push(2);\n\
             }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn d004_flags_every_repeat_of_a_label() {
        let f = lint_source(
            "crates/faas/src/x.rs",
            "fn f(rng: &mut SimRng) {\n\
                 let a = rng.derive(\"x\");\n\
                 let b = rng.derive(\"x\");\n\
                 let c = rng.derive(\"x\");\n\
             }",
        );
        assert_eq!(sites(&f), [("D004", 3, 13), ("D004", 4, 13)]);
    }

    #[test]
    fn d004_keeps_a_nested_fn_apart() {
        let f = lint_source(
            "crates/faas/src/x.rs",
            "fn outer(rng: &mut SimRng) {\n\
                 let a = rng.derive(\"x\");\n\
                 fn inner(rng: &mut SimRng) { let b = rng.derive(\"x\"); }\n\
             }",
        );
        assert!(f.is_empty(), "{f:?}");
    }
}
