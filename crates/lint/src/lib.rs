//! `sky-lint` — the determinism static-analysis pass.
//!
//! Every figure this repository reproduces rests on byte-identical
//! seeded replay. The golden-trace harness (`tests/golden/`) catches a
//! run that *has drifted*; this crate catches the *line that would make
//! it drift* — at CI time, before a nondeterministic collection, a
//! wall-clock read, an ambient RNG, an aliased stream label or an
//! unsorted exporter ever reaches a golden.
//!
//! One pass parses each file once:
//!
//! ```text
//! lexer ──► parser ──► model ──► rules     (D001–D007, per file)
//!                        │
//!                        └─────► graph ──► semantic  (D008–D011, workspace)
//! ```
//!
//! * [`lexer`] — tokens, line comments, and the token accessors every
//!   later layer reads through;
//! * [`parser`] — items: fns, structs, statics, macro uses;
//! * [`model`] — per-function facts (derive sites, call sites, metric
//!   and span sites, rebinds) in a path-sorted
//!   [`model::WorkspaceModel`];
//! * [`rules`] — the per-file rules, over tokens, fn facts or struct
//!   items;
//! * [`semantic`] — the interprocedural rules, over the workspace model
//!   and its crate-local call graph ([`graph`]).
//!
//! `skyward lint` is the command-line entry point (`--format
//! human|json`, exit 1 on findings, plus `--fix-pragmas`); it and the
//! fixture golden tests drive this library API ([`lint_source`],
//! [`lint_workspace`]).
//!
//! Rules are documented on [`rules`] and [`semantic`]; suppression
//! syntax on [`pragma`]. Output is sorted by `(path, line, col, rule)`
//! and the model is sorted by path, so reports are byte-identical
//! across file discovery order.

pub mod graph;
pub mod lexer;
pub mod model;
pub mod parser;
pub mod pragma;
pub mod rules;
pub mod semantic;

pub use pragma::{Pragma, PragmaError};
pub use rules::{Finding, RULE_IDS, SIM_CRATES};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use model::{FileModel, WorkspaceModel};

/// Directory names never scanned, at any depth: build output, VCS
/// metadata, and the vendored third-party stand-ins (not ours to lint).
const SKIP_DIRS: [&str; 4] = ["target", "vendor", ".git", "results"];

/// The linter's own test corpus: deliberately dirty code that must not
/// fail the workspace gate.
const SKIP_PREFIXES: [&str; 1] = ["crates/lint/fixtures"];

/// Walk `root` for `.rs` files, returning workspace-relative paths with
/// `/` separators, sorted — so every downstream consumer sees the same
/// order regardless of filesystem readdir order.
pub fn collect_workspace_files(root: &Path) -> io::Result<Vec<String>> {
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    files.sort();
    Ok(files)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            let rel = rel_path(root, &path);
            if SKIP_PREFIXES.iter().any(|p| rel.starts_with(p)) {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(rel_path(root, &path));
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// One file after the per-file phase: raw per-file findings, parsed
/// pragmas, and the extracted model.
struct Prepped {
    pragmas: Vec<Pragma>,
    pragma_errors: Vec<PragmaError>,
    raw: Vec<Finding>,
    model: FileModel,
}

/// The per-file phase: lex, parse, extract facts, run the per-file
/// rules. Pure per file, so file order does not matter.
fn prepare(rel_path: &str, source: &str) -> Prepped {
    let lexed = lexer::lex(source);
    let (pragmas, pragma_errors) = pragma::parse_pragmas(&lexed.comments);
    let ast = parser::parse_file(&lexed);
    let model = model::extract_file(rel_path, &lexed, &ast);
    let raw = rules::file_findings(&lexed.tokens, &model);
    Prepped {
        pragmas,
        pragma_errors,
        raw,
        model,
    }
}

/// The workspace phase: assemble the workspace model, run the semantic
/// rules, then apply pragma suppression and hygiene per file.
fn finish(mut files: Vec<Prepped>) -> Vec<Finding> {
    let ws = WorkspaceModel::from_files(files.iter().map(|p| p.model.clone()).collect());
    let mut semantic = semantic::semantic_findings(&ws);

    let mut findings = Vec::new();
    for p in &mut files {
        let mut raw = std::mem::take(&mut p.raw);
        raw.extend(
            semantic
                .extract_if(.., |f| f.path == p.model.path)
                .collect::<Vec<_>>(),
        );
        findings.extend(
            raw.into_iter()
                .filter(|f| !pragma::suppresses(&mut p.pragmas, f.rule, f.line)),
        );
        for e in &p.pragma_errors {
            findings.push(Finding {
                path: p.model.path.clone(),
                line: e.line(),
                col: 1,
                rule: "P001",
                message: e.message(),
                hint: "write `// sky-lint: allow(D00x, <reason>)` with a non-empty reason"
                    .to_string(),
            });
        }
        for pr in &p.pragmas {
            if !pr.used {
                findings.push(Finding {
                    path: p.model.path.clone(),
                    line: pr.line,
                    col: pr.col,
                    rule: "P002",
                    message: format!(
                        "unused sky-lint pragma: allow({}) suppresses nothing on its line",
                        pr.rule
                    ),
                    hint: "delete the stale pragma (or move it next to the site it justifies)"
                        .to_string(),
                });
            }
        }
    }
    sort_findings(&mut findings);
    findings
}

/// Lint one file's source through the full pipeline (per-file and
/// semantic rules, pragmas). `rel_path` must be workspace-relative with
/// `/` separators — it selects which rules apply. Interprocedural
/// effects are naturally limited to this one file; cross-file analysis
/// needs [`lint_workspace`].
pub fn lint_source(rel_path: &str, source: &str) -> Vec<Finding> {
    finish(vec![prepare(rel_path, source)])
}

/// Lint every `.rs` file under `root`. Findings come back sorted by
/// `(path, line, col, rule)` — stable across discovery order.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut prepped = Vec::new();
    for rel in collect_workspace_files(root)? {
        prepped.push(prepare(&rel, &fs::read_to_string(root.join(&rel))?));
    }
    Ok(finish(prepped))
}

/// Canonical finding order: path, then position, then rule.
pub fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (&a.path, a.line, a.col, a.rule, &a.message)
            .cmp(&(&b.path, b.line, b.col, b.rule, &b.message))
    });
}

/// Ascend from `start` to the nearest directory whose `Cargo.toml`
/// declares a `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

/// One planned removal of an unused (`P002`) pragma.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PragmaFix {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line to rewrite.
    pub line: u32,
    /// The current line content.
    pub old: String,
    /// Replacement: `None` deletes the whole line (standalone pragma
    /// comment), `Some` keeps the code and strips the trailing pragma.
    pub new: Option<String>,
}

/// Plan machine-applicable fixes for every unused-pragma (`P002`)
/// finding under `root`: standalone pragma lines are deleted, trailing
/// pragmas are stripped from their code line.
pub fn plan_pragma_fixes(root: &Path) -> io::Result<Vec<PragmaFix>> {
    let findings = lint_workspace(root)?;
    let mut fixes = Vec::new();
    for f in findings.iter().filter(|f| f.rule == "P002") {
        let source = fs::read_to_string(root.join(&f.path))?;
        let Some(content) = source.lines().nth(f.line as usize - 1) else {
            continue;
        };
        // Cut at the pragma comment itself: an earlier `//` may sit in a
        // string literal. A line that moved since linting is skipped.
        let at = f.col as usize - 1;
        if !content.get(at..).is_some_and(|rest| rest.starts_with("//")) {
            continue;
        }
        let before = &content[..at];
        let new = if before.trim().is_empty() {
            None
        } else {
            Some(before.trim_end().to_string())
        };
        fixes.push(PragmaFix {
            path: f.path.clone(),
            line: f.line,
            old: content.to_string(),
            new,
        });
    }
    Ok(fixes)
}

/// Render planned pragma fixes as a unified-style diff.
pub fn render_pragma_fixes(fixes: &[PragmaFix]) -> String {
    let mut out = String::new();
    let mut last_path = "";
    for f in fixes {
        if f.path != last_path {
            out.push_str(&format!("--- {}\n+++ {}\n", f.path, f.path));
            last_path = &f.path;
        }
        out.push_str(&format!("@@ line {} @@\n-{}\n", f.line, f.old));
        if let Some(new) = &f.new {
            out.push_str(&format!("+{new}\n"));
        }
    }
    if fixes.is_empty() {
        out.push_str("sky-lint: no unused pragmas to fix\n");
    } else {
        out.push_str(&format!(
            "sky-lint: {} unused pragma{} to remove\n",
            fixes.len(),
            if fixes.len() == 1 { "" } else { "s" }
        ));
    }
    out
}

/// Apply planned pragma fixes to the files under `root`. Lines are
/// rewritten bottom-up per file so earlier fixes never shift later
/// line numbers. Returns the number of files changed.
pub fn apply_pragma_fixes(root: &Path, fixes: &[PragmaFix]) -> io::Result<usize> {
    let mut by_file: Vec<(&str, Vec<&PragmaFix>)> = Vec::new();
    for f in fixes {
        match by_file.iter_mut().find(|(p, _)| *p == f.path) {
            Some((_, v)) => v.push(f),
            None => by_file.push((&f.path, vec![f])),
        }
    }
    for (path, file_fixes) in &mut by_file {
        let path: &str = path;
        let source = fs::read_to_string(root.join(path))?;
        let mut lines: Vec<String> = source.lines().map(|l| l.to_string()).collect();
        file_fixes.sort_by_key(|f| std::cmp::Reverse(f.line));
        for f in file_fixes.iter() {
            let idx = f.line as usize - 1;
            if lines.get(idx).map(|l| l.as_str()) != Some(f.old.as_str()) {
                continue; // file changed underneath the plan; skip
            }
            match &f.new {
                Some(new) => lines[idx] = new.clone(),
                None => {
                    lines.remove(idx);
                }
            }
        }
        let mut rebuilt = lines.join("\n");
        if source.ends_with('\n') {
            rebuilt.push('\n');
        }
        fs::write(root.join(path), rebuilt)?;
    }
    Ok(by_file.len())
}

/// Render findings as human-readable text (one finding per pair of
/// lines, then a summary line).
pub fn render_human(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!(
            "{}:{}:{}: {} {}\n    hint: {}\n",
            f.path, f.line, f.col, f.rule, f.message, f.hint
        ));
    }
    if findings.is_empty() {
        out.push_str("sky-lint: clean (no determinism findings)\n");
    } else {
        out.push_str(&format!(
            "sky-lint: {} finding{}\n",
            findings.len(),
            if findings.len() == 1 { "" } else { "s" }
        ));
    }
    out
}

/// Render findings as stable JSON: findings in canonical order, then a
/// per-rule summary sorted by rule id. Hand-rolled so the byte output
/// is fully under this crate's control (the golden tests diff it).
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"col\": {}, \
             \"message\": {}, \"hint\": {}}}",
            json_str(f.rule),
            json_str(&f.path),
            f.line,
            f.col,
            json_str(&f.message),
            json_str(&f.hint)
        ));
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n  \"summary\": {");
    let mut rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
    rules.sort();
    rules.dedup();
    for (i, rule) in rules.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let n = findings.iter().filter(|f| f.rule == *rule).count();
        out.push_str(&format!("\n    {}: {}", json_str(rule), n));
    }
    if !rules.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str(&format!("}},\n  \"total\": {}\n}}\n", findings.len()));
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_is_sound() {
        assert_eq!(json_str("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(json_str("\u{0001}"), "\"\\u0001\"");
    }

    #[test]
    fn empty_findings_render_cleanly() {
        assert!(render_human(&[]).contains("clean"));
        let json = render_json(&[]);
        assert!(json.contains("\"findings\": []"));
        assert!(json.contains("\"total\": 0"));
    }

    #[test]
    fn workspace_root_is_discoverable_from_here() {
        let here = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(&here).expect("workspace root");
        assert!(root.join("crates/lint").is_dir());
    }

    #[test]
    fn semantic_findings_are_suppressible_by_pragma() {
        let dirty = lint_source(
            "crates/faas/src/x.rs",
            "fn f(rng: &mut SimRng) { for h in 0..2 { sink(rng.derive(\"h\")); } }",
        );
        assert_eq!(dirty.len(), 1);
        assert_eq!(dirty[0].rule, "D008");
        let clean = lint_source(
            "crates/faas/src/x.rs",
            "fn f(rng: &mut SimRng) {\n\
                 // sky-lint: allow(D008, the loop intentionally replays one stream)\n\
                 for h in 0..2 { sink(rng.derive(\"h\")); }\n\
             }",
        );
        assert!(clean.is_empty(), "{clean:?}");
    }

    #[test]
    fn pragma_fix_rendering_and_shapes() {
        let fixes = vec![
            PragmaFix {
                path: "crates/faas/src/a.rs".into(),
                line: 3,
                old: "// sky-lint: allow(D001, stale)".into(),
                new: None,
            },
            PragmaFix {
                path: "crates/faas/src/a.rs".into(),
                line: 9,
                old: "let x = 1; // sky-lint: allow(D005, stale)".into(),
                new: Some("let x = 1;".into()),
            },
        ];
        let diff = render_pragma_fixes(&fixes);
        assert!(diff.contains("-// sky-lint: allow(D001, stale)"));
        assert!(diff.contains("+let x = 1;"));
        assert!(diff.contains("2 unused pragmas"));
        assert!(render_pragma_fixes(&[]).contains("no unused pragmas"));
    }

    /// A trailing pragma is cut at its own comment, not at an earlier
    /// `//` inside a string literal on the same line.
    #[test]
    fn pragma_fix_cuts_at_the_comment_not_inside_a_string() {
        let root = std::env::temp_dir().join(format!("sky-lint-fix-{}", std::process::id()));
        let file = root.join("crates/faas/src/a.rs");
        fs::create_dir_all(file.parent().unwrap()).unwrap();
        fs::write(
            &file,
            "fn f() {\n\
             \x20   let u = \"https://example.com\"; // sky-lint: allow(D003, stale)\n\
             \x20   // sky-lint: allow(D001, stale too)\n\
             }\n",
        )
        .unwrap();
        let fixes = plan_pragma_fixes(&root).unwrap();
        apply_pragma_fixes(&root, &fixes).unwrap();
        let after = fs::read_to_string(&file).unwrap();
        fs::remove_dir_all(&root).unwrap();
        let planned: Vec<Option<&str>> = fixes.iter().map(|f| f.new.as_deref()).collect();
        assert_eq!(
            planned,
            [Some("    let u = \"https://example.com\";"), None]
        );
        assert_eq!(after, "fn f() {\n    let u = \"https://example.com\";\n}\n");
    }
}
