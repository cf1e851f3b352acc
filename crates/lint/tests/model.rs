//! Property tests for the workspace model layer.
//!
//! The parser behind [`sky_lint::model`] is hand-rolled over the token
//! stream, so the properties worth pinning are blunt ones: it must be
//! *total* (no input — including truncated, mid-token garbage — may
//! panic), and the model it builds must be byte-stable whatever order
//! the files arrive in. The latter is what makes the semantic rules'
//! output diffable in CI.

use std::fs;
use std::path::PathBuf;

use sky_lint::model::{extract_source, WorkspaceModel};
use sky_lint::{collect_workspace_files, find_workspace_root, lint_source};

/// Every `.rs` file the linter can see: the real workspace plus both
/// fixture corpora (the fixtures deliberately exercise odd shapes).
fn corpus() -> Vec<(String, String)> {
    let manifest_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = find_workspace_root(&manifest_dir).expect("workspace root");
    let mut files: Vec<(String, String)> = collect_workspace_files(&root)
        .expect("walk workspace")
        .into_iter()
        .map(|rel| {
            let source = fs::read_to_string(root.join(&rel)).expect("read workspace file");
            (rel, source)
        })
        .collect();
    for kind in ["dirty", "clean"] {
        let dir = manifest_dir.join("fixtures").join(kind);
        let mut names: Vec<String> = fs::read_dir(&dir)
            .expect("read fixture dir")
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".rs"))
            .collect();
        names.sort();
        for name in names {
            let source = fs::read_to_string(dir.join(&name)).expect("read fixture");
            files.push((format!("fixtures/{kind}/{name}"), source));
        }
    }
    assert!(
        files.len() > 40,
        "corpus unexpectedly small: {}",
        files.len()
    );
    files
}

/// Extraction, and the per-file rules that index tokens by the spans
/// it records, are total over every real file we have and over every
/// char-boundary truncation of a sample of them — truncation tears
/// tokens, bodies, and generics mid-flight, which is exactly where a
/// hand-rolled parser would index out of bounds.
#[test]
fn extraction_never_panics_on_corpus_or_truncations() {
    let files = corpus();
    for (path, source) in &files {
        let _ = lint_source(path, source);
    }
    // Truncation sweep on a deterministic sample (every 7th file, every
    // 31st char boundary) keeps the test fast while still covering
    // thousands of torn inputs.
    for (path, source) in files.iter().step_by(7) {
        let boundaries: Vec<usize> = source.char_indices().map(|(i, _)| i).step_by(31).collect();
        for &cut in &boundaries {
            let _ = lint_source(path, &source[..cut]);
        }
    }
}

/// The model's contents are independent of file discovery order: the
/// constructor sorts by path, so forward and reversed input produce a
/// byte-identical `Debug` rendering.
#[test]
fn model_is_byte_stable_across_discovery_order() {
    let files = corpus();
    let forward =
        WorkspaceModel::from_files(files.iter().map(|(p, s)| extract_source(p, s)).collect());
    let backward = WorkspaceModel::from_files(
        files
            .iter()
            .rev()
            .map(|(p, s)| extract_source(p, s))
            .collect(),
    );
    assert_eq!(format!("{forward:?}"), format!("{backward:?}"));
}
