//! The public-surface scan: every `pub fn` in the `src/` of the six
//! library crates (models, surgery, alloc, sim, kernels, core) must have
//! its name, as a whole word, in some other `.rs` file under `crates/`,
//! `src/`, `tests/`, `examples/` or `e2ebench/src/`. A public function no
//! other file names has no caller and should go (or lose its `pub`).
//!
//! This file itself is left out of the corpus, so the words it happens to
//! use never count as callers.

use std::collections::{BTreeSet, HashMap};
use std::fs;
use std::path::{Path, PathBuf};

const LIBRARY_CRATES: [&str; 6] = ["models", "surgery", "alloc", "sim", "kernels", "core"];
const CORPUS_ROOTS: [&str; 5] = ["crates", "src", "tests", "examples", "e2ebench/src"];

/// Every `.rs` file under `dir`, recursively, in a stable order.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The whole-word identifiers of `text`.
fn words(text: &str) -> BTreeSet<&str> {
    text.split(|c: char| !is_ident(c))
        .filter(|w| !w.is_empty())
        .collect()
}

/// The names declared with `pub fn` in `text`.
fn pub_fns(text: &str) -> Vec<&str> {
    let mut names = Vec::new();
    let mut rest = text;
    while let Some(at) = rest.find("pub fn ") {
        let before = rest[..at].chars().next_back();
        rest = &rest[at + "pub fn ".len()..];
        if before.is_some_and(is_ident) {
            continue;
        }
        let end = rest.find(|c: char| !is_ident(c)).unwrap_or(rest.len());
        if end > 0 {
            names.push(&rest[..end]);
        }
    }
    names
}

#[test]
fn every_pub_fn_is_named_in_another_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let this_file = root.join(file!());
    let mut corpus = Vec::new();
    for dir in CORPUS_ROOTS {
        rust_files(&root.join(dir), &mut corpus);
    }
    corpus.retain(|p| *p != this_file);
    let texts: Vec<(PathBuf, String)> = corpus
        .into_iter()
        .map(|p| {
            let text = fs::read_to_string(&p).unwrap_or_else(|e| panic!("{}: {e}", p.display()));
            (p, text)
        })
        .collect();
    // Word → number of corpus files it appears in.
    let mut files_with: HashMap<&str, usize> = HashMap::new();
    for (_, text) in &texts {
        for w in words(text) {
            *files_with.entry(w).or_default() += 1;
        }
    }
    let library_dirs: Vec<PathBuf> = LIBRARY_CRATES
        .iter()
        .map(|c| root.join("crates").join(c).join("src"))
        .collect();
    let mut scanned = 0;
    let mut orphans = Vec::new();
    for (path, text) in &texts {
        if !library_dirs.iter().any(|d| path.starts_with(d)) {
            continue;
        }
        scanned += 1;
        for name in pub_fns(text) {
            // The defining file holds the name once; another file must too.
            if files_with.get(name).copied().unwrap_or(0) < 2 {
                let shown = path.strip_prefix(root).unwrap_or(path);
                orphans.push(format!("{}: {name}", shown.display()));
            }
        }
    }
    assert!(
        scanned > 0,
        "no library sources found under {}",
        root.display()
    );
    assert!(
        orphans.is_empty(),
        "pub fns no other file names:\n{}",
        orphans.join("\n")
    );
}
