//! The public-surface scan: every `pub fn` in the `src/` of the six
//! library crates (models, surgery, alloc, sim, kernels, core) must have
//! its name, as a whole word, in some other non-test `.rs` file under
//! `crates/`, `src/`, `examples/` or `e2ebench/src/`. A public function no
//! other program file names has no caller and should go (or lose its
//! `pub`).
//!
//! Test code never counts as a caller: files under a `tests/` directory,
//! `#[cfg(test)] mod` blocks and `pub use` re-exports are left out of the
//! corpus. The few public functions that only the test suites call from
//! outside their own file are named in [`TEST_ORACLES`], each with the
//! reason it stays public.

use std::collections::{BTreeSet, HashMap};
use std::fs;
use std::path::{Path, PathBuf};

const LIBRARY_CRATES: [&str; 6] = ["models", "surgery", "alloc", "sim", "kernels", "core"];
const CORPUS_ROOTS: [&str; 4] = ["crates", "src", "examples", "e2ebench/src"];

/// Public functions no other program file calls, with the reason each
/// stays public.
const TEST_ORACLES: [(&str, &str); 9] = [
    (
        "run_reference",
        "the AoS simulator the SoA parity suites compare against",
    ),
    (
        "run_reference_logged",
        "the AoS simulator's event log for trace-level parity",
    ),
    (
        "assert_matches_fresh",
        "EvalContext's fresh-rebuild check the incremental suites run",
    ),
    (
        "potential",
        "the placement game's exact potential that best response must lower",
    ),
    (
        "component_sum_s",
        "the stage-sum identity the trace suites check against latency",
    ),
    (
        "next_time",
        "the event queue's peek the queue property tests order against",
    ),
    (
        "validate_fault_plan",
        "the strict fault-plan checker the chaos harness poisons",
    ),
    (
        "min_fast",
        "served_head's minimum, in its own file; the kernel proptests check it bitwise",
    ),
    (
        "run_logged_with_scratch",
        "run_logged's body, in its own file; the scratch-reuse suite drives it",
    ),
];

/// Every `.rs` file under `dir`, recursively, in a stable order, leaving
/// out `tests/` directories.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            if !path.ends_with("tests") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Byte offset just past the brace that closes the one opening at `open`,
/// skipping braces inside comments, strings and char literals.
fn block_end(text: &str, open: usize) -> usize {
    let bytes = text.as_bytes();
    let mut depth = 0usize;
    let mut i = open;
    while i < bytes.len() {
        match bytes[i] {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'"' => {
                i += 1;
                while i < bytes.len() && bytes[i] != b'"' {
                    i += if bytes[i] == b'\\' { 2 } else { 1 };
                }
            }
            b'\'' if bytes.get(i + 2) == Some(&b'\'') => i += 2,
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    bytes.len()
}

/// `text` without its `#[cfg(test)] mod` blocks and `pub use` items.
fn program_text(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find("#[cfg(test)]") {
        out.push_str(&rest[..at]);
        let after = &rest[at + "#[cfg(test)]".len()..];
        if after.trim_start().starts_with("mod ") {
            let open = after.find('{').unwrap_or(after.len());
            rest = &after[block_end(after, open)..];
        } else {
            rest = after;
        }
    }
    out.push_str(rest);
    let mut kept = String::with_capacity(out.len());
    let mut rest = out.as_str();
    while let Some(at) = rest.find("pub use ") {
        kept.push_str(&rest[..at]);
        let end = rest[at..].find(';').map_or(rest.len(), |e| at + e + 1);
        rest = &rest[end..];
    }
    kept.push_str(rest);
    kept
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
    let mut corpus = Vec::new();
    for dir in CORPUS_ROOTS {
        rust_files(&root.join(dir), &mut corpus);
    }
    let texts: Vec<(PathBuf, String)> = corpus
        .into_iter()
        .map(|p| {
            let text = fs::read_to_string(&p).unwrap_or_else(|e| panic!("{}: {e}", p.display()));
            (p, program_text(&text))
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
    let mut oracles_seen = BTreeSet::new();
    for (path, text) in &texts {
        if !library_dirs.iter().any(|d| path.starts_with(d)) {
            continue;
        }
        scanned += 1;
        for name in pub_fns(text) {
            if TEST_ORACLES.iter().any(|&(oracle, _)| oracle == name) {
                oracles_seen.insert(name);
                continue;
            }
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
        "pub fns no other program file names:\n{}",
        orphans.join("\n")
    );
    let stale: Vec<&str> = TEST_ORACLES
        .iter()
        .map(|&(name, _)| name)
        .filter(|name| !oracles_seen.contains(name))
        .collect();
    assert!(
        stale.is_empty(),
        "allowlisted test oracles no library declares: {stale:?}"
    );
}
