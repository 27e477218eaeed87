//! The public-surface scan: every `pub fn` in the `src/` of the six
//! library crates (models, surgery, alloc, sim, kernels, core) must have
//! its name, as a whole word, in some other non-test `.rs` file under
//! `crates/`, `src/`, `examples/` or `e2ebench/src/`. A public function no
//! other program file names has no caller and should go (or lose its
//! `pub`).
//!
//! Only code counts as a caller. Comments (doc comments included) and
//! string and char literals are blanked before words are collected, and
//! test code is left out of the corpus: files under a `tests/`
//! directory, `#[cfg(test)] mod` blocks and `pub use` re-exports. The few
//! public functions that only the test suites call from outside their own
//! file are named in [`TEST_ORACLES`], each with the reason it stays
//! public.

use std::collections::{BTreeSet, HashMap};
use std::fs;
use std::path::{Path, PathBuf};

const LIBRARY_CRATES: [&str; 6] = ["models", "surgery", "alloc", "sim", "kernels", "core"];
const CORPUS_ROOTS: [&str; 4] = ["crates", "src", "examples", "e2ebench/src"];

/// Public functions no other program file calls, with the reason each
/// stays public.
const TEST_ORACLES: [(&str, &str); 10] = [
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
        "delivered",
        "the event queue's delivery count the queue property tests check episodes against",
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

/// `text` with its comments (doc comments included) and its string and
/// char literals blanked to spaces, line breaks kept.
fn code_only(text: &str) -> String {
    let bytes = text.as_bytes();
    let mut out = bytes.to_vec();
    let mut i = 0;
    while i < bytes.len() {
        let literal_end = match bytes[i] {
            b'/' if bytes.get(i + 1) == Some(&b'/') => Some(
                bytes[i..]
                    .iter()
                    .position(|&c| c == b'\n')
                    .map_or(bytes.len(), |n| i + n),
            ),
            b'/' if bytes.get(i + 1) == Some(&b'*') => Some(block_comment_end(bytes, i)),
            b'"' => Some(string_end(bytes, i + 1)),
            b'\'' => char_literal_end(text, i),
            _ => None,
        };
        let Some(end) = literal_end else {
            i += 1;
            continue;
        };
        for c in &mut out[i..end] {
            if *c != b'\n' {
                *c = b' ';
            }
        }
        i = end;
    }
    // Every blanked run starts and ends at an ASCII delimiter.
    String::from_utf8(out).expect("blanking keeps UTF-8 intact")
}

/// Byte offset just past the `*/` that closes the (possibly nested)
/// block comment opening at `open`.
fn block_comment_end(bytes: &[u8], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i + 1 < bytes.len() {
        match &bytes[i..i + 2] {
            b"/*" => depth += 1,
            b"*/" => depth -= 1,
            _ => {
                i += 1;
                continue;
            }
        }
        i += 2;
        if depth == 0 {
            return i;
        }
    }
    bytes.len()
}

/// Byte offset just past the unescaped `"` at or after `from`.
fn string_end(bytes: &[u8], from: usize) -> usize {
    let mut i = from;
    while i < bytes.len() && bytes[i] != b'"' {
        i += if bytes[i] == b'\\' { 2 } else { 1 };
    }
    (i + 1).min(bytes.len())
}

/// Byte offset just past the char literal opening at `open`, or `None`
/// when the quote starts a lifetime or a label.
fn char_literal_end(text: &str, open: usize) -> Option<usize> {
    let rest = &text[open + 1..];
    let mut chars = rest.char_indices();
    let (_, first) = chars.next()?;
    if first == '\\' {
        // An escape (`'\n'`, `'\''`, `'\u{..}'`): skip the escaped char,
        // then find the closing quote.
        let (at, _) = chars.nth(1)?;
        return rest[at..].find('\'').map(|q| open + 1 + at + q + 1);
    }
    let (at, next) = chars.next()?;
    (next == '\'').then_some(open + 1 + at + 1)
}

/// Byte offset just past the brace that closes the one opening at `open`
/// in code whose comments and literals are blanked.
fn block_end(text: &str, open: usize) -> usize {
    let mut depth = 0usize;
    for (i, c) in text.bytes().enumerate().skip(open) {
        match c {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
    }
    text.len()
}

/// The code of `text` without its `#[cfg(test)] mod` blocks and `pub
/// use` items.
fn program_text(text: &str) -> String {
    let text = code_only(text);
    let mut out = String::with_capacity(text.len());
    let mut rest = text.as_str();
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
