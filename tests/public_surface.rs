//! The public-surface scan: every `pub fn` in the `src/` of the six
//! library crates (models, surgery, alloc, sim, kernels, core) must be
//! called from some other non-test `.rs` file under `crates/`, `src/`,
//! `examples/` or `e2ebench/src/`. A public function no other program
//! file calls should go (or lose its `pub`).
//!
//! A file calls `name` where its code writes `name(`, `name::<`, `.name(`
//! or `::name` (a path, as in `Type::name` or an import); a field or a
//! local of the same name does not count, nor does a `fn name`
//! declaration. Comments (doc comments included) and string and char
//! literals are blanked first, and test code is left out of the corpus:
//! files under a `tests/` directory, every `#[cfg(test)]` item and `pub
//! use` re-exports. The few public functions that only the test suites
//! call from outside their own file are named in [`TEST_ORACLES`], each
//! with the reason it stays public.

use std::collections::{BTreeSet, HashMap};
use std::fs;
use std::path::{Path, PathBuf};

const LIBRARY_CRATES: [&str; 6] = ["models", "surgery", "alloc", "sim", "kernels", "core"];
const CORPUS_ROOTS: [&str; 4] = ["crates", "src", "examples", "e2ebench/src"];

/// Public functions no other program file calls, with the reason each
/// stays public.
const TEST_ORACLES: [(&str, &str); 14] = [
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
    (
        "behavior",
        "the uncached exit-behaviour oracle candidate profiles and the property suite check",
    ),
    (
        "conditional_accuracy",
        "the uncached exit-behaviour oracle candidate profiles and the property suite check",
    ),
    (
        "no_exits",
        "the exit-free behaviour candidate profiles and the sim's integration suites build",
    ),
    (
        "crossing_bytes",
        "the uncached cut size the candidate-profile oracle reads; menus use the cut table",
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

/// Byte offset at which the item starting at `from` ends, in code whose
/// comments and literals are blanked: just past its first `;` outside any
/// bracket or past the brace closing its first top-level block, or at a
/// closing bracket it did not open (the end of the enclosing block).
fn item_end(text: &str, from: usize) -> usize {
    let mut depth = 0usize;
    for (i, c) in text.bytes().enumerate().skip(from) {
        match c {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' if depth == 0 => return i,
            b')' | b']' => depth -= 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            b';' if depth == 0 => return i + 1,
            _ => {}
        }
    }
    text.len()
}

/// The code of `text` without its `#[cfg(test)]` items and `pub use`
/// items.
fn program_text(text: &str) -> String {
    let text = code_only(text);
    let mut out = String::with_capacity(text.len());
    let mut rest = text.as_str();
    while let Some(at) = rest.find("#[cfg(test)]") {
        out.push_str(&rest[..at]);
        let after = &rest[at + "#[cfg(test)]".len()..];
        rest = &after[item_end(after, 0)..];
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

/// The names `text` calls: identifiers written `name(`, `name::<` or
/// `::name` (which covers `.name(` and `Type::name`), leaving out the
/// name each `fn` declares.
fn called_names(text: &str) -> BTreeSet<&str> {
    let mut names = BTreeSet::new();
    let mut declares = false;
    for word in text.split(|c: char| !is_ident(c)) {
        if word.is_empty() {
            continue;
        }
        let start = word.as_ptr() as usize - text.as_ptr() as usize;
        let after = &text[start + word.len()..];
        let declared = std::mem::replace(&mut declares, word == "fn");
        if !declared
            && (after.starts_with('(') || after.starts_with("::<") || text[..start].ends_with("::"))
        {
            names.insert(word);
        }
    }
    names
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
    // Only calls count: not a field, a struct-literal key, a local or a
    // declaration, nor anything inside a `#[cfg(test)]` item.
    let probe = program_text(
        "fn a() { s.field; S { key: 1 }; let local = 2; }\n\
         #[cfg(test)]\nfn t() { tested(); }\n\
         fn b() { free(); s.method(); T::path; g::<u8>(); }",
    );
    let called: Vec<&str> = called_names(&probe).into_iter().collect();
    assert_eq!(called, ["free", "g", "method", "path"]);

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
    // Called name → the corpus files that call it.
    let mut callers: HashMap<&str, Vec<&Path>> = HashMap::new();
    for (path, text) in &texts {
        for name in called_names(text) {
            callers.entry(name).or_default().push(path);
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
            let called_elsewhere = callers
                .get(name)
                .is_some_and(|files| files.iter().any(|&f| f != path.as_path()));
            if !called_elsewhere {
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
        "pub fns no other program file calls:\n{}",
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
