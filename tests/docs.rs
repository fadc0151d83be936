//! The top-level docs must not drift from the tree: every backticked
//! repo path and every backticked Rust item in README, DESIGN and
//! EXPERIMENTS exists in the tree, every `§4.N`
//! names a DESIGN section, and DESIGN's `### 4.N` sections are
//! numbered 4.1, 4.2, … with no gap.

use std::collections::HashSet;
use std::fs;
use std::path::Path;

const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];

/// Top-level directories a doc path may start from.
const ROOTS: [&str; 6] = ["crates", "src", "tests", "examples", "benchmark", ".claude"];

/// Build and run outputs: named in the docs, absent from a checkout.
const GENERATED: [&str; 3] = ["target/", "benchmark/out/", "benchmark/target/"];

fn read(doc: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(doc);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// `(line number, text)` of every inline code span of `text`.
fn code_spans(text: &str) -> Vec<(usize, &str)> {
    let mut spans = Vec::new();
    let mut fenced = false;
    for (n, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if fenced {
            continue;
        }
        let mut parts = line.split('`');
        parts.next();
        while let (Some(span), Some(_)) = (parts.next(), parts.next()) {
            spans.push((n + 1, span));
        }
    }
    spans
}

/// The repo path a code span names, if it names one: slash-separated
/// plain segments (no placeholder, glob or ellipsis) that start at a
/// top-level directory or end in a source or doc file. A `:LINE` or
/// `:FROM-TO` suffix and a trailing `/` are dropped.
fn repo_path(span: &str) -> Option<&str> {
    let path = span
        .rsplit_once(':')
        .filter(|(_, lines)| lines.chars().all(|c| c.is_ascii_digit() || c == '-'))
        .map_or(span, |(path, _)| path);
    let path = path.strip_suffix('/').unwrap_or(path);
    let segments: Vec<&str> = path.split('/').collect();
    let plain = |s: &&str| {
        !s.is_empty()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.'))
    };
    let is_file = [".rs", ".md", ".toml", ".sh"]
        .iter()
        .any(|ext| path.ends_with(ext));
    (segments.len() > 1 && segments.iter().all(plain) && (ROOTS.contains(&segments[0]) || is_file))
        .then_some(path)
}

#[test]
fn backticked_repo_paths_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = read(doc);
        for (line, span) in code_spans(&text) {
            let Some(path) = repo_path(span) else {
                continue;
            };
            if GENERATED.iter().any(|g| path.starts_with(g)) {
                continue;
            }
            if !root.join(path).exists() {
                missing.push(format!("{doc}:{line}: `{span}`"));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "paths that do not exist:\n{}",
        missing.join("\n")
    );
}

/// DESIGN's `### 4.N` section numbers, in document order.
fn design_sections() -> Vec<u32> {
    read("DESIGN.md")
        .lines()
        .filter_map(|l| l.strip_prefix("### 4."))
        .map(|rest| {
            let n: String = rest.chars().take_while(char::is_ascii_digit).collect();
            n.parse()
                .unwrap_or_else(|_| panic!("unnumbered section `### 4.{rest}`"))
        })
        .collect()
}

#[test]
fn design_sections_are_numbered_contiguously() {
    let sections = design_sections();
    let expected: Vec<u32> = (1..=sections.len() as u32).collect();
    assert_eq!(sections, expected, "DESIGN `### 4.N` headings");
}

#[test]
fn section_references_name_a_design_section() {
    let sections = design_sections();
    let mut dangling = Vec::new();
    for doc in DOCS {
        for (n, line) in read(doc).lines().enumerate() {
            for rest in line.split("§4.").skip(1) {
                let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
                if !digits.parse().is_ok_and(|s: u32| sections.contains(&s)) {
                    dangling.push(format!("{doc}:{}: §4.{digits}", n + 1));
                }
            }
        }
    }
    assert!(
        dangling.is_empty(),
        "references to no DESIGN section:\n{}",
        dangling.join("\n")
    );
}

/// Directories whose Rust sources a doc may name items from.
const CODE_ROOTS: [&str; 5] = ["crates", "src", "examples", "tests", "benchmark/src"];

/// Standard-library items the docs name.
const STD_ITEMS: [&str; 12] = [
    "Condvar",
    "Copy",
    "DefaultHasher",
    "FromIterator",
    "Option",
    "PoisonError",
    "Rc",
    "RefCell",
    "Send",
    "String",
    "Vec",
    "VecDeque",
];

/// The text of every `.rs` file under `dir`, recursively.
fn rust_sources(dir: &Path, out: &mut Vec<String>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() && !path.ends_with("target") {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(fs::read_to_string(&path).expect("read a Rust source"));
        }
    }
}

/// The identifier a line of code declares with `keyword`, if it does:
/// `struct X`, `pub(crate) enum X`, `fn x`, … at the start of the line.
fn declared<'a>(line: &'a str, keywords: &[&str]) -> Option<&'a str> {
    let mut words = line
        .trim_start()
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
        .skip_while(|w| matches!(*w, "pub" | "crate" | "super" | "const" | "async" | "unsafe"));
    let keyword = words.next()?;
    keywords.contains(&keyword).then(|| words.next()).flatten()
}

/// The member a line of a `struct` or `enum` body names: a field
/// (`name: T`) or a variant (`Name`, `Name(..)`, `Name { .. }`).
fn member(line: &str) -> Option<&str> {
    let line = line.trim_start();
    let line = line
        .strip_prefix("pub ")
        .or_else(|| line.strip_prefix("pub(crate) "))
        .unwrap_or(line);
    let end = line
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(line.len());
    let (name, rest) = line.split_at(end);
    let rest = rest.trim_start();
    let opens = rest.is_empty() || rest.starts_with([':', ',', '(', '{']);
    (!name.is_empty() && !rest.starts_with("::") && opens).then_some(name)
}

/// What one Rust source defines: its types, the types it implements,
/// and its `fn`, field and variant names.
struct Items<'a> {
    types: HashSet<&'a str>,
    impls: HashSet<&'a str>,
    members: HashSet<&'a str>,
}

impl<'a> Items<'a> {
    fn of(src: &'a str) -> Self {
        let mut items = Items {
            types: HashSet::new(),
            impls: HashSet::new(),
            members: HashSet::new(),
        };
        for line in src.lines() {
            let code = line.trim_start();
            if let Some(ty) = declared(code, &["struct", "enum", "trait", "type", "union"]) {
                items.types.insert(ty);
            }
            if code.starts_with("impl") {
                let words = code.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'));
                items.impls.extend(words.filter(|w| !w.is_empty()));
            }
            if let Some(name) = declared(code, &["fn"]).or_else(|| member(code)) {
                items.members.insert(name);
            }
        }
        items
    }
}

#[test]
fn backticked_rust_items_are_defined() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    for dir in CODE_ROOTS {
        rust_sources(&root.join(dir), &mut sources);
    }
    let files: Vec<Items> = sources.iter().map(|src| Items::of(src)).collect();
    let defined = |ty: &str| files.iter().any(|f| f.types.contains(ty));
    let variant = |ty: &str| files.iter().any(|f| f.members.contains(ty));
    // A member of `ty`: in a file that defines or implements it.
    let has_member = |ty: &str, name: &str| {
        files
            .iter()
            .any(|f| (f.types.contains(ty) || f.impls.contains(ty)) && f.members.contains(name))
    };
    let ident = |s: &str| !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
    let mut stale = Vec::new();
    for doc in DOCS {
        for (line, span) in code_spans(&read(doc)) {
            let (ty, name) = span
                .split_once("::")
                .map_or((span, None), |(t, n)| (t, Some(n)));
            let camel = ty.starts_with(|c: char| c.is_ascii_uppercase())
                && ty.contains(|c: char| c.is_ascii_lowercase());
            if !camel || !ident(ty) || !name.is_none_or(ident) || STD_ITEMS.contains(&ty) {
                continue;
            }
            let ok = match name {
                None => defined(ty) || variant(ty),
                Some(name) => defined(ty) && has_member(ty, name),
            };
            if !ok {
                stale.push(format!("{doc}:{line}: `{span}`"));
            }
        }
    }
    assert!(
        stale.is_empty(),
        "items defined nowhere under {CODE_ROOTS:?}:\n{}",
        stale.join("\n")
    );
}
