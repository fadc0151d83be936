//! The top-level docs must not drift from the tree: every backticked
//! repo path in README, DESIGN and EXPERIMENTS exists, every `§4.N`
//! names a DESIGN section, and DESIGN's `### 4.N` sections are
//! numbered 4.1, 4.2, … with no gap.

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
