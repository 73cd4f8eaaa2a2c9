//! Every cargo target (`--bin|--bench|--example|--test <name>`) and every
//! `*.md` / `BENCH_*.json` path named in the README, the CI workflow, the
//! verify skill and the `crates/bench` module docs must exist in the
//! tree: deleting or renaming a program fails here until the docs and CI
//! steps that mention it are fixed too. (`benchmark/` documents itself
//! and is not scanned.)

use std::path::PathBuf;

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// `(path relative to the root, text to scan)` for every scanned document.
/// Rust sources contribute only their `//!` module docs.
fn documents() -> Vec<(String, String)> {
    let root = root();
    let mut docs = Vec::new();
    for rel in [
        "README.md",
        ".github/workflows/ci.yml",
        ".claude/skills/verify/SKILL.md",
    ] {
        let text = std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"));
        docs.push((rel.to_string(), text));
    }
    let bench_src = "crates/bench/src";
    for entry in std::fs::read_dir(root.join(bench_src)).expect("crates/bench/src") {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "rs") {
            // Keep line numbers: non-doc lines become empty lines.
            let text: String = std::fs::read_to_string(&path)
                .unwrap()
                .lines()
                .map(|l| l.trim_start().strip_prefix("//!").unwrap_or(""))
                .flat_map(|l| [l, "\n"])
                .collect();
            let name = path.file_name().unwrap().to_str().unwrap();
            docs.push((format!("{bench_src}/{name}"), text));
        }
    }
    docs
}

/// Directories that may hold a cargo target of the given kind.
fn target_dirs(flag: &str) -> Vec<PathBuf> {
    let sub = match flag {
        "--bin" => "src/bin",
        "--bench" => "benches",
        "--example" => "examples",
        "--test" => "tests",
        _ => unreachable!(),
    };
    let root = root();
    let mut dirs = vec![root.join(sub)];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/") {
        dirs.push(entry.unwrap().path().join(sub));
    }
    dirs
}

/// True if `path` names an existing file, relative to the root or to the
/// directory of the document that mentions it.
fn path_resolves(doc: &str, path: &str) -> bool {
    let root = root();
    let doc_dir = root.join(doc).parent().unwrap().to_path_buf();
    root.join(path).is_file() || doc_dir.join(path).is_file()
}

fn is_path_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '/' | '-')
}

#[test]
fn docs_and_ci_name_only_files_that_exist() {
    let mut dangling = Vec::new();
    for (doc, text) in documents() {
        // The flag may end one line and its target start the next.
        let mut pending: Option<&str> = None;
        for (lineno, line) in text.lines().enumerate() {
            let at = format!("{doc}:{}", lineno + 1);
            for token in line.split(|c| !is_path_char(c)) {
                // Sentence-final period; a bare extension (`*.md`, "a .md
                // file") is not a path.
                let token = token.trim_end_matches('.');
                if token.is_empty() || token.starts_with('.') && !token.contains('/') {
                    continue;
                }
                if let Some(flag) = pending.take() {
                    let file = format!("{token}.rs");
                    if !target_dirs(flag).iter().any(|d| d.join(&file).is_file()) {
                        dangling.push(format!("{at}: `{flag} {token}` names no target"));
                    }
                }
                let names_doc = token.ends_with(".md")
                    || (token.ends_with(".json") && token.contains("BENCH_"));
                if matches!(token, "--bin" | "--bench" | "--example" | "--test") {
                    pending = Some(token);
                } else if names_doc && !path_resolves(&doc, token) {
                    dangling.push(format!("{at}: `{token}` is not in the tree"));
                }
            }
        }
    }
    assert!(
        dangling.is_empty(),
        "dangling references:\n  {}",
        dangling.join("\n  ")
    );
}
