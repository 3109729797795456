//! Every cargo command the docs and CI print must resolve.
//!
//! README.md, EXPERIMENTS.md, DESIGN.md and the CI workflow quote
//! `cargo run --example X`, `-p P` and `--bin B` invocations. A
//! renamed or deleted target leaves those lines pointing at nothing,
//! and nothing else notices until a reader pastes one. This test reads
//! the workspace's manifests and checks that each quoted example,
//! package and binary exists.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// The documents whose commands are checked, relative to the root.
const DOCS: &[&str] = &[
    "README.md",
    "EXPERIMENTS.md",
    "DESIGN.md",
    ".github/workflows/ci.yml",
];

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The cargo targets a command can name.
#[derive(Default)]
struct Targets {
    packages: BTreeSet<String>,
    bins: BTreeSet<String>,
    examples: BTreeSet<String>,
}

/// `.rs` file stems directly under `dir` (cargo's target autodiscovery).
fn rs_stems(dir: &Path) -> Vec<String> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    entries
        .filter_map(|e| {
            let path = e.ok()?.path();
            if path.extension()? != "rs" {
                return None;
            }
            Some(path.file_stem()?.to_str()?.to_string())
        })
        .collect()
}

/// A `key = "value"` line's value.
fn toml_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = line.strip_prefix(key)?.trim_start().strip_prefix('=')?;
    rest.trim().strip_prefix('"')?.strip_suffix('"')
}

/// Add one manifest's package, `[[bin]]` and `[[example]]` targets, and
/// the ones cargo discovers from `src/main.rs`, `src/bin/` and
/// `examples/`. A declared target whose `path` is missing is left out.
fn add_manifest(targets: &mut Targets, manifest: &Path) {
    let dir = manifest.parent().expect("manifest has a directory");
    let text = fs::read_to_string(manifest).expect("manifest is readable");
    // One `[[bin]]`/`[[example]]` table at a time: (section, name, path).
    let mut declared: Vec<(String, Option<String>, Option<String>)> = Vec::new();
    let mut section = String::new();
    let mut package = None;
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') {
            section = line.to_string();
            if section == "[[bin]]" || section == "[[example]]" {
                declared.push((section.clone(), None, None));
            }
            continue;
        }
        if let Some(name) = toml_str(line, "name") {
            match (section.as_str(), declared.last_mut()) {
                ("[package]", _) => package = Some(name.to_string()),
                ("[[bin]]" | "[[example]]", Some(t)) => t.1 = Some(name.to_string()),
                _ => {}
            }
        } else if let (Some(path), Some(t)) = (toml_str(line, "path"), declared.last_mut()) {
            if section == "[[bin]]" || section == "[[example]]" {
                t.2 = Some(path.to_string());
            }
        }
    }
    let package = package.unwrap_or_else(|| panic!("{} has no package name", manifest.display()));
    for (kind, name, path) in declared {
        let name =
            name.unwrap_or_else(|| panic!("{kind} without a name in {}", manifest.display()));
        let exists = match &path {
            Some(p) => dir.join(p).is_file(),
            None => true,
        };
        if exists && kind == "[[bin]]" {
            targets.bins.insert(name);
        } else if exists {
            targets.examples.insert(name);
        }
    }
    if dir.join("src/main.rs").is_file() {
        targets.bins.insert(package.clone());
    }
    targets.bins.extend(rs_stems(&dir.join("src/bin")));
    targets.examples.extend(rs_stems(&dir.join("examples")));
    targets.packages.insert(package);
}

/// Every target in the workspace under `crates/`, plus the standalone
/// `perfbench` manifest the docs point at.
fn workspace_targets() -> Targets {
    let root = root();
    let mut targets = Targets::default();
    for entry in fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        let manifest = entry.expect("dir entry").path().join("Cargo.toml");
        if manifest.is_file() {
            add_manifest(&mut targets, &manifest);
        }
    }
    add_manifest(&mut targets, &root.join("perfbench/Cargo.toml"));
    targets
}

/// A target a doc names: (flag, value, 1-based line).
type Reference = (&'static str, String, usize);

/// The `--example`, `--bin` and `-p`/`--package` values in `text`.
/// Backslash-continued lines are joined first. `-p` and `--package`
/// count only on a line that runs cargo (`mkdir -p` is not a package);
/// `<placeholder>` values are skipped.
fn references(text: &str) -> Vec<Reference> {
    let mut out = Vec::new();
    let mut logical = String::new();
    let mut start = 0;
    for (i, line) in text.lines().enumerate() {
        if logical.is_empty() {
            start = i + 1;
        }
        match line.trim_end().strip_suffix('\\') {
            Some(head) => {
                logical.push_str(head);
                logical.push(' ');
                continue;
            }
            None => logical.push_str(line),
        }
        let runs_cargo = logical.contains("cargo ");
        let mut words = logical
            .split_whitespace()
            .map(|w| w.trim_matches(|c| "`'\"(".contains(c)));
        while let Some(word) = words.next() {
            let (flag, inline) = match word.split_once('=') {
                Some((f, v)) => (f, Some(v)),
                None => (word, None),
            };
            let flag = match flag {
                "--example" => "--example",
                "--bin" => "--bin",
                "-p" | "--package" if runs_cargo => "-p",
                _ => continue,
            };
            let Some(value) = inline.or_else(|| words.next()) else {
                continue;
            };
            let value = value.trim_end_matches(|c| "`'\"),.:;".contains(c));
            if !value.is_empty() && !value.starts_with('<') {
                out.push((flag, value.to_string(), start));
            }
        }
        logical.clear();
    }
    out
}

#[test]
fn every_documented_example_package_and_bin_exists() {
    let targets = workspace_targets();
    let mut missing = Vec::new();
    let mut checked = 0;
    for doc in DOCS {
        let text = fs::read_to_string(root().join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
        for (flag, value, line) in references(&text) {
            let known = match flag {
                "--example" => &targets.examples,
                "--bin" => &targets.bins,
                _ => &targets.packages,
            };
            checked += 1;
            if !known.contains(&value) {
                missing.push(format!("{doc}:{line}: {flag} {value}"));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "documented cargo targets that do not exist:\n{}",
        missing.join("\n")
    );
    // The docs quote dozens of commands; a scan that finds few of them
    // is a broken scanner, not clean docs.
    assert!(checked >= 40, "only {checked} references found");
}

#[test]
fn the_inventory_sees_declared_and_discovered_targets() {
    let t = workspace_targets();
    assert!(t.packages.contains("dc-server") && t.packages.contains("perfbench"));
    // Declared with a `path` into the root `examples/` directory.
    assert!(t.examples.contains("sweeps"));
    // Discovered from `crates/cpu/examples/`.
    assert!(t.examples.contains("calibrate"));
    assert!(t.bins.contains("obs-schema-check") && t.bins.contains("perfbench"));
    assert!(!t.bins.contains("sweeps"));
}

#[test]
fn references_follow_continuations_and_skip_non_cargo_dash_p() {
    let text = "cargo run --release -p dc-benches \\\n    --bin `obs-schema-check` -- x\n\
                mkdir -p conc1\n\
                Run `--example sweeps`, then --bin=dc-top.\n\
                cargo run --example <name>\n";
    let got: Vec<_> = references(text)
        .into_iter()
        .map(|(f, v, l)| format!("{l}:{f} {v}"))
        .collect();
    assert_eq!(
        got,
        [
            "1:-p dc-benches",
            "1:--bin obs-schema-check",
            "4:--example sweeps",
            "4:--bin dc-top",
        ]
    );
}
