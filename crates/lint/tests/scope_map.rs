//! The rules moved to clippy keep the scope hrviz-lint gave them.
//!
//! Tier-1 tests do not run clippy, so a deleted `clippy.toml` or a lost
//! `#![deny(...)]` would otherwise pass unnoticed until the CI clippy
//! step. This test reads the scope lists the linter itself uses and
//! checks that the clippy configuration covers each of them.

use hrviz_lint::rules::{PANIC_CRATES, PANIC_FILES, SIM_CRATES};
use std::collections::BTreeSet;
use std::path::Path;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().and_then(Path::parent).expect("workspace root")
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// The `path = "…"` entries of the `key = [ … ]` array in a clippy.toml.
fn banned_paths(toml: &str, key: &str) -> BTreeSet<String> {
    let start = toml
        .lines()
        .position(|l| l.trim_start().starts_with(&format!("{key} = [")))
        .unwrap_or_else(|| panic!("no `{key}` array"));
    let mut paths = BTreeSet::new();
    for line in toml.lines().skip(start + 1).take_while(|l| l.trim() != "]") {
        if let Some(rest) = line.split("path = \"").nth(1) {
            paths.insert(rest.split('"').next().unwrap_or_default().to_string());
        }
    }
    paths
}

const TEST_KEYS: [&str; 3] =
    ["allow-unwrap-in-tests = true", "allow-expect-in-tests = true", "allow-panic-in-tests = true"];

#[test]
fn every_sim_crate_bans_the_determinism_hazards() {
    let files: Vec<(String, String)> = SIM_CRATES
        .iter()
        .map(|c| {
            let rel = format!("crates/{c}/clippy.toml");
            let text = read(&rel);
            (rel, text)
        })
        .collect();
    let (first_rel, first) = &files[0];
    for (rel, text) in &files {
        assert_eq!(text, first, "{rel} differs from {first_rel}: the copies must be identical");
    }
    let types = banned_paths(first, "disallowed-types");
    for path in [
        "std::collections::HashMap",
        "std::collections::HashSet",
        "std::time::Instant",
        "std::time::SystemTime",
        "rand::rngs::ThreadRng",
        "rand::rngs::OsRng",
    ] {
        assert!(types.contains(path), "disallowed-types misses {path}: {types:?}");
    }
    let methods = banned_paths(first, "disallowed-methods");
    for path in [
        "std::time::Instant::now",
        "std::time::SystemTime::now",
        "rand::thread_rng",
        "rand::SeedableRng::from_entropy",
        "rand::rngs::entropy_rng",
    ] {
        assert!(methods.contains(path), "disallowed-methods misses {path}: {methods:?}");
    }
    // Clippy reads only the nearest clippy.toml, so the sim crates'
    // files repeat the root's test-code keys.
    for key in TEST_KEYS {
        assert!(first.lines().any(|l| l.trim() == key), "{first_rel} misses `{key}`");
    }
}

#[test]
fn the_root_clippy_toml_lets_tests_panic() {
    let text = read("clippy.toml");
    for key in TEST_KEYS {
        assert!(text.lines().any(|l| l.trim() == key), "clippy.toml misses `{key}`");
    }
}

const PANIC_LINTS: [&str; 6] = [
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::unreachable",
    "clippy::todo",
    "clippy::unimplemented",
];

/// The lints a file's inner `#![deny(…)]` attributes name.
fn denied_lints(text: &str) -> BTreeSet<String> {
    let mut lints = BTreeSet::new();
    let mut rest = text;
    while let Some(at) = rest.find("\n#![deny(") {
        let body = &rest[at + "\n#![deny(".len()..];
        let end = body.find(")]").unwrap_or(body.len());
        lints.extend(body[..end].split(',').map(|l| l.trim().to_string()));
        rest = &body[end..];
    }
    lints
}

fn assert_denies_panics(rel: &str) {
    let lints = denied_lints(&read(rel));
    for lint in PANIC_LINTS {
        assert!(lints.contains(lint), "{rel} does not #![deny({lint})]: {lints:?}");
    }
}

#[test]
fn every_panic_scope_crate_root_denies_the_panicking_lints() {
    // The linter holds itself to the same ban at its own roots.
    for krate in PANIC_CRATES.iter().chain(&["lint"]) {
        let roots: Vec<String> = ["lib.rs", "main.rs"]
            .iter()
            .map(|f| format!("crates/{krate}/src/{f}"))
            .filter(|rel| root().join(rel).is_file())
            .collect();
        assert!(!roots.is_empty(), "crates/{krate} has no crate root");
        for rel in &roots {
            assert_denies_panics(rel);
        }
    }
}

#[test]
fn every_panic_scope_file_denies_the_panicking_lints() {
    for rel in PANIC_FILES {
        assert_denies_panics(rel);
    }
}
