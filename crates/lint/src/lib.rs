//! hrviz-lint — syntax-aware multi-pass workspace static analysis for
//! the contracts clippy cannot state.
//!
//! The paper's comparison views are only meaningful because two runs of
//! the same configuration are byte-identical; PRs 2–3 made that a tested
//! contract (fault-schedule replay, parallel-vs-serial sweeps). Clippy
//! keeps most of it statically: the simulation crates' `clippy.toml`
//! files ban hash collections, wall-clock reads and ambient RNGs, and
//! `#![deny(clippy::unwrap_used, …)]` keeps the panic-free scope free of
//! unwraps and panicking macros. This crate keeps the rest: no unordered
//! parallel float reduction in simulation code, no unproven indexing in
//! the panic-free scope, an acyclic workspace lock order with no guard
//! outliving a blocking call, every event-handling `Lp` participating in
//! state saving, and a telemetry namespace that cannot drift (write sites
//! ↔ `hrviz_obs::METRICS` ↔ DESIGN.md).
//!
//! The analysis is a hand-rolled token-tree pass (no rustc plugin, no
//! registry access): [`source::SourceFile`] masks comments/strings,
//! [`tokens::TokenFile`] lexes the masked bytes and matches delimiters,
//! and the per-file passes in [`rules`], [`locks`] and [`counters`]
//! produce [`facts::FileFacts`]. Global passes (lock-graph cycles,
//! counter drift) then run over the facts of every file.
//!
//! ```text
//! cargo run -p hrviz-lint -- --check              # CI gate (human output)
//! cargo run -p hrviz-lint -- --check --format json
//! cargo run -p hrviz-lint -- --list-rules
//! ```
//!
//! Every finding has one escape hatch: an inline
//! `// lint:allow(rule, reason="…")` at the site (the reason is
//! mandatory — an allow without one is itself a finding). Clippy's
//! findings take `#[expect(clippy::…, reason = "…")]` instead.

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
// Test code is exempt: clippy.toml's allow-*-in-tests covers the other three.
#![cfg_attr(test, allow(clippy::unreachable, clippy::todo, clippy::unimplemented))]

pub mod counters;
pub mod diag;
pub mod facts;
pub mod locks;
pub mod rules;
pub mod source;
pub mod tokens;

pub use facts::{FileFacts, LockEdge, MetricWrite};
pub use rules::{check_file, rule, Finding, RuleInfo, RULES};
pub use source::SourceFile;
pub use tokens::TokenFile;

use hrviz_obs::Collector;
use std::io;
use std::path::{Path, PathBuf};

/// Everything one file contributes: the path-scoped rules, the lock
/// pass and the counter pass, all over one shared token tree.
pub fn analyze_file(src: &SourceFile) -> FileFacts {
    let tf = TokenFile::new(src);
    let mut findings = rules::check_file(src, &tf);
    let edges = locks::analyze(src, &tf, &mut findings);
    let writes = counters::collect_writes(src, &tf, &mut findings);
    FileFacts { findings, edges, writes }
}

/// Lint a single in-memory file. `path` is the workspace-relative path
/// the scoping rules see (e.g. `crates/pdes/src/engine.rs`). Includes
/// the intra-file lock-cycle pass; the cross-file passes (global lock
/// graph, counter drift) only run in [`lint_workspace_with`].
pub fn lint_text(path: &str, text: &str) -> Vec<Finding> {
    let src = SourceFile::new(path, text);
    let facts = analyze_file(&src);
    let mut findings = facts.findings;
    findings.extend(locks::cycle_findings(&facts.edges));
    sort_findings(&mut findings);
    findings
}

fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
}

/// All files the workspace lint covers: the root `src/` plus every
/// `crates/*/src` tree. `vendor/` (external stand-ins), `target/` and
/// the crates' own `tests/`/`benches/` trees are out of scope — test
/// code is exempt from every rule anyway.
pub fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    // A wrong --root must fail loudly: an empty scan would let the CI
    // gate pass vacuously.
    if !root.join("Cargo.toml").is_file() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("{} is not a workspace root (no Cargo.toml)", root.display()),
        ));
    }
    let mut files = Vec::new();
    collect_rs(&root.join("src"), &mut files)?;
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut members: Vec<PathBuf> =
            std::fs::read_dir(&crates)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
        members.sort();
        for member in members {
            collect_rs(&member.join("src"), &mut files)?;
        }
    }
    files.sort();
    if files.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("no Rust sources under {}", root.display()),
        ));
    }
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// A full workspace run: findings in (file, line) order plus the number
/// of files scanned.
pub struct LintRun {
    pub findings: Vec<Finding>,
    pub files: usize,
}

/// Lint the whole workspace rooted at `root`, one file after another
/// (a full scan of this workspace takes ≈ 0.15 s on a 2-core x86 host,
/// so neither a cache nor a worker pool pays for itself). `obs` receives
/// the `lint/files_parsed` counter (pass [`Collector::disabled`] to
/// record nothing).
pub fn lint_workspace_with(root: &Path, obs: &Collector) -> io::Result<LintRun> {
    let paths = workspace_files(root)?;
    let mut loaded: Vec<(String, String)> = Vec::with_capacity(paths.len());
    for path in &paths {
        let text = std::fs::read_to_string(path)?;
        let rel = path.strip_prefix(root).unwrap_or(path).to_string_lossy().replace('\\', "/");
        loaded.push((rel, text));
    }
    let facts: Vec<FileFacts> =
        loaded.iter().map(|(rel, text)| analyze_file(&SourceFile::new(rel, text))).collect();
    obs.counter_add("lint/files_parsed", loaded.len() as u64);

    // Global passes over the collected facts.
    let mut findings: Vec<Finding> = Vec::new();
    let mut edges: Vec<LockEdge> = Vec::new();
    let mut writes: Vec<MetricWrite> = Vec::new();
    for f in facts {
        findings.extend(f.findings);
        edges.extend(f.edges);
        writes.extend(f.writes);
    }
    findings.extend(locks::cycle_findings(&edges));
    let manifest: Vec<(&str, &str)> =
        hrviz_obs::METRICS.iter().map(|m| (m.name, m.kind.as_str())).collect();
    let design = std::fs::read_to_string(root.join("DESIGN.md")).unwrap_or_default();
    let design_rows = counters::parse_design_rows(&design);
    let manifest_src = loaded
        .iter()
        .find(|(rel, _)| rel == "crates/obs/src/metrics.rs")
        .map(|(rel, text)| SourceFile::new(rel, text));
    findings.extend(counters::drift_findings(
        &writes,
        &manifest,
        &design_rows,
        manifest_src.as_ref(),
    ));

    sort_findings(&mut findings);
    Ok(LintRun { findings, files: loaded.len() })
}

/// [`lint_workspace_with`] with no telemetry — the simple entry point
/// tests use.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    lint_workspace_with(root, &Collector::disabled()).map(|r| r.findings)
}

/// Locate the workspace root: walk up from `start` to the first directory
/// holding both `Cargo.toml` and `crates/`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}
