//! The live workspace must be lint-clean — the same gate CI runs, kept
//! inside `cargo test` so it cannot rot.

use hrviz_lint::lint_workspace;
use std::path::Path;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().and_then(Path::parent).expect("workspace root")
}

#[test]
fn workspace_has_no_findings() {
    let findings = lint_workspace(root()).expect("workspace scan");
    assert!(
        findings.is_empty(),
        "workspace has lint findings — fix each one or carry an inline \
         lint:allow(rule, reason=\"…\"):\n{}",
        findings
            .iter()
            .map(|f| format!("  [{}] {}:{} {}", f.rule, f.file, f.line, f.snippet))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
