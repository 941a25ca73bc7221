//! Human and JSON renderings of a lint run.

use crate::rules::Finding;
use hrviz_obs::Json;
use std::fmt::Write as _;

/// Render findings the way rustc renders warnings, grandfathered ones
/// marked. Returns the report plus the count of *active* (fail-the-build)
/// findings.
pub fn human(findings: &[Finding]) -> (String, usize) {
    let mut out = String::new();
    let mut active = 0usize;
    for f in findings {
        let tag = if f.baselined { "grandfathered" } else { "error" };
        if !f.baselined {
            active += 1;
        }
        let _ = writeln!(out, "{tag}[{}]: {}", f.rule, f.message);
        let _ = writeln!(out, "  --> {}:{}", f.file, f.line);
        let _ = writeln!(out, "   |  {}", f.snippet);
    }
    let baselined = findings.len() - active;
    let _ = writeln!(
        out,
        "hrviz-lint: {active} finding{} ({baselined} grandfathered in the baseline)",
        if active == 1 { "" } else { "s" },
    );
    (out, active)
}

/// Machine-readable report for the CI gate; `files` is the size of the
/// scan set.
pub fn json(findings: &[Finding], files: usize) -> String {
    let active = findings.iter().filter(|f| !f.baselined).count();
    let s = |v: &str| Json::Str(v.to_string());
    let items = findings.iter().map(|f| {
        Json::obj([
            ("rule", s(f.rule)),
            ("file", s(&f.file)),
            ("line", Json::from(f.line)),
            ("snippet", s(&f.snippet)),
            ("message", s(&f.message)),
            ("baselined", Json::Bool(f.baselined)),
        ])
    });
    let doc = Json::obj([
        ("version", Json::U64(1)),
        ("findings", Json::Arr(items.collect())),
        ("active", Json::from(active)),
        ("grandfathered", Json::from(findings.len() - active)),
        ("stats", Json::obj([("files", Json::from(files))])),
    ]);
    doc.render() + "\n"
}
