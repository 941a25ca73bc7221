//! Human and JSON renderings of a lint run.

use crate::rules::Finding;
use hrviz_obs::Json;
use std::fmt::Write as _;

/// Render findings the way rustc renders errors, closed by a count line.
pub fn human(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        let _ = writeln!(out, "error[{}]: {}", f.rule, f.message);
        let _ = writeln!(out, "  --> {}:{}", f.file, f.line);
        let _ = writeln!(out, "   |  {}", f.snippet);
    }
    let n = findings.len();
    let _ = writeln!(out, "hrviz-lint: {n} finding{}", if n == 1 { "" } else { "s" });
    out
}

/// Machine-readable report for the CI gate; `files` is the size of the
/// scan set and `active` the number of findings.
pub fn json(findings: &[Finding], files: usize) -> String {
    let s = |v: &str| Json::Str(v.to_string());
    let items = findings.iter().map(|f| {
        Json::obj([
            ("rule", s(f.rule)),
            ("file", s(&f.file)),
            ("line", Json::from(f.line)),
            ("snippet", s(&f.snippet)),
            ("message", s(&f.message)),
        ])
    });
    let doc = Json::obj([
        ("version", Json::U64(1)),
        ("findings", Json::Arr(items.collect())),
        ("active", Json::from(findings.len())),
        ("stats", Json::obj([("files", Json::from(files))])),
    ]);
    doc.render() + "\n"
}
