//! Obs counter-drift audit.
//!
//! Per file, [`collect_writes`] finds every metric write
//! (`.counter_add(…)`, `.gauge_set(…)` / `.gauge_max(…)`,
//! `.hist_record(…)` / `.hist_config(…)` / `.hist_ensure(…)`) and reads
//! the metric-name literal *from the original text* — masking blanked the
//! string, so the token stream shows where it was and the raw bytes say
//! what it said. A non-literal name (a variable, a `format!`) defeats the
//! audit and is flagged at the site.
//!
//! The global pass ([`drift_findings`]) then cross-checks three sets:
//!
//! * write sites — every name written anywhere in non-test code;
//! * the manifest — `hrviz_obs::METRICS`, which also drives the
//!   `# HELP` lines `/metricsz` exposes;
//! * DESIGN.md's telemetry table — rows shaped
//!   `` | `area/name` | kind | … | ``.
//!
//! Any element in one set but not the others is a `counter_drift`
//! finding: an unregistered write is an undocumented metric, a manifest
//! entry nothing writes is a dead metric, and a DESIGN.md row that
//! drifted from the manifest is stale documentation.

use crate::facts::MetricWrite;
use crate::rules::Finding;
use crate::source::SourceFile;
use crate::tokens::{TokKind, TokenFile};
use std::collections::BTreeMap;

/// Metric-writing methods and the kind they imply.
const METHODS: &[(&str, &str)] = &[
    ("counter_add", "counter"),
    ("gauge_set", "gauge"),
    ("gauge_max", "gauge"),
    ("hist_record", "hist"),
    ("hist_config", "hist"),
    ("hist_ensure", "hist"),
];

/// Per-file: every metric write site (skipping test code), flagging
/// non-literal names locally.
pub fn collect_writes(
    src: &SourceFile,
    tf: &TokenFile,
    findings: &mut Vec<Finding>,
) -> Vec<MetricWrite> {
    let mut writes = Vec::new();
    for i in 0..tf.toks.len() {
        // `.method(` — the dot keeps `fn counter_add(…)` definitions out.
        if !tf.is_method_dot(i) {
            continue;
        }
        let Some((_, kind)) = METHODS.iter().find(|(m, _)| tf.is_ident(src, i + 1, m)) else {
            continue;
        };
        let Some(paren) = tf.toks.get(i + 2) else { continue };
        if paren.kind != TokKind::Open(b'(') {
            continue;
        }
        let line = src.line_of(tf.toks[i].start);
        if src.is_test_line(line) {
            continue;
        }
        match first_arg_literal(src, tf, i + 2) {
            Some(name) => writes.push(MetricWrite {
                name,
                kind: (*kind).to_string(),
                file: src.path.clone(),
                line,
                snippet: src.line_text(line).to_string(),
                suppressed: src.suppressed("counter_drift", line),
            }),
            None => {
                if !src.suppressed("counter_drift", line) {
                    findings.push(Finding {
                        rule: "counter_drift",
                        file: src.path.clone(),
                        line,
                        snippet: src.line_text(line).to_string(),
                        message: format!(
                            "metric name passed to `{}` is not a string literal: the \
                             manifest audit cannot see it — name metrics statically",
                            tf.text(src, i + 1)
                        ),
                    });
                }
            }
        }
    }
    writes
}

/// Read the first argument of the call whose `(` token is `open` as a
/// string literal, from the *original* text (masking blanked it).
fn first_arg_literal(src: &SourceFile, tf: &TokenFile, open: usize) -> Option<String> {
    let from = tf.toks[open].end;
    let to = tf.toks.get(open + 1).map(|t| t.start).unwrap_or(src.text.len()).min(src.text.len());
    // Between `(` and the next token the masked text is blank; the
    // original bytes hold the literal (if one is there).
    let gap = src.text.get(from..to)?;
    let trimmed = gap.trim_start();
    let rest = trimmed.strip_prefix('"')?;
    let close = rest.find('"')?;
    Some(rest[..close].to_string())
}

/// One DESIGN.md telemetry-table row: `` | `area/name` | kind | … | ``.
pub fn parse_design_rows(design: &str) -> BTreeMap<String, String> {
    let mut rows = BTreeMap::new();
    for line in design.lines() {
        let line = line.trim();
        let Some(rest) = line.strip_prefix("| `") else { continue };
        let Some(tick) = rest.find('`') else { continue };
        let name = &rest[..tick];
        let Some(after) = rest[tick + 1..].trim_start().strip_prefix('|') else { continue };
        let kind = after.split('|').next().unwrap_or("").trim();
        if matches!(kind, "counter" | "gauge" | "hist") {
            rows.insert(name.to_string(), kind.to_string());
        }
    }
    rows
}

/// The global cross-check. `manifest` is `(name, kind)`;
/// `design_rows` comes from [`parse_design_rows`]; `manifest_src` (the
/// file declaring the manifest, when in the scanned set) anchors
/// manifest-side findings to their declaration lines.
pub fn drift_findings(
    writes: &[MetricWrite],
    manifest: &[(&str, &str)],
    design_rows: &BTreeMap<String, String>,
    manifest_src: Option<&SourceFile>,
) -> Vec<Finding> {
    let mut out = Vec::new();
    let manifest_map: BTreeMap<&str, &str> = manifest.iter().copied().collect();

    // Write sites → manifest (name and kind).
    let mut written: BTreeMap<&str, &MetricWrite> = BTreeMap::new();
    for w in writes {
        written.entry(w.name.as_str()).or_insert(w);
        if w.suppressed {
            continue;
        }
        match manifest_map.get(w.name.as_str()) {
            None => out.push(Finding {
                rule: "counter_drift",
                file: w.file.clone(),
                line: w.line,
                snippet: w.snippet.clone(),
                message: format!(
                    "`{}` is written here but not registered in the metric manifest \
                     (hrviz_obs::METRICS): /metricsz would expose an undocumented name",
                    w.name
                ),
            }),
            Some(kind) if *kind != w.kind => out.push(Finding {
                rule: "counter_drift",
                file: w.file.clone(),
                line: w.line,
                snippet: w.snippet.clone(),
                message: format!(
                    "`{}` is written as a {} but the manifest registers it as a {}",
                    w.name, w.kind, kind
                ),
            }),
            Some(_) => {}
        }
    }

    // Manifest → write sites and DESIGN.md.
    for &(name, kind) in manifest {
        if !written.contains_key(name) {
            out.push(anchor(
                manifest_src,
                name,
                format!(
                    "manifest metric `{name}` is never written outside test code: \
                     delete the dead registration or wire the write site"
                ),
            ));
        }
        match design_rows.get(name) {
            None => out.push(anchor(
                manifest_src,
                name,
                format!("manifest metric `{name}` is missing from DESIGN.md's telemetry table"),
            )),
            Some(dk) if dk != kind => out.push(anchor(
                manifest_src,
                name,
                format!("DESIGN.md documents `{name}` as a {dk} but the manifest says {kind}"),
            )),
            Some(_) => {}
        }
    }

    // DESIGN.md → manifest.
    for name in design_rows.keys() {
        if !manifest_map.contains_key(name.as_str()) {
            out.push(anchor(
                manifest_src,
                name,
                format!(
                    "DESIGN.md's telemetry table documents `{name}` but the manifest \
                     does not register it: stale documentation"
                ),
            ));
        }
    }
    out
}

/// Anchor a manifest-side finding at the declaration line (text search in
/// the manifest source) or at line 1 of a placeholder path.
fn anchor(manifest_src: Option<&SourceFile>, name: &str, message: String) -> Finding {
    let (file, line, snippet) = match manifest_src {
        Some(src) => {
            let needle = format!("\"{name}\"");
            let line =
                src.text.lines().position(|l| l.contains(&needle)).map(|p| p + 1).unwrap_or(1);
            (src.path.clone(), line, src.line_text(line).to_string())
        }
        None => ("crates/obs/src/metrics.rs".to_string(), 1, String::new()),
    };
    Finding { rule: "counter_drift", file, line, snippet, message }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokens::TokenFile;

    fn collect(text: &str) -> (Vec<MetricWrite>, Vec<Finding>) {
        let src = SourceFile::new("crates/serve/src/demo.rs", text);
        let tf = TokenFile::new(&src);
        let mut findings = Vec::new();
        let writes = collect_writes(&src, &tf, &mut findings);
        (writes, findings)
    }

    #[test]
    fn literal_names_are_collected_with_kind() {
        let (w, f) = collect(
            "fn f(c: &Collector) {\n  c.counter_add(\"serve/requests\", 1);\n  \
             c.hist_record(\"serve/latency_us\", 3.0);\n}",
        );
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(w.len(), 2);
        assert_eq!((w[0].name.as_str(), w[0].kind.as_str()), ("serve/requests", "counter"));
        assert_eq!((w[1].name.as_str(), w[1].kind.as_str()), ("serve/latency_us", "hist"));
    }

    #[test]
    fn non_literal_name_is_flagged() {
        let (w, f) = collect("fn f(c: &Collector, n: &str) {\n  c.counter_add(n, 1);\n}");
        assert!(w.is_empty());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "counter_drift");
    }

    #[test]
    fn method_definitions_do_not_match() {
        let (w, f) = collect("impl C {\n  pub fn counter_add(&self, name: &str, by: u64) {}\n}");
        assert!(w.is_empty(), "{w:?}");
        assert!(f.is_empty());
    }

    #[test]
    fn design_rows_parse_name_and_kind() {
        let rows = parse_design_rows(
            "## Telemetry reference\n\n| name | kind | meaning |\n|---|---|---|\n\
             | `serve/requests` | counter | HTTP requests accepted |\n\
             | `pdes/events_per_sec` | gauge | drain rate |\n| not | a | row |\n",
        );
        assert_eq!(rows.len(), 2);
        assert_eq!(rows["serve/requests"], "counter");
        assert_eq!(rows["pdes/events_per_sec"], "gauge");
    }

    #[test]
    fn drift_catches_all_three_directions() {
        let (writes, _) = collect(
            "fn f(c: &Collector) {\n  c.counter_add(\"serve/requests\", 1);\n  \
             c.counter_add(\"serve/unregistered\", 1);\n}",
        );
        let manifest = [("serve/requests", "counter"), ("serve/dead", "counter")];
        let design = parse_design_rows(
            "| `serve/requests` | counter | x |\n| `serve/ghost` | counter | y |\n\
             | `serve/dead` | counter | z |\n",
        );
        let f = drift_findings(&writes, &manifest, &design, None);
        let msgs: Vec<&str> = f.iter().map(|f| f.message.as_str()).collect();
        assert!(
            msgs.iter().any(|m| m.contains("`serve/unregistered`") && m.contains("not registered")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter().any(|m| m.contains("`serve/dead`") && m.contains("never written")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter().any(|m| m.contains("`serve/ghost`") && m.contains("stale")),
            "{msgs:?}"
        );
        assert_eq!(f.len(), 3, "{msgs:?}");
    }

    #[test]
    fn kind_mismatch_is_flagged() {
        let (writes, _) = collect("fn f(c: &Collector) {\n  c.gauge_set(\"pdes/rate\", 1.0);\n}");
        let manifest = [("pdes/rate", "counter")];
        let design = parse_design_rows("| `pdes/rate` | counter | x |\n");
        let f = drift_findings(&writes, &manifest, &design, None);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("written as a gauge"), "{}", f[0].message);
    }
}
