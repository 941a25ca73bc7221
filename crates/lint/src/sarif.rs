//! SARIF 2.1.0 rendering — the static-analysis interchange format CI
//! annotation surfaces consume. One run, one tool (`hrviz-lint`), the
//! rule catalog under `tool.driver.rules`, one `result` per finding with
//! a physical location. Baselined findings map to SARIF's
//! `baselineState: "unchanged"` so viewers can fold them.

use crate::rules::{Finding, RULES};
use hrviz_obs::Json;

/// SARIF schema the output declares.
const SCHEMA: &str = "https://json.schemastore.org/sarif-2.1.0.json";

/// Render findings as one SARIF 2.1.0 document.
pub fn render(findings: &[Finding]) -> String {
    let s = |v: &str| Json::Str(v.to_string());
    let text = |v: &str| Json::obj([("text", s(v))]);
    let rules = RULES.iter().map(|r| {
        Json::obj([
            ("id", s(r.id)),
            ("shortDescription", text(r.desc)),
            ("properties", Json::obj([("family", s(r.family))])),
        ])
    });
    let results = findings.iter().map(|f| {
        let region = Json::obj([("startLine", Json::from(f.line)), ("snippet", text(&f.snippet))]);
        let location = Json::obj([(
            "physicalLocation",
            Json::obj([("artifactLocation", Json::obj([("uri", s(&f.file))])), ("region", region)]),
        )]);
        Json::obj([
            ("ruleId", s(f.rule)),
            ("level", s("error")),
            ("baselineState", s(if f.baselined { "unchanged" } else { "new" })),
            ("message", text(&f.message)),
            ("locations", Json::Arr(vec![location])),
        ])
    });
    let driver = Json::obj([
        ("name", s("hrviz-lint")),
        ("informationUri", s("DESIGN.md")),
        ("rules", Json::Arr(rules.collect())),
    ]);
    let run = Json::obj([
        ("tool", Json::obj([("driver", driver)])),
        ("results", Json::Arr(results.collect())),
    ]);
    let doc = Json::obj([
        ("$schema", s(SCHEMA)),
        ("version", s("2.1.0")),
        ("runs", Json::Arr(vec![run])),
    ]);
    doc.render() + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sarif_is_valid_json_with_rules_and_results() {
        let findings = vec![Finding {
            rule: "blocking_under_lock",
            file: "crates/serve/src/handlers.rs".into(),
            line: 12,
            snippet: "fs::metadata(\"p\")?;".into(),
            message: "file stat while `App.generations` is held".into(),
            baselined: false,
        }];
        let doc = Json::parse(&render(&findings)).expect("sarif parses as JSON");
        assert_eq!(doc.get("version").and_then(Json::as_str), Some("2.1.0"));
        let runs = doc.get("runs").and_then(Json::as_array).expect("runs");
        let rules = runs[0]
            .get("tool")
            .and_then(|t| t.get("driver"))
            .and_then(|d| d.get("rules"))
            .and_then(Json::as_array)
            .expect("rules");
        assert_eq!(rules.len(), RULES.len());
        let results = runs[0].get("results").and_then(Json::as_array).expect("results");
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].get("ruleId").and_then(Json::as_str), Some("blocking_under_lock"));
        let loc = results[0].get("locations").and_then(Json::as_array).expect("locations");
        let region = loc[0].get("physicalLocation").and_then(|p| p.get("region")).expect("region");
        assert_eq!(region.get("startLine").and_then(Json::as_u64), Some(12));
    }

    #[test]
    fn empty_run_still_carries_the_catalog() {
        let doc = Json::parse(&render(&[])).expect("parses");
        let runs = doc.get("runs").and_then(Json::as_array).expect("runs");
        assert_eq!(runs[0].get("results").and_then(Json::as_array).map(<[Json]>::len), Some(0));
    }
}
