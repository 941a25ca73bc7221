//! Per-file analysis facts.
//!
//! A [`FileFacts`] holds everything one file contributes to a lint run:
//! its local findings plus the raw material the *global* passes consume
//! (lock-acquisition edges for the cycle pass, metric-write sites for
//! the counter-drift pass). The global passes run over the facts of
//! every file.
//!
//! Facts serialize and parse back through [`hrviz_obs::Json`], the
//! workspace's one JSON codec.

use crate::rules::{rule, Finding};
use hrviz_obs::Json;

/// One held→acquired lock edge, with its site for diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdge {
    pub held: String,
    pub acquired: String,
    pub file: String,
    pub line: usize,
    pub snippet: String,
    /// An inline `lint:allow(lock_order_cycle, …)` covers the site.
    pub suppressed: bool,
}

/// One metric write site (`.counter_add("name", …)` et al).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricWrite {
    /// Literal metric name (empty when the site passed a non-literal).
    pub name: String,
    /// `counter` / `gauge` / `hist` as implied by the method.
    pub kind: String,
    pub file: String,
    pub line: usize,
    pub snippet: String,
    /// An inline `lint:allow(counter_drift, …)` covers the site.
    pub suppressed: bool,
}

/// Everything one file contributes to the run.
#[derive(Debug, Default, Clone)]
pub struct FileFacts {
    pub findings: Vec<Finding>,
    pub edges: Vec<LockEdge>,
    pub writes: Vec<MetricWrite>,
}

impl FileFacts {
    /// Serialize as a JSON object.
    pub fn to_json(&self) -> Json {
        let s = |v: &str| Json::Str(v.to_string());
        let findings = self.findings.iter().map(|f| {
            Json::obj([
                ("rule", s(f.rule)),
                ("file", s(&f.file)),
                ("line", Json::from(f.line)),
                ("snippet", s(&f.snippet)),
                ("message", s(&f.message)),
            ])
        });
        let edges = self.edges.iter().map(|e| {
            Json::obj([
                ("held", s(&e.held)),
                ("acquired", s(&e.acquired)),
                ("file", s(&e.file)),
                ("line", Json::from(e.line)),
                ("snippet", s(&e.snippet)),
                ("suppressed", Json::Bool(e.suppressed)),
            ])
        });
        let writes = self.writes.iter().map(|w| {
            Json::obj([
                ("name", s(&w.name)),
                ("kind", s(&w.kind)),
                ("file", s(&w.file)),
                ("line", Json::from(w.line)),
                ("snippet", s(&w.snippet)),
                ("suppressed", Json::Bool(w.suppressed)),
            ])
        });
        Json::obj([
            ("findings", Json::Arr(findings.collect())),
            ("edges", Json::Arr(edges.collect())),
            ("writes", Json::Arr(writes.collect())),
        ])
    }

    /// Inverse of [`FileFacts::to_json`]. Unknown rule ids (a removed
    /// rule) fail the parse.
    pub fn from_json(j: &Json) -> Option<FileFacts> {
        let mut facts = FileFacts::default();
        for f in j.get("findings")?.as_array()? {
            facts.findings.push(Finding {
                rule: rule(f.get("rule")?.as_str()?)?.id,
                file: f.get("file")?.as_str()?.to_string(),
                line: f.get("line")?.as_u64()? as usize,
                snippet: f.get("snippet")?.as_str()?.to_string(),
                message: f.get("message")?.as_str()?.to_string(),
                baselined: false,
            });
        }
        for e in j.get("edges")?.as_array()? {
            facts.edges.push(LockEdge {
                held: e.get("held")?.as_str()?.to_string(),
                acquired: e.get("acquired")?.as_str()?.to_string(),
                file: e.get("file")?.as_str()?.to_string(),
                line: e.get("line")?.as_u64()? as usize,
                snippet: e.get("snippet")?.as_str()?.to_string(),
                suppressed: e.get("suppressed")?.as_bool()?,
            });
        }
        for w in j.get("writes")?.as_array()? {
            facts.writes.push(MetricWrite {
                name: w.get("name")?.as_str()?.to_string(),
                kind: w.get("kind")?.as_str()?.to_string(),
                file: w.get("file")?.as_str()?.to_string(),
                line: w.get("line")?.as_u64()? as usize,
                snippet: w.get("snippet")?.as_str()?.to_string(),
                suppressed: w.get("suppressed")?.as_bool()?,
            });
        }
        Some(facts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facts_round_trip_through_json() {
        let facts = FileFacts {
            findings: vec![Finding {
                rule: "blocking_under_lock",
                file: "crates/serve/src/handlers.rs".into(),
                line: 42,
                snippet: "fs::metadata(\"p\")".into(),
                message: "file stat while `App.generations` is held".into(),
                baselined: false,
            }],
            edges: vec![LockEdge {
                held: "App.datasets".into(),
                acquired: "App.graphs".into(),
                file: "crates/serve/src/handlers.rs".into(),
                line: 7,
                snippet: "let g = self.graphs.lock();".into(),
                suppressed: true,
            }],
            writes: vec![MetricWrite {
                name: "serve/requests".into(),
                kind: "counter".into(),
                file: "crates/serve/src/http.rs".into(),
                line: 3,
                snippet: "obs.counter_add(\"serve/requests\", 1);".into(),
                suppressed: false,
            }],
        };
        let text = facts.to_json().render();
        let parsed = FileFacts::from_json(&Json::parse(&text).expect("parses")).expect("decodes");
        assert_eq!(parsed.findings, facts.findings);
        assert_eq!(parsed.edges, facts.edges);
        assert_eq!(parsed.writes, facts.writes);
    }

    #[test]
    fn unknown_rule_id_invalidates_the_entry() {
        let text = "{\"findings\":[{\"rule\":\"gone_rule\",\"file\":\"f\",\"line\":1,\
                    \"snippet\":\"s\",\"message\":\"m\"}],\"edges\":[],\"writes\":[]}";
        assert!(FileFacts::from_json(&Json::parse(text).expect("parses")).is_none());
    }
}
