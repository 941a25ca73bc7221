//! The checked-in grandfather list (`lint-baseline.json`).
//!
//! A baseline entry matches findings by `(rule, file, snippet)` — the
//! snippet is the trimmed source line, so findings survive unrelated line
//! drift but die (correctly) the moment the offending code changes. The
//! file is read and escaped with the workspace's JSON codec
//! ([`hrviz_obs::Json`]).

use crate::rules::Finding;
use hrviz_obs::Json;

/// One grandfathered finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineEntry {
    /// Rule id.
    pub rule: String,
    /// Workspace-relative file.
    pub file: String,
    /// Trimmed source line the finding anchors to.
    pub snippet: String,
}

/// The parsed baseline.
#[derive(Debug, Default)]
pub struct Baseline {
    /// Entries, in file order.
    pub entries: Vec<BaselineEntry>,
}

impl Baseline {
    /// Parse `lint-baseline.json` text: an object whose `findings` array
    /// holds flat objects of string-valued `rule`, `file` and `snippet`.
    /// Other top-level keys (`version`) are ignored.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let doc = Json::parse(text).map_err(|e| format!("baseline: {e}"))?;
        let Json::Obj(_) = doc else { return Err("baseline: expected an object".into()) };
        let findings = match doc.get("findings") {
            None => &[][..],
            Some(f) => f.as_array().ok_or("baseline: `findings` must be an array")?,
        };
        let entries = findings.iter().map(Self::entry).collect::<Result<_, _>>()?;
        Ok(Baseline { entries })
    }

    fn entry(v: &Json) -> Result<BaselineEntry, String> {
        let Json::Obj(fields) = v else { return Err("baseline entry must be an object".into()) };
        let (mut rule, mut file, mut snippet) = (String::new(), String::new(), String::new());
        for (key, val) in fields {
            let slot = match key.as_str() {
                "rule" => &mut rule,
                "file" => &mut file,
                "snippet" => &mut snippet,
                other => return Err(format!("unknown baseline field `{other}`")),
            };
            let val =
                val.as_str().ok_or_else(|| format!("baseline field `{key}` must be a string"))?;
            *slot = val.to_string();
        }
        if rule.is_empty() || file.is_empty() || snippet.is_empty() {
            return Err("baseline entry needs rule, file and snippet".into());
        }
        Ok(BaselineEntry { rule, file, snippet })
    }

    /// Does the baseline grandfather this finding?
    pub fn covers(&self, f: &Finding) -> bool {
        self.entries.iter().any(|e| e.rule == f.rule && e.file == f.file && e.snippet == f.snippet)
    }

    /// Entries that no current finding matches (stale grandfathers that
    /// should be deleted once the code they covered is gone).
    pub fn stale<'a>(&'a self, findings: &[Finding]) -> Vec<&'a BaselineEntry> {
        self.entries
            .iter()
            .filter(|e| {
                !findings
                    .iter()
                    .any(|f| e.rule == f.rule && e.file == f.file && e.snippet == f.snippet)
            })
            .collect()
    }

    /// Render a baseline holding exactly `findings`.
    pub fn render(findings: &[Finding]) -> String {
        let mut out = String::from("{\n  \"version\": 1,\n  \"findings\": [\n");
        for (i, f) in findings.iter().enumerate() {
            out.push_str("    {\"rule\": ");
            Json::write_str(f.rule, &mut out);
            out.push_str(", \"file\": ");
            Json::write_str(&f.file, &mut out);
            out.push_str(", \"snippet\": ");
            Json::write_str(&f.snippet, &mut out);
            out.push_str(if i + 1 < findings.len() { "},\n" } else { "}\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }
}
