//! Typed view-request parsing: the single validation path for serve
//! query strings and CLI flags.
//!
//! Both the HTTP layer (`POST /views?lod=1&page_size=64`) and the CLI
//! (`hrviz view --lod 1 --page-size 64`) funnel their raw key/value
//! parameters through [`ViewRequest::parse`]. One code path decides what
//! a well-formed request is, so the two surfaces cannot drift; errors
//! come back as a structured [`RequestError`] naming the offending field
//! and a machine-readable code, which serve renders as a structured 400.

use std::collections::BTreeMap;

use crate::graph::{RenderPolicy, SCHEMA_VERSION, SECTION_NAMES};
use crate::script::parse_script;
use crate::spec::ProjectionSpec;

/// Upper bound on `page_size` (0 means "unpaged").
pub const MAX_PAGE_SIZE: usize = 10_000;
/// Upper bound on `max_depth`.
pub const MAX_DEPTH_LIMIT: u8 = 16;

/// A rejected request parameter: which field, a stable machine code, and
/// a human-readable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestError {
    /// Parameter (or flag) that failed validation.
    pub field: &'static str,
    /// Stable error code (`unknown_schema`, `bad_int`, ...).
    pub code: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl RequestError {
    fn new(field: &'static str, code: &'static str, message: String) -> RequestError {
        RequestError { field, code, message }
    }
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.field, self.message)
    }
}

/// A fully validated view/compare request.
#[derive(Clone, Debug)]
pub struct ViewRequest {
    /// Run ids (one for a view, two or more for a comparison). Empty for
    /// CLI simulation-backed views, which have no store.
    pub runs: Vec<String>,
    /// Graph materialization policy.
    pub policy: RenderPolicy,
    /// Page size in nodes (0 = unpaged).
    pub page_size: usize,
    /// Opaque continuation token from a previous page, if any.
    pub cursor: Option<String>,
    /// The projection script source text.
    pub script: String,
    /// The parsed projection spec.
    pub spec: ProjectionSpec,
}

impl ViewRequest {
    /// Parse and validate a request. `params` holds the raw key/value
    /// pairs (HTTP query or CLI flags), `script` the projection-script
    /// body. When `compare` is set, `runs` must name at least two runs;
    /// otherwise a single `run` is required unless `require_runs` is
    /// false (CLI simulation mode).
    pub fn parse(
        params: &BTreeMap<String, String>,
        script: &str,
        compare: bool,
        require_runs: bool,
    ) -> Result<ViewRequest, RequestError> {
        let spec = parse_script(script)
            .map_err(|e| RequestError::new("script", "bad_script", format!("bad script: {e}")))?;
        let runs = if compare {
            let list = params.get("runs").map(String::as_str).unwrap_or("");
            let runs: Vec<String> =
                list.split(',').filter(|s| !s.is_empty()).map(str::to_string).collect();
            if require_runs && runs.len() < 2 {
                return Err(RequestError::new(
                    "runs",
                    "missing_runs",
                    "comparison needs at least two run ids (?runs={a},{b})".to_string(),
                ));
            }
            runs
        } else {
            match params.get("run") {
                Some(r) if !r.is_empty() => vec![r.clone()],
                _ if require_runs => {
                    return Err(RequestError::new(
                        "run",
                        "missing_run",
                        "a run id is required (?run={id})".to_string(),
                    ));
                }
                _ => vec![],
            }
        };
        // `?schema=` may only name the one wire schema, [`SCHEMA_VERSION`].
        if let Some(s) = params.get("schema") {
            if s.parse::<u32>() != Ok(SCHEMA_VERSION) {
                return Err(RequestError::new(
                    "schema",
                    "unknown_schema",
                    format!("unknown schema {s:?}; supported: {SCHEMA_VERSION}"),
                ));
            }
        }
        let policy = RenderPolicy::from_params(params)?;
        let page_size = bounded_usize(params, "page_size", 0, MAX_PAGE_SIZE)?;
        let cursor = params.get("cursor").filter(|c| !c.is_empty()).cloned();
        Ok(ViewRequest { runs, policy, page_size, cursor, script: script.to_string(), spec })
    }
}

impl RenderPolicy {
    /// Parse the policy fields (`lod`, `max_depth`, `max_items`, `show`,
    /// `prune`) out of a raw parameter map, validating ranges and section
    /// names. Absent keys take the defaults.
    pub fn from_params(params: &BTreeMap<String, String>) -> Result<RenderPolicy, RequestError> {
        let defaults = RenderPolicy::default();
        let lod = bounded_usize(params, "lod", defaults.lod as usize, 2)? as u8;
        let max_depth = bounded_usize(
            params,
            "max_depth",
            defaults.max_depth as usize,
            MAX_DEPTH_LIMIT as usize,
        )? as u8;
        let max_items_per_list =
            bounded_usize(params, "max_items", defaults.max_items_per_list, usize::MAX)?;
        let show = section_list(params, "show")?;
        let prune = section_list(params, "prune")?;
        Ok(RenderPolicy { lod, max_depth, max_items_per_list, show, prune })
    }
}

fn bounded_usize(
    params: &BTreeMap<String, String>,
    key: &'static str,
    default: usize,
    max: usize,
) -> Result<usize, RequestError> {
    match params.get(key) {
        None => Ok(default),
        Some(raw) => {
            let v = raw.parse::<usize>().map_err(|_| {
                RequestError::new(key, "bad_int", format!("{key} must be an integer, got {raw:?}"))
            })?;
            if v > max {
                return Err(RequestError::new(
                    key,
                    "out_of_range",
                    format!("{key} must be at most {max}, got {v}"),
                ));
            }
            Ok(v)
        }
    }
}

fn section_list(
    params: &BTreeMap<String, String>,
    key: &'static str,
) -> Result<Vec<String>, RequestError> {
    let Some(raw) = params.get(key) else { return Ok(vec![]) };
    let mut out = Vec::new();
    for name in raw.split(',').filter(|s| !s.is_empty()) {
        if !SECTION_NAMES.contains(&name) {
            return Err(RequestError::new(
                key,
                "unknown_section",
                format!("unknown section {name:?}; known: {}", SECTION_NAMES.join(", ")),
            ));
        }
        out.push(name.to_string());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCRIPT: &str = r#"{ project: "terminal", aggregate: "router_id",
                              vmap: { color: "traffic" } }"#;

    fn params(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
        pairs.iter().map(|(k, v)| ((*k).to_string(), (*v).to_string())).collect()
    }

    #[test]
    fn defaults_are_schema_2_full_fidelity_unpaged() {
        let r = ViewRequest::parse(&params(&[("run", "00000000000000aa")]), SCRIPT, false, true)
            .expect("parses");
        assert_eq!(r.policy, RenderPolicy::default());
        assert_eq!(r.page_size, 0);
        assert!(r.cursor.is_none());
        assert_eq!(r.runs, vec!["00000000000000aa".to_string()]);
    }

    #[test]
    fn flags_flow_into_the_policy() {
        let p = params(&[
            ("run", "00000000000000aa"),
            ("lod", "1"),
            ("max_depth", "2"),
            ("max_items", "5"),
            ("page_size", "64"),
            ("show", "terminal,ribbons"),
        ]);
        let r = ViewRequest::parse(&p, SCRIPT, false, true).expect("parses");
        assert_eq!(r.policy.lod, 1);
        assert_eq!(r.policy.max_depth, 2);
        assert_eq!(r.policy.max_items_per_list, 5);
        assert_eq!(r.page_size, 64);
        assert_eq!(r.policy.show, vec!["terminal".to_string(), "ribbons".to_string()]);
    }

    #[test]
    fn structured_errors_name_field_and_code() {
        let bad_schema =
            ViewRequest::parse(&params(&[("run", "a"), ("schema", "3")]), SCRIPT, false, true)
                .expect_err("schema 3 rejected");
        assert_eq!((bad_schema.field, bad_schema.code), ("schema", "unknown_schema"));

        let bad_lod =
            ViewRequest::parse(&params(&[("run", "a"), ("lod", "9")]), SCRIPT, false, true)
                .expect_err("lod 9 rejected");
        assert_eq!((bad_lod.field, bad_lod.code), ("lod", "out_of_range"));

        let bad_int =
            ViewRequest::parse(&params(&[("run", "a"), ("page_size", "x")]), SCRIPT, false, true)
                .expect_err("non-integer rejected");
        assert_eq!((bad_int.field, bad_int.code), ("page_size", "bad_int"));

        let bad_section =
            ViewRequest::parse(&params(&[("run", "a"), ("prune", "bogus")]), SCRIPT, false, true)
                .expect_err("unknown section rejected");
        assert_eq!((bad_section.field, bad_section.code), ("prune", "unknown_section"));

        let no_run = ViewRequest::parse(&params(&[]), SCRIPT, false, true)
            .expect_err("missing run rejected");
        assert_eq!((no_run.field, no_run.code), ("run", "missing_run"));

        let one_run = ViewRequest::parse(&params(&[("runs", "a")]), SCRIPT, true, true)
            .expect_err("one-run comparison rejected");
        assert_eq!((one_run.field, one_run.code), ("runs", "missing_runs"));

        let bad_script = ViewRequest::parse(&params(&[("run", "a")]), "{", false, true)
            .expect_err("bad script rejected");
        assert_eq!((bad_script.field, bad_script.code), ("script", "bad_script"));
    }

    #[test]
    fn only_schema_2_is_accepted() {
        let two = params(&[("run", "a"), ("schema", "2")]);
        assert!(ViewRequest::parse(&two, SCRIPT, false, true).is_ok());
        for bad in ["1", "3", "two"] {
            let e =
                ViewRequest::parse(&params(&[("run", "a"), ("schema", bad)]), SCRIPT, false, true)
                    .expect_err("only schema 2 parses");
            assert_eq!((e.field, e.code), ("schema", "unknown_schema"), "{bad}");
            assert!(e.message.ends_with("supported: 2"), "{}", e.message);
        }
    }

    #[test]
    fn cli_simulation_mode_needs_no_run() {
        let r = ViewRequest::parse(&params(&[("lod", "0")]), SCRIPT, false, false)
            .expect("parses without run");
        assert!(r.runs.is_empty());
        assert_eq!(r.policy.lod, 0);
    }
}
