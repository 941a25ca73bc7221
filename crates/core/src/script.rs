//! Parser for projection-view scripts (paper §IV-B3, Fig. 5).
//!
//! The paper's script syntax is JavaScript-object-like, *not* JSON:
//! unquoted keys, trailing commas, single- or double-quoted strings. A
//! script is a comma-separated sequence of level objects:
//!
//! ```text
//! {
//!   filter: { group_id : [0, 8] },
//!   aggregate : "group_id",
//!   project : "router",
//!   vmap : { size : "global_traffic" },
//!   colors : ["white", "purple"]
//! },
//! {
//!   project : "terminal",
//!   aggregate : ["router_rank", "router_port"],
//!   vmap: { color : "workload", size : "data_size" },
//!   colors: ["green", "orange", "brown"],
//!   border: false
//! }
//! ```
//!
//! Extensions beyond the figures: a level may carry a `ribbons` object
//! (`{ project: "local_link", size: "traffic", color: "sat_time" }`) and
//! an `arc_weight` field name; both configure the view center.

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

use crate::entity::{EntityKind, Field};
use crate::spec::{FilterClause, LevelSpec, ProjectionSpec, RibbonSpec, SpecError};

/// A parsed script value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// null / missing.
    Null,
    /// Boolean literal.
    Bool(bool),
    /// Numeric literal.
    Num(f64),
    /// String (quoted or bare word).
    Str(String),
    /// Array.
    Arr(Vec<Value>),
    /// Object (insertion-ordered).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

type PResult<T> = Result<T, SpecError>;

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser { src: src.as_bytes(), pos: 0 }
    }

    fn err(&self, msg: &str) -> SpecError {
        // Report a 1-based line number for the current position.
        let line = 1 + self.src.iter().take(self.pos).filter(|&&c| c == b'\n').count();
        SpecError(format!("script parse error (line {line}): {msg}"))
    }

    /// The byte under the cursor (whitespace included).
    fn at(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    /// Advance past every byte `keep` accepts.
    fn take_while(&mut self, keep: impl Fn(u8) -> bool) {
        while self.at().is_some_and(&keep) {
            self.pos += 1;
        }
    }

    /// The bytes from `start` up to the cursor.
    fn since(&self, start: usize) -> &'a [u8] {
        self.src.get(start..self.pos).unwrap_or_default()
    }

    fn skip_ws(&mut self) {
        loop {
            self.take_while(|c| c.is_ascii_whitespace());
            // Line comments with //.
            if self.src.get(self.pos..).is_some_and(|rest| rest.starts_with(b"//")) {
                self.take_while(|c| c != b'\n');
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.at()
    }

    fn eat(&mut self, c: u8) -> PResult<()> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn eat_if(&mut self, c: u8) -> bool {
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn word(&mut self) -> String {
        let start = self.pos;
        self.take_while(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b'#'));
        String::from_utf8_lossy(self.since(start)).into_owned()
    }

    fn quoted(&mut self, quote: u8) -> PResult<String> {
        self.pos += 1; // opening quote
        let start = self.pos;
        self.take_while(|c| c != quote);
        if self.at().is_none() {
            return Err(self.err("unterminated string"));
        }
        let s = String::from_utf8_lossy(self.since(start)).into_owned();
        self.pos += 1; // closing quote
        Ok(s)
    }

    fn value(&mut self) -> PResult<Value> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.quoted(b'"')?)),
            Some(b'\'') => Ok(Value::Str(self.quoted(b'\'')?)),
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                let start = self.pos;
                self.pos += 1;
                self.take_while(|c| {
                    c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-')
                });
                let text = std::str::from_utf8(self.since(start)).unwrap_or("");
                text.parse::<f64>().map(Value::Num).map_err(|_| self.err("bad number"))
            }
            Some(c) if c.is_ascii_alphabetic() || c == b'_' => {
                let w = self.word();
                Ok(match w.as_str() {
                    "true" => Value::Bool(true),
                    "false" => Value::Bool(false),
                    "null" => Value::Null,
                    _ => Value::Str(w), // bare word = string
                })
            }
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self) -> PResult<Value> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        loop {
            if self.eat_if(b'}') {
                break;
            }
            let key = match self.peek() {
                Some(b'"') => self.quoted(b'"')?,
                Some(b'\'') => self.quoted(b'\'')?,
                Some(c) if c.is_ascii_alphabetic() || c == b'_' => self.word(),
                _ => return Err(self.err("expected an object key")),
            };
            self.eat(b':')?;
            let val = self.value()?;
            pairs.push((key, val));
            if !self.eat_if(b',') {
                self.eat(b'}')?;
                break;
            }
        }
        Ok(Value::Obj(pairs))
    }

    fn array(&mut self) -> PResult<Value> {
        self.items().map(Value::Arr)
    }

    /// The values of a `[...]` list.
    fn items(&mut self) -> PResult<Vec<Value>> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        loop {
            if self.eat_if(b']') {
                break;
            }
            items.push(self.value()?);
            if !self.eat_if(b',') {
                self.eat(b']')?;
                break;
            }
        }
        Ok(items)
    }

    /// Top level: `[obj,...]` or `obj, obj, ...` or a single obj.
    fn script(&mut self) -> PResult<Vec<Value>> {
        let objs = if self.peek() == Some(b'[') { self.items()? } else { self.objects()? };
        self.skip_ws();
        if self.at().is_some() {
            return Err(self.err("trailing garbage after script"));
        }
        Ok(objs)
    }

    /// `obj, obj, ...` with an optional trailing comma.
    fn objects(&mut self) -> PResult<Vec<Value>> {
        let mut objs = Vec::new();
        loop {
            objs.push(self.object()?);
            if !self.eat_if(b',') {
                break;
            }
            if self.peek().is_none() {
                break; // trailing comma
            }
        }
        Ok(objs)
    }
}

/// Parse raw script text into values (exposed for tooling/tests).
pub fn parse_values(src: &str) -> Result<Vec<Value>, SpecError> {
    Parser::new(src).script()
}

fn field_of(v: &Value, ctx: &str) -> Result<Field, SpecError> {
    let s = v.as_str().ok_or_else(|| SpecError(format!("{ctx}: expected a field name string")))?;
    Field::parse(s).ok_or_else(|| SpecError(format!("{ctx}: unknown field {s:?}")))
}

fn fields_of(v: &Value, ctx: &str) -> Result<Vec<Field>, SpecError> {
    match v {
        Value::Arr(items) => items.iter().map(|i| field_of(i, ctx)).collect(),
        other => Ok(vec![field_of(other, ctx)?]),
    }
}

fn colors_of(v: &Value, ctx: &str) -> Result<Vec<String>, SpecError> {
    match v {
        Value::Arr(items) => items
            .iter()
            .map(|i| {
                i.as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| SpecError(format!("{ctx}: colors must be strings")))
            })
            .collect(),
        _ => Err(SpecError(format!("{ctx}: colors must be an array"))),
    }
}

fn decode_level(
    obj: &Value,
    idx: usize,
) -> Result<(LevelSpec, Option<RibbonSpec>, Option<Field>), SpecError> {
    let ctx = format!("level {idx}");
    let entity_name = obj
        .get("project")
        .and_then(Value::as_str)
        .ok_or_else(|| SpecError(format!("{ctx}: missing project")))?;
    let entity = EntityKind::parse(entity_name)
        .ok_or_else(|| SpecError(format!("{ctx}: unknown entity {entity_name:?}")))?;
    let mut level = LevelSpec::new(entity);

    if let Some(v) = obj.get("aggregate") {
        level.aggregate = fields_of(v, &format!("{ctx}.aggregate"))?;
    }
    if let Some(v) = obj.get("filter") {
        let Value::Obj(pairs) = v else {
            return Err(SpecError(format!("{ctx}.filter: expected an object")));
        };
        for (k, clause) in pairs {
            let field = Field::parse(k)
                .ok_or_else(|| SpecError(format!("{ctx}.filter: unknown field {k:?}")))?;
            let bound = |v: &Value| {
                v.as_num().ok_or_else(|| {
                    SpecError(format!("{ctx}.filter.{k}: range bounds must be numbers"))
                })
            };
            let shape = || SpecError(format!("{ctx}.filter.{k}: expected [min, max] or a number"));
            let (min, max) = match clause {
                Value::Num(n) => (*n, *n),
                Value::Arr(range) => match range.as_slice() {
                    [lo, hi] => (bound(lo)?, bound(hi)?),
                    _ => return Err(shape()),
                },
                _ => return Err(shape()),
            };
            level.filter.push(FilterClause { field, min, max });
        }
    }
    if let Some(v) = obj.get("maxBins").or_else(|| obj.get("max_bins")) {
        let n = v.as_num().ok_or_else(|| SpecError(format!("{ctx}.maxBins: expected a number")))?;
        level.max_bins = Some(n as usize);
    }
    if let Some(v) = obj.get("vmap") {
        let Value::Obj(pairs) = v else {
            return Err(SpecError(format!("{ctx}.vmap: expected an object")));
        };
        for (k, fv) in pairs {
            let f = field_of(fv, &format!("{ctx}.vmap.{k}"))?;
            match k.as_str() {
                "color" => level.vmap.color = Some(f),
                "size" => level.vmap.size = Some(f),
                "x" => level.vmap.x = Some(f),
                "y" => level.vmap.y = Some(f),
                other => return Err(SpecError(format!("{ctx}.vmap: unknown encoding {other:?}"))),
            }
        }
    }
    if let Some(v) = obj.get("colors") {
        let names = colors_of(v, &ctx)?;
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        level.colors = crate::color::ColorScale::from_names(&refs);
    }
    if let Some(Value::Bool(b)) = obj.get("border") {
        level.border = *b;
    }

    // Extensions: ribbons + arc weighting, allowed on any level object but
    // conventionally on the first.
    let mut ribbons = None;
    if let Some(r) = obj.get("ribbons") {
        let rctx = format!("{ctx}.ribbons");
        let ent = r
            .get("project")
            .and_then(Value::as_str)
            .and_then(EntityKind::parse)
            .ok_or_else(|| SpecError(format!("{rctx}: missing/unknown project")))?;
        if !ent.is_link() {
            return Err(SpecError(format!("{rctx}: ribbons bundle links, got {ent}")));
        }
        let mut spec = RibbonSpec::new(ent);
        if let Some(v) = r.get("size") {
            spec.size = Some(field_of(v, &rctx)?);
        }
        if let Some(v) = r.get("color") {
            spec.color = Some(field_of(v, &rctx)?);
        }
        if let Some(v) = r.get("colors") {
            let names = colors_of(v, &rctx)?;
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            spec.colors = crate::color::ColorScale::from_names(&refs);
        }
        ribbons = Some(spec);
    }
    let arc_weight = match obj.get("arc_weight") {
        Some(v) => Some(field_of(v, &format!("{ctx}.arc_weight"))?),
        None => None,
    };

    Ok((level, ribbons, arc_weight))
}

/// Parse a complete projection script into a validated [`ProjectionSpec`].
pub fn parse_script(src: &str) -> Result<ProjectionSpec, SpecError> {
    let _span = hrviz_obs::get().span("core/parse_script");
    let objs = parse_values(src)?;
    if objs.is_empty() {
        return Err(SpecError("empty script".into()));
    }
    let mut levels = Vec::with_capacity(objs.len());
    let mut ribbons = None;
    let mut arc_weight = None;
    for (i, obj) in objs.iter().enumerate() {
        let (level, r, aw) = decode_level(obj, i)?;
        levels.push(level);
        ribbons = ribbons.or(r);
        arc_weight = arc_weight.or(aw);
    }
    let spec = ProjectionSpec { levels, ribbons, arc_weight };
    spec.validate()?;
    Ok(spec)
}

/// Serialize a [`ProjectionSpec`] back to script text (the paper's "save
/// the specification for analyzing another dataset or comparing between
/// datasets", §IV-B2). `parse_script(&to_script(&s))` reproduces `s`.
pub fn to_script(spec: &ProjectionSpec) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (i, lv) in spec.levels.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str("{\n");
        let _ = writeln!(out, "  project : \"{}\",", lv.entity.name());
        if !lv.aggregate.is_empty() {
            let fields: Vec<String> =
                lv.aggregate.iter().map(|f| format!("\"{}\"", f.name())).collect();
            let _ = writeln!(out, "  aggregate : [{}],", fields.join(", "));
        }
        if !lv.filter.is_empty() {
            let clauses: Vec<String> = lv
                .filter
                .iter()
                .map(|c| format!("{} : [{}, {}]", c.field.name(), c.min, c.max))
                .collect();
            let _ = writeln!(out, "  filter : {{ {} }},", clauses.join(", "));
        }
        if let Some(cap) = lv.max_bins {
            let _ = writeln!(out, "  maxBins : {cap},");
        }
        let entries = lv.vmap.entries();
        if !entries.is_empty() {
            let maps: Vec<String> =
                entries.iter().map(|(e, f)| format!("{e} : \"{}\"", f.name())).collect();
            let _ = writeln!(out, "  vmap : {{ {} }},", maps.join(", "));
        }
        let stops: Vec<String> =
            (0..lv.colors.len()).map(|k| format!("\"{}\"", lv.colors.pick(k).hex())).collect();
        let _ = writeln!(out, "  colors : [{}],", stops.join(", "));
        if !lv.border {
            out.push_str("  border : false,\n");
        }
        if i == 0 {
            if let Some(r) = &spec.ribbons {
                let mut parts = vec![format!("project : \"{}\"", r.entity.name())];
                if let Some(f) = r.size {
                    parts.push(format!("size : \"{}\"", f.name()));
                }
                if let Some(f) = r.color {
                    parts.push(format!("color : \"{}\"", f.name()));
                }
                let rstops: Vec<String> = (0..r.colors.len())
                    .map(|k| format!("\"{}\"", r.colors.pick(k).hex()))
                    .collect();
                parts.push(format!("colors : [{}]", rstops.join(", ")));
                let _ = writeln!(out, "  ribbons : {{ {} }},", parts.join(", "));
            }
            if let Some(w) = spec.arc_weight {
                let _ = writeln!(out, "  arc_weight : \"{}\",", w.name());
            }
        }
        out.push('}');
    }
    out
}

/// The paper's Fig. 5(a) script, verbatim (with its ribbons made explicit).
pub const FIG5A_SCRIPT: &str = r#"
{
  aggregate : "group_id",
  maxBins : 8,
  project : "global_link",
  vmap : { color : "sat_time", size : "traffic" },
  colors : ["white", "purple"],
  ribbons : { project : "global_link", size : "traffic", color : "sat_time" }
},
{
  project : "router",
  aggregate : "router_rank",
  vmap : { color : "total_sat_time" },
  colors : ["white", "steelblue"],
},
{
  project : "terminal",
  aggregate : ["router_port", "workload"],
  vmap: { color : "workload", size : "avg_hops" },
  colors: ["green", "orange", "brown"],
}
"#;

/// The paper's Fig. 5(b) script, verbatim.
pub const FIG5B_SCRIPT: &str = r#"
{
  filter: { group_id : [0, 8] },
  aggregate : "group_id",
  project : "router",
  vmap : { size : "global_traffic" },
  colors : ["white", "purple"],
  ribbons : { project : "global_link", size : "traffic", color : "sat_time" }
},
{
  project : "local_link",
  aggregate : ["router_rank", "router_port"],
  filter: { group_id : [0, 8] },
  vmap : { color : "traffic", x : "router_rank", y : "router_port" },
  colors : ["white", "steelblue"],
},
{
  project : "terminal",
  aggregate : ["router_rank", "router_port"],
  filter: { group_id : [0, 8] },
  vmap: { color : "workload", size : "data_size", x : "router_rank", y : "router_port" },
  colors: ["green", "orange", "brown"],
  border: false
}
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PlotKind;

    #[test]
    fn parses_bare_words_numbers_strings() {
        let v = parse_values("{ a: foo, b: 3.5, c: 'x', d: \"y\", e: true, f: null }").unwrap();
        let obj = &v[0];
        assert_eq!(obj.get("a"), Some(&Value::Str("foo".into())));
        assert_eq!(obj.get("b"), Some(&Value::Num(3.5)));
        assert_eq!(obj.get("c"), Some(&Value::Str("x".into())));
        assert_eq!(obj.get("d"), Some(&Value::Str("y".into())));
        assert_eq!(obj.get("e"), Some(&Value::Bool(true)));
        assert_eq!(obj.get("f"), Some(&Value::Null));
    }

    #[test]
    fn tolerates_trailing_commas_and_comments() {
        let v = parse_values("{ a: [1, 2, 3,], }, // ring one\n{ b: 2, }").unwrap();
        assert_eq!(v.len(), 2);
        assert_eq!(
            v[0].get("a"),
            Some(&Value::Arr(vec![Value::Num(1.0), Value::Num(2.0), Value::Num(3.0)]))
        );
    }

    #[test]
    fn fig5a_script_parses_to_expected_spec() {
        let spec = parse_script(FIG5A_SCRIPT).unwrap();
        assert_eq!(spec.levels.len(), 3);
        let l0 = &spec.levels[0];
        assert_eq!(l0.entity.name(), "global_link");
        assert_eq!(l0.aggregate, vec![crate::entity::Field::GroupId]);
        assert_eq!(l0.max_bins, Some(8));
        assert_eq!(l0.vmap.plot_kind(), PlotKind::Bar);
        let l2 = &spec.levels[2];
        assert_eq!(l2.aggregate.len(), 2);
        assert!(spec.ribbons.is_some());
    }

    #[test]
    fn fig5b_script_parses_with_filter_and_border() {
        let spec = parse_script(FIG5B_SCRIPT).unwrap();
        assert_eq!(spec.levels.len(), 3);
        let l0 = &spec.levels[0];
        assert_eq!(l0.filter.len(), 1);
        assert_eq!(l0.filter[0].min, 0.0);
        assert_eq!(l0.filter[0].max, 8.0);
        assert_eq!(spec.levels[1].vmap.plot_kind(), PlotKind::Heatmap2D);
        assert_eq!(spec.levels[2].vmap.plot_kind(), PlotKind::Scatter);
        assert!(!spec.levels[2].border);
        assert_eq!(spec.ribbons.as_ref().unwrap().entity.name(), "global_link");
    }

    #[test]
    fn error_reports_line_numbers() {
        let err = parse_script("{ project: \"terminal\" },\n{ project: }").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn unknown_field_and_entity_rejected() {
        let err = parse_script("{ project: \"flux_capacitor\" }").unwrap_err();
        assert!(err.to_string().contains("flux_capacitor"));
        let err = parse_script("{ project: \"terminal\", vmap: { color: \"warp\" } }").unwrap_err();
        assert!(err.to_string().contains("warp"));
        let err =
            parse_script("{ project: \"terminal\", vmap: { sparkle: \"traffic\" } }").unwrap_err();
        assert!(err.to_string().contains("sparkle"));
    }

    #[test]
    fn validation_runs_after_decode() {
        // avg_latency is not a router field: decoder accepts, validator rejects.
        let err =
            parse_script("{ project: \"router\", vmap: { color: \"avg_latency\" } }").unwrap_err();
        assert!(err.to_string().contains("router has no field"));
    }

    #[test]
    fn scalar_filter_becomes_point_range() {
        let spec = parse_script(
            "{ project: \"terminal\", filter: { workload: 2 }, vmap: { color: \"sat_time\" } }",
        )
        .unwrap();
        assert_eq!(spec.levels[0].filter[0].min, 2.0);
        assert_eq!(spec.levels[0].filter[0].max, 2.0);
    }

    #[test]
    fn array_wrapped_script_accepted() {
        let spec =
            parse_script("[ { project: \"terminal\", vmap: { color: \"sat_time\" } } ]").unwrap();
        assert_eq!(spec.levels.len(), 1);
    }

    #[test]
    fn to_script_roundtrips_fig5() {
        for src in [FIG5A_SCRIPT, FIG5B_SCRIPT] {
            let spec = parse_script(src).unwrap();
            let text = to_script(&spec);
            let re = parse_script(&text).unwrap_or_else(|e| panic!("{e}\n--- script:\n{text}"));
            assert_eq!(re.levels.len(), spec.levels.len());
            for (a, b) in re.levels.iter().zip(&spec.levels) {
                assert_eq!(a.entity, b.entity);
                assert_eq!(a.aggregate, b.aggregate);
                assert_eq!(a.filter, b.filter);
                assert_eq!(a.max_bins, b.max_bins);
                assert_eq!(a.vmap, b.vmap);
                assert_eq!(a.border, b.border);
            }
            assert_eq!(re.ribbons.is_some(), spec.ribbons.is_some());
        }
    }

    #[test]
    fn garbage_rejected() {
        assert!(parse_script("").is_err());
        assert!(parse_script("{ project: \"terminal\" } extra").is_err());
        assert!(parse_script("[ { project: \"terminal\" } ] extra").is_err());
        assert!(parse_script("{ project \"terminal\" }").is_err());
        assert!(parse_script("{ 'unterminated: 1 }").is_err());
        // Every prefix of a valid script is an error or a spec, never a panic.
        for end in 0..=FIG5B_SCRIPT.len() {
            if let Some(prefix) = FIG5B_SCRIPT.get(..end) {
                let _ = parse_script(prefix);
            }
        }
    }

    #[test]
    fn hostile_scripts_are_spec_errors() {
        let err = parse_script(
            r#"{ project: "router", aggregate: "group_id", vmap: { color: "total_sat_time" },
                 ribbons: { project: "router" } }"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("ribbons bundle links, got router"), "{err}");
        let err = parse_script(
            r#"{ project: "router", aggregate: "group_id", filter: { total_traffic: [0, 1e30] },
                 vmap: { color: "total_sat_time" }, ribbons: { project: "global_link" } }"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("global_link has no field total_traffic"), "{err}");
        for bad in [
            r#"{ project: "terminal", maxBins: 0, vmap: { color: "sat_time" } }"#,
            r#"{ project: "terminal", maxBins: -3, vmap: { color: "sat_time" } }"#,
            r#"{ project: "router", vmap: { color: "traffic" }, arc_weight: "avg_latency" }"#,
            r#"{ project: "terminal", filter: { group_id: [1, 2, 3] } }"#,
        ] {
            assert!(parse_script(bad).is_err(), "{bad}");
        }
    }
}
