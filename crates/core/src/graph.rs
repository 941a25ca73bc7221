//! Projection-graph wire contract: LOD-pruned, pageable view graphs.
//!
//! A resolved [`ProjectionView`] is a dense structure — dumping it raw is
//! exactly what breaks at a million terminals. This module flattens it
//! into a *projection graph*: a preorder list of small nodes with stable
//! FNV-derived ids, `$ref` links from parent to child, and a
//! [`RenderPolicy`] that controls level-of-detail, depth, and per-list
//! truncation *before* bytes hit the wire. The envelope around a page
//! carries `schema_version`, a `source_hash` (what data produced the
//! graph), and a `policy_hash` (how it was pruned), so clients and caches
//! can tell two renderings of the same view apart without diffing bodies.
//!
//! Node ids are derived only from the source hash and the node's
//! structural path (`ring/0/item/3`), never from the policy or paging
//! state: walking the same view under different policies or page sizes
//! yields the same ids for the same structures, which is what makes
//! cursors and client-side caches stable. Every `$ref` in a graph
//! resolves to a node in the same graph — pruning removes whole subtrees
//! and records an `omitted` count on the parent instead of leaving
//! dangling references.

use std::fmt::Write as _;

use hrviz_obs::{fingerprint64, Json};

use crate::projection::{ProjectionView, Ribbon, Ring, VisualItem};

/// Current wire schema version for view/compare responses.
pub const SCHEMA_VERSION: u32 = 2;

/// Section names a [`RenderPolicy`] `show`/`prune` filter may reference.
pub const SECTION_NAMES: [&str; 6] =
    ["router", "local_link", "global_link", "terminal", "ribbons", "arcs"];

/// How much of a projection graph to materialize.
///
/// The default policy is full fidelity: every node, every attribute.
/// Interactive clients dial it down (`lod=0` for structure-only skeleton
/// fetches, `max_items_per_list` for overview pages) and refetch deeper
/// slices on demand.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RenderPolicy {
    /// Level of detail: 0 structure only, 1 visual encodings, 2 full
    /// (raw metric values and member row lists).
    pub lod: u8,
    /// Maximum node depth materialized (root is depth 0).
    pub max_depth: u8,
    /// Cap on children per list node (0 = unlimited).
    pub max_items_per_list: usize,
    /// Allowlist of section names (empty = all); see [`SECTION_NAMES`].
    pub show: Vec<String>,
    /// Blocklist of section names, applied after `show`.
    pub prune: Vec<String>,
}

impl Default for RenderPolicy {
    fn default() -> RenderPolicy {
        RenderPolicy { lod: 2, max_depth: 8, max_items_per_list: 0, show: vec![], prune: vec![] }
    }
}

impl RenderPolicy {
    /// Canonical single-line form; the basis of [`RenderPolicy::hash`].
    pub fn canonical(&self) -> String {
        format!(
            "lod={};max_depth={};max_items={};show={};prune={}",
            self.lod,
            self.max_depth,
            self.max_items_per_list,
            self.show.join(","),
            self.prune.join(",")
        )
    }

    /// Stable FNV fingerprint of the policy (the envelope's `policy_hash`).
    pub fn hash(&self) -> u64 {
        fingerprint64(&self.canonical())
    }
}

/// One node of a projection graph, rendered once when the graph is built.
#[derive(Clone, Debug)]
pub struct GraphNode {
    /// Stable id: FNV of the source hash and the structural path.
    pub id: u64,
    /// The node's JSON object, as pages carry it: `id`; `kind` (`view`,
    /// `compare`, `ring`, `item`, `ribbons`, `ribbon`, `arcs` or `arc`);
    /// a human-readable `label` (`ring/0 terminal`); `depth` under the
    /// root (root = 0); `children` as `{"$ref": "<id>"}` links; then
    /// `omitted` (children dropped by the policy's depth, item cap or
    /// filters) and the LOD-dependent `attrs` object, each only when set.
    pub json: String,
}

/// A policy-pruned, pageable flattening of one or more projection views.
#[derive(Clone, Debug)]
pub struct ProjectionGraph {
    /// Wire schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// FNV fingerprint of the producing data (run ids + script).
    pub source_hash: u64,
    /// FNV fingerprint of the applied [`RenderPolicy`].
    pub policy_hash: u64,
    /// Id of the root node (always `nodes[0]`).
    pub root: u64,
    /// All materialized nodes, in deterministic preorder.
    pub nodes: Vec<GraphNode>,
}

impl ProjectionGraph {
    /// Build the graph of a single view.
    pub fn build(
        view: &ProjectionView,
        policy: &RenderPolicy,
        source_hash: u64,
    ) -> ProjectionGraph {
        let mut b = Builder { source: source_hash, policy, nodes: Vec::new(), path: String::new() };
        let root = b.view_node("", "view", "view", 0, view);
        ProjectionGraph {
            schema_version: SCHEMA_VERSION,
            source_hash,
            policy_hash: policy.hash(),
            root,
            nodes: b.nodes,
        }
    }

    /// Build the graph of a labeled comparison (one view node per run
    /// under a `compare` root).
    pub fn build_compare(
        views: &[(&str, &ProjectionView)],
        policy: &RenderPolicy,
        source_hash: u64,
    ) -> ProjectionGraph {
        let mut b = Builder { source: source_hash, policy, nodes: Vec::new(), path: String::new() };
        let idx = b.reserve();
        let mut children = Vec::new();
        let mut omitted = 0usize;
        if policy.max_depth >= 1 {
            for (label, view) in views {
                let prefix = format!("run/{label}/");
                children.push(b.view_node(&prefix, "view", label, 1, view));
            }
        } else {
            omitted = views.len();
        }
        let id = node_id(source_hash, "compare");
        let mut text = NodeText::new(id, "compare", "compare", 0, &children, omitted);
        text.u64("views", views.len() as u64);
        b.nodes[idx] = text.finish();
        ProjectionGraph {
            schema_version: SCHEMA_VERSION,
            source_hash,
            policy_hash: policy.hash(),
            root: id,
            nodes: b.nodes,
        }
    }

    /// Total node count (what paging walks over).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes (never true for built graphs).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Fingerprint binding cursors to this exact graph (source, policy,
    /// and root together).
    pub fn fingerprint(&self) -> u64 {
        fingerprint64(&format!(
            "{:016x}|{:016x}|{:016x}",
            self.source_hash, self.policy_hash, self.root
        ))
    }

    /// The fingerprint a graph built from `source_hash` under `policy`
    /// will have — computable *without* building it. Root ids derive
    /// from the source hash and a fixed path, so cursor validation on
    /// the serve hot path never has to materialize the graph first.
    pub fn expected_fingerprint(source_hash: u64, policy: &RenderPolicy, compare: bool) -> u64 {
        let root = node_id(source_hash, if compare { "compare" } else { "view" });
        fingerprint64(&format!("{:016x}|{:016x}|{:016x}", source_hash, policy.hash(), root))
    }

    /// The nodes of one page: `limit == 0` means "everything from
    /// `offset`". Offsets past the end yield an empty page.
    pub fn page(&self, offset: usize, limit: usize) -> &[GraphNode] {
        let start = offset.min(self.nodes.len());
        let end = if limit == 0 { self.nodes.len() } else { (start + limit).min(self.nodes.len()) };
        &self.nodes[start..end]
    }

    /// Render one page inside the versioned envelope. The caller mints
    /// `next_cursor` (it needs the store generation); pass `None` on the
    /// final page. The page's nodes are spliced in as their pre-rendered
    /// text ([`GraphNode::json`]), not re-encoded.
    pub fn page_to_json(&self, offset: usize, limit: usize, next_cursor: Option<&str>) -> Json {
        let nodes = self.page(offset, limit);
        let mut text =
            String::with_capacity(2 + nodes.iter().map(|n| n.json.len() + 1).sum::<usize>());
        text.push('[');
        for (i, node) in nodes.iter().enumerate() {
            if i > 0 {
                text.push(',');
            }
            text.push_str(&node.json);
        }
        text.push(']');
        Json::obj([
            ("schema_version", Json::U64(u64::from(self.schema_version))),
            ("source_hash", Json::Str(hex16(self.source_hash))),
            ("policy_hash", Json::Str(hex16(self.policy_hash))),
            ("root", Json::Str(hex16(self.root))),
            ("total_nodes", Json::U64(self.nodes.len() as u64)),
            (
                "page",
                Json::obj([
                    ("offset", Json::U64(offset as u64)),
                    ("count", Json::U64(nodes.len() as u64)),
                ]),
            ),
            (
                "next_cursor",
                match next_cursor {
                    Some(tok) => Json::Str(tok.to_string()),
                    None => Json::Null,
                },
            ),
            ("nodes", Json::Raw(text)),
        ])
    }
}

/// 16-hex-digit form used for node ids and hashes on the wire.
pub fn hex16(v: u64) -> String {
    format!("{v:016x}")
}

fn node_id(source: u64, path: &str) -> u64 {
    fingerprint64(&format!("{source:016x}/{path}"))
}

/// Writes one node's JSON object straight into its string, in the key
/// order of the wire contract: the fixed keys first, then `omitted` when
/// set, then the `attrs` object — opened by the first attribute written,
/// so a node without attributes carries no `attrs` key.
struct NodeText {
    node: GraphNode,
    attrs: bool,
}

impl NodeText {
    fn new(
        id: u64,
        kind: &str,
        label: &str,
        depth: u8,
        children: &[u64],
        omitted: usize,
    ) -> NodeText {
        let mut out = String::with_capacity(128 + 30 * children.len());
        let _ = write!(out, "{{\"id\":\"{id:016x}\",\"kind\":");
        Json::write_str(kind, &mut out);
        out.push_str(",\"label\":");
        Json::write_str(label, &mut out);
        let _ = write!(out, ",\"depth\":{depth},\"children\":[");
        for (i, c) in children.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(out, "{sep}{{\"$ref\":\"{c:016x}\"}}");
        }
        out.push(']');
        if omitted > 0 {
            let _ = write!(out, ",\"omitted\":{omitted}");
        }
        NodeText { node: GraphNode { id, json: out }, attrs: false }
    }

    /// Open attribute `key`; the caller appends its value.
    fn key(&mut self, key: &str) -> &mut String {
        let out = &mut self.node.json;
        out.push_str(if self.attrs { ",\"" } else { ",\"attrs\":{\"" });
        self.attrs = true;
        out.push_str(key);
        out.push_str("\":");
        out
    }

    fn u64(&mut self, key: &str, v: u64) {
        let _ = write!(self.key(key), "{v}");
    }

    fn f64(&mut self, key: &str, v: f64) {
        Json::write_f64(v, self.key(key));
    }

    fn opt_f64(&mut self, key: &str, v: Option<f64>) {
        write_opt_f64(v, self.key(key));
    }

    fn f64s(&mut self, key: &str, vs: &[f64]) {
        let out = self.key(key);
        out.push('[');
        for (i, &v) in vs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            Json::write_f64(v, out);
        }
        out.push(']');
    }

    fn str(&mut self, key: &str, v: &str) {
        Json::write_str(v, self.key(key));
    }

    /// Close the object: the node, with its wire form.
    fn finish(mut self) -> GraphNode {
        if self.attrs {
            self.node.json.push('}');
        }
        self.node.json.push('}');
        self.node
    }
}

fn write_opt_f64(v: Option<f64>, out: &mut String) {
    match v {
        Some(x) => Json::write_f64(x, out),
        None => out.push_str("null"),
    }
}

struct Builder<'a> {
    source: u64,
    policy: &'a RenderPolicy,
    nodes: Vec<GraphNode>,
    /// Scratch for [`Builder::id`].
    path: String,
}

impl Builder<'_> {
    /// [`node_id`] of `path`, formatted into a reused buffer.
    fn id(&mut self, path: std::fmt::Arguments) -> u64 {
        self.path.clear();
        let _ = write!(self.path, "{:016x}/{path}", self.source);
        fingerprint64(&self.path)
    }

    /// Reserve the preorder slot of a parent before building its children.
    fn reserve(&mut self) -> usize {
        self.nodes.push(GraphNode { id: 0, json: String::new() });
        self.nodes.len() - 1
    }

    fn keeps(&self, section: &str) -> bool {
        let shown = self.policy.show.is_empty() || self.policy.show.iter().any(|s| s == section);
        shown && !self.policy.prune.iter().any(|s| s == section)
    }

    /// How many of `n` children survive the per-list cap.
    fn cap(&self, n: usize) -> (usize, usize) {
        let m = self.policy.max_items_per_list;
        if m == 0 || n <= m {
            (n, 0)
        } else {
            (m, n - m)
        }
    }

    fn view_node(
        &mut self,
        prefix: &str,
        kind: &'static str,
        label: &str,
        depth: u8,
        view: &ProjectionView,
    ) -> u64 {
        let idx = self.reserve();
        let mut children = Vec::new();
        let mut omitted = 0usize;
        // Sections in fixed order: rings, then ribbons, then arcs.
        let deep_enough = depth < self.policy.max_depth;
        for (i, ring) in view.rings.iter().enumerate() {
            if !self.keeps(ring.entity.name()) {
                omitted += 1;
                continue;
            }
            if !deep_enough {
                omitted += 1;
                continue;
            }
            children.push(self.ring_node(prefix, i, ring, depth + 1));
        }
        if !view.ribbons.is_empty() {
            if self.keeps("ribbons") && deep_enough {
                children.push(self.ribbons_node(prefix, &view.ribbons, depth + 1));
            } else {
                omitted += 1;
            }
        }
        if !view.arcs.is_empty() {
            if self.keeps("arcs") && deep_enough {
                children.push(self.arcs_node(prefix, view, depth + 1));
            } else {
                omitted += 1;
            }
        }
        let id = self.id(format_args!("{prefix}view"));
        let mut text = NodeText::new(id, kind, label, depth, &children, omitted);
        text.u64("rings", view.rings.len() as u64);
        text.u64("ribbons", view.ribbons.len() as u64);
        text.u64("arcs", view.arcs.len() as u64);
        self.nodes[idx] = text.finish();
        id
    }

    fn ring_node(&mut self, prefix: &str, i: usize, ring: &Ring, depth: u8) -> u64 {
        let idx = self.reserve();
        let mut children = Vec::new();
        let mut omitted = 0usize;
        if depth < self.policy.max_depth {
            let (keep, cut) = self.cap(ring.items.len());
            omitted += cut;
            for (j, item) in ring.items.iter().take(keep).enumerate() {
                children.push(self.item_node(prefix, i, j, item, depth + 1));
            }
        } else {
            omitted += ring.items.len();
        }
        let id = self.id(format_args!("{prefix}ring/{i}"));
        let label = format!("ring/{i} {}", ring.entity.name());
        let mut text = NodeText::new(id, "ring", &label, depth, &children, omitted);
        text.u64("items", ring.items.len() as u64);
        if self.policy.lod >= 1 {
            let _ = write!(text.key("plot"), "\"{:?}\"", ring.plot);
            text.str("entity", ring.entity.name());
            text.key("border").push_str(if ring.border { "true" } else { "false" });
        }
        self.nodes[idx] = text.finish();
        id
    }

    fn item_node(
        &mut self,
        prefix: &str,
        ring: usize,
        j: usize,
        item: &VisualItem,
        depth: u8,
    ) -> u64 {
        let id = self.id(format_args!("{prefix}ring/{ring}/item/{j}"));
        let label = format!("item/{j}");
        let mut text = NodeText::new(id, "item", &label, depth, &[], 0);
        if self.policy.lod >= 1 {
            text.f64s("span", &[item.span.0, item.span.1]);
            text.opt_f64("color", item.color);
            text.opt_f64("size", item.size);
            text.opt_f64("x", item.x);
            text.opt_f64("y", item.y);
            let _ = write!(text.key("fill"), "\"{}\"", item.fill);
        }
        if self.policy.lod >= 2 {
            text.f64s("key", &item.key);
            let out = text.key("rows");
            out.push('[');
            for (i, &r) in item.rows.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{r}");
            }
            out.push(']');
            let out = text.key("raw");
            for (k, (name, v)) in [
                ("color", item.raw.color),
                ("size", item.raw.size),
                ("x", item.raw.x),
                ("y", item.raw.y),
            ]
            .into_iter()
            .enumerate()
            {
                out.push_str(if k == 0 { "{\"" } else { ",\"" });
                out.push_str(name);
                out.push_str("\":");
                write_opt_f64(v, out);
            }
            out.push('}');
        }
        self.nodes.push(text.finish());
        id
    }

    fn ribbons_node(&mut self, prefix: &str, ribbons: &[Ribbon], depth: u8) -> u64 {
        let idx = self.reserve();
        let mut children = Vec::new();
        let mut omitted = 0usize;
        if depth < self.policy.max_depth {
            let (keep, cut) = self.cap(ribbons.len());
            omitted += cut;
            for (k, rb) in ribbons.iter().take(keep).enumerate() {
                let id = self.id(format_args!("{prefix}ribbons/{k}"));
                let label = format!("ribbon/{k}");
                let mut text = NodeText::new(id, "ribbon", &label, depth + 1, &[], 0);
                if self.policy.lod >= 1 {
                    text.u64("a", rb.a as u64);
                    text.u64("b", rb.b as u64);
                    text.f64("size", rb.size);
                    let _ = write!(text.key("color"), "\"{}\"", rb.color);
                }
                if self.policy.lod >= 2 {
                    text.f64("raw_size", rb.raw_size);
                    text.f64("raw_color", rb.raw_color);
                }
                self.nodes.push(text.finish());
                children.push(id);
            }
        } else {
            omitted += ribbons.len();
        }
        let id = self.id(format_args!("{prefix}ribbons"));
        let mut text = NodeText::new(id, "ribbons", "ribbons", depth, &children, omitted);
        text.u64("count", ribbons.len() as u64);
        self.nodes[idx] = text.finish();
        id
    }

    fn arcs_node(&mut self, prefix: &str, view: &ProjectionView, depth: u8) -> u64 {
        let idx = self.reserve();
        let mut children = Vec::new();
        let mut omitted = 0usize;
        if depth < self.policy.max_depth {
            let (keep, cut) = self.cap(view.arcs.len());
            omitted += cut;
            for (k, arc) in view.arcs.iter().take(keep).enumerate() {
                let id = self.id(format_args!("{prefix}arcs/{k}"));
                let mut text = NodeText::new(id, "arc", &arc.label, depth + 1, &[], 0);
                if self.policy.lod >= 1 {
                    text.f64s("span", &[arc.span.0, arc.span.1]);
                }
                if self.policy.lod >= 2 {
                    text.f64s("key", &arc.key);
                }
                self.nodes.push(text.finish());
                children.push(id);
            }
        } else {
            omitted += view.arcs.len();
        }
        let id = self.id(format_args!("{prefix}arcs"));
        let mut text = NodeText::new(id, "arcs", "arcs", depth, &children, omitted);
        text.u64("count", view.arcs.len() as u64);
        self.nodes[idx] = text.finish();
        id
    }
}

/// An opaque paging token: which graph it belongs to, which store
/// generation minted it, and the next node offset. The trailing FNV
/// signature rejects tampered or truncated tokens before any field is
/// trusted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cursor {
    /// [`ProjectionGraph::fingerprint`] of the graph being walked.
    pub graph: u64,
    /// Store generation when the cursor was minted.
    pub generation: u64,
    /// Node offset the next page starts at.
    pub offset: u64,
}

/// Why a cursor token was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CursorError {
    /// Not the expected token shape.
    Malformed,
    /// Well-formed but the signature does not match the payload.
    BadSignature,
}

impl std::fmt::Display for CursorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CursorError::Malformed => f.write_str("malformed cursor token"),
            CursorError::BadSignature => f.write_str("cursor signature mismatch"),
        }
    }
}

impl Cursor {
    fn signature(graph: u64, generation: u64, offset: u64) -> u64 {
        fingerprint64(&format!("hrviz-cursor|{graph:016x}|{generation:016x}|{offset:016x}"))
    }

    /// Render the opaque token.
    pub fn encode(&self) -> String {
        let sig = Cursor::signature(self.graph, self.generation, self.offset);
        format!("g{:016x}.{:016x}.{:016x}.{:016x}", self.graph, self.generation, self.offset, sig)
    }

    /// Parse and verify a token.
    pub fn decode(token: &str) -> Result<Cursor, CursorError> {
        let rest = token.strip_prefix('g').ok_or(CursorError::Malformed)?;
        let parts: Vec<&str> = rest.split('.').collect();
        if parts.len() != 4 || parts.iter().any(|p| p.len() != 16) {
            return Err(CursorError::Malformed);
        }
        let field = |s: &str| u64::from_str_radix(s, 16).map_err(|_| CursorError::Malformed);
        let graph = field(parts[0])?;
        let generation = field(parts[1])?;
        let offset = field(parts[2])?;
        let sig = field(parts[3])?;
        if sig != Cursor::signature(graph, generation, offset) {
            return Err(CursorError::BadSignature);
        }
        Ok(Cursor { graph, generation, offset })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DataSet, TerminalRow};
    use crate::projection::build_view;
    use crate::script::parse_script;
    use std::collections::{BTreeMap, BTreeSet};

    /// A node's wire form, parsed back the way a client reads it.
    struct Wire {
        kind: String,
        label: String,
        depth: u64,
        children: Vec<u64>,
        omitted: u64,
        attrs: bool,
    }

    fn wire(n: &GraphNode) -> Wire {
        let j = Json::parse(&n.json).expect("node text parses");
        let text = |k: &str| j.get(k).and_then(Json::as_str).expect(k).to_string();
        assert_eq!(text("id"), hex16(n.id), "the text carries the node's id");
        let children = j.get("children").and_then(Json::as_array).expect("children");
        Wire {
            kind: text("kind"),
            label: text("label"),
            depth: j.get("depth").and_then(Json::as_u64).expect("depth"),
            children: children
                .iter()
                .map(|c| {
                    let id = c.get("$ref").and_then(Json::as_str).expect("$ref link");
                    u64::from_str_radix(id, 16).expect("hex id")
                })
                .collect(),
            omitted: j.get("omitted").and_then(Json::as_u64).unwrap_or(0),
            attrs: j.get("attrs").is_some(),
        }
    }

    fn ds() -> DataSet {
        let terminals = (0..12u32)
            .map(|i| TerminalRow {
                terminal: i,
                router: i / 2,
                group: i / 6,
                rank: i,
                job: 0,
                data_size: f64::from(i) * 64.0,
                sat: f64::from(i % 3),
                packets_finished: 1.0,
                packets_sent: 1.0,
                ..TerminalRow::default()
            })
            .collect();
        DataSet::from_tables(vec!["a".into()], vec![], vec![], vec![], terminals)
    }

    fn view() -> ProjectionView {
        let spec = parse_script(
            r#"{ project: "terminal", aggregate: "router_id",
                 vmap: { color: "sat_time", size: "traffic" } }"#,
        )
        .expect("script parses");
        build_view(&ds(), &spec).expect("view builds")
    }

    #[test]
    fn expected_fingerprint_matches_built_graphs() {
        let v = view();
        let policy = RenderPolicy { lod: 1, max_depth: 3, ..RenderPolicy::default() };
        let g = ProjectionGraph::build(&v, &policy, 7);
        assert_eq!(g.fingerprint(), ProjectionGraph::expected_fingerprint(7, &policy, false));
        let c = ProjectionGraph::build_compare(&[("a", &v), ("b", &v)], &policy, 9);
        assert_eq!(c.fingerprint(), ProjectionGraph::expected_fingerprint(9, &policy, true));
    }

    #[test]
    fn node_ids_are_stable_across_policies_and_rebuilds() {
        let v = view();
        let full = ProjectionGraph::build(&v, &RenderPolicy::default(), 7);
        let again = ProjectionGraph::build(&v, &RenderPolicy::default(), 7);
        assert_eq!(
            full.nodes.iter().map(|n| n.id).collect::<Vec<_>>(),
            again.nodes.iter().map(|n| n.id).collect::<Vec<_>>(),
        );
        let skeleton =
            ProjectionGraph::build(&v, &RenderPolicy { lod: 0, ..RenderPolicy::default() }, 7);
        // Same structures → same ids, regardless of LOD.
        assert_eq!(full.root, skeleton.root);
        assert_eq!(
            full.nodes.iter().map(|n| n.id).collect::<Vec<_>>(),
            skeleton.nodes.iter().map(|n| n.id).collect::<Vec<_>>(),
        );
        // A different source hash moves every id.
        let other = ProjectionGraph::build(&v, &RenderPolicy::default(), 8);
        assert_ne!(full.root, other.root);
    }

    #[test]
    fn every_ref_resolves_within_the_graph() {
        let v = view();
        for policy in [
            RenderPolicy::default(),
            RenderPolicy { max_depth: 1, ..RenderPolicy::default() },
            RenderPolicy { max_items_per_list: 2, ..RenderPolicy::default() },
            RenderPolicy { prune: vec!["arcs".into()], ..RenderPolicy::default() },
            RenderPolicy { show: vec!["terminal".into()], ..RenderPolicy::default() },
        ] {
            let g = ProjectionGraph::build(&v, &policy, 7);
            let ids: BTreeSet<u64> = g.nodes.iter().map(|n| n.id).collect();
            assert_eq!(ids.len(), g.nodes.len(), "ids are unique ({policy:?})");
            for n in &g.nodes {
                for c in &wire(n).children {
                    assert!(ids.contains(c), "dangling $ref under {policy:?}");
                }
            }
        }
    }

    #[test]
    fn policy_prunes_and_truncates_with_omitted_counts() {
        let v = view();
        let full = ProjectionGraph::build(&v, &RenderPolicy::default(), 7);
        let pruned = ProjectionGraph::build(
            &v,
            &RenderPolicy { prune: vec!["arcs".into()], ..RenderPolicy::default() },
            7,
        );
        assert!(pruned.len() < full.len());
        assert!(wire(&pruned.nodes[0]).omitted >= 1, "root records the pruned section");
        assert!(pruned.nodes.iter().map(wire).all(|n| n.kind != "arc" && n.kind != "arcs"));

        let capped = ProjectionGraph::build(
            &v,
            &RenderPolicy { max_items_per_list: 2, ..RenderPolicy::default() },
            7,
        );
        let ring = capped.nodes.iter().map(wire).find(|n| n.kind == "ring").expect("ring node");
        assert_eq!(ring.children.len(), 2);
        assert!(ring.omitted > 0);

        let shallow = ProjectionGraph::build(
            &v,
            &RenderPolicy { max_depth: 0, ..RenderPolicy::default() },
            7,
        );
        assert_eq!(shallow.len(), 1, "depth 0 keeps only the root");
        assert!(wire(&shallow.nodes[0]).omitted > 0);
    }

    #[test]
    fn lod_gates_attribute_payloads() {
        let v = view();
        let lods: Vec<String> = (0u8..=2)
            .map(|lod| {
                ProjectionGraph::build(&v, &RenderPolicy { lod, ..RenderPolicy::default() }, 7)
                    .page_to_json(0, 0, None)
                    .render()
            })
            .collect();
        assert!(lods[0].len() < lods[1].len() && lods[1].len() < lods[2].len());
        assert!(!lods[0].contains("\"fill\""));
        assert!(lods[1].contains("\"fill\"") && !lods[1].contains("\"raw\""));
        assert!(lods[2].contains("\"raw\""));
    }

    #[test]
    fn paging_covers_all_nodes_without_duplicates_or_gaps() {
        let v = view();
        let g = ProjectionGraph::build(&v, &RenderPolicy::default(), 7);
        let full: Vec<u64> = g.nodes.iter().map(|n| n.id).collect();
        let mut walked = Vec::new();
        let mut offset = 0usize;
        loop {
            let page = g.page(offset, 3);
            if page.is_empty() {
                break;
            }
            walked.extend(page.iter().map(|n| n.id));
            offset += page.len();
        }
        assert_eq!(walked, full);
        let body = g.page_to_json(0, 3, Some("tok")).render();
        assert!(body.contains("\"schema_version\":2"), "{body}");
        assert!(body.contains("\"next_cursor\":\"tok\""), "{body}");
        assert!(body.contains("\"total_nodes\""), "{body}");
    }

    #[test]
    fn compare_graphs_nest_one_view_per_run() {
        let v = view();
        let g = ProjectionGraph::build_compare(
            &[("aaaa", &v), ("bbbb", &v)],
            &RenderPolicy::default(),
            7,
        );
        let root = wire(&g.nodes[0]);
        assert_eq!(root.kind, "compare");
        assert_eq!(root.children.len(), 2);
        let views: Vec<(u64, Wire)> =
            g.nodes.iter().map(|n| (n.id, wire(n))).filter(|(_, n)| n.kind == "view").collect();
        assert_eq!(views.len(), 2);
        assert_ne!(views[0].0, views[1].0, "per-run path prefix separates ids");
        assert_eq!(views[0].1.label, "aaaa");
    }

    #[test]
    fn node_text_is_json_that_carries_the_node_structure() {
        // Job names reach arc labels verbatim: quotes, escapes and control
        // characters must come out as JSON string escapes.
        let job = "a \"quoted\" \\ job\n\u{1}";
        let mut d = ds();
        d.jobs = vec![job.into()];
        let spec = parse_script(
            r#"{ project: "terminal", aggregate: "workload",
                 vmap: { color: "sat_time", size: "traffic" } }"#,
        )
        .expect("script parses");
        let v = build_view(&d, &spec).expect("view builds");
        for lod in 0u8..=2 {
            let policy = RenderPolicy { lod, max_items_per_list: 2, ..RenderPolicy::default() };
            for (g, run) in [
                (ProjectionGraph::build(&v, &policy, 7), None),
                (ProjectionGraph::build_compare(&[("x\"y", &v)], &policy, 7), Some("x\"y")),
            ] {
                let nodes: Vec<(u64, Wire)> = g.nodes.iter().map(|n| (n.id, wire(n))).collect();
                // Preorder tree: the root sits at depth 0, every other node
                // is the child of exactly one earlier node, one level down.
                let mut parent_depth: BTreeMap<u64, u64> = BTreeMap::new();
                for (i, (id, n)) in nodes.iter().enumerate() {
                    match parent_depth.remove(id) {
                        Some(d) => assert_eq!(n.depth, d + 1, "{}", n.label),
                        None => assert_eq!((i, n.depth), (0, 0), "only the root is parentless"),
                    }
                    for &c in &n.children {
                        assert!(parent_depth.insert(c, n.depth).is_none(), "one parent per node");
                    }
                    assert!(n.attrs || (lod == 0 && n.children.is_empty()), "{}", n.label);
                }
                assert!(parent_depth.is_empty(), "every child comes after its parent");
                assert!(nodes.iter().any(|(_, n)| n.kind == "arc" && n.label == job));
                if let Some(run) = run {
                    assert!(nodes.iter().any(|(_, n)| n.kind == "view" && n.label == run));
                }
                let page = Json::parse(&g.page_to_json(1, 3, Some("t")).render()).expect("page");
                assert_eq!(page.get("nodes").and_then(Json::as_array).map(<[Json]>::len), Some(3));
            }
        }
    }

    #[test]
    fn cursors_round_trip_and_reject_tampering() {
        let c = Cursor { graph: 0xdead_beef, generation: 42, offset: 128 };
        let tok = c.encode();
        assert_eq!(Cursor::decode(&tok), Ok(c));
        assert_eq!(Cursor::decode("nonsense"), Err(CursorError::Malformed));
        assert_eq!(Cursor::decode(""), Err(CursorError::Malformed));
        // Flip one payload digit: shape survives, signature does not.
        let mut bytes: Vec<char> = tok.chars().collect();
        bytes[5] = if bytes[5] == '0' { '1' } else { '0' };
        let tampered: String = bytes.into_iter().collect();
        assert_eq!(Cursor::decode(&tampered), Err(CursorError::BadSignature));
    }
}
