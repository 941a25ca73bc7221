//! Projection views: the hierarchical radial visualization (paper §IV-B).
//!
//! [`build_view`] turns a [`ProjectionSpec`] + [`DataSet`] into a resolved
//! [`ProjectionView`]: concentric rings of visual items with normalized
//! encodings, partition arcs, and bundled link ribbons in the center. The
//! view model is geometry-free (angular spans in turns, values in `[0,1]`);
//! `hrviz-render` turns it into SVG.

use crate::aggregate::{
    group_rows, histogram, radix_order, AggregateCache, AggregateItem, DataKey,
};
use crate::color::{Color, ColorScale};
use crate::columnar::Column;
use crate::dataset::DataSet;
use crate::entity::{AggRule, EntityKind, Field};
use crate::spec::{FilterClause, LevelSpec, PlotKind, ProjectionSpec, RibbonSpec, SpecError};
use rayon::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Min/max scales per (level, encoding), shared across views for fair
/// comparison (paper §IV-B2: "the scale for visual encoding uses the same
/// minimum and maximum values").
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ScaleSet {
    /// Per (level index, encoding name) extents.
    pub encodings: HashMap<(usize, &'static str), (f64, f64)>,
    /// Ribbon size extent.
    pub ribbon_size: Option<(f64, f64)>,
    /// Ribbon color extent.
    pub ribbon_color: Option<(f64, f64)>,
    /// Arc weight extent.
    pub arc_weight: Option<(f64, f64)>,
}

impl ScaleSet {
    /// Merge extents from another scale set (union of ranges).
    pub fn merge(&mut self, other: &ScaleSet) {
        for (k, &(lo, hi)) in &other.encodings {
            let e = self.encodings.entry(*k).or_insert((lo, hi));
            e.0 = e.0.min(lo);
            e.1 = e.1.max(hi);
        }
        let merge_opt = |a: &mut Option<(f64, f64)>, b: Option<(f64, f64)>| {
            if let Some((lo, hi)) = b {
                match a {
                    Some(e) => {
                        e.0 = e.0.min(lo);
                        e.1 = e.1.max(hi);
                    }
                    None => *a = Some((lo, hi)),
                }
            }
        };
        merge_opt(&mut self.ribbon_size, other.ribbon_size);
        merge_opt(&mut self.ribbon_color, other.ribbon_color);
        merge_opt(&mut self.arc_weight, other.arc_weight);
    }
}

fn normalize(v: f64, (lo, hi): (f64, f64)) -> f64 {
    if hi > lo {
        ((v - lo) / (hi - lo)).clamp(0.0, 1.0)
    } else if v != 0.0 {
        1.0
    } else {
        0.0
    }
}

/// Raw (unnormalized) encoding values of an item, for tooltips/reports.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RawValues {
    /// Color metric value.
    pub color: Option<f64>,
    /// Size metric value.
    pub size: Option<f64>,
    /// X metric value.
    pub x: Option<f64>,
    /// Y metric value.
    pub y: Option<f64>,
}

/// One visual item on a ring.
#[derive(Clone, Debug)]
pub struct VisualItem {
    /// Group key (or `[row]`/`[bin]` for individuals/bins).
    pub key: Vec<f64>,
    /// Member row indices in the dataset table of the ring's entity.
    pub rows: Vec<usize>,
    /// Angular span in turns, `[start, end)` ⊂ [0, 1].
    pub span: (f64, f64),
    /// Normalized color value (None when the level has no color encoding).
    pub color: Option<f64>,
    /// Normalized size value.
    pub size: Option<f64>,
    /// Normalized x value.
    pub x: Option<f64>,
    /// Normalized y value.
    pub y: Option<f64>,
    /// Raw values backing the encodings.
    pub raw: RawValues,
    /// Resolved fill color.
    pub fill: Color,
}

/// One ring of the view.
#[derive(Clone, Debug)]
pub struct Ring {
    /// Plot type (inferred from the encoding count).
    pub plot: PlotKind,
    /// Entity kind projected.
    pub entity: EntityKind,
    /// Items in key order.
    pub items: Vec<VisualItem>,
    /// Whether items draw borders.
    pub border: bool,
}

/// A bundled-links ribbon between two ring-0 items.
#[derive(Clone, Debug)]
pub struct Ribbon {
    /// Ring-0 item index of one end.
    pub a: usize,
    /// Ring-0 item index of the other end.
    pub b: usize,
    /// Normalized width.
    pub size: f64,
    /// Raw size-metric total.
    pub raw_size: f64,
    /// Raw color metric (max of the two directions, §IV-B1).
    pub raw_color: f64,
    /// Resolved color.
    pub color: Color,
}

/// A ring-0 partition arc.
#[derive(Clone, Debug)]
pub struct ArcSegment {
    /// Group key of the partition.
    pub key: Vec<f64>,
    /// Angular span in turns.
    pub span: (f64, f64),
    /// Display label.
    pub label: String,
}

/// The resolved projection view.
#[derive(Clone, Debug)]
pub struct ProjectionView {
    /// Rings, innermost first (ring 0 also defines the arcs).
    pub rings: Vec<Ring>,
    /// Center ribbons.
    pub ribbons: Vec<Ribbon>,
    /// Partition arcs (one per ring-0 item).
    pub arcs: Vec<ArcSegment>,
}

impl ProjectionView {
    /// The dataset rows behind an item, for detail-view highlighting
    /// (paper §IV-C: selecting a visual aggregate highlights the
    /// corresponding entities).
    pub fn item_rows(&self, ring: usize, item: usize) -> (EntityKind, &[usize]) {
        let r = &self.rings[ring];
        (r.entity, &r.items[item].rows)
    }
}

fn key_bits(key: &[f64]) -> Vec<u64> {
    key.iter().map(|v| v.to_bits()).collect()
}

/// Ring-0 group key (as bits) → ring-0 item index: where a link endpoint
/// lands when ribbons are bundled. Differs from item order when binning
/// merged groups.
type KeyMap = BTreeMap<Vec<u64>, usize>;

/// One level of a view, built once: its items and, per visual encoding,
/// every item's raw metric value.
struct PreparedLevel {
    /// The level's items. A level with no filter and no binning shares
    /// the grouping (and the aggregate cache's allocation) as is.
    items: Arc<Vec<AggregateItem>>,
    /// `(encoding, field, raw value per item)` in [`VMap::entries`] order.
    encodings: Vec<(&'static str, Field, Vec<f64>)>,
}

impl PreparedLevel {
    /// The raw values behind `enc`, when the level maps it.
    fn encoding(&self, enc: &str) -> Option<&[f64]> {
        self.encodings.iter().find(|(e, ..)| *e == enc).map(|(.., values)| values.as_slice())
    }
}

/// Everything one spec needs from one dataset, computed once: the auto
/// scales ([`scales_of`]) and the resolved view ([`resolve`]) are both
/// read off it, so no level is grouped, filtered or binned twice.
struct Prepared {
    levels: Vec<PreparedLevel>,
    /// Raw arc-weight metric per ring-0 item, when arcs are weighted.
    arc_weights: Option<Vec<f64>>,
    /// Bundled ribbons, when the spec draws them.
    ribbons: Option<Vec<RawRibbon>>,
}

/// Optional aggregation memoization: views built over a stored run thread
/// the cache plus the run's [`DataKey`] through every grouping call.
type Cache<'a> = Option<(&'a AggregateCache, DataKey)>;

fn prepare(ds: &DataSet, spec: &ProjectionSpec, cache: Cache) -> Result<Prepared, SpecError> {
    spec.validate()?;
    let mut ring0_keys = None;
    let mut levels = Vec::with_capacity(spec.levels.len());
    for (li, lv) in spec.levels.iter().enumerate() {
        let with_keys = li == 0 && spec.ribbons.is_some();
        let (items, keys) = level_items(ds, lv, cache, with_keys);
        ring0_keys = ring0_keys.or(keys);
        let encodings = lv
            .vmap
            .entries()
            .into_iter()
            .map(|(enc, field)| (enc, field, metrics(ds, lv.entity, field, &items)))
            .collect();
        levels.push(PreparedLevel { items, encodings });
    }
    let ring0 = &levels[0].items;
    let arc_weights = spec.arc_weight.map(|w| metrics(ds, spec.levels[0].entity, w, ring0));
    let ribbons = match (&spec.ribbons, &ring0_keys) {
        (Some(rs), Some(keys)) => Some(bundle_links(ds, spec, rs, keys, cache)),
        _ => None,
    };
    Ok(Prepared { levels, arc_weights, ribbons })
}

/// `field` aggregated over each of `items`.
fn metrics(ds: &DataSet, kind: EntityKind, field: Field, items: &[AggregateItem]) -> Vec<f64> {
    let col = ds.column(kind, field);
    items.iter().map(|it| it.metric_of(field, col)).collect()
}

/// Group, filter and bin one level, plus its [`KeyMap`] when `with_keys`.
fn level_items(
    ds: &DataSet,
    lv: &LevelSpec,
    cache: Cache,
    with_keys: bool,
) -> (Arc<Vec<AggregateItem>>, Option<KeyMap>) {
    // Group the whole table, then strip filtered rows: the grouping (the
    // sort) is the expensive part, so that is what the cache memoizes.
    let grouped = grouped(ds, lv.entity, &lv.aggregate, cache);
    let items = if lv.filter.is_empty() {
        grouped
    } else {
        let clauses: Vec<(&FilterClause, Column)> =
            lv.filter.iter().map(|c| (c, ds.column(lv.entity, c.field))).collect();
        let passes = |r: usize| clauses.iter().all(|(c, col)| c.accepts(col.get(r)));
        let kept = grouped
            .iter()
            .filter_map(|it| {
                let rows: Vec<usize> = it.rows.iter().copied().filter(|&r| passes(r)).collect();
                (!rows.is_empty()).then(|| AggregateItem { key: it.key.clone(), rows })
            })
            .collect();
        Arc::new(kept)
    };
    match lv.max_bins {
        Some(cap) if items.len() > cap => {
            // Bin by the primary metric: size if mapped, else color, else traffic.
            let by = lv
                .vmap
                .size
                .or(lv.vmap.color)
                .filter(|f| f.rule() != AggRule::Key)
                .unwrap_or(Field::Traffic);
            let (bins, of_item) = histogram(&items, &metrics(ds, lv.entity, by, &items), cap);
            let keys = with_keys.then(|| key_map(&items, of_item));
            (Arc::new(bins), keys)
        }
        _ => {
            let keys = with_keys.then(|| key_map(&items, 0..items.len()));
            (items, keys)
        }
    }
}

/// The rows of `kind` grouped by `fields`, through the cache when present.
fn grouped(
    ds: &DataSet,
    kind: EntityKind,
    fields: &[Field],
    cache: Cache,
) -> Arc<Vec<AggregateItem>> {
    match cache {
        Some((c, key)) => c.group_rows(key, ds, kind, fields),
        None => Arc::new(group_rows(ds, kind, fields)),
    }
}

/// Each item's key, mapped to the ring-0 item index it ends up in.
fn key_map(items: &[AggregateItem], of_item: impl IntoIterator<Item = usize>) -> KeyMap {
    let mut map = KeyMap::new();
    for (it, i) in items.iter().zip(of_item) {
        map.insert(key_bits(&it.key), i);
    }
    map
}

/// The auto scales of a prepared view (see [`compute_scales`]).
fn scales_of(p: &Prepared) -> ScaleSet {
    let mut scales = ScaleSet::default();
    for (li, level) in p.levels.iter().enumerate() {
        for (enc, field, values) in &level.encodings {
            let (mut lo, mut hi) = extent(values.iter().copied());
            if values.is_empty() {
                lo = 0.0;
                hi = 0.0;
            }
            // Volume metrics anchor at zero so empty == white.
            if field.rule() == AggRule::Sum {
                lo = lo.min(0.0);
            }
            let e = scales.encodings.entry((li, *enc)).or_insert((lo, hi));
            e.0 = e.0.min(lo);
            e.1 = e.1.max(hi);
        }
    }
    if let Some(bundles) = p.ribbons.as_deref().filter(|b| !b.is_empty()) {
        let (slo, shi) = extent(bundles.iter().map(|b| b.raw_size));
        let (clo, chi) = extent(bundles.iter().map(|b| b.raw_color));
        scales.ribbon_size = Some((slo.min(0.0), shi));
        scales.ribbon_color = Some((clo.min(0.0), chi));
    }
    if let Some(weights) = p.arc_weights.as_deref().filter(|w| !w.is_empty()) {
        let (lo, hi) = extent(weights.iter().copied());
        scales.arc_weight = Some((lo.min(0.0), hi));
    }
    scales
}

/// `(min, max)` of `values`; `(+inf, -inf)` when empty.
fn extent(values: impl Iterator<Item = f64>) -> (f64, f64) {
    values.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| (lo.min(v), hi.max(v)))
}

/// Compute the auto scales a view of `spec` over `ds` would use; merge the
/// results from several datasets for fair cross-run comparison.
pub fn compute_scales(ds: &DataSet, spec: &ProjectionSpec) -> Result<ScaleSet, SpecError> {
    Ok(scales_of(&prepare(ds, spec, None)?))
}

struct RawRibbon {
    a: usize,
    b: usize,
    raw_size: f64,
    raw_color: f64,
}

/// Bundle the ribbon table's links into ribbons between ring-0 items.
///
/// Each row's item at either end is found once per distinct key: the
/// table is grouped by the ring-0 fields and by their `dst_counterpart`s,
/// and each group's key is looked up in `ring0`. The rows that pass the
/// ring-0 filters at both ends, and whose ends are known and differ, are
/// radix-sorted by their (lower, higher) item pair, stably, so each
/// direction of a pair sums its rows in ascending row order from 0.0.
/// Folding the two directions (size `0.0 + s(a,b) + s(b,a)`, color the
/// max of the two, §IV-B1) gives ribbons in pair order.
fn bundle_links(
    ds: &DataSet,
    spec: &ProjectionSpec,
    rs: &RibbonSpec,
    ring0: &KeyMap,
    cache: Cache,
) -> Vec<RawRibbon> {
    let ring0_spec = &spec.levels[0];
    // With no ring-0 key a link end names no item, and with no metric a
    // ribbon has nothing to draw.
    if ring0_spec.aggregate.is_empty() || (rs.size.is_none() && rs.color.is_none()) {
        return Vec::new();
    }
    let dst_fields: Vec<Field> =
        ring0_spec.aggregate.iter().map(|f| f.dst_counterpart().expect("validated")).collect();
    let src = row_ends(ds, rs.entity, &ring0_spec.aggregate, ring0, cache);
    let dst = row_ends(ds, rs.entity, &dst_fields, ring0, cache);
    let col = |f: Field| ds.column(rs.entity, f);
    // Ring-0 filters apply to both endpoints so filtered views bundle
    // only the visible sub-network.
    let filters: Vec<(&FilterClause, Column, Option<Column>)> = ring0_spec
        .filter
        .iter()
        .map(|c| (c, col(c.field), c.field.dst_counterpart().map(col)))
        .collect();
    // The bundled rows, ascending, with their ends and (lower, higher) pair.
    let (mut rows, mut from, mut lo, mut hi) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (row, (&a, &b)) in src.iter().zip(&dst).enumerate() {
        let (Some(a), Some(b)) = (a, b) else { continue };
        if a == b {
            continue; // intra-partition links are not drawn as ribbons
        }
        let ok = filters.iter().all(|(c, src, dst)| {
            c.accepts(src.get(row)) && dst.is_none_or(|d| c.accepts(d.get(row)))
        });
        if ok {
            rows.push(row);
            from.push(a);
            lo.push(a.min(b));
            hi.push(a.max(b));
        }
    }
    let size = rs.size.map(col);
    let color = rs.color.map(col);
    let value = |c: Option<Column>, row: usize| c.map_or(0.0, |c| c.get(row));
    radix_order(&[&lo, &hi], rows.len())
        .chunk_by(|&i, &j| (lo[i], hi[i]) == (lo[j], hi[j]))
        .map(|pair| {
            let (a, b) = (lo[pair[0]], hi[pair[0]]);
            // Directed totals `[a → b, b → a]`, each summed over its rows
            // in row order; a direction with no rows stays 0.0, which
            // leaves the fold's value unchanged.
            let (mut sizes, mut colors) = ([0.0; 2], [0.0; 2]);
            for &i in pair {
                let dir = usize::from(from[i] != a);
                sizes[dir] += value(size, rows[i]);
                colors[dir] += value(color, rows[i]);
            }
            RawRibbon {
                a: a as usize,
                b: b as usize,
                raw_size: 0.0 + sizes[0] + sizes[1],
                raw_color: 0.0f64.max(colors[0]).max(colors[1]),
            }
        })
        .collect()
}

/// Each row of `kind`'s table mapped to the ring-0 item its `fields`
/// key lands in: the table grouped by `fields`, each group's key looked
/// up in `ring0` once.
fn row_ends(
    ds: &DataSet,
    kind: EntityKind,
    fields: &[Field],
    ring0: &KeyMap,
    cache: Cache,
) -> Vec<Option<u32>> {
    let mut ends = vec![None; ds.len(kind)];
    for group in grouped(ds, kind, fields, cache).iter() {
        let Some(&item) = ring0.get(&key_bits(&group.key)) else { continue };
        let item = u32::try_from(item).expect("a ring-0 item index fits a u32 key column");
        for &row in &group.rows {
            ends[row] = Some(item);
        }
    }
    ends
}

fn resolve_color(lv: &LevelSpec, field: Option<Field>, raw: f64, norm: f64, ds: &DataSet) -> Color {
    match field {
        Some(Field::Workload) => {
            // Categorical: palette entry per job, gray for idle/proxy.
            let idx = raw as usize;
            if idx < ds.jobs.len() && idx < lv.colors.len() {
                lv.colors.pick(idx)
            } else if idx < ds.jobs.len() {
                ColorScale::jobs().pick(idx)
            } else {
                Color::rgb(211, 211, 211)
            }
        }
        Some(_) => lv.colors.sample(norm),
        None => Color::rgb(230, 230, 230),
    }
}

/// Build a projection view with automatic scales.
pub fn build_view(ds: &DataSet, spec: &ProjectionSpec) -> Result<ProjectionView, SpecError> {
    build_auto_scaled(ds, spec, None)
}

/// [`build_view`] with aggregation memoized through `cache`: repeat views
/// over the same stored run (same [`DataKey`]) reuse grouped items instead
/// of re-scanning and re-sorting rows.
pub fn build_view_cached(
    ds: &DataSet,
    spec: &ProjectionSpec,
    cache: &AggregateCache,
    key: DataKey,
) -> Result<ProjectionView, SpecError> {
    build_auto_scaled(ds, spec, Some((cache, key)))
}

fn build_auto_scaled(
    ds: &DataSet,
    spec: &ProjectionSpec,
    cache: Cache,
) -> Result<ProjectionView, SpecError> {
    let _span = hrviz_obs::get().span("core/project");
    let prepared = prepare(ds, spec, cache)?;
    Ok(resolve(ds, spec, &prepared, &scales_of(&prepared)))
}

/// Build a projection view using explicit scales (cross-run comparison).
pub fn build_view_scaled(
    ds: &DataSet,
    spec: &ProjectionSpec,
    scales: &ScaleSet,
) -> Result<ProjectionView, SpecError> {
    let _span = hrviz_obs::get().span("core/project");
    Ok(resolve(ds, spec, &prepare(ds, spec, None)?, scales))
}

/// Views of `spec` over several datasets under their merged scales, each
/// dataset prepared once for both (the body of the `compare_views*`
/// entry points).
pub(crate) fn build_views_shared(
    datasets: &[(&DataSet, Cache)],
    spec: &ProjectionSpec,
) -> Result<Vec<ProjectionView>, SpecError> {
    let prepared: Result<Vec<Prepared>, SpecError> =
        datasets.par_iter().map(|(ds, cache)| prepare(ds, spec, *cache)).collect();
    let prepared = prepared?;
    let mut scales = ScaleSet::default();
    for p in &prepared {
        scales.merge(&scales_of(p));
    }
    let jobs: Vec<(&DataSet, &Prepared)> =
        datasets.iter().map(|(ds, _)| *ds).zip(&prepared).collect();
    Ok(jobs
        .par_iter()
        .map(|(ds, p)| {
            let _span = hrviz_obs::get().span("core/project");
            resolve(ds, spec, p, &scales)
        })
        .collect())
}

/// Turn a prepared view into rings, arcs and ribbons under `scales`.
fn resolve(ds: &DataSet, spec: &ProjectionSpec, p: &Prepared, scales: &ScaleSet) -> ProjectionView {
    let ring0 = &p.levels[0].items;

    // --- arcs: ring-0 spans ---
    let lv0 = &spec.levels[0];
    let weights: Vec<f64> = match &p.arc_weights {
        Some(raw) => raw.iter().map(|w| w.max(0.0)).collect(),
        None => vec![1.0; ring0.len()],
    };
    let wsum: f64 = weights.iter().sum();
    let eps = 0.004; // keep zero-weight partitions visible
    let n0 = ring0.len().max(1);
    let mut spans = Vec::with_capacity(n0);
    let mut cursor = 0.0;
    let effective: Vec<f64> = weights
        .iter()
        .map(|&w| if wsum > 0.0 { (w / wsum).max(eps) } else { 1.0 / n0 as f64 })
        .collect();
    let esum: f64 = effective.iter().sum();
    for e in &effective {
        let frac = e / esum.max(f64::MIN_POSITIVE);
        spans.push((cursor, cursor + frac));
        cursor += frac;
    }
    let arcs: Vec<ArcSegment> = ring0
        .iter()
        .zip(&spans)
        .map(|(it, &span)| {
            let label = match (lv0.aggregate.first(), it.key.first()) {
                (Some(Field::Workload), Some(&j)) => ds.job_label(j as u32).to_string(),
                (Some(f), Some(v)) => format!("{f}={v:.0}"),
                _ => String::new(),
            };
            ArcSegment { key: it.key.clone(), span, label }
        })
        .collect();

    // --- rings ---
    let mut rings = Vec::with_capacity(spec.levels.len());
    for (li, (lv, level)) in spec.levels.iter().zip(&p.levels).enumerate() {
        let n = level.items.len().max(1);
        let items: Vec<VisualItem> = level
            .items
            .iter()
            .enumerate()
            .map(|(i, it)| {
                let span = if li == 0 {
                    spans[i]
                } else {
                    (i as f64 / n as f64, (i + 1) as f64 / n as f64)
                };
                let get = |enc: &'static str| -> (Option<f64>, Option<f64>) {
                    match level.encoding(enc) {
                        Some(values) => {
                            let raw = values[i];
                            let ext = scales
                                .encodings
                                .get(&(li, enc))
                                .copied()
                                .unwrap_or((0.0, raw.max(1.0)));
                            (Some(normalize(raw, ext)), Some(raw))
                        }
                        None => (None, None),
                    }
                };
                let (color, raw_color) = get("color");
                let (size, raw_size) = get("size");
                let (x, raw_x) = get("x");
                let (y, raw_y) = get("y");
                let fill = resolve_color(
                    lv,
                    lv.vmap.color,
                    raw_color.unwrap_or(0.0),
                    color.unwrap_or(0.0),
                    ds,
                );
                VisualItem {
                    key: it.key.clone(),
                    rows: it.rows.clone(),
                    span,
                    color,
                    size,
                    x,
                    y,
                    raw: RawValues { color: raw_color, size: raw_size, x: raw_x, y: raw_y },
                    fill,
                }
            })
            .collect();
        rings.push(Ring { plot: lv.vmap.plot_kind(), entity: lv.entity, items, border: lv.border });
    }

    // --- ribbons ---
    let ribbons = match (&spec.ribbons, &p.ribbons) {
        (Some(rs), Some(raw)) => {
            let sext = scales.ribbon_size.unwrap_or((0.0, 1.0));
            let cext = scales.ribbon_color.unwrap_or((0.0, 1.0));
            raw.iter()
                .map(|r| Ribbon {
                    a: r.a,
                    b: r.b,
                    size: normalize(r.raw_size, sext),
                    raw_size: r.raw_size,
                    raw_color: r.raw_color,
                    color: rs.colors.sample(normalize(r.raw_color, cext)),
                })
                .collect()
        }
        _ => Vec::new(),
    };

    ProjectionView { rings, ribbons, arcs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::tests::Gen;
    use crate::dataset::{LinkRow, TerminalRow};
    use crate::spec::LevelSpec;

    /// 2 groups × 2 routers × 2 terminals, with hand-set metrics.
    fn ds() -> DataSet {
        DataSet::from_tables(
            vec!["j0".into(), "j1".into()],
            vec![],
            local_links(),
            global_links(),
            terminals(1.0),
        )
    }

    /// The terminals, saturation scaled by `sat_scale`.
    fn terminals(sat_scale: f64) -> Vec<TerminalRow> {
        (0..8u32)
            .map(|i| TerminalRow {
                terminal: i,
                router: i / 2,
                group: i / 4,
                rank: (i / 2) % 2,
                port: i % 2,
                job: i / 4, // group 0 = job0, group 1 = job1
                data_size: 100.0 * (i + 1) as f64,
                recv_bytes: 0.0,
                busy: 5.0,
                sat: i as f64 * 10.0 * sat_scale,
                packets_finished: 1.0,
                packets_sent: 1.0,
                avg_latency: 1000.0 + i as f64,
                avg_hops: 3.0,
            })
            .collect()
    }

    /// Local links between the two routers of each group.
    fn local_links() -> Vec<LinkRow> {
        let mut links = Vec::new();
        for g in 0..2u32 {
            for (a, b) in [(0u32, 1u32), (1, 0)] {
                links.push(LinkRow {
                    src_router: g * 2 + a,
                    src_group: g,
                    src_rank: a,
                    src_port: b,
                    dst_router: g * 2 + b,
                    dst_group: g,
                    dst_rank: b,
                    dst_port: a,
                    src_job: g,
                    dst_job: g,
                    traffic: 1000.0 * (g + 1) as f64,
                    sat: 50.0 * g as f64,
                });
            }
        }
        links
    }

    /// One global link pair between the groups.
    fn global_links() -> Vec<LinkRow> {
        [(0u32, 1u32), (1, 0)]
            .map(|(sg, dg)| LinkRow {
                src_router: sg * 2,
                src_group: sg,
                src_rank: 0,
                src_port: 0,
                dst_router: dg * 2,
                dst_group: dg,
                dst_rank: 0,
                dst_port: 0,
                src_job: sg,
                dst_job: dg,
                traffic: 5000.0,
                sat: 25.0,
            })
            .to_vec()
    }

    fn group_spec() -> ProjectionSpec {
        ProjectionSpec::new(vec![
            LevelSpec::new(EntityKind::Terminal)
                .aggregate(&[Field::GroupId])
                .color(Field::SatTime)
                .size(Field::DataSize),
            LevelSpec::new(EntityKind::Terminal)
                .aggregate(&[Field::GroupId, Field::RouterRank])
                .color(Field::SatTime),
        ])
        .ribbons(crate::spec::RibbonSpec::new(EntityKind::GlobalLink))
    }

    #[test]
    fn rings_and_arcs_have_expected_shapes() {
        let view = build_view(&ds(), &group_spec()).unwrap();
        assert_eq!(view.rings.len(), 2);
        assert_eq!(view.rings[0].items.len(), 2); // 2 groups
        assert_eq!(view.rings[1].items.len(), 4); // 2 groups × 2 ranks
        assert_eq!(view.arcs.len(), 2);
        // Arcs cover the full circle.
        assert!((view.arcs[0].span.0 - 0.0).abs() < 1e-9);
        assert!((view.arcs[1].span.1 - 1.0).abs() < 1e-9);
        assert_eq!(view.rings[0].plot, PlotKind::Bar);
        assert_eq!(view.rings[1].plot, PlotKind::Heatmap1D);
    }

    #[test]
    fn encodings_are_normalized() {
        let view = build_view(&ds(), &group_spec()).unwrap();
        for ring in &view.rings {
            for item in &ring.items {
                for v in [item.color, item.size, item.x, item.y].into_iter().flatten() {
                    assert!((0.0..=1.0).contains(&v));
                }
            }
        }
        // Group 1 has strictly more saturation: its color must be higher.
        let r0 = &view.rings[0].items;
        assert!(r0[1].color.unwrap() > r0[0].color.unwrap());
        // The max item saturates to 1.0.
        assert_eq!(r0[1].color.unwrap(), 1.0);
    }

    #[test]
    fn ribbons_connect_groups_with_max_color_rule() {
        let view = build_view(&ds(), &group_spec()).unwrap();
        assert_eq!(view.ribbons.len(), 1);
        let r = &view.ribbons[0];
        assert_eq!((r.a, r.b), (0, 1));
        assert_eq!(r.raw_size, 10_000.0); // both directions summed
        assert_eq!(r.raw_color, 25.0); // max of the two directions
    }

    #[test]
    fn filter_restricts_rows_and_ribbons() {
        let spec = ProjectionSpec::new(vec![LevelSpec::new(EntityKind::Terminal)
            .aggregate(&[Field::GroupId])
            .filter(Field::GroupId, 0.0, 0.0)
            .color(Field::SatTime)])
        .ribbons(crate::spec::RibbonSpec::new(EntityKind::GlobalLink));
        let view = build_view(&ds(), &spec).unwrap();
        assert_eq!(view.rings[0].items.len(), 1);
        // Global links cross the filter boundary → no ribbons survive.
        assert!(view.ribbons.is_empty());
    }

    #[test]
    fn max_bins_rebins_and_ribbons_follow() {
        let spec = ProjectionSpec::new(vec![LevelSpec::new(EntityKind::Terminal)
            .aggregate(&[Field::RouterId])
            .max_bins(3)
            .color(Field::DataSize)])
        .ribbons(crate::spec::RibbonSpec::new(EntityKind::LocalLink));
        let view = build_view(&ds(), &spec).unwrap();
        // 4 routers re-binned into ≤3 histogram bins.
        assert!(view.rings[0].items.len() <= 3);
        let total_rows: usize = view.rings[0].items.iter().map(|i| i.rows.len()).sum();
        assert_eq!(total_rows, 8);
    }

    #[test]
    fn workload_color_is_categorical() {
        let spec = ProjectionSpec::new(vec![LevelSpec::new(EntityKind::Terminal)
            .aggregate(&[Field::GroupId])
            .color(Field::Workload)
            .colors(&["green", "orange", "brown"])]);
        let view = build_view(&ds(), &spec).unwrap();
        assert_eq!(view.rings[0].items[0].fill, Color::parse("green").unwrap());
        assert_eq!(view.rings[0].items[1].fill, Color::parse("orange").unwrap());
    }

    #[test]
    fn arc_weight_skews_spans() {
        let spec = ProjectionSpec::new(vec![LevelSpec::new(EntityKind::Terminal)
            .aggregate(&[Field::GroupId])
            .color(Field::SatTime)])
        .arc_weight(Field::DataSize);
        let view = build_view(&ds(), &spec).unwrap();
        let w0 = view.arcs[0].span.1 - view.arcs[0].span.0;
        let w1 = view.arcs[1].span.1 - view.arcs[1].span.0;
        // Group 1 injected more data → wider arc.
        assert!(w1 > w0);
        assert!((w0 + w1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn shared_scales_make_views_comparable() {
        let d1 = ds();
        // Run 2 saturates twice as hard.
        let d2 = DataSet::from_tables(
            d1.jobs.clone(),
            vec![],
            local_links(),
            global_links(),
            terminals(2.0),
        );
        let spec = group_spec();
        let mut scales = compute_scales(&d1, &spec).unwrap();
        scales.merge(&compute_scales(&d2, &spec).unwrap());
        let v1 = build_view_scaled(&d1, &spec, &scales).unwrap();
        let v2 = build_view_scaled(&d2, &spec, &scales).unwrap();
        // Under the shared scale, run 1's max color is half of run 2's.
        let c1 = v1.rings[0].items[1].color.unwrap();
        let c2 = v2.rings[0].items[1].color.unwrap();
        assert!(c2 > c1);
        assert_eq!(c2, 1.0);
        assert!((c1 - 0.5).abs() < 0.01);
    }

    #[test]
    fn item_rows_support_highlighting() {
        let view = build_view(&ds(), &group_spec()).unwrap();
        let (kind, rows) = view.item_rows(0, 0);
        assert_eq!(kind, EntityKind::Terminal);
        assert_eq!(rows, &[0, 1, 2, 3]);
    }

    #[test]
    fn cached_build_matches_uncached_and_hits_on_repeat() {
        let d = ds();
        let spec = group_spec();
        let cache = AggregateCache::new();
        let key = DataKey { run: 42, generation: 1 };
        let plain = build_view(&d, &spec).unwrap();
        let cached = build_view_cached(&d, &spec, &cache, key).unwrap();
        assert_eq!(plain.rings.len(), cached.rings.len());
        for (a, b) in plain.rings.iter().zip(&cached.rings) {
            let ca: Vec<_> = a.items.iter().map(|i| (i.color, i.size, i.span)).collect();
            let cb: Vec<_> = b.items.iter().map(|i| (i.color, i.size, i.span)).collect();
            assert_eq!(ca, cb);
        }
        assert!(cache.misses() > 0);
        let before_hits = cache.hits();
        build_view_cached(&d, &spec, &cache, key).unwrap();
        assert!(cache.hits() > before_hits, "repeat view must hit the cache");
    }

    #[test]
    fn empty_dataset_builds_empty_view() {
        let d = DataSet::from_tables(vec![], vec![], vec![], vec![], vec![]);
        let view = build_view(&d, &group_spec()).unwrap();
        assert!(view.rings[0].items.is_empty());
        assert!(view.ribbons.is_empty());
    }

    /// `bundle_links` before ribbon ends were found per key: a `KeyMap`
    /// lookup per row end and hashed directed totals. Kept as the oracle
    /// for [`bundle_links`].
    fn oracle_bundle_links(
        ds: &DataSet,
        spec: &ProjectionSpec,
        rs: &RibbonSpec,
        ring0: &KeyMap,
    ) -> Vec<RawRibbon> {
        let ring0_spec = &spec.levels[0];
        let col = |f: Field| ds.column(rs.entity, f);
        let src_cols: Vec<Column> = ring0_spec.aggregate.iter().map(|&f| col(f)).collect();
        let dst_cols: Vec<Column> = ring0_spec
            .aggregate
            .iter()
            .map(|f| col(f.dst_counterpart().expect("validated")))
            .collect();
        // Ring-0 filters apply to both endpoints so filtered views bundle
        // only the visible sub-network.
        let filters: Vec<(&FilterClause, Column, Option<Column>)> = ring0_spec
            .filter
            .iter()
            .map(|c| (c, col(c.field), c.field.dst_counterpart().map(col)))
            .collect();
        let size = rs.size.map(col);
        let color = rs.color.map(col);
        // Directed totals between item pairs.
        let mut size_dir: HashMap<(usize, usize), f64> = HashMap::new();
        let mut color_dir: HashMap<(usize, usize), f64> = HashMap::new();
        let (mut src_key, mut dst_key) = (Vec::new(), Vec::new());
        for row in 0..ds.len(rs.entity) {
            let ok = filters.iter().all(|(c, src, dst)| {
                c.accepts(src.get(row)) && dst.is_none_or(|d| c.accepts(d.get(row)))
            });
            if !ok {
                continue;
            }
            src_key.clear();
            src_key.extend(src_cols.iter().map(|c| c.get(row).to_bits()));
            dst_key.clear();
            dst_key.extend(dst_cols.iter().map(|c| c.get(row).to_bits()));
            let (Some(&a), Some(&b)) =
                (ring0.get(src_key.as_slice()), ring0.get(dst_key.as_slice()))
            else {
                continue;
            };
            if a == b {
                continue; // intra-partition links are not drawn as ribbons
            }
            if let Some(c) = size {
                *size_dir.entry((a, b)).or_default() += c.get(row);
            }
            if let Some(c) = color {
                *color_dir.entry((a, b)).or_default() += c.get(row);
            }
        }
        // Fold directions: size = sum, color = max of the two ends (§IV-B1).
        let mut pairs: BTreeMap<(usize, usize), (f64, f64)> = BTreeMap::new();
        for (&(a, b), &s) in &size_dir {
            let k = (a.min(b), a.max(b));
            pairs.entry(k).or_insert((0.0, 0.0)).0 += s;
        }
        for (&(a, b), &c) in &color_dir {
            let k = (a.min(b), a.max(b));
            let e = pairs.entry(k).or_insert((0.0, 0.0));
            e.1 = e.1.max(c);
        }
        pairs
            .into_iter()
            .map(|((a, b), (raw_size, raw_color))| RawRibbon { a, b, raw_size, raw_color })
            .collect()
    }

    /// A metric cell: mostly small values, sometimes −0.0 or NaN.
    fn metric(g: &mut Gen) -> f64 {
        match g.below(10) {
            0 => -0.0,
            1 => f64::NAN,
            _ => g.below(1_000) as f64 * 0.25,
        }
    }

    /// Case `case` of the ribbon check: a generated dataset and a ribbon
    /// spec over it, bundled by the oracle and by [`bundle_links`] (every
    /// other case through an aggregate cache), compared bit for bit.
    fn check_generated_ribbons(g: &mut Gen, case: u64) {
        // Attribute values run a little past the terminals' so some link
        // ends name no ring-0 item.
        let (groups, ranks) = (1 + g.below(5) as u32, 1 + g.below(4) as u32);
        let terminals: Vec<TerminalRow> = (0..g.below(120) as u32)
            .map(|i| TerminalRow {
                terminal: i,
                router: g.below(u64::from(groups * ranks)) as u32,
                group: g.below(u64::from(groups)) as u32,
                rank: g.below(u64::from(ranks)) as u32,
                port: g.below(3) as u32,
                job: g.below(3) as u32,
                data_size: metric(g),
                sat: metric(g),
                ..TerminalRow::default()
            })
            .collect();
        let link = |g: &mut Gen| LinkRow {
            src_router: g.below(u64::from(groups * ranks) + 1) as u32,
            src_group: g.below(u64::from(groups) + 1) as u32,
            src_rank: g.below(u64::from(ranks) + 1) as u32,
            src_port: g.below(4) as u32,
            src_job: g.below(4) as u32,
            dst_router: g.below(u64::from(groups * ranks) + 1) as u32,
            dst_group: g.below(u64::from(groups) + 1) as u32,
            dst_rank: g.below(u64::from(ranks) + 1) as u32,
            dst_port: g.below(4) as u32,
            dst_job: g.below(4) as u32,
            traffic: metric(g),
            sat: metric(g),
        };
        let locals: Vec<LinkRow> = (0..g.below(400)).map(|_| link(g)).collect();
        let globals: Vec<LinkRow> = (0..g.below(400)).map(|_| link(g)).collect();
        let d = DataSet::from_tables(vec![], vec![], locals, globals, terminals);

        const KEYS: [&[Field]; 6] = [
            &[Field::GroupId],
            &[Field::RouterId],
            &[Field::Workload],
            &[Field::GroupId, Field::RouterRank],
            &[Field::RouterRank, Field::RouterPort],
            &[],
        ];
        let mut lv = LevelSpec::new(EntityKind::Terminal)
            .aggregate(KEYS[g.below(KEYS.len() as u64) as usize])
            .color(Field::SatTime)
            .size(Field::DataSize);
        match g.below(4) {
            0 => lv = lv.filter(Field::GroupId, 1.0, g.below(4) as f64),
            1 => lv = lv.filter(Field::Traffic, 10.0, 200.0),
            _ => {}
        }
        if g.below(2) == 0 {
            lv = lv.max_bins(1 + g.below(5) as usize);
        }
        let entity = [EntityKind::LocalLink, EntityKind::GlobalLink][g.below(2) as usize];
        let mut rs = crate::spec::RibbonSpec::new(entity);
        (rs.size, rs.color) = match g.below(4) {
            0 => (Some(Field::Traffic), None),
            1 => (None, Some(Field::SatTime)),
            2 => (None, None),
            _ => (Some(Field::Traffic), Some(Field::SatTime)),
        };
        let spec = ProjectionSpec::new(vec![lv]).ribbons(rs.clone());
        spec.validate().expect("generated specs are valid");

        let (_, keys) = level_items(&d, &spec.levels[0], None, true);
        let keys = keys.expect("ring 0 of a ribbon view maps its keys");
        let cache = AggregateCache::new();
        let cached = (case % 2 == 1).then_some((&cache, DataKey { run: case, generation: 1 }));
        let bits = |ribbons: Vec<RawRibbon>| -> Vec<(usize, usize, u64, u64)> {
            ribbons
                .iter()
                .map(|r| (r.a, r.b, r.raw_size.to_bits(), r.raw_color.to_bits()))
                .collect()
        };
        let old = bits(oracle_bundle_links(&d, &spec, &rs, &keys));
        let new = bits(bundle_links(&d, &spec, &rs, &keys, cached));
        assert_eq!(new, old, "case {case}: {spec:?}");
    }

    #[test]
    fn ribbons_match_the_per_row_oracle_on_generated_datasets() {
        let mut g = Gen(33);
        for case in 0..300 {
            check_generated_ribbons(&mut g, case);
        }
    }

    /// `cargo test --release -p hrviz-core --lib -- --ignored`
    #[test]
    #[ignore = "soak: 20,000 generated datasets"]
    fn ribbon_soak() {
        let mut g = Gen(0x5eed);
        for case in 0..20_000 {
            check_generated_ribbons(&mut g, case);
        }
    }
}
