//! Projection-view specifications (paper §IV-B2, Fig. 4a / Fig. 5).
//!
//! A specification is a stack of levels (rings). Each level *projects* one
//! entity kind, *aggregates* it by attribute fields, optionally *filters*
//! and re-*bins* it, and maps metrics onto visual encodings. The plot type
//! is inferred from the number of encodings (§IV-B2): 1 → 1-D heatmap,
//! 2 → bar chart, 3 → 2-D heatmap, 4 → scatter plot.

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

use crate::color::ColorScale;
use crate::dataset::DataSet;
use crate::entity::{EntityKind, Field};

/// Visual-encoding assignment for one level.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct VMap {
    /// Color encoding.
    pub color: Option<Field>,
    /// Size encoding.
    pub size: Option<Field>,
    /// X (angular) position encoding.
    pub x: Option<Field>,
    /// Y (radial) position encoding.
    pub y: Option<Field>,
}

impl VMap {
    /// Number of active encodings.
    pub fn count(&self) -> usize {
        [self.color, self.size, self.x, self.y].iter().filter(|e| e.is_some()).count()
    }

    /// All (encoding name, field) pairs.
    pub fn entries(&self) -> Vec<(&'static str, Field)> {
        let mut out = Vec::new();
        if let Some(f) = self.color {
            out.push(("color", f));
        }
        if let Some(f) = self.size {
            out.push(("size", f));
        }
        if let Some(f) = self.x {
            out.push(("x", f));
        }
        if let Some(f) = self.y {
            out.push(("y", f));
        }
        out
    }
}

/// Plot type, inferred from the encoding count (§IV-B2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlotKind {
    /// One encoding (color): 1-D heatmap ring.
    Heatmap1D,
    /// Two encodings (color + size): bar-chart ring.
    Bar,
    /// Three encodings (color + x + y): 2-D heatmap ring.
    Heatmap2D,
    /// Four encodings: scatter ring.
    Scatter,
}

impl VMap {
    /// Infer the plot type.
    pub fn plot_kind(&self) -> PlotKind {
        match self.count() {
            0 | 1 => PlotKind::Heatmap1D,
            2 => PlotKind::Bar,
            3 => PlotKind::Heatmap2D,
            _ => PlotKind::Scatter,
        }
    }
}

/// Inclusive range filter on an attribute (Fig. 5b:
/// `filter: { group_id: [0, 8] }`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FilterClause {
    /// Field to test.
    pub field: Field,
    /// Inclusive lower bound.
    pub min: f64,
    /// Inclusive upper bound.
    pub max: f64,
}

impl FilterClause {
    /// Whether `v` passes.
    pub fn accepts(&self, v: f64) -> bool {
        v >= self.min && v <= self.max
    }
}

/// One ring of a projection view.
#[derive(Clone, Debug)]
pub struct LevelSpec {
    /// Entity kind to project.
    pub entity: EntityKind,
    /// Group-by fields (empty = individual entities).
    pub aggregate: Vec<Field>,
    /// Row filters applied before aggregation.
    pub filter: Vec<FilterClause>,
    /// Binned-aggregation cap (`maxBins`, §IV-B3).
    pub max_bins: Option<usize>,
    /// Visual mapping.
    pub vmap: VMap,
    /// Color scale: sequential stops for continuous metrics, palette for
    /// the categorical `workload` field.
    pub colors: ColorScale,
    /// Draw item borders (Fig. 5b sets `border: false`).
    pub border: bool,
}

impl LevelSpec {
    /// A level projecting `entity`, to be refined with builder calls.
    pub fn new(entity: EntityKind) -> LevelSpec {
        LevelSpec {
            entity,
            aggregate: Vec::new(),
            filter: Vec::new(),
            max_bins: None,
            vmap: VMap::default(),
            colors: ColorScale::default_sequential(),
            border: true,
        }
    }

    /// Builder: group-by fields.
    pub fn aggregate(mut self, fields: &[Field]) -> Self {
        self.aggregate = fields.to_vec();
        self
    }

    /// Builder: add a filter clause.
    pub fn filter(mut self, field: Field, min: f64, max: f64) -> Self {
        self.filter.push(FilterClause { field, min, max });
        self
    }

    /// Builder: binned-aggregation cap.
    pub fn max_bins(mut self, cap: usize) -> Self {
        self.max_bins = Some(cap);
        self
    }

    /// Builder: color encoding.
    pub fn color(mut self, f: Field) -> Self {
        self.vmap.color = Some(f);
        self
    }

    /// Builder: size encoding.
    pub fn size(mut self, f: Field) -> Self {
        self.vmap.size = Some(f);
        self
    }

    /// Builder: x encoding.
    pub fn x(mut self, f: Field) -> Self {
        self.vmap.x = Some(f);
        self
    }

    /// Builder: y encoding.
    pub fn y(mut self, f: Field) -> Self {
        self.vmap.y = Some(f);
        self
    }

    /// Builder: color scale from names.
    pub fn colors(mut self, names: &[&str]) -> Self {
        self.colors = ColorScale::from_names(names);
        self
    }

    /// Builder: toggle borders.
    pub fn border(mut self, on: bool) -> Self {
        self.border = on;
        self
    }
}

/// Bundled-link ribbons in the center of the radial view (§IV-B1).
#[derive(Clone, Debug)]
pub struct RibbonSpec {
    /// Which link class to bundle.
    pub entity: EntityKind,
    /// Size (ribbon width) metric — typically traffic.
    pub size: Option<Field>,
    /// Color metric — typically saturation time (the ribbon shows the
    /// maximum of its two ends' aggregate).
    pub color: Option<Field>,
    /// Color scale.
    pub colors: ColorScale,
}

impl RibbonSpec {
    /// Ribbons over `entity` (must be a link kind).
    pub fn new(entity: EntityKind) -> RibbonSpec {
        assert!(entity.is_link(), "ribbons bundle links, got {entity}");
        RibbonSpec {
            entity,
            size: Some(Field::Traffic),
            color: Some(Field::SatTime),
            colors: ColorScale::default_sequential(),
        }
    }

    /// Builder: size metric.
    pub fn size(mut self, f: Field) -> Self {
        self.size = Some(f);
        self
    }

    /// Builder: color metric.
    pub fn color(mut self, f: Field) -> Self {
        self.color = Some(f);
        self
    }

    /// Builder: color scale.
    pub fn colors(mut self, names: &[&str]) -> Self {
        self.colors = ColorScale::from_names(names);
        self
    }
}

/// A full projection-view specification.
#[derive(Clone, Debug)]
pub struct ProjectionSpec {
    /// Rings, innermost first.
    pub levels: Vec<LevelSpec>,
    /// Optional center ribbons, bundled between the first level's groups.
    pub ribbons: Option<RibbonSpec>,
    /// Optional metric weighting the first ring's angular spans (Fig. 13:
    /// arc size ∝ per-job global traffic); equal spans when `None`.
    pub arc_weight: Option<Field>,
}

/// Validation failure for a specification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for SpecError {}

impl ProjectionSpec {
    /// A spec with the given levels and no ribbons.
    pub fn new(levels: Vec<LevelSpec>) -> ProjectionSpec {
        ProjectionSpec { levels, ribbons: None, arc_weight: None }
    }

    /// Builder: ribbons.
    pub fn ribbons(mut self, r: RibbonSpec) -> Self {
        self.ribbons = Some(r);
        self
    }

    /// Builder: arc weighting metric.
    pub fn arc_weight(mut self, f: Field) -> Self {
        self.arc_weight = Some(f);
        self
    }

    /// Check field/entity compatibility before building a view: every
    /// field a level, its filters, its encodings, the arc weights or the
    /// ribbons read must exist on the table it is read from.
    pub fn validate(&self) -> Result<(), SpecError> {
        let Some(ring0) = self.levels.first() else {
            return Err(SpecError("a projection needs at least one level".into()));
        };
        for (i, lv) in self.levels.iter().enumerate() {
            for f in &lv.aggregate {
                if !f.is_attribute() {
                    return Err(SpecError(format!("level {i}: cannot aggregate by metric {f}")));
                }
                if !DataSet::has_field(lv.entity, *f) {
                    return Err(SpecError(format!("level {i}: {} has no field {f}", lv.entity)));
                }
            }
            for c in &lv.filter {
                if !DataSet::has_field(lv.entity, c.field) {
                    return Err(SpecError(format!(
                        "level {i}: {} has no field {} (filter)",
                        lv.entity, c.field
                    )));
                }
            }
            if lv.max_bins == Some(0) {
                return Err(SpecError(format!("level {i}: maxBins must be at least 1")));
            }
            for (enc, f) in lv.vmap.entries() {
                if !DataSet::has_field(lv.entity, f) {
                    return Err(SpecError(format!(
                        "level {i}: {} has no field {f} (vmap.{enc})",
                        lv.entity
                    )));
                }
            }
        }
        if let Some(w) = self.arc_weight {
            if !DataSet::has_field(ring0.entity, w) {
                return Err(SpecError(format!("{} has no field {w} (arc_weight)", ring0.entity)));
            }
        }
        if let Some(r) = &self.ribbons {
            if !r.entity.is_link() {
                return Err(SpecError(format!("ribbons bundle links, got {}", r.entity)));
            }
            for f in &ring0.aggregate {
                let Some(dst) = f.dst_counterpart() else {
                    return Err(SpecError(format!(
                        "ribbons need dst counterparts for ring-0 field {f}"
                    )));
                };
                for g in [*f, dst] {
                    if !DataSet::has_field(r.entity, g) {
                        return Err(SpecError(format!("{} has no field {g} (ribbons)", r.entity)));
                    }
                }
            }
            // Ribbons bundle only links whose ends both pass ring 0's
            // filters, so the link rows must carry each filtered field
            // and its destination-side counterpart.
            for c in &ring0.filter {
                for g in std::iter::once(c.field).chain(c.field.dst_counterpart()) {
                    if !DataSet::has_field(r.entity, g) {
                        return Err(SpecError(format!(
                            "{} has no field {g} (ring-0 filter under ribbons)",
                            r.entity
                        )));
                    }
                }
            }
            for f in [r.size, r.color].into_iter().flatten() {
                if !DataSet::has_field(r.entity, f) {
                    return Err(SpecError(format!("{} has no field {f} (ribbons)", r.entity)));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plot_kind_inference_matches_paper() {
        let mut v = VMap::default();
        assert_eq!(v.plot_kind(), PlotKind::Heatmap1D);
        v.color = Some(Field::SatTime);
        assert_eq!(v.plot_kind(), PlotKind::Heatmap1D);
        v.size = Some(Field::Traffic);
        assert_eq!(v.plot_kind(), PlotKind::Bar);
        v.x = Some(Field::AvgHops);
        assert_eq!(v.plot_kind(), PlotKind::Heatmap2D);
        v.y = Some(Field::DataSize);
        assert_eq!(v.plot_kind(), PlotKind::Scatter);
        assert_eq!(v.count(), 4);
    }

    #[test]
    fn filter_clause_is_inclusive() {
        let c = FilterClause { field: Field::GroupId, min: 0.0, max: 8.0 };
        assert!(c.accepts(0.0));
        assert!(c.accepts(8.0));
        assert!(!c.accepts(8.5));
    }

    #[test]
    fn builder_assembles_fig4_levels() {
        // Fig. 4: global-link bars, terminal heatmap, terminal scatter.
        let spec = ProjectionSpec::new(vec![
            LevelSpec::new(EntityKind::GlobalLink)
                .aggregate(&[Field::RouterRank, Field::RouterPort])
                .color(Field::SatTime)
                .size(Field::Traffic),
            LevelSpec::new(EntityKind::Terminal)
                .aggregate(&[Field::RouterRank, Field::RouterPort])
                .color(Field::BusyTime),
            LevelSpec::new(EntityKind::Terminal)
                .color(Field::Workload)
                .size(Field::AvgLatency)
                .x(Field::AvgHops)
                .y(Field::DataSize)
                .colors(&["green", "orange", "brown"]),
        ])
        .ribbons(RibbonSpec::new(EntityKind::LocalLink));
        assert!(spec.validate().is_ok());
        assert_eq!(spec.levels[0].vmap.plot_kind(), PlotKind::Bar);
        assert_eq!(spec.levels[1].vmap.plot_kind(), PlotKind::Heatmap1D);
        assert_eq!(spec.levels[2].vmap.plot_kind(), PlotKind::Scatter);
    }

    #[test]
    fn validation_rejects_bad_fields() {
        let spec =
            ProjectionSpec::new(vec![LevelSpec::new(EntityKind::Router).color(Field::AvgLatency)]);
        let err = spec.validate().unwrap_err();
        assert!(err.to_string().contains("avg_latency"));

        let spec = ProjectionSpec::new(vec![
            LevelSpec::new(EntityKind::Terminal).aggregate(&[Field::Traffic])
        ]);
        assert!(spec.validate().is_err());

        assert!(ProjectionSpec::new(vec![]).validate().is_err());
    }

    #[test]
    fn validation_rejects_ribbon_fields_without_dst() {
        let spec = ProjectionSpec::new(vec![LevelSpec::new(EntityKind::Terminal)
            .aggregate(&[Field::TerminalId])
            .color(Field::SatTime)])
        .ribbons(RibbonSpec::new(EntityKind::LocalLink));
        let err = spec.validate().unwrap_err();
        assert!(err.to_string().contains("dst counterparts"));
    }

    #[test]
    #[should_panic(expected = "ribbons bundle links")]
    fn ribbons_require_link_entity() {
        RibbonSpec::new(EntityKind::Terminal);
    }

    #[test]
    fn validation_rejects_ribbons_over_a_non_link_table() {
        let spec = ProjectionSpec::new(vec![LevelSpec::new(EntityKind::Router)
            .aggregate(&[Field::GroupId])
            .color(Field::TotalSatTime)])
        .ribbons(RibbonSpec {
            entity: EntityKind::Router,
            size: None,
            color: None,
            colors: ColorScale::default_sequential(),
        });
        let err = spec.validate().unwrap_err();
        assert!(err.to_string().contains("ribbons bundle links, got router"), "{err}");
    }

    #[test]
    fn validation_rejects_ring0_filters_the_ribbon_links_lack() {
        // Routers carry total_traffic, global links do not: bundling would
        // have to read it from every link row.
        let spec = ProjectionSpec::new(vec![LevelSpec::new(EntityKind::Router)
            .aggregate(&[Field::GroupId])
            .filter(Field::TotalTraffic, 0.0, 1e30)
            .color(Field::TotalSatTime)])
        .ribbons(RibbonSpec::new(EntityKind::GlobalLink));
        let err = spec.validate().unwrap_err();
        assert!(err.to_string().contains("global_link has no field total_traffic"), "{err}");
        // A field the links carry, with its dst counterpart, still validates.
        let spec = ProjectionSpec::new(vec![LevelSpec::new(EntityKind::Router)
            .aggregate(&[Field::GroupId])
            .filter(Field::GroupId, 0.0, 8.0)
            .color(Field::TotalSatTime)])
        .ribbons(RibbonSpec::new(EntityKind::GlobalLink));
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn validation_rejects_arc_weights_and_bin_caps_that_cannot_apply() {
        let spec = ProjectionSpec::new(vec![LevelSpec::new(EntityKind::Router)
            .aggregate(&[Field::GroupId])
            .color(Field::TotalSatTime)])
        .arc_weight(Field::AvgLatency);
        let err = spec.validate().unwrap_err();
        assert!(err.to_string().contains("router has no field avg_latency (arc_weight)"), "{err}");
        let spec = ProjectionSpec::new(vec![LevelSpec::new(EntityKind::Terminal)
            .max_bins(0)
            .color(Field::SatTime)]);
        let err = spec.validate().unwrap_err();
        assert!(err.to_string().contains("maxBins must be at least 1"), "{err}");
    }
}
