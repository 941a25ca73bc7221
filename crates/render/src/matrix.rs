//! Router-to-router matrix views.
//!
//! §IV-B1 argues the ribbon encoding "has advantage over the matrix views,
//! which are common visualizations used for performance and communication
//! data" because one ribbon can carry both traffic (size) and saturation
//! (color). This module implements that baseline so the comparison is
//! reproducible: a heatmap matrix of aggregated link metrics, one cell per
//! (source key, destination key) pair — necessarily one matrix per metric.

use crate::svg::{format_si, SvgDoc};
use hrviz_core::{Color, ColorScale, DataSet, EntityKind, Field, LinkRow};
use std::collections::BTreeMap;

/// A computed matrix view: cells of one aggregated metric between group
/// keys (e.g. router ranks or group ids).
#[derive(Clone, Debug)]
pub struct MatrixView {
    /// Sorted distinct key values (rows = sources, columns = destinations).
    pub keys: Vec<f64>,
    /// Dense row-major cell values (`keys.len()²`).
    pub cells: Vec<f64>,
    /// The aggregated metric.
    pub metric: Field,
    /// The grouping attribute.
    pub by: Field,
}

impl MatrixView {
    /// Aggregate `metric` over links of `entity`, grouped by the
    /// (`by`, `by`'s destination counterpart) pair.
    ///
    /// Returns `None` when the field combination cannot form a matrix:
    /// `entity` is not a link kind, `by` is not a source-side key
    /// attribute, or `metric` is not a link metric.
    pub fn build(ds: &DataSet, entity: EntityKind, by: Field, metric: Field) -> Option<MatrixView> {
        if !matches!(entity, EntityKind::LocalLink | EntityKind::GlobalLink) {
            return None;
        }
        if !matches!(by, Field::GroupId | Field::RouterId | Field::RouterRank | Field::Workload) {
            return None;
        }
        if !matches!(metric, Field::Traffic | Field::SatTime) {
            return None;
        }
        let dst = by.dst_counterpart()?;
        let links = ds.link_rows(entity);
        let key_of = |l: &LinkRow, f: Field| -> f64 {
            match f {
                Field::GroupId => l.src_group as f64,
                Field::RouterId => l.src_router as f64,
                Field::RouterRank => l.src_rank as f64,
                Field::Workload => l.src_job as f64,
                Field::DstGroupId => l.dst_group as f64,
                Field::DstRouterId => l.dst_router as f64,
                Field::DstRouterRank => l.dst_rank as f64,
                // Unreachable: `by` is validated above and `dst` is its
                // counterpart, so both are always key attributes.
                _ => l.dst_job as f64,
            }
        };
        let val_of = |l: &LinkRow| -> f64 {
            match metric {
                Field::Traffic => l.traffic,
                // Validated above: metric is Traffic or SatTime.
                _ => l.sat,
            }
        };
        let mut keys: Vec<f64> =
            links.iter().flat_map(|l| [key_of(l, by), key_of(l, dst)]).collect();
        keys.sort_by(f64::total_cmp);
        keys.dedup();
        let index: BTreeMap<u64, usize> =
            keys.iter().enumerate().map(|(i, k)| (k.to_bits(), i)).collect();
        let n = keys.len();
        let mut cells = vec![0.0; n * n];
        for l in &links {
            let r = index.get(&key_of(l, by).to_bits()).copied();
            let c = index.get(&key_of(l, dst).to_bits()).copied();
            // Both lookups always hit: `index` was built from these very
            // links. The guarded form keeps the hot loop panic-free.
            if let (Some(r), Some(c)) = (r, c) {
                if let Some(cell) = cells.get_mut(r * n + c) {
                    *cell += val_of(l);
                }
            }
        }
        Some(MatrixView { keys, cells, metric, by })
    }

    /// Number of rows/columns.
    pub fn size(&self) -> usize {
        self.keys.len()
    }

    /// Cell value (0.0 when out of range).
    pub fn cell(&self, row: usize, col: usize) -> f64 {
        self.cells.get(row * self.size() + col).copied().unwrap_or(0.0)
    }

    /// Maximum cell value.
    pub fn max(&self) -> f64 {
        self.cells.iter().cloned().fold(0.0, f64::max)
    }
}

/// Render a matrix view as an SVG heatmap.
pub fn render_matrix(m: &MatrixView, size_px: f64, title: &str) -> String {
    let margin = 48.0;
    let mut doc = SvgDoc::new(size_px + margin, size_px + margin + 20.0);
    doc.text((size_px + margin) / 2.0, 14.0, 12.0, "middle", title);
    let n = m.size().max(1);
    let cell = size_px / n as f64;
    let max = m.max();
    let scale = ColorScale::from_names(&["white", "purple"]);
    doc.open_group(Some(&format!("translate({margin},24)")), Some("matrix"));
    for r in 0..n {
        for c in 0..n {
            let v = m.cell(r, c);
            let t = if max > 0.0 { v / max } else { 0.0 };
            doc.rect(
                c as f64 * cell,
                r as f64 * cell,
                cell,
                cell,
                scale.sample(t),
                Some((Color::rgb(225, 225, 225), 0.2)),
            );
        }
    }
    doc.close_group();
    // Sparse axis labels.
    let step = (n / 8).max(1);
    for (i, k) in m.keys.iter().enumerate().step_by(step) {
        let pos = 24.0 + (i as f64 + 0.5) * cell;
        doc.text(margin - 4.0, pos + 3.0, 8.0, "end", &format!("{k:.0}"));
        doc.text(
            margin + (i as f64 + 0.5) * cell,
            24.0 + size_px + 10.0,
            8.0,
            "middle",
            &format!("{k:.0}"),
        );
    }
    doc.text(
        (size_px + margin) / 2.0,
        size_px + margin + 14.0,
        9.0,
        "middle",
        &format!("{} by {} (max {})", m.metric, m.by, format_si(m.max())),
    );
    doc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ds() -> DataSet {
        let links = [(0u32, 1u32, 100.0, 5.0), (1, 0, 50.0, 2.0), (0, 2, 25.0, 0.0)].map(
            |(a, b, traffic, sat)| LinkRow {
                src_router: a,
                src_group: 0,
                src_rank: a,
                src_port: b,
                dst_router: b,
                dst_group: 0,
                dst_rank: b,
                dst_port: a,
                src_job: 0,
                dst_job: 0,
                traffic,
                sat,
            },
        );
        DataSet::from_tables(vec![], vec![], links.to_vec(), vec![], vec![])
    }

    #[test]
    fn matrix_aggregates_directed_pairs() {
        let m = MatrixView::build(&ds(), EntityKind::LocalLink, Field::RouterRank, Field::Traffic)
            .expect("link matrix");
        assert_eq!(m.size(), 3);
        assert_eq!(m.cell(0, 1), 100.0);
        assert_eq!(m.cell(1, 0), 50.0);
        assert_eq!(m.cell(0, 2), 25.0);
        assert_eq!(m.cell(2, 0), 0.0);
        assert_eq!(m.max(), 100.0);
    }

    #[test]
    fn separate_matrices_needed_per_metric() {
        // The §IV-B1 argument: traffic and saturation need two matrices,
        // while one ribbon carries both.
        let t = MatrixView::build(&ds(), EntityKind::LocalLink, Field::RouterRank, Field::Traffic)
            .expect("traffic matrix");
        let s = MatrixView::build(&ds(), EntityKind::LocalLink, Field::RouterRank, Field::SatTime)
            .expect("saturation matrix");
        assert_eq!(t.cell(0, 1), 100.0);
        assert_eq!(s.cell(0, 1), 5.0);
    }

    #[test]
    fn svg_renders_all_cells() {
        let m = MatrixView::build(&ds(), EntityKind::LocalLink, Field::RouterRank, Field::Traffic)
            .expect("link matrix");
        let svg = render_matrix(&m, 240.0, "local links");
        assert_eq!(svg.matches("<rect").count(), 1 + 9); // background + 3x3
        assert!(svg.contains("local links"));
        assert!(svg.contains("traffic by router_rank"));
    }

    #[test]
    fn unbuildable_combinations_are_none_not_panics() {
        // Terminals have no link matrix, `Traffic` is not a key, and
        // `GroupId` is not a metric: all refused without unwinding.
        assert!(MatrixView::build(&ds(), EntityKind::Terminal, Field::RouterRank, Field::Traffic)
            .is_none());
        assert!(MatrixView::build(&ds(), EntityKind::LocalLink, Field::Traffic, Field::Traffic)
            .is_none());
        assert!(MatrixView::build(&ds(), EntityKind::LocalLink, Field::RouterRank, Field::GroupId)
            .is_none());
    }
}
