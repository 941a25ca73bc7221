//! The detail view (paper §IV-C, Fig. 6b): two link scatter plots (traffic
//! vs saturation for global and local links) and a parallel-coordinates
//! plot over all terminal metrics, with highlighting and axis brushing.

use crate::dataset::DataSet;
use crate::entity::{EntityKind, Field};

/// One scatter point, indexed back to its dataset row.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScatterPoint {
    /// Row index in the entity's table.
    pub row: usize,
    /// Raw x value.
    pub x: f64,
    /// Raw y value.
    pub y: f64,
    /// Set by [`DetailView::highlight`].
    pub highlighted: bool,
}

/// A scatter plot over link rows.
#[derive(Clone, Debug)]
pub struct LinkScatter {
    /// Which link table.
    pub entity: EntityKind,
    /// X metric.
    pub x_field: Field,
    /// Y metric.
    pub y_field: Field,
    /// Points.
    pub points: Vec<ScatterPoint>,
    /// X extent (0-anchored).
    pub x_max: f64,
    /// Y extent (0-anchored).
    pub y_max: f64,
}

impl LinkScatter {
    fn new(ds: &DataSet, entity: EntityKind) -> LinkScatter {
        let (x_field, y_field) = (Field::Traffic, Field::SatTime);
        let (xs, ys) = (ds.column(entity, x_field), ds.column(entity, y_field));
        let n = ds.len(entity);
        let mut points = Vec::with_capacity(n);
        let (mut x_max, mut y_max) = (0.0f64, 0.0f64);
        for row in 0..n {
            let (x, y) = (xs.get(row), ys.get(row));
            x_max = x_max.max(x);
            y_max = y_max.max(y);
            points.push(ScatterPoint { row, x, y, highlighted: false });
        }
        LinkScatter { entity, x_field, y_field, points, x_max, y_max }
    }
}

/// The default parallel-coordinate axes over terminals.
pub const PCP_AXES: [Field; 6] = [
    Field::DataSize,
    Field::BusyTime,
    Field::SatTime,
    Field::PacketsFinished,
    Field::AvgHops,
    Field::AvgLatency,
];

/// One parallel-coordinates axis with its extent.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PcpAxis {
    /// Metric on this axis.
    pub field: Field,
    /// Minimum over the rows.
    pub min: f64,
    /// Maximum over the rows.
    pub max: f64,
}

/// One terminal's polyline, normalized per axis.
#[derive(Clone, Debug, PartialEq)]
pub struct PcpLine {
    /// Terminal row index.
    pub row: usize,
    /// Normalized value per axis (same order as `axes`).
    pub values: Vec<f64>,
    /// Set by [`DetailView::highlight`].
    pub highlighted: bool,
}

/// Parallel-coordinates plot over the terminals.
#[derive(Clone, Debug)]
pub struct ParallelCoords {
    /// The axes.
    pub axes: Vec<PcpAxis>,
    /// One line per terminal.
    pub lines: Vec<PcpLine>,
}

impl ParallelCoords {
    fn new(ds: &DataSet) -> ParallelCoords {
        let n = ds.len(EntityKind::Terminal);
        let cols: Vec<_> = PCP_AXES.iter().map(|&f| ds.column(EntityKind::Terminal, f)).collect();
        let axes: Vec<PcpAxis> = PCP_AXES
            .iter()
            .zip(&cols)
            .map(|(&field, col)| {
                let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
                for row in 0..n {
                    let v = col.get(row);
                    min = min.min(v);
                    max = max.max(v);
                }
                if n == 0 {
                    (min, max) = (0.0, 0.0);
                }
                PcpAxis { field, min, max }
            })
            .collect();
        let lines = (0..n)
            .map(|row| {
                let values = axes
                    .iter()
                    .zip(&cols)
                    .map(|(a, col)| {
                        let v = col.get(row);
                        if a.max > a.min {
                            (v - a.min) / (a.max - a.min)
                        } else {
                            0.0
                        }
                    })
                    .collect();
                PcpLine { row, values, highlighted: false }
            })
            .collect();
        ParallelCoords { axes, lines }
    }
}

/// The full detail view.
#[derive(Clone, Debug)]
pub struct DetailView {
    /// Global-link traffic/saturation scatter.
    pub global_links: LinkScatter,
    /// Local-link traffic/saturation scatter.
    pub local_links: LinkScatter,
    /// Terminal parallel coordinates.
    pub terminals: ParallelCoords,
}

impl DetailView {
    /// Build from a dataset.
    pub fn new(ds: &DataSet) -> DetailView {
        DetailView {
            global_links: LinkScatter::new(ds, EntityKind::GlobalLink),
            local_links: LinkScatter::new(ds, EntityKind::LocalLink),
            terminals: ParallelCoords::new(ds),
        }
    }

    /// Highlight the entities behind a selected projection aggregate
    /// (paper §IV-C: "selecting a visual aggregate in the projection view
    /// highlights the corresponding entities in the detail view").
    pub fn highlight(&mut self, entity: EntityKind, rows: &[usize]) {
        let set: std::collections::HashSet<usize> = rows.iter().copied().collect();
        match entity {
            EntityKind::GlobalLink => {
                for p in &mut self.global_links.points {
                    p.highlighted = set.contains(&p.row);
                }
            }
            EntityKind::LocalLink => {
                for p in &mut self.local_links.points {
                    p.highlighted = set.contains(&p.row);
                }
            }
            EntityKind::Terminal => {
                for l in &mut self.terminals.lines {
                    l.highlighted = set.contains(&l.row);
                }
            }
            EntityKind::Router => {}
        }
    }

    /// Clear all highlights.
    pub fn clear_highlight(&mut self) {
        for p in &mut self.global_links.points {
            p.highlighted = false;
        }
        for p in &mut self.local_links.points {
            p.highlighted = false;
        }
        for l in &mut self.terminals.lines {
            l.highlighted = false;
        }
    }

    /// Count of highlighted terminals.
    pub fn highlighted_terminals(&self) -> usize {
        self.terminals.lines.iter().filter(|l| l.highlighted).count()
    }
}

/// Brush one PCP axis: restrict the dataset to terminals whose `field`
/// lies in `[lo, hi]` (the paper's interactive filtering; the projection
/// view is then rebuilt from the result).
pub fn brush_axis(ds: &DataSet, field: Field, lo: f64, hi: f64) -> DataSet {
    assert!(
        DataSet::has_field(EntityKind::Terminal, field),
        "brushing is over terminal axes; {field} is not one"
    );
    let col = ds.column(EntityKind::Terminal, field);
    ds.filter_terminals(|row| {
        let v = col.get(row);
        v >= lo && v <= hi
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{LinkRow, TerminalRow};

    fn ds() -> DataSet {
        let terminals = (0..4u32)
            .map(|i| TerminalRow {
                terminal: i,
                router: i / 2,
                group: 0,
                rank: i / 2,
                port: i % 2,
                job: 0,
                data_size: (i + 1) as f64,
                recv_bytes: 0.0,
                busy: (i + 1) as f64 * 2.0,
                sat: 0.0,
                packets_finished: 1.0,
                packets_sent: 1.0,
                avg_latency: 100.0 * (i + 1) as f64,
                avg_hops: 2.0,
            })
            .collect();
        let global = LinkRow {
            src_router: 0,
            src_group: 0,
            src_rank: 0,
            src_port: 0,
            dst_router: 1,
            dst_group: 1,
            dst_rank: 0,
            dst_port: 0,
            src_job: 0,
            dst_job: 0,
            traffic: 10.0,
            sat: 5.0,
        };
        DataSet::from_tables(vec!["a".into()], vec![], vec![], vec![global], terminals)
    }

    #[test]
    fn scatters_capture_extents() {
        let view = DetailView::new(&ds());
        assert_eq!(view.global_links.points.len(), 1);
        assert_eq!(view.global_links.x_max, 10.0);
        assert_eq!(view.global_links.y_max, 5.0);
        assert!(view.local_links.points.is_empty());
    }

    #[test]
    fn pcp_normalizes_per_axis() {
        let view = DetailView::new(&ds());
        assert_eq!(view.terminals.axes.len(), PCP_AXES.len());
        let lat_axis =
            view.terminals.axes.iter().position(|a| a.field == Field::AvgLatency).unwrap();
        assert_eq!(view.terminals.lines[0].values[lat_axis], 0.0);
        assert_eq!(view.terminals.lines[3].values[lat_axis], 1.0);
        // Constant axes (sat = 0 everywhere) normalize to 0.
        let sat_axis = view.terminals.axes.iter().position(|a| a.field == Field::SatTime).unwrap();
        assert!(view.terminals.lines.iter().all(|l| l.values[sat_axis] == 0.0));
    }

    #[test]
    fn highlight_roundtrip() {
        let mut view = DetailView::new(&ds());
        view.highlight(EntityKind::Terminal, &[1, 3]);
        assert_eq!(view.highlighted_terminals(), 2);
        assert!(view.terminals.lines[1].highlighted);
        assert!(!view.terminals.lines[0].highlighted);
        view.highlight(EntityKind::GlobalLink, &[0]);
        assert!(view.global_links.points[0].highlighted);
        view.clear_highlight();
        assert_eq!(view.highlighted_terminals(), 0);
        assert!(!view.global_links.points[0].highlighted);
    }

    #[test]
    fn brush_axis_filters_terminals() {
        let d = ds();
        let brushed = brush_axis(&d, Field::AvgLatency, 150.0, 350.0);
        assert_eq!(brushed.len(EntityKind::Terminal), 2);
        assert!(brushed.terminal_rows().iter().all(|t| t.avg_latency >= 150.0));
    }

    #[test]
    #[should_panic(expected = "not one")]
    fn brush_rejects_non_terminal_fields() {
        brush_axis(&ds(), Field::DstGroupId, 0.0, 1.0);
    }
}
