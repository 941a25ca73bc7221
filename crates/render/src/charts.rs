//! Cartesian charts: detail-view scatter plots and parallel coordinates
//! (paper Fig. 6b), timeline plots (Fig. 6c / 12), and grouped bar charts
//! (Fig. 13d).

use crate::svg::{format_si, SvgDoc};
use hrviz_core::{Color, ColorScale, DetailView, LinkScatter, TimelineView};

const MARGIN_L: f64 = 56.0;
const MARGIN_B: f64 = 34.0;
const MARGIN_T: f64 = 26.0;
const MARGIN_R: f64 = 14.0;

fn frame(doc: &mut SvgDoc, w: f64, h: f64, title: &str, x_label: &str, y_label: &str) {
    doc.text(w / 2.0, 14.0, 12.0, "middle", title);
    doc.line(MARGIN_L, h - MARGIN_B, w - MARGIN_R, h - MARGIN_B, Color::rgb(60, 60, 60), 1.0, 1.0);
    doc.line(MARGIN_L, MARGIN_T, MARGIN_L, h - MARGIN_B, Color::rgb(60, 60, 60), 1.0, 1.0);
    doc.text(w / 2.0, h - 6.0, 10.0, "middle", x_label);
    doc.text(12.0, MARGIN_T - 8.0, 10.0, "start", y_label);
}

fn x_of(v: f64, max: f64, w: f64) -> f64 {
    MARGIN_L + if max > 0.0 { v / max } else { 0.0 } * (w - MARGIN_L - MARGIN_R)
}

fn y_of(v: f64, max: f64, h: f64) -> f64 {
    (h - MARGIN_B) - if max > 0.0 { v / max } else { 0.0 } * (h - MARGIN_B - MARGIN_T)
}

fn ticks(doc: &mut SvgDoc, w: f64, h: f64, x_max: f64, y_max: f64) {
    for i in 0..=4 {
        let fx = i as f64 / 4.0;
        let xv = x_max * fx;
        let yv = y_max * fx;
        doc.text(x_of(xv, x_max, w), h - MARGIN_B + 12.0, 8.0, "middle", &format_si(xv));
        doc.text(MARGIN_L - 4.0, y_of(yv, y_max, h) + 3.0, 8.0, "end", &format_si(yv));
    }
}

/// Render one link scatter (traffic vs saturation); highlighted points in
/// yellow, as in the paper's Fig. 6.
pub fn render_link_scatter(s: &LinkScatter, w: f64, h: f64, title: &str) -> String {
    let mut doc = SvgDoc::new(w, h);
    frame(&mut doc, w, h, title, "traffic (byte)", "saturation (ns)");
    ticks(&mut doc, w, h, s.x_max, s.y_max);
    doc.open_group(None, Some("points"));
    for p in &s.points {
        let (color, r) = if p.highlighted {
            (Color::rgb(240, 200, 20), 3.2)
        } else {
            (Color::rgb(70, 130, 180), 2.0)
        };
        doc.circle(x_of(p.x, s.x_max, w), y_of(p.y, s.y_max, h), r, color, None);
    }
    doc.close_group();
    doc.finish()
}

/// Render the terminal parallel-coordinates plot.
pub fn render_parallel_coords(d: &DetailView, w: f64, h: f64, title: &str) -> String {
    let pcp = &d.terminals;
    let mut doc = SvgDoc::new(w, h);
    doc.text(w / 2.0, 14.0, 12.0, "middle", title);
    let n = pcp.axes.len().max(2);
    let axis_x = |i: usize| MARGIN_L + i as f64 * (w - MARGIN_L - MARGIN_R) / (n - 1) as f64;
    // Axes.
    for (i, axis) in pcp.axes.iter().enumerate() {
        let x = axis_x(i);
        doc.line(x, MARGIN_T, x, h - MARGIN_B, Color::rgb(120, 120, 120), 1.0, 1.0);
        doc.text(x, h - MARGIN_B + 12.0, 8.0, "middle", axis.field.name());
        doc.text(x, MARGIN_T - 10.0, 7.0, "middle", &format_si(axis.max));
        doc.text(x, h - MARGIN_B + 22.0, 7.0, "middle", &format_si(axis.min));
    }
    // Plain lines first, highlights on top.
    for pass in [false, true] {
        doc.open_group(None, Some(if pass { "pcp-highlight" } else { "pcp" }));
        for line in &pcp.lines {
            if line.highlighted != pass {
                continue;
            }
            let pts: Vec<(f64, f64)> = line
                .values
                .iter()
                .enumerate()
                .map(|(i, v)| (axis_x(i), (h - MARGIN_B) - v * (h - MARGIN_B - MARGIN_T)))
                .collect();
            let (color, width, op) = if pass {
                (Color::rgb(240, 200, 20), 1.4, 0.95)
            } else {
                (Color::rgb(70, 130, 180), 0.6, 0.25)
            };
            doc.polyline(&pts, color, width, op);
        }
        doc.close_group();
    }
    doc.finish()
}

/// Render a timeline view (one stacked panel per series, as the paper's
/// Fig. 12 shows the three applications).
pub fn render_timeline(tl: &TimelineView, w: f64, panel_h: f64, title: &str) -> String {
    let n = tl.series.len().max(1);
    let h = panel_h * n as f64 + 24.0;
    let mut doc = SvgDoc::new(w, h);
    doc.text(w / 2.0, 14.0, 12.0, "middle", title);
    let palette = ColorScale::from_names(&["steelblue", "orange", "green", "purple"]);
    for (si, series) in tl.series.iter().enumerate() {
        let top = 20.0 + si as f64 * panel_h;
        let bottom = top + panel_h - 18.0;
        let max = series.values.iter().cloned().fold(0.0f64, f64::max);
        doc.open_group(None, Some("timeline-panel"));
        doc.text(MARGIN_L, top + 8.0, 9.0, "start", &series.label);
        doc.line(MARGIN_L, bottom, w - MARGIN_R, bottom, Color::rgb(120, 120, 120), 0.8, 1.0);
        let bins = series.values.len().max(1);
        let pts: Vec<(f64, f64)> = series
            .values
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let x = MARGIN_L + (i as f64 + 0.5) / bins as f64 * (w - MARGIN_L - MARGIN_R);
                let y = bottom - if max > 0.0 { v / max } else { 0.0 } * (panel_h - 30.0);
                (x, y)
            })
            .collect();
        doc.polyline(&pts, palette.pick(si), 1.2, 1.0);
        // Selection shading.
        if let Some((from, to)) = tl.selection {
            let x0 = MARGIN_L + from as f64 / bins as f64 * (w - MARGIN_L - MARGIN_R);
            let x1 = MARGIN_L + to as f64 / bins as f64 * (w - MARGIN_L - MARGIN_R);
            doc.rect(
                x0,
                top + 12.0,
                (x1 - x0).max(1.0),
                bottom - top - 12.0,
                Color::rgb(240, 200, 20),
                None,
            );
        }
        doc.text(w - MARGIN_R, top + 8.0, 8.0, "end", &format!("max {}", format_si(max)));
        doc.close_group();
    }
    // Time axis (shared).
    let total = tl.bin_width * tl.num_bins() as u64;
    doc.text(w / 2.0, h - 6.0, 9.0, "middle", &format!("simulated time (0 – {total})"));
    doc.finish()
}

/// One group of bars (e.g. one job) for [`render_grouped_bars`].
#[derive(Clone, Debug)]
pub struct BarGroup {
    /// Group label (x axis).
    pub label: String,
    /// (series label, value) pairs.
    pub values: Vec<(String, f64)>,
}

/// Render a grouped bar chart (paper Fig. 13d: per-job mean packet latency
/// under three placement policies). Like the paper's figure, each group
/// gets its own y scale (its maximum is printed above it) so jobs whose
/// magnitudes differ by orders of magnitude stay readable side by side.
pub fn render_grouped_bars(
    groups: &[BarGroup],
    w: f64,
    h: f64,
    title: &str,
    y_label: &str,
) -> String {
    let mut doc = SvgDoc::new(w, h);
    frame(&mut doc, w, h, title, "", y_label);
    let palette = ColorScale::from_names(&["steelblue", "orange", "green", "purple", "brown"]);
    let gw = (w - MARGIN_L - MARGIN_R) / groups.len().max(1) as f64;
    let series_n = groups.iter().map(|g| g.values.len()).max().unwrap_or(1);
    for (gi, g) in groups.iter().enumerate() {
        let x0 = MARGIN_L + gi as f64 * gw;
        let bw = gw * 0.8 / series_n as f64;
        let y_max = g.values.iter().map(|(_, v)| *v).fold(0.0f64, f64::max);
        for (si, (_, v)) in g.values.iter().enumerate() {
            let x = x0 + gw * 0.1 + si as f64 * bw;
            let y = y_of(*v, y_max, h);
            doc.rect(x, y, bw * 0.92, (h - MARGIN_B) - y, palette.pick(si), None);
        }
        doc.text(x0 + gw / 2.0, h - MARGIN_B + 12.0, 9.0, "middle", &g.label);
        doc.text(
            x0 + gw / 2.0,
            MARGIN_T + 2.0,
            8.0,
            "middle",
            &format!("max {}", format_si(y_max)),
        );
    }
    // Legend from the first group's series labels.
    if let Some(g) = groups.first() {
        for (si, (label, _)) in g.values.iter().enumerate() {
            let x = w - MARGIN_R - 120.0;
            let y = MARGIN_T + si as f64 * 14.0;
            doc.rect(x, y - 8.0, 10.0, 10.0, palette.pick(si), None);
            doc.text(x + 14.0, y, 9.0, "start", label);
        }
    }
    doc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrviz_core::dataset::{LinkRow, TerminalRow};
    use hrviz_core::{DataSet, EntityKind};

    fn detail() -> DetailView {
        let terminals = (0..5u32)
            .map(|i| TerminalRow {
                terminal: i,
                router: i,
                group: 0,
                rank: i,
                port: 0,
                job: 0,
                data_size: i as f64,
                recv_bytes: 0.0,
                busy: 1.0,
                sat: 2.0 * i as f64,
                packets_finished: 1.0,
                packets_sent: 1.0,
                avg_latency: 100.0,
                avg_hops: 3.0,
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
            traffic: 500.0,
            sat: 20.0,
        };
        let d = DataSet::from_tables(vec!["a".into()], vec![], vec![], vec![global], terminals);
        DetailView::new(&d)
    }

    #[test]
    fn scatter_renders_points_and_axes() {
        let d = detail();
        let svg = render_link_scatter(&d.global_links, 300.0, 200.0, "Global links");
        assert!(svg.contains("Global links"));
        assert_eq!(svg.matches("<circle").count(), 1);
        assert!(svg.contains("traffic (byte)"));
        assert!(svg.contains("500")); // tick label for max
    }

    #[test]
    fn highlighted_points_differ() {
        let mut d = detail();
        d.highlight(EntityKind::GlobalLink, &[0]);
        let svg = render_link_scatter(&d.global_links, 300.0, 200.0, "");
        assert!(svg.contains("#f0c814")); // highlight yellow
    }

    #[test]
    fn pcp_renders_axes_and_lines() {
        let mut d = detail();
        d.highlight(EntityKind::Terminal, &[2]);
        let svg = render_parallel_coords(&d, 500.0, 240.0, "terminals");
        assert_eq!(svg.matches("<polyline").count(), 5);
        assert!(svg.contains("avg_latency"));
        assert!(svg.contains("pcp-highlight"));
    }

    #[test]
    fn timeline_renders_panels_and_selection() {
        let tl = TimelineView {
            bin_width: hrviz_pdes::SimTime::micros(1),
            series: vec![
                hrviz_core::TimelineSeries { label: "local".into(), values: vec![1.0, 5.0, 2.0] },
                hrviz_core::TimelineSeries { label: "global".into(), values: vec![0.0, 1.0, 0.0] },
            ],
            selection: Some((1, 2)),
        };
        let svg = render_timeline(&tl, 400.0, 90.0, "traffic");
        assert_eq!(svg.matches("timeline-panel").count(), 2);
        assert!(svg.contains("local"));
        assert!(svg.contains("<rect"), "selection shading present");
        assert!(svg.contains("simulated time"));
    }

    #[test]
    fn grouped_bars_render_all_series() {
        let groups = vec![
            BarGroup {
                label: "AMG".into(),
                values: vec![("rg".into(), 54.0), ("rr".into(), 40.0), ("hy".into(), 48.0)],
            },
            BarGroup {
                label: "MiniFE".into(),
                values: vec![("rg".into(), 1300.0), ("rr".into(), 1290.0), ("hy".into(), 1240.0)],
            },
        ];
        let svg = render_grouped_bars(&groups, 420.0, 240.0, "Fig 13d", "avg latency (us)");
        // 6 bars + 3 legend swatches + background.
        assert_eq!(svg.matches("<rect").count(), 1 + 6 + 3);
        assert!(svg.contains("AMG"));
        assert!(svg.contains("avg latency (us)"));
    }
}
