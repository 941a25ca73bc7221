//! Rendering of hierarchical radial projection views (paper Fig. 4c / 5 /
//! 7–11 / 13).
//!
//! Ring bands stack outward from a hollow center that hosts the bundled
//! link ribbons; partition arcs with labels sit outside the last ring.
//! Plot types map to geometry as follows:
//!
//! * 1-D heatmap — the item's full band sector, filled by color.
//! * bar — sector whose radial extent grows with the size encoding.
//! * 2-D heatmap — cell positioned by (x → angle, y → radius), filled.
//! * scatter — dot at (x → angle, y → radius), radius from size.

use crate::svg::{annular_sector, polar, ribbon_path, SvgDoc};
use hrviz_core::{Color, PlotKind, ProjectionView};

/// Geometry/layout options for the radial rendering.
#[derive(Clone, Copy, Debug)]
pub struct RadialLayout {
    /// Total SVG size (the view is square).
    pub size: f64,
    /// Radius of the hollow center (ribbon area).
    pub center_radius: f64,
    /// Radial thickness of each ring band.
    pub ring_width: f64,
    /// Gap between rings.
    pub ring_gap: f64,
    /// Maximum ribbon width in pixels.
    pub max_ribbon_px: f64,
}

impl Default for RadialLayout {
    fn default() -> Self {
        RadialLayout {
            size: 760.0,
            center_radius: 150.0,
            ring_width: 56.0,
            ring_gap: 6.0,
            max_ribbon_px: 26.0,
        }
    }
}

impl RadialLayout {
    /// Inner and outer radius of ring `i`.
    pub fn ring_band(&self, i: usize) -> (f64, f64) {
        let r0 = self.center_radius + i as f64 * (self.ring_width + self.ring_gap);
        (r0, r0 + self.ring_width)
    }
}

/// Render a projection view to SVG.
pub fn render_radial(view: &ProjectionView, layout: &RadialLayout, title: &str) -> String {
    let _span = hrviz_obs::get().span("render/radial");
    let mut doc = SvgDoc::new(layout.size, layout.size + 28.0);
    let c = layout.size / 2.0;
    let cy = c + 24.0;
    if !title.is_empty() {
        doc.text(c, 16.0, 14.0, "middle", title);
    }

    // --- ribbons (painted first, under everything) ---
    doc.open_group(None, Some("ribbons"));
    let ring0_items = view.rings.first().map(|r| r.items.as_slice()).unwrap_or(&[]);
    for rb in &view.ribbons {
        let (Some(a), Some(b)) = (ring0_items.get(rb.a), ring0_items.get(rb.b)) else {
            continue;
        };
        // Ribbon footprint: a slice of each end's span, scaled by size.
        let frac = 0.15 + 0.8 * rb.size;
        let slice = |span: (f64, f64)| {
            let mid = (span.0 + span.1) / 2.0;
            let half = (span.1 - span.0) * 0.5 * frac * 0.9;
            (mid - half, mid + half)
        };
        let d = ribbon_path(c, cy, layout.center_radius - 2.0, slice(a.span), slice(b.span));
        doc.path(&d, Some(rb.color), Some((Color::rgb(120, 120, 120), 0.3)), 0.75);
    }
    doc.close_group();

    // --- rings ---
    for (ri, ring) in view.rings.iter().enumerate() {
        let (r0, r1) = layout.ring_band(ri);
        doc.open_group(None, Some(&format!("ring ring-{ri} {}", ring.entity.name())));
        let stroke = ring.border.then_some((Color::rgb(200, 200, 200), 0.4));
        // Faint band background so empty rings remain visible.
        doc.path(
            &annular_sector(c, cy, r0, r1, 0.0, 0.49999),
            Some(Color::rgb(248, 248, 248)),
            None,
            1.0,
        );
        doc.path(
            &annular_sector(c, cy, r0, r1, 0.5, 0.99999),
            Some(Color::rgb(248, 248, 248)),
            None,
            1.0,
        );
        for item in &ring.items {
            let (a0, a1) = item.span;
            match ring.plot {
                PlotKind::Heatmap1D => {
                    doc.path(&annular_sector(c, cy, r0, r1, a0, a1), Some(item.fill), stroke, 1.0);
                }
                PlotKind::Bar => {
                    let h = item.size.unwrap_or(1.0);
                    let top = r0 + (r1 - r0) * h.max(0.02);
                    doc.path(&annular_sector(c, cy, r0, top, a0, a1), Some(item.fill), stroke, 1.0);
                }
                PlotKind::Heatmap2D => {
                    // x → angle, y → radial cell position within the band.
                    let ang = item.x.unwrap_or((a0 + a1) / 2.0);
                    let yy = item.y.unwrap_or(0.5);
                    let cell_a = 0.5 / ring.items.len().max(8) as f64;
                    let cell_r = (r1 - r0) * 0.22;
                    let rc = r0 + (r1 - r0 - cell_r) * yy;
                    doc.path(
                        &annular_sector(c, cy, rc, rc + cell_r, ang, ang + cell_a),
                        Some(item.fill),
                        stroke,
                        1.0,
                    );
                }
                PlotKind::Scatter => {
                    let ang = item.x.unwrap_or((a0 + a1) / 2.0);
                    let yy = item.y.unwrap_or(0.5);
                    let rr = r0 + (r1 - r0) * yy.clamp(0.02, 0.98);
                    let (px, py) = polar(c, cy, rr, ang);
                    let radius = 1.2 + 3.3 * item.size.unwrap_or(0.3);
                    doc.circle(px, py, radius, item.fill, None);
                }
            }
        }
        doc.close_group();
    }

    // --- partition arcs + labels outside the last ring ---
    if !view.arcs.is_empty() {
        let (_, last_r1) = layout.ring_band(view.rings.len().saturating_sub(1));
        let r0 = last_r1 + 6.0;
        let r1 = r0 + 10.0;
        doc.open_group(None, Some("arcs"));
        for (i, arc) in view.arcs.iter().enumerate() {
            let (a0, a1) = arc.span;
            // Leave a hairline gap between arcs.
            let gap = ((a1 - a0) * 0.02).min(0.002);
            doc.path(
                &annular_sector(c, cy, r0, r1, a0 + gap, a1 - gap),
                Some(Color::rgb(80 + ((i * 37) % 120) as u8, 90, 140)),
                None,
                0.85,
            );
            if !arc.label.is_empty() && (a1 - a0) > 0.01 {
                let (tx, ty) = polar(c, cy, r1 + 10.0, (a0 + a1) / 2.0);
                doc.text(tx, ty, 9.0, "middle", &arc.label);
            }
        }
        doc.close_group();
    }

    doc.finish()
}

/// Render several views side by side with per-view subtitles (the paper's
/// comparison figures, e.g. minimal vs adaptive in Fig. 8/9).
pub fn render_radial_row(
    views: &[(&ProjectionView, &str)],
    layout: &RadialLayout,
    title: &str,
) -> String {
    let n = views.len().max(1) as f64;
    let mut doc = SvgDoc::new(layout.size * n, layout.size + 52.0);
    if !title.is_empty() {
        doc.text(layout.size * n / 2.0, 18.0, 15.0, "middle", title);
    }
    for (i, (view, subtitle)) in views.iter().enumerate() {
        let inner = render_radial(view, layout, subtitle);
        // Embed by stripping the outer <svg> wrapper.
        let body = inner
            .lines()
            .skip(2) // <svg ...> + background rect
            .take_while(|l| !l.starts_with("</svg>"))
            .collect::<Vec<_>>()
            .join("\n");
        doc.open_group(Some(&format!("translate({},26)", i as f64 * layout.size)), None);
        doc.comment(&format!("panel {i}: {subtitle}"));
        push_raw(&mut doc, &body);
        doc.close_group();
    }
    doc.finish()
}

// SvgDoc keeps its body private; append raw markup through a small shim.
fn push_raw(doc: &mut SvgDoc, raw: &str) {
    doc.raw(raw);
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrviz_core::{
        build_view, dataset::TerminalRow, DataSet, EntityKind, Field, LevelSpec, ProjectionSpec,
        RibbonSpec,
    };

    fn view() -> ProjectionView {
        let terminals = (0..8u32)
            .map(|i| TerminalRow {
                terminal: i,
                router: i / 2,
                group: i / 4,
                rank: (i / 2) % 2,
                port: i % 2,
                job: 0,
                data_size: (i + 1) as f64,
                recv_bytes: 0.0,
                busy: 0.0,
                sat: i as f64,
                packets_finished: 1.0,
                packets_sent: 1.0,
                avg_latency: 10.0,
                avg_hops: 3.0,
            })
            .collect();
        let pairs = [(0u32, 1u32), (1, 0), (2, 3), (3, 2), (0, 2), (2, 0)];
        let local_links = pairs
            .map(|(a, b)| hrviz_core::LinkRow {
                src_router: a,
                src_group: a / 2,
                src_rank: a % 2,
                src_port: b % 2,
                dst_router: b,
                dst_group: b / 2,
                dst_rank: b % 2,
                dst_port: a % 2,
                src_job: 0,
                dst_job: 0,
                traffic: 100.0 * (a + b) as f64,
                sat: 10.0,
            })
            .to_vec();
        let d = DataSet::from_tables(vec!["a".into()], vec![], local_links, vec![], terminals);
        let spec = ProjectionSpec::new(vec![
            LevelSpec::new(EntityKind::Terminal).aggregate(&[Field::GroupId]).color(Field::SatTime),
            LevelSpec::new(EntityKind::Terminal)
                .aggregate(&[Field::RouterId])
                .color(Field::SatTime)
                .size(Field::DataSize),
            LevelSpec::new(EntityKind::Terminal)
                .color(Field::SatTime)
                .size(Field::DataSize)
                .x(Field::AvgHops)
                .y(Field::DataSize),
        ])
        .ribbons(RibbonSpec::new(EntityKind::LocalLink));
        build_view(&d, &spec).unwrap()
    }

    #[test]
    fn radial_svg_contains_all_layers() {
        let v = view();
        let svg = render_radial(&v, &RadialLayout::default(), "test view");
        assert!(svg.contains("class=\"ribbons\""));
        assert!(svg.contains("class=\"ring ring-0 terminal\""));
        assert!(svg.contains("class=\"ring ring-2 terminal\""));
        assert!(svg.contains("class=\"arcs\""));
        assert!(svg.contains("test view"));
        // 8 scatter dots on the outer ring.
        assert_eq!(svg.matches("<circle").count(), 8);
        // Well-formed.
        assert_eq!(svg.matches("<g").count(), svg.matches("</g>").count());
    }

    #[test]
    fn ribbons_rendered_between_groups() {
        let v = view();
        assert!(!v.ribbons.is_empty());
        let svg = render_radial(&v, &RadialLayout::default(), "");
        let ribbon_part = svg.split("class=\"ribbons\"").nth(1).unwrap();
        let ribbon_paths = ribbon_part.split("</g>").next().unwrap().matches("<path").count();
        assert_eq!(ribbon_paths, v.ribbons.len());
    }

    #[test]
    fn ring_bands_stack_outward() {
        let l = RadialLayout::default();
        let (a0, a1) = l.ring_band(0);
        let (b0, _) = l.ring_band(1);
        assert!(a1 <= b0);
        assert_eq!(a0, l.center_radius);
    }

    #[test]
    fn row_rendering_embeds_panels() {
        let v = view();
        let svg =
            render_radial_row(&[(&v, "left"), (&v, "right")], &RadialLayout::default(), "cmp");
        assert!(svg.contains("panel 0: left"));
        assert!(svg.contains("panel 1: right"));
        assert!(svg.contains("cmp"));
        assert_eq!(svg.matches("<svg").count(), 1, "panels must be inlined");
        assert_eq!(svg.matches("<g").count(), svg.matches("</g>").count());
    }
}
