//! Fig. 6 — the full user interface on a 2,550-terminal Dragonfly running
//! AMG (1,728 ranks): projection view, detail view (link scatters +
//! terminal parallel coordinates), timeline view, time-range selection
//! onto the second traffic burst, and selection-driven highlighting.

use hrviz_bench::{intra_group_spec, run_app, write_csv, write_out, Expectations};
use hrviz_core::{brush_axis, build_view, DataSet, DetailView, EntityKind, Field, TimelineView};
use hrviz_network::RoutingAlgorithm;
use hrviz_pdes::SimTime;
use hrviz_render::{
    render_link_scatter, render_parallel_coords, render_radial, render_timeline, RadialLayout,
};
use hrviz_workloads::{AppKind, PlacementPolicy};

fn main() {
    hrviz_bench::obs_init("fig6_interface");
    println!("Fig. 6: interactive interface around an AMG run (2,550 terminals)");
    // AMG with its Fig. 12 sampling rate (0.02 ms).
    let run = run_app(
        2_550,
        AppKind::Amg,
        RoutingAlgorithm::adaptive_default(),
        PlacementPolicy::Contiguous,
        Some((AppKind::Amg.fig12_sampling(), 4_000)),
    );

    // (a) Projection view over the whole run (idle terminals filtered out,
    // as in the paper).
    let ds = DataSet::builder(&run).drop_idle().build();
    let view = build_view(&ds, &intra_group_spec()).expect("view builds");
    write_out(
        "fig6a_projection.svg",
        &render_radial(&view, &RadialLayout::default(), "Fig 6a: AMG projection view"),
    );

    // (b) Detail view with a selection: pick the projection's hottest
    // terminal aggregate and highlight its members.
    let mut detail = DetailView::new(&ds);
    let hot_ring = view.rings.len() - 1;
    let hot_item = view.rings[hot_ring]
        .items
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.color.partial_cmp(&b.1.color).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
        .expect("items exist");
    let (kind, rows) = view.item_rows(hot_ring, hot_item);
    detail.highlight(kind, rows);
    write_out(
        "fig6b_global_scatter.svg",
        &render_link_scatter(
            &detail.global_links,
            360.0,
            240.0,
            "Global links: traffic vs saturation",
        ),
    );
    write_out(
        "fig6b_local_scatter.svg",
        &render_link_scatter(
            &detail.local_links,
            360.0,
            240.0,
            "Local links: traffic vs saturation",
        ),
    );
    write_out(
        "fig6b_terminals_pcp.svg",
        &render_parallel_coords(&detail, 640.0, 300.0, "Terminals (highlight = hottest aggregate)"),
    );

    // (c) Timeline with the second AMG burst selected.
    let mut tl = TimelineView::traffic(&run).expect("sampled run");
    let bins = tl.num_bins();
    // Find the burst nearest mid-run: peak within the middle third.
    let vals = &tl.series[0].values;
    let third = bins / 3;
    let mid_peak = (third..2 * third)
        .max_by(|&a, &b| vals[a].partial_cmp(&vals[b]).unwrap_or(std::cmp::Ordering::Equal))
        .unwrap_or(bins / 2);
    let (t0, t1) = tl.select_bins(mid_peak.saturating_sub(2), (mid_peak + 3).min(bins));
    write_out(
        "fig6c_timeline.svg",
        &render_timeline(
            &tl,
            760.0,
            90.0,
            "Fig 6c: link traffic over time (selection = 2nd burst)",
        ),
    );

    // Re-derive the projection for the selected range (the paper's linked
    // interaction).
    let ds_range = DataSet::builder(&run).range(t0, t1).drop_idle().build();
    let view_range = build_view(&ds_range, &intra_group_spec()).expect("ranged view builds");
    write_out(
        "fig6_projection_burst.svg",
        &render_radial(
            &view_range,
            &RadialLayout::default(),
            &format!("Fig 6: projection restricted to burst window {t0} - {t1}"),
        ),
    );

    // Brushing: terminals in the top latency decile.
    let terminals = ds.terminal_rows();
    let lat_max = terminals.iter().map(|t| t.avg_latency).fold(0.0f64, f64::max);
    let brushed = brush_axis(&ds, Field::AvgLatency, 0.9 * lat_max, f64::INFINITY);

    let mut rows_csv = vec![vec!["metric".into(), "value".into()]];
    rows_csv.push(vec!["burst_window_start_ns".into(), t0.as_nanos().to_string()]);
    rows_csv.push(vec!["burst_window_end_ns".into(), t1.as_nanos().to_string()]);
    rows_csv.push(vec!["highlighted_terminals".into(), detail.highlighted_terminals().to_string()]);
    rows_csv.push(vec![
        "brushed_high_latency_terminals".into(),
        brushed.len(EntityKind::Terminal).to_string(),
    ]);
    rows_csv.push(vec!["active_terminals".into(), terminals.len().to_string()]);
    write_csv("fig6_interaction.csv", &rows_csv);

    let mut exp = Expectations::new();
    exp.check("AMG occupies 1728 of 2550 terminals", terminals.len() == 1728);
    exp.check("time-range projection has traffic only in the window", {
        let full: f64 = terminals.iter().map(|t| t.data_size).sum();
        let ranged: f64 = ds_range.terminal_rows().iter().map(|t| t.data_size).sum();
        ranged > 0.0 && ranged < full
    });
    exp.check("selection highlights terminals in the detail view", {
        kind == EntityKind::Terminal && detail.highlighted_terminals() > 0
    });
    exp.check("brushing isolates the high-latency tail", {
        let brushed = brushed.len(EntityKind::Terminal);
        brushed > 0 && brushed < terminals.len() / 2
    });
    exp.check(
        "timeline selection window is inside the run",
        t1 <= run.end_time + SimTime::millis(1),
    );
    std::process::exit(i32::from(!exp.finish("fig6")));
}
