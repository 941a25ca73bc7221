//! Integration tests of the interactive-analysis loop (paper §IV-C):
//! timeline range selection, PCP brushing, and aggregate→detail
//! highlighting, each followed by view rebuilds.

use hrviz::core::{
    brush_axis, build_view, DataSet, DetailView, EntityKind, Field, LevelSpec, ProjectionSpec,
    TimelineView,
};
use hrviz::network::{
    DragonflyConfig, JobMeta, NetworkSpec, RoutingAlgorithm, RunData, Simulation, TerminalId,
};
use hrviz::pdes::SimTime;
use hrviz::workloads::{generate_synthetic, SyntheticConfig};

fn sampled_run() -> RunData {
    let cfg = DragonflyConfig::canonical(3);
    let mut sim = Simulation::new(
        NetworkSpec::new(cfg)
            .with_routing(RoutingAlgorithm::adaptive_default())
            .with_sampling(SimTime::micros(2), 512),
    );
    let all: Vec<TerminalId> = (0..cfg.num_terminals()).map(TerminalId).collect();
    let meta = JobMeta { name: "w".into(), terminals: all };
    let id = sim.add_job(meta.clone());
    // Two bursts 40 µs apart.
    for burst in [0u64, 40_000] {
        let mut cfg = SyntheticConfig::uniform(8 * 1024, 8, SimTime::nanos(500));
        cfg.seed = burst;
        sim.inject_all(generate_synthetic(id, &meta, &cfg).into_iter().map(|mut m| {
            m.time += SimTime(burst);
            m
        }));
    }
    sim.try_run().expect("simulation completes")
}

fn spec() -> ProjectionSpec {
    ProjectionSpec::new(vec![
        LevelSpec::new(EntityKind::LocalLink)
            .aggregate(&[Field::RouterRank])
            .color(Field::SatTime)
            .size(Field::Traffic),
        LevelSpec::new(EntityKind::Terminal).aggregate(&[Field::RouterId]).color(Field::AvgLatency),
    ])
}

#[test]
fn timeline_selection_rebuilds_restricted_views() {
    let run = sampled_run();
    let mut tl = TimelineView::traffic(&run).expect("sampled");
    // Select the first burst only.
    let (t0, t1) = tl.select_bins(0, 10);
    let full = DataSet::builder(&run).build();
    let ranged = DataSet::builder(&run).range(t0, t1).build();
    let inj_full: f64 = full.terminal_rows().iter().map(|t| t.data_size).sum();
    let inj_ranged: f64 = ranged.terminal_rows().iter().map(|t| t.data_size).sum();
    assert!(inj_ranged > 0.0);
    assert!(inj_ranged < inj_full, "second burst excluded");
    // Both datasets build the same spec.
    let v_full = build_view(&full, &spec()).unwrap();
    let v_ranged = build_view(&ranged, &spec()).unwrap();
    assert_eq!(v_full.rings[0].items.len(), v_ranged.rings[0].items.len());
    // Raw traffic in the ranged view is smaller.
    let sum = |v: &hrviz::core::ProjectionView| -> f64 {
        v.rings[0].items.iter().filter_map(|i| i.raw.size).sum()
    };
    assert!(sum(&v_ranged) <= sum(&v_full));
}

#[test]
fn brushing_narrows_and_view_follows() {
    let run = sampled_run();
    let ds = DataSet::builder(&run).build();
    let median = {
        let mut l: Vec<f64> = ds.terminal_rows().iter().map(|t| t.avg_latency).collect();
        l.sort_by(|a, b| a.partial_cmp(b).unwrap());
        l[l.len() / 2]
    };
    let brushed = brush_axis(&ds, Field::AvgLatency, median, f64::INFINITY);
    let (kept, all) = (brushed.len(EntityKind::Terminal), ds.len(EntityKind::Terminal));
    assert!(kept > 0);
    assert!(kept <= all / 2 + 1);
    let view = build_view(&brushed, &spec()).unwrap();
    let terminals_shown: usize = view.rings[1].items.iter().map(|i| i.rows.len()).sum();
    assert_eq!(terminals_shown, kept);
}

#[test]
fn aggregate_selection_highlights_detail() {
    let run = sampled_run();
    let ds = DataSet::builder(&run).build();
    let view = build_view(&ds, &spec()).unwrap();
    let mut detail = DetailView::new(&ds);
    // Select ring 1 item 0 (terminals of router 0).
    let (kind, rows) = view.item_rows(1, 0);
    assert_eq!(kind, EntityKind::Terminal);
    detail.highlight(kind, rows);
    assert_eq!(detail.highlighted_terminals(), rows.len());
    // Select ring 0 item 0 (local links of rank 0) — highlights links.
    let (kind, rows) = view.item_rows(0, 0);
    assert_eq!(kind, EntityKind::LocalLink);
    detail.highlight(kind, rows);
    let lit = detail.local_links.points.iter().filter(|p| p.highlighted).count();
    assert_eq!(lit, rows.len());
}

#[test]
fn terminal_means_timeline_tracks_bursts() {
    let run = sampled_run();
    let tl = TimelineView::terminal_means(&run).expect("sampled");
    assert_eq!(tl.series.len(), 2);
    let lat = &tl.series[0].values;
    assert!(lat.iter().any(|&v| v > 0.0));
}
