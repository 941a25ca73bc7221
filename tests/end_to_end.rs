//! End-to-end integration: simulate → extract → script → project → render,
//! across crate boundaries, with determinism checks.

use hrviz::core::{build_view, parse_script, DataSet, EntityKind};
use hrviz::network::{
    DragonflyConfig, JobMeta, NetworkSpec, RoutingAlgorithm, RunData, Simulation, TerminalId,
};
use hrviz::pdes::SimTime;
use hrviz::render::{render_radial, RadialLayout};
use hrviz::workloads::{
    generate_synthetic, place_jobs, PlacementPolicy, PlacementRequest, SyntheticConfig,
};

fn simulate(seed: u64) -> RunData {
    let cfg = DragonflyConfig::canonical(3); // 342 terminals
    let mut sim = Simulation::new(
        NetworkSpec::new(cfg).with_routing(RoutingAlgorithm::adaptive_default()).with_seed(seed),
    );
    let topo = sim.topology();
    let jobs = place_jobs(
        topo,
        &[PlacementRequest {
            name: "ur".into(),
            ranks: 256,
            policy: PlacementPolicy::RandomRouter,
        }],
        seed,
    )
    .unwrap();
    let id = sim.add_job(jobs[0].clone());
    sim.inject_all(generate_synthetic(
        id,
        &jobs[0],
        &SyntheticConfig::uniform(8 * 1024, 12, SimTime::micros(2)),
    ));
    sim.try_run().expect("simulation completes")
}

#[test]
fn full_pipeline_produces_plausible_svg() {
    let run = simulate(1);
    assert_eq!(run.total_delivered(), run.total_injected());
    let ds = DataSet::builder(&run).drop_idle().build();
    assert_eq!(ds.len(EntityKind::Terminal), 256);

    let spec = parse_script(
        r#"
        { project: "local_link", aggregate: "router_rank",
          vmap: { color: "sat_time" },
          ribbons: { project: "global_link", size: "traffic", color: "sat_time" } },
        { project: "terminal",
          vmap: { color: "workload", size: "avg_latency", x: "avg_hops", y: "data_size" } }
        "#,
    )
    .unwrap();
    let view = build_view(&ds, &spec).unwrap();
    assert_eq!(view.rings.len(), 2);
    assert_eq!(view.rings[1].items.len(), 256);

    let svg = render_radial(&view, &RadialLayout::default(), "e2e");
    assert!(svg.len() > 10_000, "non-trivial rendering");
    assert!(svg.contains("<circle"), "scatter dots present");
    assert_eq!(svg.matches("<g").count(), svg.matches("</g>").count());
}

#[test]
fn identical_seeds_are_bit_identical() {
    let a = simulate(7);
    let b = simulate(7);
    assert_eq!(a.events_processed, b.events_processed);
    assert_eq!(a.end_time, b.end_time);
    let ta: Vec<_> = a.terminals.iter().map(|t| (t.packets_finished, t.sat_ns)).collect();
    let tb: Vec<_> = b.terminals.iter().map(|t| (t.packets_finished, t.sat_ns)).collect();
    assert_eq!(ta, tb);
}

#[test]
fn different_seeds_differ() {
    let a = simulate(7);
    let b = simulate(8);
    // Placement and routing randomness differ → different event counts.
    assert_ne!((a.events_processed, a.end_time), (b.events_processed, b.end_time));
}

#[test]
fn parallel_engine_reproduces_sequential_run() {
    let cfg = DragonflyConfig::canonical(3);
    let build = || {
        let mut sim = Simulation::new(
            NetworkSpec::new(cfg).with_routing(RoutingAlgorithm::par_default()).with_seed(3),
        );
        let all: Vec<TerminalId> = (0..cfg.num_terminals()).map(TerminalId).collect();
        let meta = JobMeta { name: "x".into(), terminals: all };
        let id = sim.add_job(meta.clone());
        sim.inject_all(generate_synthetic(
            id,
            &meta,
            &SyntheticConfig::uniform(4 * 1024, 6, SimTime::micros(1)),
        ));
        sim
    };
    let seq = build().try_run().expect("simulation completes");
    let par = build().try_run_parallel(6).expect("parallel run completes");
    assert_eq!(seq.events_processed, par.events_processed);
    assert_eq!(seq.end_time, par.end_time);
    for (a, b) in seq.local_links.iter().zip(&par.local_links) {
        assert_eq!((a.traffic, a.sat_ns), (b.traffic, b.sat_ns));
    }
    for (a, b) in seq.terminals.iter().zip(&par.terminals) {
        assert_eq!(a.avg_latency_ns, b.avg_latency_ns);
    }
}
