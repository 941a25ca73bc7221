//! Quickstart: simulate a small Dragonfly, explore it with a projection
//! script, and render the view to SVG.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use hrviz::core::{build_view, parse_script, DataSet, DetailView, TimelineView};
use hrviz::network::JobMeta;
use hrviz::network::{
    DragonflyConfig, LinkClass, NetworkSpec, RoutingAlgorithm, Simulation, TerminalId,
};
use hrviz::pdes::SimTime;
use hrviz::render::{render_link_scatter, render_radial, render_timeline, RadialLayout};
use hrviz::workloads::{generate_synthetic, SyntheticConfig, TrafficPattern};

fn main() {
    // 1. Describe the network: a canonical Dragonfly with h=4
    //    (g=33 groups x a=8 routers x p=4 terminals = 1,056 terminals,
    //    the scale of Yang et al.'s interference study cited in the paper).
    let cfg = DragonflyConfig::canonical(4);
    println!(
        "network: {} groups x {} routers x {} terminals = {} terminals",
        cfg.groups,
        cfg.routers_per_group,
        cfg.terminals_per_router,
        cfg.num_terminals()
    );
    let spec = NetworkSpec::new(cfg)
        .with_routing(RoutingAlgorithm::adaptive_default())
        .with_sampling(SimTime::micros(1), 512)
        .with_seed(42);

    // 2. Generate a uniform-random workload over the whole machine.
    let mut sim = Simulation::new(spec);
    let all: Vec<TerminalId> = (0..cfg.num_terminals()).map(TerminalId).collect();
    let meta = JobMeta { name: "uniform".into(), terminals: all };
    let job = sim.add_job(meta.clone());
    sim.inject_all(generate_synthetic(
        job,
        &meta,
        &SyntheticConfig {
            pattern: TrafficPattern::UniformRandom,
            msg_bytes: 8 * 1024,
            msgs_per_rank: 20,
            period: SimTime::micros(2),
            stride: 1,
            seed: 7,
        },
    ));

    // 3. Run (packet level, credit flow control, adaptive routing).
    let run = sim.try_run().expect("simulation completes");
    println!(
        "simulated {} events to t={}; delivered {} / {} bytes",
        run.events_processed,
        run.end_time,
        run.total_delivered(),
        run.total_injected()
    );
    for class in LinkClass::ALL {
        println!(
            "  {:<8} traffic {:>12} B   saturation {:>10} ns",
            class.label(),
            run.class_traffic(class),
            run.class_sat_ns(class)
        );
    }

    // 4. Explore with a projection script (the paper's Fig. 5 syntax).
    let ds = DataSet::builder(&run).build();
    let view_spec = parse_script(
        r#"
        { project : "local_link",
          aggregate : "router_rank",
          vmap : { color : "sat_time" },
          colors : ["white", "steelblue"],
          ribbons : { project : "local_link", size : "traffic", color : "sat_time" } },
        { project : "global_link",
          aggregate : ["router_rank", "router_port"],
          vmap : { color : "sat_time", size : "traffic" },
          colors : ["white", "purple"] },
        { project : "terminal",
          vmap : { color : "workload", size : "avg_latency",
                   x : "avg_hops", y : "data_size" },
          colors : ["green", "orange", "brown"] }
        "#,
    )
    .expect("script parses");
    let view = build_view(&ds, &view_spec).expect("view builds");

    // 5. Render everything.
    std::fs::create_dir_all("out").unwrap();
    std::fs::write(
        "out/quickstart_projection.svg",
        render_radial(&view, &RadialLayout::default(), "quickstart: uniform random"),
    )
    .unwrap();
    let detail = DetailView::new(&ds);
    std::fs::write(
        "out/quickstart_links.svg",
        render_link_scatter(&detail.global_links, 360.0, 240.0, "global links"),
    )
    .unwrap();
    if let Some(tl) = TimelineView::traffic(&run) {
        std::fs::write(
            "out/quickstart_timeline.svg",
            render_timeline(&tl, 700.0, 90.0, "traffic over time"),
        )
        .unwrap();
    }
    println!("wrote out/quickstart_projection.svg, out/quickstart_links.svg, out/quickstart_timeline.svg");
}
