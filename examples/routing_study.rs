//! Routing design-space exploration: run an adversarial tornado workload
//! under all four routing strategies and compare them side by side with
//! shared encoding scales — the workflow of the paper's §V-B.
//!
//! ```sh
//! cargo run --release --example routing_study
//! ```

use hrviz::core::{
    compare_views, DataSet, EntityKind, Field, LevelSpec, ProjectionSpec, RibbonSpec,
};
use hrviz::network::{
    DragonflyConfig, JobMeta, LinkClass, NetworkSpec, RoutingAlgorithm, RunData, Simulation,
    TerminalId,
};
use hrviz::pdes::SimTime;
use hrviz::render::{render_radial_row, RadialLayout};
use hrviz::workloads::{generate_synthetic, SyntheticConfig, TrafficPattern};

fn run(routing: RoutingAlgorithm) -> RunData {
    let cfg = DragonflyConfig::canonical(4); // 1,056 terminals
    let mut sim = Simulation::new(NetworkSpec::new(cfg).with_routing(routing).with_seed(99));
    let all: Vec<TerminalId> = (0..cfg.num_terminals()).map(TerminalId).collect();
    let meta = JobMeta { name: "tornado".into(), terminals: all };
    let job = sim.add_job(meta.clone());
    // Tornado: rank i -> i + n/2, the classic adversarial pattern for
    // minimal routing on low-diameter topologies.
    sim.inject_all(generate_synthetic(
        job,
        &meta,
        &SyntheticConfig {
            pattern: TrafficPattern::Tornado,
            msg_bytes: 16 * 1024,
            msgs_per_rank: 24,
            period: SimTime::micros(2),
            stride: 1,
            seed: 3,
        },
    ));
    sim.try_run().expect("simulation completes")
}

fn main() {
    let strategies = [
        RoutingAlgorithm::Minimal,
        RoutingAlgorithm::NonMinimal,
        RoutingAlgorithm::adaptive_default(),
        RoutingAlgorithm::par_default(),
    ];
    println!("tornado on 1,056 terminals under four routing strategies\n");
    println!(
        "{:<22} {:>12} {:>12} {:>12} {:>10} {:>8}",
        "routing", "global B", "local sat ns", "global sat ns", "latency us", "hops"
    );

    let runs: Vec<RunData> = strategies.iter().map(|&r| run(r)).collect();
    for (s, r) in strategies.iter().zip(&runs) {
        let pkts: u64 = r.terminals.iter().map(|t| t.packets_finished).sum();
        let lat =
            r.terminals.iter().map(|t| t.avg_latency_ns * t.packets_finished as f64).sum::<f64>()
                / pkts.max(1) as f64;
        let hops = r.terminals.iter().map(|t| t.avg_hops * t.packets_finished as f64).sum::<f64>()
            / pkts.max(1) as f64;
        println!(
            "{:<22} {:>12} {:>12} {:>12} {:>10.1} {:>8.2}",
            s.name(),
            r.class_traffic(LinkClass::Global),
            r.class_sat_ns(LinkClass::Local),
            r.class_sat_ns(LinkClass::Global),
            lat / 1e3,
            hops
        );
    }

    // Side-by-side comparison views under one scale.
    let spec = ProjectionSpec::new(vec![
        LevelSpec::new(EntityKind::GlobalLink)
            .aggregate(&[Field::GroupId])
            .max_bins(11)
            .color(Field::SatTime)
            .size(Field::Traffic)
            .colors(&["white", "purple"]),
        LevelSpec::new(EntityKind::LocalLink)
            .aggregate(&[Field::RouterRank])
            .color(Field::SatTime)
            .size(Field::Traffic)
            .colors(&["white", "steelblue"]),
    ])
    .ribbons(RibbonSpec::new(EntityKind::GlobalLink));
    let datasets: Vec<DataSet> = runs.iter().map(|r| DataSet::builder(r).build()).collect();
    let refs: Vec<&DataSet> = datasets.iter().collect();
    let views = compare_views(&refs, &spec).expect("views build");
    let labeled: Vec<(&_, &str)> = views.iter().zip(strategies.iter().map(|s| s.name())).collect();
    std::fs::create_dir_all("out").unwrap();
    std::fs::write(
        "out/routing_study.svg",
        render_radial_row(
            &labeled,
            &RadialLayout::default(),
            "tornado: routing strategies compared",
        ),
    )
    .unwrap();
    println!("\nwrote out/routing_study.svg");
}
