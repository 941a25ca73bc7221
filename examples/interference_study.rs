//! Inter-job interference study: two applications sharing a Dragonfly
//! under different placement policies, analyzed per job — the workflow of
//! the paper's §V-D, at example scale.
//!
//! ```sh
//! cargo run --release --example interference_study
//! ```

use hrviz::core::{build_view, DataSet, EntityKind, Field, LevelSpec, ProjectionSpec, RibbonSpec};
use hrviz::network::{DragonflyConfig, NetworkSpec, RoutingAlgorithm, RunData, Simulation};
use hrviz::pdes::SimTime;
use hrviz::render::{render_radial, RadialLayout};
use hrviz::workloads::{
    generate_synthetic, place_jobs, PlacementPolicy, PlacementRequest, SyntheticConfig,
    TrafficPattern,
};

/// A heavy many-to-many job next to a light nearest-neighbor job.
fn run(policies: [PlacementPolicy; 2]) -> RunData {
    let cfg = DragonflyConfig::canonical(4); // 1,056 terminals
    let mut sim =
        Simulation::new(NetworkSpec::new(cfg).with_routing(RoutingAlgorithm::adaptive_default()));
    let topo = sim.topology();
    let jobs = place_jobs(
        topo,
        &[
            PlacementRequest { name: "heavy-a2a".into(), ranks: 512, policy: policies[0] },
            PlacementRequest { name: "light-nn".into(), ranks: 256, policy: policies[1] },
        ],
        2024,
    )
    .expect("fits");
    let heavy = SyntheticConfig {
        pattern: TrafficPattern::UniformRandom,
        msg_bytes: 32 * 1024,
        msgs_per_rank: 24,
        period: SimTime::micros(2),
        stride: 1,
        seed: 5,
    };
    let light = SyntheticConfig {
        pattern: TrafficPattern::NearestNeighbor,
        msg_bytes: 4 * 1024,
        msgs_per_rank: 24,
        period: SimTime::micros(2),
        stride: 1,
        seed: 6,
    };
    for (i, (job, cfg)) in jobs.iter().zip([heavy, light]).enumerate() {
        let id = sim.add_job(job.clone());
        debug_assert_eq!(id as usize, i);
        sim.inject_all(generate_synthetic(id, job, &cfg));
    }
    sim.try_run().expect("simulation completes")
}

fn main() {
    println!("two jobs sharing 1,056 terminals: per-job latency by placement\n");
    let configs: [(&str, [PlacementPolicy; 2]); 3] = [
        ("contiguous", [PlacementPolicy::Contiguous; 2]),
        ("random-group", [PlacementPolicy::RandomGroup; 2]),
        ("random-router", [PlacementPolicy::RandomRouter; 2]),
    ];
    println!("{:<14} {:>16} {:>16}", "placement", "heavy-a2a (us)", "light-nn (us)");
    let mut last = None;
    for (name, policies) in configs {
        let r = run(policies);
        let stats = r.job_stats();
        println!(
            "{:<14} {:>16.1} {:>16.1}",
            name,
            stats[0].avg_latency_ns / 1e3,
            stats[1].avg_latency_ns / 1e3
        );
        last = Some(r);
    }

    // Render the last configuration grouped by job (arcs weighted by each
    // job's share of global traffic, ribbons = inter-job global links).
    let run = last.expect("ran");
    let ds = DataSet::builder(&run).build();
    let spec = ProjectionSpec::new(vec![
        LevelSpec::new(EntityKind::Router)
            .aggregate(&[Field::Workload])
            .color(Field::TotalSatTime)
            .colors(&["white", "purple"]),
        LevelSpec::new(EntityKind::Terminal)
            .aggregate(&[Field::Workload, Field::RouterId])
            .color(Field::AvgLatency)
            .size(Field::AvgHops)
            .colors(&["white", "purple"]),
    ])
    .ribbons(RibbonSpec::new(EntityKind::GlobalLink))
    .arc_weight(Field::GlobalTraffic);
    let view = build_view(&ds, &spec).expect("view builds");
    std::fs::create_dir_all("out").unwrap();
    std::fs::write(
        "out/interference_study.svg",
        render_radial(&view, &RadialLayout::default(), "inter-job interference (random router)"),
    )
    .unwrap();
    println!("\nwrote out/interference_study.svg");
}
