//! Run a user-supplied projection script against a fresh simulation —
//! the paper's "apply background knowledge by customizing the
//! visualization" workflow (§IV-B3).
//!
//! ```sh
//! # built-in demo script:
//! cargo run --release --example custom_script
//! # your own:
//! cargo run --release --example custom_script -- my_view.hrviz
//! ```

use hrviz::core::{build_view, parse_script, DataSet};
use hrviz::network::{
    DragonflyConfig, JobMeta, NetworkSpec, RoutingAlgorithm, Simulation, TerminalId,
};
use hrviz::pdes::SimTime;
use hrviz::render::{render_radial, RadialLayout};
use hrviz::workloads::{generate_synthetic, SyntheticConfig, TrafficPattern};

const DEMO: &str = r#"
// Workload hotspots: routers binned by their global saturation, terminals
// scattered by hops vs latency.
{
  project : "router",
  aggregate : "group_id",
  maxBins : 12,
  vmap : { color : "global_sat_time", size : "global_traffic" },
  colors : ["white", "red"],
  ribbons : { project : "global_link", size : "traffic", color : "sat_time" }
},
{
  project : "terminal",
  vmap : { color : "sat_time", size : "packets_finished",
           x : "avg_hops", y : "avg_latency" },
  colors : ["white", "purple"],
  border : false
}
"#;

fn main() {
    let script = match std::env::args().nth(1) {
        Some(path) => std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read script {path:?}: {e}")),
        None => DEMO.to_string(),
    };
    let spec = match parse_script(&script) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("script rejected: {e}");
            std::process::exit(2);
        }
    };
    println!("script defines {} ring(s)", spec.levels.len());
    for (i, l) in spec.levels.iter().enumerate() {
        println!(
            "  ring {i}: {} aggregated by {:?} -> {:?}",
            l.entity,
            l.aggregate.iter().map(|f| f.name()).collect::<Vec<_>>(),
            l.vmap.plot_kind()
        );
    }

    // A bisection-style workload to have something interesting to look at.
    let cfg = DragonflyConfig::canonical(4);
    let mut sim =
        Simulation::new(NetworkSpec::new(cfg).with_routing(RoutingAlgorithm::adaptive_default()));
    let all: Vec<TerminalId> = (0..cfg.num_terminals()).map(TerminalId).collect();
    let meta = JobMeta { name: "bisection".into(), terminals: all };
    let job = sim.add_job(meta.clone());
    sim.inject_all(generate_synthetic(
        job,
        &meta,
        &SyntheticConfig {
            pattern: TrafficPattern::BitComplement,
            msg_bytes: 16 * 1024,
            msgs_per_rank: 16,
            period: SimTime::micros(2),
            stride: 1,
            seed: 1,
        },
    ));
    let run = sim.try_run().expect("simulation completes");
    let ds = DataSet::builder(&run).build();
    let view = build_view(&ds, &spec).unwrap_or_else(|e| {
        eprintln!("script incompatible with dataset: {e}");
        std::process::exit(2);
    });
    std::fs::create_dir_all("out").unwrap();
    std::fs::write(
        "out/custom_script.svg",
        render_radial(&view, &RadialLayout::default(), "custom script"),
    )
    .unwrap();
    println!("wrote out/custom_script.svg");
}
