//! Diagnostic: AMR Boxlib alone vs alongside the heavy jobs, under both
//! placements — separates self-congestion from interference.

use hrviz_bench::{app_duration, data_scale, mean_latency_ns, SEED};
use hrviz_network::{DragonflyConfig, NetworkSpec, RoutingAlgorithm, Simulation};
use hrviz_workloads::{
    generate_app, place_jobs, AppConfig, AppKind, PlacementPolicy, PlacementRequest,
};

fn amr_alone(policy: PlacementPolicy) -> f64 {
    let spec = NetworkSpec::new(DragonflyConfig::try_paper_scale(5_256).expect("paper scale"))
        .with_routing(RoutingAlgorithm::adaptive_default())
        .with_seed(SEED);
    let mut sim = Simulation::new(spec);
    let topo = sim.topology();
    let jobs = place_jobs(
        topo,
        &[PlacementRequest { name: "AMR".into(), ranks: AppKind::AmrBoxlib.ranks(), policy }],
        SEED,
    )
    .expect("AMR job fits the 5,256-terminal machine");
    let cfg =
        AppConfig::new(AppKind::AmrBoxlib).with_scale(data_scale()).with_duration(app_duration());
    let id = sim.add_job(jobs[0].clone());
    sim.inject_all(generate_app(id, &jobs[0], &cfg));
    let run = sim.try_run().expect("simulation completes");
    mean_latency_ns(&run) / 1e3
}

fn main() {
    hrviz_bench::obs_init("diag_amr");
    println!("AMR alone, random-group : {:.1} us", amr_alone(PlacementPolicy::RandomGroup));
    println!("AMR alone, random-router: {:.1} us", amr_alone(PlacementPolicy::RandomRouter));
}
