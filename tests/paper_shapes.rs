//! Small-scale versions of the paper's qualitative findings, as fast
//! integration tests (the full-scale versions run in the figure drivers):
//!
//! * adaptive routing relieves adversarial congestion at the cost of path
//!   length (Fig. 8/9),
//! * nearest-neighbor traffic concentrates on specific links while
//!   uniform random balances (Fig. 7),
//! * AMR Boxlib's load concentrates on the first ranks (Fig. 10/11),
//! * AMG's injection shows three bursts (Fig. 12).

use hrviz::network::{
    DragonflyConfig, JobMeta, LinkClass, NetworkSpec, RoutingAlgorithm, RunData, Simulation,
    TerminalId,
};
use hrviz::pdes::SimTime;
use hrviz::workloads::{
    generate_app, generate_synthetic, AppConfig, AppKind, SyntheticConfig, TrafficPattern,
};

fn run_pattern(pattern: TrafficPattern, routing: RoutingAlgorithm) -> RunData {
    let cfg = DragonflyConfig::canonical(3); // 342 terminals
    let mut sim = Simulation::new(NetworkSpec::new(cfg).with_routing(routing).with_seed(5));
    let all: Vec<TerminalId> = (0..cfg.num_terminals()).map(TerminalId).collect();
    let meta = JobMeta { name: "p".into(), terminals: all };
    let id = sim.add_job(meta.clone());
    sim.inject_all(generate_synthetic(
        id,
        &meta,
        &SyntheticConfig {
            pattern,
            msg_bytes: 16 * 1024,
            msgs_per_rank: 16,
            period: SimTime::micros(1),
            // Next-router neighbors (as in the Fig. 7 driver), so NN
            // funnels each router's terminals onto one local link.
            stride: cfg.terminals_per_router,
            seed: 5,
        },
    ));
    sim.try_run().expect("simulation completes")
}

fn mean_hops(run: &RunData) -> f64 {
    let pkts: u64 = run.terminals.iter().map(|t| t.packets_finished).sum();
    run.terminals.iter().map(|t| t.avg_hops * t.packets_finished as f64).sum::<f64>()
        / pkts.max(1) as f64
}

#[test]
fn adaptive_relieves_adversarial_congestion() {
    // Tornado: every group pair's single minimal channel is the bottleneck.
    let min = run_pattern(TrafficPattern::Tornado, RoutingAlgorithm::Minimal);
    let ada = run_pattern(TrafficPattern::Tornado, RoutingAlgorithm::adaptive_default());
    // Adaptive finishes sooner and saturates global links less.
    assert!(
        ada.class_sat_ns(LinkClass::Global) < min.class_sat_ns(LinkClass::Global),
        "adaptive {} !< minimal {}",
        ada.class_sat_ns(LinkClass::Global),
        min.class_sat_ns(LinkClass::Global)
    );
    assert!(ada.end_time < min.end_time, "adaptive should finish the tornado sooner");
    // ... while taking longer paths (Fig. 9 shape).
    assert!(mean_hops(&ada) > mean_hops(&min));
    // And using more global bandwidth.
    assert!(ada.class_traffic(LinkClass::Global) > min.class_traffic(LinkClass::Global));
}

#[test]
fn nearest_neighbor_concentrates_uniform_balances() {
    let nn = run_pattern(TrafficPattern::NearestNeighbor, RoutingAlgorithm::Minimal);
    let ur = run_pattern(TrafficPattern::UniformRandom, RoutingAlgorithm::Minimal);
    // Concentration = share of local traffic on the busiest 10 % of local
    // links. NN funnels each router's flows onto one link; UR spreads.
    let top_decile_share = |run: &RunData| {
        let mut t: Vec<u64> = run.local_links.iter().map(|l| l.traffic).collect();
        t.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = t.iter().sum();
        t[..t.len() / 10].iter().sum::<u64>() as f64 / total.max(1) as f64
    };
    let (nn_share, ur_share) = (top_decile_share(&nn), top_decile_share(&ur));
    assert!(
        nn_share > 2.0 * ur_share && nn_share > 0.4,
        "NN share {nn_share} should far exceed UR share {ur_share}"
    );
}

#[test]
fn progressive_adaptive_delivers_and_diverts() {
    let par = run_pattern(TrafficPattern::Tornado, RoutingAlgorithm::par_default());
    assert_eq!(par.total_delivered(), par.total_injected());
    // PAR must also beat minimal on the adversarial pattern.
    let min = run_pattern(TrafficPattern::Tornado, RoutingAlgorithm::Minimal);
    assert!(par.end_time <= min.end_time);
}

#[test]
fn amr_concentrates_amg_spreads() {
    let cfg = DragonflyConfig::canonical(3);
    let n = cfg.num_terminals();
    let job = JobMeta { name: "app".into(), terminals: (0..n).map(TerminalId).collect() };
    let volume_skew = |kind: AppKind| -> f64 {
        let msgs = generate_app(
            0,
            &job,
            &AppConfig::new(kind).with_scale(1.0 / 2048.0).with_duration(SimTime::micros(100)),
        );
        let mut per_rank = vec![0u64; n as usize];
        for m in &msgs {
            per_rank[m.src.0 as usize] += m.bytes;
        }
        let total: u64 = per_rank.iter().sum();
        let first: u64 = per_rank[..(n as usize / 8)].iter().sum();
        first as f64 / total.max(1) as f64
    };
    assert!(volume_skew(AppKind::AmrBoxlib) > 0.45, "AMR first-eighth share too low");
    assert!(volume_skew(AppKind::Amg) < 0.25, "AMG should be near-uniform (1/8 ≈ 0.125)");
}

#[test]
fn amg_proxy_runs_in_three_bursts() {
    let cfg = DragonflyConfig::canonical(3);
    let n = cfg.num_terminals();
    let job = JobMeta { name: "amg".into(), terminals: (0..n).map(TerminalId).collect() };
    let msgs = generate_app(
        0,
        &job,
        &AppConfig::new(AppKind::Amg).with_scale(1.0 / 512.0).with_duration(SimTime::micros(300)),
    );
    // Histogram into 30 bins; expect 3 occupied clusters.
    let mut bins = [0u32; 30];
    for m in &msgs {
        let b = (m.time.as_nanos() * 30 / 300_000).min(29) as usize;
        bins[b] += 1;
    }
    let mut clusters = 0;
    let mut inside = false;
    for &b in &bins {
        if b > 0 && !inside {
            clusters += 1;
            inside = true;
        } else if b == 0 {
            inside = false;
        }
    }
    assert_eq!(clusters, 3, "AMG bursts: {bins:?}");
}
