//! Byte-identity regression tests for the determinism contract the
//! hrviz-lint rules guard: the *same* configuration, run twice in the
//! same process, must produce byte-for-byte identical analytics tables
//! on both topology models. (The sweep crate proves parallel-vs-serial
//! identity; this covers plain repeated invocation, which is what every
//! comparison view in the paper implicitly assumes.)

use hrviz::core::DataSet;
use hrviz::fattree::{FatTreeConfig, FatTreeSim, UpRouting};
use hrviz::network::{
    DragonflyConfig, JobMeta, NetworkSpec, RoutingAlgorithm, Simulation, TerminalId,
};
use hrviz::pdes::SimTime;
use hrviz::workloads::{generate_synthetic, SyntheticConfig};

const SEED: u64 = 0xD15C0;

/// One full Dragonfly run rendered to bytes: the flattened dataset plus
/// the delivery counters anything downstream would consume.
fn dragonfly_bytes() -> String {
    let cfg = DragonflyConfig::canonical(2); // 72 terminals
    let spec =
        NetworkSpec::new(cfg).with_routing(RoutingAlgorithm::adaptive_default()).with_seed(SEED);
    let mut sim = Simulation::new(spec);
    let terminals: Vec<_> = (0..cfg.num_terminals()).map(TerminalId).collect();
    let meta = JobMeta { name: "ur".into(), terminals };
    let job = sim.add_job(meta.clone());
    sim.inject_all(generate_synthetic(
        job,
        &meta,
        &SyntheticConfig::uniform(4 * 1024, 6, SimTime::micros(1)),
    ));
    let run = sim.try_run().expect("simulation completes");
    format!(
        "injected={} delivered={} dataset={:?}",
        run.total_injected(),
        run.total_delivered(),
        DataSet::builder(&run).build()
    )
}

/// One full Fat-Tree run rendered to bytes.
fn fattree_bytes() -> String {
    let cfg = FatTreeConfig::try_new(4).expect("valid k"); // 16 hosts
    let mut sim = FatTreeSim::new(cfg, UpRouting::Adaptive);
    let terminals: Vec<_> = (0..cfg.num_hosts()).map(TerminalId).collect();
    let meta = JobMeta { name: "ur".into(), terminals };
    let job = sim.add_job(meta.clone());
    sim.inject_all(generate_synthetic(
        job,
        &meta,
        &SyntheticConfig::uniform(4 * 1024, 6, SimTime::micros(1)),
    ));
    let run = sim.try_run().expect("simulation completes");
    format!(
        "injected={} delivered={} dataset={:?}",
        run.injected_bytes(),
        run.delivered_bytes(),
        run.to_dataset()
    )
}

#[test]
fn dragonfly_runs_are_byte_identical() {
    let (a, b) = (dragonfly_bytes(), dragonfly_bytes());
    assert!(a == b, "two dragonfly runs of the same config diverged");
    assert!(a.contains("delivered="), "sanity: run produced output");
}

#[test]
fn fattree_runs_are_byte_identical() {
    let (a, b) = (fattree_bytes(), fattree_bytes());
    assert!(a == b, "two fat-tree runs of the same config diverged");
    assert!(a.contains("delivered="), "sanity: run produced output");
}
