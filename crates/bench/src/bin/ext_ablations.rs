//! Ablations of two modelling choices DESIGN.md calls out (EXPERIMENTS.md
//! §Ablations), on a fixed tornado workload over the 342-terminal
//! canonical Dragonfly:
//!
//! * VC buffer capacity (4 / 16 / 64 KB, minimal routing) → how sensitive
//!   the congestion model's saturation time is to credit flow control;
//! * UGAL threshold (0 B … effectively infinite) → the adaptive/minimal
//!   crossover the paper's §V-B routing comparison rests on.
//!
//! The driver reports modelled quantities only (saturation, traffic,
//! makespan), never wall time.

use hrviz_bench::Expectations;
use hrviz_network::{
    DragonflyConfig, LinkClass, MsgInjection, NetworkSpec, RoutingAlgorithm, RunData, Simulation,
    TerminalId,
};
use hrviz_pdes::SimTime;

const BUFFERS_KB: [u32; 3] = [4, 16, 64];
const THRESHOLDS: [u64; 4] = [0, 2_048, 65_536, u64::MAX / 2];

/// Every terminal sends six 16 KB messages to its tornado partner.
fn tornado(spec: NetworkSpec) -> RunData {
    let n = spec.topology.num_terminals();
    let mut sim = Simulation::try_new(spec.with_seed(11))
        .expect("ablation spec validates")
        .with_collector(hrviz_obs::get());
    for src in 0..n {
        for k in 0..6u64 {
            sim.inject(MsgInjection {
                time: SimTime(k * 2_000),
                src: TerminalId(src),
                dst: TerminalId((src + n / 2) % n),
                bytes: 16 * 1024,
                job: 0,
            });
        }
    }
    sim.try_run().expect("ablation run completes")
}

fn spec(routing: RoutingAlgorithm) -> NetworkSpec {
    NetworkSpec::new(DragonflyConfig::canonical(3)).with_routing(routing)
}

fn main() {
    hrviz_bench::obs_init("ext_ablations");
    println!("Ablations: VC buffer capacity and UGAL threshold (tornado, Dragonfly 342t)");

    let buffers: Vec<RunData> = BUFFERS_KB
        .iter()
        .map(|&kb| {
            let mut s = spec(RoutingAlgorithm::Minimal);
            s.vc_buffer_bytes = kb * 1024;
            tornado(s)
        })
        .collect();
    for (kb, run) in BUFFERS_KB.iter().zip(&buffers) {
        println!(
            "  vc_buffer={kb}KB  local_sat={}ns  end={}",
            run.class_sat_ns(LinkClass::Local),
            run.end_time
        );
    }

    let minimal = tornado(spec(RoutingAlgorithm::Minimal));
    let thresholds: Vec<RunData> = THRESHOLDS
        .iter()
        .map(|&threshold| tornado(spec(RoutingAlgorithm::Adaptive { threshold })))
        .collect();
    for (t, run) in THRESHOLDS.iter().zip(&thresholds) {
        println!(
            "  ugal_threshold={t}  global_traffic={}  local_sat={}ns",
            run.class_traffic(LinkClass::Global),
            run.class_sat_ns(LinkClass::Local)
        );
    }
    println!(
        "  minimal            global_traffic={}  local_sat={}ns",
        minimal.class_traffic(LinkClass::Global),
        minimal.class_sat_ns(LinkClass::Local)
    );

    let local_sat: Vec<u64> = buffers.iter().map(|r| r.class_sat_ns(LinkClass::Local)).collect();
    let (finite, infinite) = thresholds.split_at(THRESHOLDS.len() - 1);
    let infinite = &infinite[0];
    let mut exp = Expectations::new();
    exp.check(
        "every run delivers all its bytes",
        buffers
            .iter()
            .chain(&thresholds)
            .chain([&minimal])
            .all(|r| r.total_delivered() == r.total_injected()),
    );
    exp.check(
        "local saturation falls from 4 to 16 to 64 KB buffers",
        local_sat.windows(2).all(|w| w[0] > w[1]),
    );
    exp.check(
        "an effectively infinite threshold routes like minimal",
        infinite.class_traffic(LinkClass::Global) == minimal.class_traffic(LinkClass::Global)
            && infinite.class_sat_ns(LinkClass::Local) == minimal.class_sat_ns(LinkClass::Local),
    );
    exp.check(
        "thresholds up to 64 KB divert more global traffic than minimal",
        finite
            .iter()
            .all(|r| r.class_traffic(LinkClass::Global) > minimal.class_traffic(LinkClass::Global)),
    );
    std::process::exit(i32::from(!exp.finish("ext_ablations")));
}
