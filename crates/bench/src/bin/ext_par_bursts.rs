//! Extension (paper §V-C): the paper observes that standard adaptive
//! routing reacts too slowly to traffic bursts ("the source router may not
//! been notified immediately") and suggests progressive adaptive routing
//! (PAR), which re-evaluates the minimal-vs-detour decision at every hop
//! in the source group. This driver quantifies that suggestion: an
//! abrupt synchronized burst over adversarial destinations, under
//! adaptive vs progressive adaptive routing.

use hrviz_bench::{
    class_summary, class_summary_header, mean_latency_ns, write_csv, Expectations, SEED,
};
use hrviz_network::{
    DragonflyConfig, LinkClass, MsgInjection, NetworkSpec, RoutingAlgorithm, RunData, Simulation,
    TerminalId,
};
use hrviz_pdes::SimTime;

fn burst(routing: RoutingAlgorithm) -> RunData {
    let n = 2_550u32;
    let spec = NetworkSpec::new(DragonflyConfig::try_paper_scale(n).expect("paper scale"))
        .with_routing(routing)
        .with_seed(SEED);
    let mut sim = Simulation::new(spec);
    // A sudden group-tornado burst: everyone fires 64 KB at t≈0 toward the
    // same relative group offset, so every minimal route shares one global
    // channel per group pair and congestion appears *after* the first
    // packets have already committed minimally.
    let group = 50; // terminals per group at this scale
    for src in 0..n {
        sim.inject(MsgInjection {
            time: SimTime((src as u64 * 37) % 500),
            src: TerminalId(src),
            dst: TerminalId((src + 5 * group) % n),
            bytes: 64 * 1024,
            job: 0,
        });
    }
    sim.try_run().expect("simulation completes")
}

fn main() {
    hrviz_bench::obs_init("ext_par_bursts");
    println!("Extension: traffic bursts under adaptive vs progressive adaptive routing");
    let ada = burst(RoutingAlgorithm::adaptive_default());
    let par = burst(RoutingAlgorithm::par_default());
    write_csv(
        "ext_par_bursts.csv",
        &[class_summary_header(), class_summary("adaptive", &ada), class_summary("par", &par)],
    );
    println!(
        "  adaptive: latency {:.1} us, makespan {}, global sat {} ns",
        mean_latency_ns(&ada) / 1e3,
        ada.end_time,
        ada.class_sat_ns(LinkClass::Global)
    );
    println!(
        "  PAR     : latency {:.1} us, makespan {}, global sat {} ns",
        mean_latency_ns(&par) / 1e3,
        par.end_time,
        par.class_sat_ns(LinkClass::Global)
    );

    let mut exp = Expectations::new();
    exp.check("both deliver the burst completely", {
        ada.total_delivered() == ada.total_injected()
            && par.total_delivered() == par.total_injected()
    });
    exp.check(
        "PAR reduces mean packet latency on the burst",
        mean_latency_ns(&par) < mean_latency_ns(&ada),
    );
    exp.check(
        "PAR drains the burst no slower than plain adaptive",
        par.end_time <= ada.end_time + SimTime::micros(5),
    );
    std::process::exit(i32::from(!exp.finish("ext_par_bursts")));
}
