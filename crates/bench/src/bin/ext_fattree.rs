//! Extension (paper §VI future work): the same visual analytics over a
//! Fat-Tree network. Runs a k=8 Fat Tree (128 hosts) under ECMP and
//! adaptive up-routing with an adversarial pod-to-pod stripe, builds the
//! identical projection machinery (pods as groups), and renders the
//! comparison with shared scales.

use hrviz_bench::{write_csv, write_out, Expectations};
use hrviz_core::{
    compare_views, DataSet, EntityKind, Field, LevelSpec, ProjectionSpec, RibbonSpec,
};
use hrviz_fattree::{FatTreeConfig, FatTreeRun, FatTreeSim, UpRouting};
use hrviz_network::{JobMeta, MsgInjection, TerminalId};
use hrviz_pdes::SimTime;
use hrviz_render::{render_radial_row, RadialLayout};

fn run(routing: UpRouting) -> FatTreeRun {
    let cfg = FatTreeConfig::try_new(8).expect("valid k"); // 128 hosts, 80 switches
    let mut sim = FatTreeSim::new(cfg, routing);
    let all: Vec<TerminalId> = (0..cfg.num_hosts()).map(TerminalId).collect();
    sim.add_job(JobMeta { name: "stripe".into(), terminals: all });
    // Pod-to-pod stripe: every host sends to its image in the next pod —
    // the pattern that exposes ECMP hash collisions on up-links.
    let per_pod = cfg.num_hosts() / cfg.pods();
    for src in 0..cfg.num_hosts() {
        for k in 0..24u64 {
            sim.inject(MsgInjection {
                time: SimTime(k * 4_000 + (src as u64 * 131) % 4_000),
                src: TerminalId(src),
                dst: TerminalId((src + per_pod) % cfg.num_hosts()),
                bytes: 16 * 1024,
                job: 0,
            });
        }
    }
    sim.try_run().expect("simulation completes")
}

fn main() {
    hrviz_bench::obs_init("ext_fattree");
    println!("Extension: Fat Tree (k=8, 128 hosts) under ECMP vs adaptive up-routing");
    let ecmp = run(UpRouting::Ecmp);
    let ada = run(UpRouting::Adaptive);

    let ds_e = ecmp.to_dataset();
    let ds_a = ada.to_dataset();
    let spec = ProjectionSpec::new(vec![
        LevelSpec::new(EntityKind::Router)
            .aggregate(&[Field::GroupId])
            .color(Field::TotalSatTime)
            .size(Field::TotalTraffic)
            .colors(&["white", "purple"]),
        LevelSpec::new(EntityKind::LocalLink)
            .aggregate(&[Field::GroupId, Field::RouterRank])
            .color(Field::SatTime)
            .size(Field::Traffic)
            .colors(&["white", "steelblue"]),
        LevelSpec::new(EntityKind::Terminal)
            .aggregate(&[Field::RouterId])
            .color(Field::AvgLatency)
            .size(Field::AvgHops)
            .colors(&["white", "purple"]),
    ])
    .ribbons(RibbonSpec::new(EntityKind::GlobalLink));
    let views = compare_views(&[&ds_e, &ds_a], &spec).expect("views build");
    write_out(
        "ext_fattree.svg",
        &render_radial_row(
            &[(&views[0], "ECMP"), (&views[1], "Adaptive")],
            &RadialLayout::default(),
            "Fat Tree k=8: pod stripe under ECMP vs adaptive up-routing (pods as groups)",
        ),
    );
    let sat = |ds: &DataSet| -> f64 {
        ds.link_rows(hrviz_core::EntityKind::LocalLink).iter().map(|l| l.sat).sum()
    };
    write_csv(
        "ext_fattree.csv",
        &[
            vec![
                "routing".into(),
                "pod_link_sat_ns".into(),
                "mean_latency_ns".into(),
                "end_ns".into(),
            ],
            vec![
                "ecmp".into(),
                format!("{:.0}", sat(&ds_e)),
                format!("{:.1}", ecmp.mean_latency_ns()),
                ecmp.end_time.as_nanos().to_string(),
            ],
            vec![
                "adaptive".into(),
                format!("{:.0}", sat(&ds_a)),
                format!("{:.1}", ada.mean_latency_ns()),
                ada.end_time.as_nanos().to_string(),
            ],
        ],
    );

    let mut exp = Expectations::new();
    exp.check("both routings deliver all traffic", {
        ecmp.delivered_bytes() == ecmp.injected_bytes()
            && ada.delivered_bytes() == ada.injected_bytes()
    });
    exp.check(
        "adaptive up-routing does not lose to ECMP on the stripe",
        ada.mean_latency_ns() <= ecmp.mean_latency_ns() * 1.02,
    );
    exp.check("projection machinery carries over (5 rings of 9 groups)", {
        views[0].rings[0].items.len() == 9 // 8 pods + core pseudo-group
    });
    std::process::exit(i32::from(!exp.finish("ext_fattree")));
}
