//! Workspace-level property tests: cross-crate invariants that must hold
//! for arbitrary workloads and arbitrary (valid) specifications.

use hrviz::core::{
    build_view, parse_script, to_script, DataSet, EntityKind, Field, LevelSpec, ProjectionSpec,
    RibbonSpec,
};
use hrviz::network::{
    DragonflyConfig, MsgInjection, NetworkSpec, RoutingAlgorithm, Simulation, TerminalId,
};
use hrviz::pdes::SimTime;
use proptest::prelude::*;

fn routing_strategy() -> impl Strategy<Value = RoutingAlgorithm> {
    prop_oneof![
        Just(RoutingAlgorithm::Minimal),
        Just(RoutingAlgorithm::NonMinimal),
        (0u64..100_000).prop_map(|t| RoutingAlgorithm::Adaptive { threshold: t }),
        (0u64..100_000).prop_map(|t| RoutingAlgorithm::ProgressiveAdaptive { threshold: t }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation: every injected byte is delivered, under every routing
    /// strategy and arbitrary message sets, and latency/hops stay sane.
    #[test]
    fn traffic_is_conserved(
        routing in routing_strategy(),
        msgs in prop::collection::vec(
            (0u64..50_000, 0u32..72, 0u32..72, 1u64..40_000),
            1..60,
        ),
        seed in 0u64..1_000,
    ) {
        let spec = NetworkSpec::new(DragonflyConfig::canonical(2))
            .with_routing(routing)
            .with_seed(seed);
        let mut sim = Simulation::new(spec);
        let mut expect = 0u64;
        for (t, src, dst, bytes) in msgs {
            if src != dst {
                expect += bytes;
            }
            sim.inject(MsgInjection {
                time: SimTime(t),
                src: TerminalId(src),
                dst: TerminalId(dst),
                bytes,
                job: 0,
            });
        }
        let run = sim.try_run().expect("simulation completes");
        prop_assert_eq!(run.total_delivered(), expect);
        for t in &run.terminals {
            // Hops on any legal path: 1..=6 routers.
            if t.packets_finished > 0 {
                prop_assert!(t.avg_hops >= 1.0 && t.avg_hops <= 6.0, "hops {}", t.avg_hops);
                prop_assert!(t.avg_latency_ns > 0.0);
            }
        }
        // Saturation can never exceed elapsed time per link.
        let horizon = run.end_time.as_nanos();
        for l in run.local_links.iter().chain(&run.global_links) {
            prop_assert!(l.sat_ns <= horizon, "sat {} > horizon {horizon}", l.sat_ns);
        }
    }

    /// Parallel and sequential engines agree for arbitrary workloads.
    #[test]
    fn parallel_equals_sequential(
        msgs in prop::collection::vec(
            (0u64..20_000, 0u32..72, 0u32..72, 1u64..20_000),
            1..40,
        ),
        parts in 2usize..7,
    ) {
        let build = |m: &[(u64, u32, u32, u64)]| {
            let spec = NetworkSpec::new(DragonflyConfig::canonical(2))
                .with_routing(RoutingAlgorithm::adaptive_default())
                .with_seed(5);
            let mut sim = Simulation::new(spec);
            for &(t, src, dst, bytes) in m {
                sim.inject(MsgInjection {
                    time: SimTime(t),
                    src: TerminalId(src),
                    dst: TerminalId(dst),
                    bytes,
                    job: 0,
                });
            }
            sim
        };
        let seq = build(&msgs).try_run().expect("simulation completes");
        let par = build(&msgs).try_run_parallel(parts).expect("parallel run completes");
        prop_assert_eq!(seq.events_processed, par.events_processed);
        prop_assert_eq!(seq.end_time, par.end_time);
        for (a, b) in seq.terminals.iter().zip(&par.terminals) {
            prop_assert_eq!(a.packets_finished, b.packets_finished);
            prop_assert_eq!(a.avg_latency_ns, b.avg_latency_ns);
        }
    }
}

fn arb_level() -> impl Strategy<Value = LevelSpec> {
    let entities = prop_oneof![
        Just(EntityKind::Router),
        Just(EntityKind::LocalLink),
        Just(EntityKind::GlobalLink),
        Just(EntityKind::Terminal),
    ];
    (entities, 0usize..3, prop::bool::ANY, prop::option::of(1usize..20)).prop_map(
        |(entity, naggs, border, max_bins)| {
            let attrs: Vec<Field> = [Field::GroupId, Field::RouterId, Field::RouterRank]
                .into_iter()
                .take(naggs)
                .collect();
            let mut lv = LevelSpec::new(entity).aggregate(&attrs).border(border);
            lv.max_bins = max_bins;
            // Every entity kind has traffic + sat_time.
            lv = lv.color(Field::SatTime).size(Field::Traffic);
            lv
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Script serialization round-trips arbitrary valid specs.
    #[test]
    fn script_roundtrip(levels in prop::collection::vec(arb_level(), 1..4),
                        ribbons in prop::bool::ANY) {
        let mut spec = ProjectionSpec::new(levels);
        if ribbons {
            spec = spec.ribbons(RibbonSpec::new(EntityKind::GlobalLink));
        }
        prop_assume!(spec.validate().is_ok());
        let text = to_script(&spec);
        let re = parse_script(&text).expect("serialized script must parse");
        prop_assert_eq!(re.levels.len(), spec.levels.len());
        for (a, b) in re.levels.iter().zip(&spec.levels) {
            prop_assert_eq!(a.entity, b.entity);
            prop_assert_eq!(&a.aggregate, &b.aggregate);
            prop_assert_eq!(a.max_bins, b.max_bins);
            prop_assert_eq!(a.vmap, b.vmap);
            prop_assert_eq!(a.border, b.border);
        }
    }

    /// Views built from arbitrary valid specs keep every normalized
    /// encoding in [0,1], cover every filtered row exactly once, and keep
    /// angular spans within the circle.
    #[test]
    fn views_are_well_formed(levels in prop::collection::vec(arb_level(), 1..4)) {
        let spec = ProjectionSpec::new(levels);
        prop_assume!(spec.validate().is_ok());
        // A small deterministic run to project.
        let net = NetworkSpec::new(DragonflyConfig::canonical(2)).with_seed(1);
        let mut sim = Simulation::new(net);
        for src in 0..72u32 {
            sim.inject(MsgInjection {
                time: SimTime::ZERO,
                src: TerminalId(src),
                dst: TerminalId((src + 36) % 72),
                bytes: 4096,
                job: 0,
            });
        }
        let ds = DataSet::builder(&sim.try_run().expect("simulation completes")).build();
        let view = build_view(&ds, &spec).expect("valid spec builds");
        for (ring, lv) in view.rings.iter().zip(&spec.levels) {
            let mut covered = 0usize;
            for item in &ring.items {
                covered += item.rows.len();
                for v in [item.color, item.size, item.x, item.y].into_iter().flatten() {
                    prop_assert!((0.0..=1.0).contains(&v));
                }
                prop_assert!(item.span.0 >= -1e-9 && item.span.1 <= 1.0 + 1e-9);
                prop_assert!(item.span.0 <= item.span.1);
            }
            if let Some(cap) = lv.max_bins {
                prop_assert!(ring.items.len() <= cap.max(1));
            }
            prop_assert_eq!(covered, ds.len(lv.entity), "every row appears exactly once");
        }
    }
}
