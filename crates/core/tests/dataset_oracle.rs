//! The typed, column-major [`DataSet`] against the row-major dataset it
//! replaced: the old extraction, brushing and per-field row accessors are
//! kept here as the oracle, and every `value(kind, row, field)`, derived
//! fields included, must match it bit for bit, on a sampled 72-terminal
//! Dragonfly run (whole, time-restricted, brushed, idle-filtered) and on a
//! Fat-Tree dataset built through [`DataSet::from_tables`].

use std::collections::HashSet;

use hrviz_core::{DataSet, EntityKind, Field, LinkRow, RouterRow, TerminalRow};
use hrviz_fattree::{FatTreeConfig, FatTreeSim, UpRouting};
use hrviz_network::{
    DragonflyConfig, JobMeta, LinkRecord, MsgInjection, NetworkSpec, RunData, Simulation,
    TerminalId, TerminalRecord, NO_JOB,
};
use hrviz_pdes::SimTime;

/// The row-major dataset.
struct Rows {
    jobs: Vec<String>,
    routers: Vec<RouterRow>,
    local_links: Vec<LinkRow>,
    global_links: Vec<LinkRow>,
    terminals: Vec<TerminalRow>,
}

fn ranged(v: u64, bins: &Option<hrviz_network::Bins>, range: Option<(SimTime, SimTime)>) -> f64 {
    match (range, bins) {
        (Some((s, e)), Some(b)) => b.sum_range(s, e) as f64,
        _ => v as f64,
    }
}

fn extract(run: &RunData, range: Option<(SimTime, SimTime)>) -> Rows {
    let topo = run.topology();
    let num_jobs = run.jobs.len() as u32;
    let proxy = num_jobs;

    // Dominant job per router (most attached terminals; proxy if none).
    let mut router_job = vec![proxy; run.routers.len()];
    for (r, counts) in router_job.iter_mut().enumerate() {
        let mut tally = vec![0u32; num_jobs as usize];
        let p = run.spec.topology.terminals_per_router;
        for k in 0..p {
            let t = topo.terminal_of(hrviz_network::RouterId(r as u32), k);
            let job = run.terminals[t.0 as usize].job;
            if job != NO_JOB {
                tally[job as usize] += 1;
            }
        }
        if let Some((best, &n)) = tally.iter().enumerate().max_by_key(|(_, &n)| n) {
            if n > 0 {
                *counts = best as u32;
            }
        }
    }

    let link_row = |l: &LinkRecord| LinkRow {
        src_router: l.src_router.0,
        src_group: topo.group_of_router(l.src_router).0,
        src_rank: topo.rank_of_router(l.src_router),
        src_port: l.src_port,
        dst_router: l.dst_router.0,
        dst_group: topo.group_of_router(l.dst_router).0,
        dst_rank: topo.rank_of_router(l.dst_router),
        dst_port: l.dst_port,
        src_job: router_job[l.src_router.0 as usize],
        dst_job: router_job[l.dst_router.0 as usize],
        traffic: ranged(l.traffic, &l.traffic_bins, range),
        sat: ranged(l.sat_ns, &l.sat_bins, range),
    };
    let local_links: Vec<LinkRow> = run.local_links.iter().map(link_row).collect();
    let global_links: Vec<LinkRow> = run.global_links.iter().map(link_row).collect();

    let term_row = |t: &TerminalRecord| {
        let (latency, hops) = match range {
            Some((s, e)) => {
                let count =
                    t.count_bins.as_ref().map(|b| b.sum_range(s, e)).unwrap_or(t.packets_finished);
                let lat = t.latency_bins.as_ref().map(|b| b.sum_range(s, e) as f64);
                let hop = t.hops_bins.as_ref().map(|b| b.sum_range(s, e) as f64);
                match (lat, hop) {
                    (Some(l), Some(h)) if count > 0 => (l / count as f64, h / count as f64),
                    (Some(_), Some(_)) => (0.0, 0.0),
                    _ => (t.avg_latency_ns, t.avg_hops),
                }
            }
            None => (t.avg_latency_ns, t.avg_hops),
        };
        let packets_in_range = match range {
            Some((s, e)) => t
                .count_bins
                .as_ref()
                .map(|b| b.sum_range(s, e) as f64)
                .unwrap_or(t.packets_finished as f64),
            None => t.packets_finished as f64,
        };
        TerminalRow {
            terminal: t.terminal.0,
            router: t.router.0,
            group: topo.group_of_router(t.router).0,
            rank: topo.rank_of_router(t.router),
            port: t.port,
            job: if t.job == NO_JOB { proxy } else { t.job as u32 },
            data_size: ranged(t.data_bytes, &t.traffic_bins, range),
            recv_bytes: t.recv_bytes as f64,
            busy: t.busy_ns as f64,
            sat: ranged(t.sat_ns, &t.sat_bins, range),
            packets_finished: packets_in_range,
            packets_sent: t.packets_sent as f64,
            avg_latency: latency,
            avg_hops: hops,
        }
    };
    let terminals: Vec<TerminalRow> = run.terminals.iter().map(term_row).collect();

    // Router roll-ups recomputed from (possibly ranged) link rows so
    // they stay consistent with the links shown.
    let mut routers: Vec<RouterRow> = run
        .routers
        .iter()
        .map(|r| RouterRow {
            router: r.router.0,
            group: r.group,
            rank: r.rank,
            job: router_job[r.router.0 as usize],
            global_traffic: 0.0,
            global_sat: 0.0,
            local_traffic: 0.0,
            local_sat: 0.0,
        })
        .collect();
    for l in &local_links {
        let r = &mut routers[l.src_router as usize];
        r.local_traffic += l.traffic;
        r.local_sat += l.sat;
    }
    for l in &global_links {
        let r = &mut routers[l.src_router as usize];
        r.global_traffic += l.traffic;
        r.global_sat += l.sat;
    }

    Rows {
        jobs: run.jobs.iter().map(|j| j.name.clone()).collect(),
        routers,
        local_links,
        global_links,
        terminals,
    }
}

/// The old router field table's row accessors.
fn router_value(r: &RouterRow, field: Field) -> Option<f64> {
    Some(match field {
        Field::GroupId => r.group as f64,
        Field::RouterId => r.router as f64,
        Field::RouterRank => r.rank as f64,
        Field::Workload => r.job as f64,
        Field::GlobalTraffic => r.global_traffic,
        Field::GlobalSatTime => r.global_sat,
        Field::LocalTraffic => r.local_traffic,
        Field::LocalSatTime => r.local_sat,
        Field::TotalTraffic | Field::Traffic => r.global_traffic + r.local_traffic,
        Field::TotalSatTime | Field::SatTime => r.global_sat + r.local_sat,
        _ => return None,
    })
}

/// The old link field table's row accessors.
fn link_value(l: &LinkRow, field: Field) -> Option<f64> {
    Some(match field {
        Field::GroupId => l.src_group as f64,
        Field::RouterId => l.src_router as f64,
        Field::RouterRank => l.src_rank as f64,
        Field::RouterPort => l.src_port as f64,
        Field::Workload => l.src_job as f64,
        Field::DstGroupId => l.dst_group as f64,
        Field::DstRouterId => l.dst_router as f64,
        Field::DstRouterRank => l.dst_rank as f64,
        Field::DstRouterPort => l.dst_port as f64,
        Field::DstWorkload => l.dst_job as f64,
        Field::Traffic => l.traffic,
        Field::SatTime => l.sat,
        _ => return None,
    })
}

/// The old terminal field table's row accessors.
fn terminal_value(t: &TerminalRow, field: Field) -> Option<f64> {
    Some(match field {
        Field::GroupId => t.group as f64,
        Field::RouterId => t.router as f64,
        Field::RouterRank => t.rank as f64,
        Field::RouterPort => t.port as f64,
        Field::TerminalId => t.terminal as f64,
        Field::Workload => t.job as f64,
        Field::DataSize | Field::Traffic => t.data_size,
        Field::SatTime => t.sat,
        Field::RecvBytes => t.recv_bytes,
        Field::BusyTime => t.busy,
        Field::PacketsFinished => t.packets_finished,
        Field::PacketsSent => t.packets_sent,
        Field::AvgLatency => t.avg_latency,
        Field::AvgHops => t.avg_hops,
        _ => return None,
    })
}

/// Every field in the vocabulary.
const ALL_FIELDS: [Field; 26] = [
    Field::GroupId,
    Field::RouterId,
    Field::RouterRank,
    Field::RouterPort,
    Field::TerminalId,
    Field::Workload,
    Field::DstGroupId,
    Field::DstRouterId,
    Field::DstRouterRank,
    Field::DstRouterPort,
    Field::DstWorkload,
    Field::Traffic,
    Field::SatTime,
    Field::DataSize,
    Field::RecvBytes,
    Field::BusyTime,
    Field::PacketsFinished,
    Field::PacketsSent,
    Field::AvgLatency,
    Field::AvgHops,
    Field::GlobalTraffic,
    Field::GlobalSatTime,
    Field::LocalTraffic,
    Field::LocalSatTime,
    Field::TotalTraffic,
    Field::TotalSatTime,
];

impl Rows {
    fn len(&self, kind: EntityKind) -> usize {
        match kind {
            EntityKind::Router => self.routers.len(),
            EntityKind::LocalLink => self.local_links.len(),
            EntityKind::GlobalLink => self.global_links.len(),
            EntityKind::Terminal => self.terminals.len(),
        }
    }

    /// The old field tables' value of `field` at `row`, `None` when the
    /// kind does not carry it.
    fn value(&self, kind: EntityKind, row: usize, field: Field) -> Option<f64> {
        match kind {
            EntityKind::Router => router_value(&self.routers[row], field),
            EntityKind::LocalLink => link_value(&self.local_links[row], field),
            EntityKind::GlobalLink => link_value(&self.global_links[row], field),
            EntityKind::Terminal => terminal_value(&self.terminals[row], field),
        }
    }

    fn filter_terminals(&self, pred: impl Fn(&TerminalRow) -> bool) -> Rows {
        let terminals: Vec<TerminalRow> =
            self.terminals.iter().filter(|t| pred(t)).copied().collect();
        let routers_kept: HashSet<u32> = terminals.iter().map(|t| t.router).collect();
        let keep_link = |l: &&LinkRow| {
            routers_kept.contains(&l.src_router) || routers_kept.contains(&l.dst_router)
        };
        Rows {
            jobs: self.jobs.clone(),
            routers: self
                .routers
                .iter()
                .filter(|r| routers_kept.contains(&r.router))
                .copied()
                .collect(),
            local_links: self.local_links.iter().filter(keep_link).copied().collect(),
            global_links: self.global_links.iter().filter(keep_link).copied().collect(),
            terminals,
        }
    }
}

/// `ds` carries exactly the oracle's fields and, for every kind, row and
/// field, the oracle's value bit for bit.
fn assert_matches(ds: &DataSet, oracle: &Rows, what: &str) {
    assert_eq!(ds.jobs, oracle.jobs, "{what}");
    for kind in EntityKind::ALL {
        assert_eq!(ds.len(kind), oracle.len(kind), "{what}: {kind} rows");
        assert!(oracle.len(kind) > 0, "{what}: {kind} rows exist");
        for field in ALL_FIELDS {
            let carried = oracle.value(kind, 0, field).is_some();
            assert_eq!(DataSet::has_field(kind, field), carried, "{what}: {kind}/{field}");
            if !carried {
                continue;
            }
            for row in 0..oracle.len(kind) {
                let want = oracle.value(kind, row, field).expect("carried field");
                let got = ds.value(kind, row, field);
                assert_eq!(got.to_bits(), want.to_bits(), "{what}: {kind}[{row}].{field}");
            }
        }
    }
}

/// A sampled 72-terminal Dragonfly run: one job on the first 40
/// terminals (the rest idle), messages in two bursts.
fn sampled_run() -> RunData {
    let spec =
        NetworkSpec::new(DragonflyConfig::canonical(2)).with_sampling(SimTime::micros(1), 512);
    let mut sim = Simulation::new(spec);
    let terminals = (0..40).map(TerminalId).collect();
    let job = sim.add_job(JobMeta { name: "job".into(), terminals });
    for src in 0..40u32 {
        for (at, bytes) in [(0, 4096), (5, 2048 + 64 * u64::from(src))] {
            sim.inject(MsgInjection {
                time: SimTime::micros(at),
                src: TerminalId(src),
                dst: TerminalId((src * 7 + 3) % 40),
                bytes,
                job,
            });
        }
    }
    sim.try_run().expect("simulation completes")
}

#[test]
fn typed_dataset_equals_the_row_oracle_on_a_dragonfly_run() {
    let run = sampled_run();
    assert_eq!(run.terminals.len(), 72);
    let whole = extract(&run, None);
    assert_matches(&DataSet::builder(&run).build(), &whole, "whole run");

    let (s, e) = (SimTime::micros(2), SimTime::micros(6));
    let ranged = DataSet::builder(&run).range(s, e).build();
    assert_eq!(ranged.time_range, Some((s, e)));
    assert_matches(&ranged, &extract(&run, Some((s, e))), "range");

    let pick = |t: &TerminalRow| t.terminal.is_multiple_of(5) || t.avg_latency > 2_000.0;
    let brushed = whole.filter_terminals(pick);
    assert!(brushed.terminals.len() < whole.terminals.len());
    assert_matches(&DataSet::builder(&run).brush(pick).build(), &brushed, "brush");

    let proxy = whole.jobs.len() as u32;
    let active = whole.filter_terminals(|t| t.job != proxy);
    assert_eq!(active.terminals.len(), 40);
    assert_matches(&DataSet::builder(&run).drop_idle().build(), &active, "drop_idle");

    let both = whole.filter_terminals(|t| t.job != proxy && pick(t));
    assert_matches(&DataSet::builder(&run).brush(pick).drop_idle().build(), &both, "both");
}

#[test]
fn typed_dataset_equals_the_row_oracle_on_a_fat_tree_dataset() {
    let cfg = FatTreeConfig::try_new(4).expect("valid k");
    let mut sim = FatTreeSim::new(cfg, UpRouting::Adaptive);
    for src in 0..16u32 {
        sim.inject(MsgInjection {
            time: SimTime::ZERO,
            src: TerminalId(src),
            dst: TerminalId((src + 5) % 16),
            bytes: 8192,
            job: 0,
        });
    }
    let ds = sim.try_run().expect("simulation completes").to_dataset();
    // The rows `from_tables` was given, gathered back, feed the oracle.
    let rows = Rows {
        jobs: ds.jobs.clone(),
        routers: ds.router_rows(),
        local_links: ds.link_rows(EntityKind::LocalLink),
        global_links: ds.link_rows(EntityKind::GlobalLink),
        terminals: ds.terminal_rows(),
    };
    assert!(rows.routers.iter().any(|r| r.global_traffic > 0.0 && r.local_traffic > 0.0));
    assert_matches(&ds, &rows, "fat tree");
    let rebuilt = DataSet::from_tables(
        rows.jobs.clone(),
        rows.routers.clone(),
        rows.local_links.clone(),
        rows.global_links.clone(),
        rows.terminals.clone(),
    );
    assert_eq!(rebuilt, ds);
}
