//! Fat-Tree simulation assembly and analytics extraction.

use crate::config::{FatTreeConfig, Layer, UpRouting};
use crate::switch::{FtLinks, SwitchLp};
use hrviz_core::dataset::{DataSet, LinkRow, RouterRow, TerminalRow};
use hrviz_faults::{FaultSchedule, HrvizError};
use hrviz_network::config::LinkClass;
use hrviz_network::driver::{self, Boundary, Mode};
use hrviz_network::node::{Node, Switch};
use hrviz_network::terminal::TerminalLp;
use hrviz_network::topology::TerminalId;
use hrviz_network::traffic::{JobMeta, MsgInjection};
use hrviz_network::NO_JOB;
use hrviz_pdes::SimTime;
use hrviz_stream::{SliceSink, StreamedOutcome};

/// A configured Fat-Tree simulation.
pub struct FatTreeSim {
    cfg: FatTreeConfig,
    routing: UpRouting,
    links: FtLinks,
    packet_bytes: u32,
    vc_buffer_bytes: u32,
    schedules: Vec<Vec<MsgInjection>>,
    jobs: Vec<JobMeta>,
    faults: FaultSchedule,
}

impl FatTreeSim {
    /// New simulation with default link parameters.
    pub fn new(cfg: FatTreeConfig, routing: UpRouting) -> FatTreeSim {
        FatTreeSim {
            cfg,
            routing,
            links: FtLinks::default(),
            packet_bytes: 2048,
            vc_buffer_bytes: 16 * 1024,
            schedules: vec![Vec::new(); cfg.num_hosts() as usize],
            jobs: Vec::new(),
            faults: FaultSchedule::new(0),
        }
    }

    /// Attach a fault schedule; every event is broadcast to all switches at
    /// its injection time.
    pub fn with_faults(mut self, faults: FaultSchedule) -> Self {
        self.faults = faults;
        self
    }

    /// The shape.
    pub fn config(&self) -> FatTreeConfig {
        self.cfg
    }

    /// Register a job.
    pub fn add_job(&mut self, meta: JobMeta) -> u16 {
        let id = self.jobs.len() as u16;
        self.jobs.push(meta);
        id
    }

    /// Queue a message.
    pub fn inject(&mut self, msg: MsgInjection) {
        assert!(msg.src.0 < self.cfg.num_hosts(), "source host out of range");
        assert!(msg.dst.0 < self.cfg.num_hosts(), "destination host out of range");
        self.schedules[msg.src.0 as usize].push(msg);
    }

    /// Queue many messages.
    pub fn inject_all(&mut self, msgs: impl IntoIterator<Item = MsgInjection>) {
        for m in msgs {
            self.inject(m);
        }
    }

    /// Run to completion, converting watchdog trips and credit-audit
    /// failures into structured errors instead of panicking.
    pub fn try_run(self) -> Result<FatTreeRun, HrvizError> {
        self.drive(Mode::Serial { restore_from: None, grid: None })?
            .completed()
            .ok_or_else(|| HrvizError::config("batch run aborted without a slice sink"))
    }

    /// Run to completion, sealing one [`hrviz_stream::Slice`] of counter
    /// deltas into `sink` at every absolute multiple of `window` plus a
    /// final partial slice. The sink may abort the run; a completed run
    /// is bit-identical to [`FatTreeSim::try_run`].
    pub fn try_run_streamed(
        self,
        window: SimTime,
        sink: SliceSink<'_>,
    ) -> Result<StreamedOutcome<FatTreeRun>, HrvizError> {
        self.drive(Mode::Serial { restore_from: None, grid: Some((window, Boundary::Slice(sink))) })
    }

    /// Build the hosts and switches and run them through the shared
    /// driver, reporting into the global collector.
    fn drive(mut self, mode: Mode<'_>) -> Result<StreamedOutcome<FatTreeRun>, HrvizError> {
        let cfg = self.cfg;
        let mut nodes = Vec::with_capacity(cfg.num_lps() as usize);
        for hst in 0..cfg.num_hosts() {
            let mut lp = TerminalLp::new(
                TerminalId(hst),
                cfg.switch_lp(cfg.edge_of_host(hst)),
                cfg.host_port(hst) as u16,
                self.links.host,
                self.packet_bytes,
                self.vc_buffer_bytes,
                None,
            );
            let mut sched = std::mem::take(&mut self.schedules[hst as usize]);
            sched.sort_by_key(|m| m.time);
            lp.set_schedule(sched);
            nodes.push(Node::Terminal(lp));
        }
        for sw in 0..cfg.num_switches() {
            let lp =
                SwitchLp::new(cfg, sw, self.routing, &self.links, 1, self.vc_buffer_bytes, None);
            nodes.push(Node::Switch(lp));
        }
        for (j, job) in self.jobs.iter().enumerate() {
            for &t in &job.terminals {
                if let Node::Terminal(h) = &mut nodes[t.0 as usize] {
                    h.job = j as u16;
                }
            }
        }
        // Lookahead = min link latency.
        let lookahead =
            self.links.host.latency.min(self.links.pod.latency).min(self.links.core.latency);
        let jobs = self.jobs;
        driver::drive(nodes, lookahead, &self.faults, &hrviz_obs::get(), mode, |nodes, stats| {
            FatTreeRun {
                cfg,
                jobs,
                nodes,
                end_time: stats.end_time,
                events_processed: stats.events_processed,
            }
        })
    }
}

/// Results of a Fat-Tree run.
pub struct FatTreeRun {
    cfg: FatTreeConfig,
    jobs: Vec<JobMeta>,
    nodes: Vec<Node<SwitchLp>>,
    /// Simulated end time.
    pub end_time: SimTime,
    /// Events processed.
    pub events_processed: u64,
}

impl FatTreeRun {
    /// Total bytes delivered to hosts.
    pub fn delivered_bytes(&self) -> u64 {
        self.hosts().map(|h| h.stats.recv_bytes).sum()
    }

    /// Total bytes injected.
    pub fn injected_bytes(&self) -> u64 {
        self.hosts().map(|h| h.stats.injected_bytes).sum()
    }

    /// Packets discarded by switches (fault schedule / TTL), all causes.
    pub fn dropped_packets(&self) -> u64 {
        self.switches().map(|s| s.drops().total()).sum()
    }

    /// Bytes discarded by switches.
    pub fn dropped_bytes(&self) -> u64 {
        self.switches().map(|s| s.drops().bytes).sum()
    }

    /// Packets steered to an alternate up-port because their first choice
    /// was dead.
    pub fn rerouted_packets(&self) -> u64 {
        self.switches().map(|s| s.reroutes()).sum()
    }

    fn hosts(&self) -> impl Iterator<Item = &TerminalLp> {
        self.nodes.iter().filter_map(Node::as_terminal)
    }

    fn switches(&self) -> impl Iterator<Item = &SwitchLp> {
        self.nodes.iter().filter_map(Node::as_switch)
    }

    /// Mean packet latency (ns) over all delivered packets.
    pub fn mean_latency_ns(&self) -> f64 {
        let (mut sum, mut n) = (0u64, 0u64);
        for h in self.hosts() {
            sum += h.stats.latency_sum_ns;
            n += h.stats.packets_finished;
        }
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    }

    /// Flatten into the analytics tables: pods become groups, switch
    /// positions become ranks, pod links the local class and core links
    /// the global class — the *same* projection scripts, detail views and
    /// renderers as the Dragonfly then apply unchanged.
    pub fn to_dataset(&self) -> DataSet {
        let cfg = self.cfg;
        let mut routers = Vec::new();
        let mut local_links = Vec::new();
        let mut global_links = Vec::new();
        // Dominant job per edge switch (for link job attribution).
        let host_job: Vec<u16> = self.hosts().map(|h| h.job).collect();
        let switch_job = |sw: u32| -> u32 {
            match cfg.classify(sw) {
                (Layer::Edge, _, _) => {
                    let h = cfg.half();
                    // BTreeMap so a tie for the dominant job resolves to a
                    // fixed (highest) job id instead of hash order.
                    let mut tally = std::collections::BTreeMap::new();
                    for p in 0..h {
                        let j = host_job[(sw * h + p) as usize];
                        if j != NO_JOB {
                            *tally.entry(j).or_insert(0u32) += 1;
                        }
                    }
                    tally
                        .into_iter()
                        .max_by_key(|&(_, n)| n)
                        .map(|(j, _)| j as u32)
                        .unwrap_or(self.jobs.len() as u32)
                }
                _ => self.jobs.len() as u32,
            }
        };
        for s in self.switches() {
            let (group, rank) = cfg.analytics_coords(s.id);
            let mut row = RouterRow {
                router: s.id,
                group,
                rank,
                job: switch_job(s.id),
                global_traffic: 0.0,
                global_sat: 0.0,
                local_traffic: 0.0,
                local_sat: 0.0,
            };
            for p in s.ports() {
                let peer_sw = p.peer_lp.0.saturating_sub(cfg.num_hosts());
                let (dst_group, dst_rank) = cfg.analytics_coords(peer_sw);
                let link = LinkRow {
                    src_router: s.id,
                    src_group: group,
                    src_rank: rank,
                    src_port: p.class_idx,
                    dst_router: peer_sw,
                    dst_group,
                    dst_rank,
                    dst_port: p.peer_port,
                    src_job: switch_job(s.id),
                    dst_job: switch_job(peer_sw),
                    traffic: p.traffic as f64,
                    sat: p.sat_ns as f64,
                };
                match p.class {
                    LinkClass::Local => {
                        row.local_traffic += link.traffic;
                        row.local_sat += link.sat;
                        local_links.push(link);
                    }
                    LinkClass::Global => {
                        row.global_traffic += link.traffic;
                        row.global_sat += link.sat;
                        global_links.push(link);
                    }
                    LinkClass::Terminal => {}
                }
            }
            routers.push(row);
        }
        let terminals: Vec<TerminalRow> = self
            .hosts()
            .map(|h| {
                let edge = cfg.edge_of_host(h.id.0);
                let (group, rank) = cfg.analytics_coords(edge);
                TerminalRow {
                    terminal: h.id.0,
                    router: edge,
                    group,
                    rank,
                    port: cfg.host_port(h.id.0),
                    job: if h.job == NO_JOB { self.jobs.len() as u32 } else { h.job as u32 },
                    data_size: h.stats.injected_bytes as f64,
                    recv_bytes: h.stats.recv_bytes as f64,
                    busy: h.stats.busy_ns as f64,
                    sat: h.stats.sat_ns as f64,
                    packets_finished: h.stats.packets_finished as f64,
                    packets_sent: h.stats.packets_sent as f64,
                    avg_latency: h.stats.avg_latency_ns(),
                    avg_hops: h.stats.avg_hops(),
                }
            })
            .collect();
        DataSet::from_tables(
            self.jobs.iter().map(|j| j.name.clone()).collect(),
            routers,
            local_links,
            global_links,
            terminals,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrviz_core::{build_view, EntityKind, Field, LevelSpec, ProjectionSpec, RibbonSpec};
    use hrviz_faults::FaultEvent;
    use hrviz_stream::SliceControl;
    use rand::{Rng, SeedableRng};

    fn msg(t: u64, src: u32, dst: u32, bytes: u64) -> MsgInjection {
        MsgInjection { time: SimTime(t), src: TerminalId(src), dst: TerminalId(dst), bytes, job: 0 }
    }

    #[test]
    fn single_message_crosses_the_tree() {
        let cfg = FatTreeConfig::try_new(4).expect("valid k");
        let mut sim = FatTreeSim::new(cfg, UpRouting::Ecmp);
        sim.inject(msg(0, 0, 15, 10_000)); // pod 0 → pod 3: full up/down
        let run = sim.try_run().expect("run");
        assert_eq!(run.delivered_bytes(), 10_000);
        let ds = run.to_dataset();
        // 5 switch hops: edge, agg, core, agg, edge.
        let terminals = ds.terminal_rows();
        assert_eq!(terminals[15].avg_hops, 5.0);
        assert!(terminals[15].avg_latency > 0.0);
    }

    #[test]
    fn same_edge_stays_local() {
        let cfg = FatTreeConfig::try_new(4).expect("valid k");
        let mut sim = FatTreeSim::new(cfg, UpRouting::Ecmp);
        sim.inject(msg(0, 0, 1, 4096)); // same edge switch
        let run = sim.try_run().expect("run");
        let ds = run.to_dataset();
        assert_eq!(ds.terminal_rows()[1].avg_hops, 1.0);
        // No pod or core link carries traffic.
        for kind in [EntityKind::LocalLink, EntityKind::GlobalLink] {
            assert!(ds.link_rows(kind).iter().all(|l| l.traffic == 0.0));
        }
    }

    #[test]
    fn conservation_under_random_traffic_both_routings() {
        for routing in [UpRouting::Ecmp, UpRouting::Adaptive] {
            let cfg = FatTreeConfig::try_new(4).expect("valid k");
            let mut sim = FatTreeSim::new(cfg, routing);
            let mut rng = rand::rngs::StdRng::seed_from_u64(3);
            let n = cfg.num_hosts();
            let mut expect = 0u64;
            for src in 0..n {
                for k in 0..20u64 {
                    let dst = (src + 1 + rng.gen_range(0..n - 1)) % n;
                    sim.inject(msg(k * 500, src, dst, 4096));
                    expect += 4096;
                }
            }
            let run = sim.try_run().expect("run");
            assert_eq!(run.delivered_bytes(), expect, "{}", routing.name());
        }
    }

    #[test]
    fn streamed_run_matches_batch_on_fat_tree() {
        let build = || {
            let cfg = FatTreeConfig::try_new(4).expect("valid k");
            let mut sim = FatTreeSim::new(cfg, UpRouting::Adaptive);
            let mut rng = rand::rngs::StdRng::seed_from_u64(9);
            let n = cfg.num_hosts();
            for src in 0..n {
                for k in 0..12u64 {
                    let dst = (src + 1 + rng.gen_range(0..n - 1)) % n;
                    sim.inject(msg(k * 700, src, dst, 2048));
                }
            }
            sim
        };
        let batch = build().try_run().expect("batch run");
        let mut slices = Vec::new();
        let mut sink = |s: &hrviz_stream::Slice| {
            slices.push(s.clone());
            Ok(SliceControl::Continue)
        };
        let streamed = build()
            .try_run_streamed(SimTime(5_000), &mut sink)
            .expect("streamed run")
            .completed()
            .expect("ran to completion");
        assert_eq!(streamed.end_time, batch.end_time);
        assert_eq!(streamed.events_processed, batch.events_processed);
        assert_eq!(streamed.delivered_bytes(), batch.delivered_bytes());
        assert_eq!(streamed.dropped_packets(), batch.dropped_packets());
        let (a, b) = (streamed.to_dataset(), batch.to_dataset());
        for (x, y) in a.terminal_rows().iter().zip(&b.terminal_rows()) {
            assert_eq!(x.avg_latency, y.avg_latency);
            assert_eq!(x.data_size, y.data_size);
        }
        // Slices are contiguous, cover the run, and sum to the totals.
        assert!(slices.len() >= 2, "expected several slices, got {}", slices.len());
        for (i, s) in slices.iter().enumerate() {
            assert_eq!(s.seq, i as u64);
        }
        for w in slices.windows(2) {
            assert_eq!(w[0].t_end_ns, w[1].t_start_ns);
        }
        assert_eq!(slices.last().expect("nonempty").t_end_ns, batch.end_time.as_nanos());
        let delivered: u64 = slices.iter().map(|s| s.delivered_bytes).sum();
        assert_eq!(delivered, batch.delivered_bytes());
        let hist: u64 = slices.iter().map(|s| s.latency_hist.iter().sum::<u64>()).sum();
        let pkts: u64 = slices.iter().map(|s| s.delivered_packets).sum();
        assert_eq!(hist, pkts);
    }

    #[test]
    fn streamed_fat_tree_run_can_be_aborted() {
        let cfg = FatTreeConfig::try_new(4).expect("valid k");
        let mut sim = FatTreeSim::new(cfg, UpRouting::Ecmp);
        for k in 0..200u64 {
            sim.inject(msg(k * 1_000, 0, 15, 4096));
        }
        let mut seen = 0u64;
        let mut sink = |_: &hrviz_stream::Slice| {
            seen += 1;
            if seen >= 2 {
                Ok(SliceControl::Abort("test".into()))
            } else {
                Ok(SliceControl::Continue)
            }
        };
        match sim.try_run_streamed(SimTime(10_000), &mut sink).expect("streamed run") {
            StreamedOutcome::Aborted { reason, slices, .. } => {
                assert_eq!(reason, "test");
                assert_eq!(slices, 2);
            }
            StreamedOutcome::Completed(_) => panic!("expected abort"),
        }
    }

    #[test]
    fn adaptive_balances_better_than_ecmp_under_incast_stripes() {
        // All hosts of pod 0 send to pod 1 continuously: ECMP hashing
        // collides on up-links, adaptive levels them.
        let run_with = |routing| {
            let cfg = FatTreeConfig::try_new(4).expect("valid k");
            let mut sim = FatTreeSim::new(cfg, routing);
            for src in 0..4u32 {
                for k in 0..40u64 {
                    sim.inject(msg(k * 100, src, 4 + src, 16 * 1024));
                }
            }
            sim.try_run().expect("run")
        };
        let ecmp = run_with(UpRouting::Ecmp);
        let ada = run_with(UpRouting::Adaptive);
        assert!(
            ada.mean_latency_ns() <= ecmp.mean_latency_ns() * 1.05,
            "adaptive {} should not lose to ecmp {}",
            ada.mean_latency_ns(),
            ecmp.mean_latency_ns()
        );
        assert!(ada.end_time <= ecmp.end_time);
    }

    #[test]
    fn dead_core_uplink_is_routed_around() {
        // Kill one agg → core up-link in every pod's first aggregation:
        // all cross-pod traffic through those aggs must shift to the
        // sibling core, and nothing may be dropped.
        let cfg = FatTreeConfig::try_new(4).expect("valid k");
        let h = cfg.half();
        let mut faults = FaultSchedule::new(1);
        for pod in 0..cfg.pods() {
            faults
                .push(SimTime::ZERO, FaultEvent::LinkDown { router: cfg.agg_id(pod, 0), port: h });
        }
        for routing in [UpRouting::Ecmp, UpRouting::Adaptive] {
            let mut sim = FatTreeSim::new(cfg, routing).with_faults(faults.clone());
            let mut expect = 0u64;
            for src in 0..cfg.num_hosts() {
                let dst = (src + cfg.num_hosts() / 2) % cfg.num_hosts(); // cross-pod
                for k in 0..4u64 {
                    sim.inject(msg(k * 400, src, dst, 4096));
                    expect += 4096;
                }
            }
            let run = sim.try_run().expect("faulted fat-tree run completes");
            assert_eq!(run.delivered_bytes(), expect, "{}", routing.name());
            assert_eq!(run.dropped_packets(), 0, "{}", routing.name());
            assert!(run.rerouted_packets() > 0, "{}", routing.name());
        }
    }

    #[test]
    fn dead_edge_switch_drops_with_counted_drops() {
        let cfg = FatTreeConfig::try_new(4).expect("valid k");
        let mut faults = FaultSchedule::new(2);
        faults.push(SimTime::ZERO, FaultEvent::RouterDown { router: cfg.edge_id(0, 0) });
        let mut sim = FatTreeSim::new(cfg, UpRouting::Adaptive).with_faults(faults);
        sim.inject(msg(0, 4, 0, 4096)); // pod 1 → dead edge's host
        sim.inject(msg(0, 5, 10, 4096)); // pod 1 → pod 2, unaffected
        let run = sim.try_run().expect("run completes despite the dead switch");
        assert_eq!(run.delivered_bytes(), 4096, "healthy flow still lands");
        assert!(run.dropped_packets() > 0, "doomed flow is counted, not lost");
        assert_eq!(
            run.delivered_bytes() + run.dropped_bytes(),
            run.injected_bytes(),
            "every injected byte is either delivered or a counted drop"
        );
    }

    #[test]
    fn fat_tree_fault_replay_is_deterministic() {
        let cfg = FatTreeConfig::try_new(4).expect("valid k");
        let run_once = || {
            let faults = FaultSchedule::generate(11, cfg.num_switches(), cfg.k, 8, 20_000);
            let mut sim = FatTreeSim::new(cfg, UpRouting::Adaptive).with_faults(faults);
            let n = cfg.num_hosts();
            for src in 0..n {
                for k in 0..6u64 {
                    sim.inject(msg(k * 700, src, (src + 1 + (k as u32 * 3) % (n - 1)) % n, 2048));
                }
            }
            let run = sim.try_run().expect("generated schedule replays cleanly");
            (
                run.end_time,
                run.events_processed,
                run.delivered_bytes(),
                run.dropped_packets(),
                run.rerouted_packets(),
                run.mean_latency_ns().to_bits(),
            )
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn dataset_feeds_the_same_analytics_stack() {
        let cfg = FatTreeConfig::try_new(4).expect("valid k");
        let mut sim = FatTreeSim::new(cfg, UpRouting::Adaptive);
        let all: Vec<TerminalId> = (0..cfg.num_hosts()).map(TerminalId).collect();
        sim.add_job(JobMeta { name: "ft".into(), terminals: all });
        for src in 0..16u32 {
            sim.inject(MsgInjection {
                time: SimTime::ZERO,
                src: TerminalId(src),
                dst: TerminalId((src + 8) % 16),
                bytes: 8192,
                job: 0,
            });
        }
        let run = sim.try_run().expect("run");
        let ds = run.to_dataset();
        // The Dragonfly projection machinery works unchanged: pods as
        // groups, pod links bundled as ribbons.
        let spec = ProjectionSpec::new(vec![
            LevelSpec::new(EntityKind::Router)
                .aggregate(&[Field::GroupId])
                .color(Field::TotalSatTime)
                .size(Field::TotalTraffic),
            LevelSpec::new(EntityKind::Terminal)
                .aggregate(&[Field::GroupId, Field::RouterRank])
                .color(Field::AvgLatency),
        ])
        .ribbons(RibbonSpec::new(EntityKind::GlobalLink));
        let view = build_view(&ds, &spec).expect("fat-tree dataset builds views");
        // 4 pods + the core pseudo-group.
        assert_eq!(view.rings[0].items.len(), 5);
        assert!(!view.ribbons.is_empty(), "pod-to-core ribbons present");
        // Ribbons connect pods to the core pseudo-group only (all global
        // links have a core endpoint).
        let core_item = 4;
        assert!(view.ribbons.iter().all(|r| r.a == core_item || r.b == core_item));
        // Job stamping flows through.
        assert!(ds.terminal_rows().iter().all(|t| t.job == 0));
    }

    #[test]
    fn pods_as_groups_roll_up_correctly() {
        let cfg = FatTreeConfig::try_new(4).expect("valid k");
        let mut sim = FatTreeSim::new(cfg, UpRouting::Ecmp);
        sim.inject(msg(0, 0, 15, 64 * 1024));
        let ds = sim.try_run().expect("run").to_dataset();
        // 20 switches → 20 router rows; cores in pseudo-group 4.
        let routers = ds.router_rows();
        assert_eq!(routers.len(), 20);
        let core_rows: Vec<_> = routers.iter().filter(|r| r.group == 4).collect();
        assert_eq!(core_rows.len(), 4);
        // Per-packet ECMP spreads the 32-packet flow over the cores, but
        // every byte crosses the core layer exactly once.
        let used: Vec<_> = core_rows.iter().filter(|r| r.global_traffic > 0.0).collect();
        assert!(!used.is_empty() && used.len() <= 4);
        let core_bytes: f64 = core_rows.iter().map(|r| r.global_traffic).sum();
        assert_eq!(core_bytes, 64.0 * 1024.0);
    }
}
