//! Run output: the per-entity metric records of the paper's Fig. 2(a) and
//! the class-level time series of the timeline view.

use crate::config::{LinkClass, NetworkSpec, SamplingConfig};
use crate::node::{NetNode, Switch};
use crate::packet::JobId;
use crate::sampling::Bins;
use crate::topology::{RouterId, TerminalId, Topology};
use crate::traffic::JobMeta;
use hrviz_pdes::{EngineStats, SimTime};

/// One directed router-to-router link's metrics.
#[derive(Clone, Debug)]
pub struct LinkRecord {
    /// Link class (local or global).
    pub class: LinkClass,
    /// Source router.
    pub src_router: RouterId,
    /// Class-local port index on the source (peer rank for local links,
    /// global port for global links).
    pub src_port: u32,
    /// Destination router.
    pub dst_router: RouterId,
    /// Class-local port index of the reverse link on the destination.
    pub dst_port: u32,
    /// Bytes serialized onto the link.
    pub traffic: u64,
    /// Saturated time in ns (VC buffers full).
    pub sat_ns: u64,
    /// Optional per-bin traffic.
    pub traffic_bins: Option<Bins>,
    /// Optional per-bin saturated ns.
    pub sat_bins: Option<Bins>,
}

/// One terminal's metrics (paper Fig. 2(a) "Terminal").
#[derive(Clone, Debug)]
pub struct TerminalRecord {
    /// The terminal.
    pub terminal: TerminalId,
    /// Its router.
    pub router: RouterId,
    /// Its port on the router.
    pub port: u32,
    /// Job id ([`crate::packet::NO_JOB`] when idle).
    pub job: JobId,
    /// Workload bytes injected ("Data size").
    pub data_bytes: u64,
    /// Bytes received.
    pub recv_bytes: u64,
    /// Injection-link serialization time.
    pub busy_ns: u64,
    /// Terminal-link saturation (injection blocking + ejection-port
    /// saturation on the router side).
    pub sat_ns: u64,
    /// Packets received ("Packet finished").
    pub packets_finished: u64,
    /// Packets injected.
    pub packets_sent: u64,
    /// Mean latency of received packets (ns).
    pub avg_latency_ns: f64,
    /// Mean hops of received packets.
    pub avg_hops: f64,
    /// Last packet arrival.
    pub last_arrival: SimTime,
    /// Optional per-bin injected bytes.
    pub traffic_bins: Option<Bins>,
    /// Optional per-bin saturation ns.
    pub sat_bins: Option<Bins>,
    /// Optional per-bin latency sums of received packets.
    pub latency_bins: Option<Bins>,
    /// Optional per-bin received-packet counts.
    pub count_bins: Option<Bins>,
    /// Optional per-bin hop sums of received packets.
    pub hops_bins: Option<Bins>,
}

/// Per-router roll-up (paper Fig. 2(a) "Router").
#[derive(Clone, Copy, Debug, Default)]
pub struct RouterRecord {
    /// The router.
    pub router: RouterId,
    /// Its group.
    pub group: u32,
    /// Its rank within the group.
    pub rank: u32,
    /// Total bytes on its outgoing global links.
    pub global_traffic: u64,
    /// Total saturated ns on its outgoing global links.
    pub global_sat_ns: u64,
    /// Total bytes on its outgoing local links.
    pub local_traffic: u64,
    /// Total saturated ns on its outgoing local links.
    pub local_sat_ns: u64,
    /// Packets this router discarded (fault drops: dead router, no live
    /// route, hop limit).
    pub dropped: u64,
    /// Payload bytes across this router's dropped packets.
    pub dropped_bytes: u64,
    /// Packets this router diverted around a dead link.
    pub rerouted: u64,
}

/// Network-wide per-class time series (the timeline view's data).
#[derive(Clone, Debug)]
pub struct ClassSeries {
    /// Sampling configuration the bins use.
    pub sampling: SamplingConfig,
    /// Per-class traffic bytes per bin (indexed by [`LinkClass::ALL`] order).
    pub traffic: [Bins; 3],
    /// Per-class saturated ns per bin.
    pub sat: [Bins; 3],
    /// Latency sums (ns) of received packets per bin, network-wide.
    pub latency_sum: Bins,
    /// Received packet counts per bin, network-wide.
    pub recv_count: Bins,
    /// Hop sums of received packets per bin, network-wide.
    pub hops_sum: Bins,
}

/// Per-job aggregate performance (the paper's Fig. 13(d) metric).
#[derive(Clone, Debug, PartialEq)]
pub struct JobStats {
    /// Job id.
    pub job: JobId,
    /// Job name.
    pub name: String,
    /// Ranks (terminals) in the job.
    pub ranks: usize,
    /// Total bytes the job injected.
    pub bytes: u64,
    /// Mean packet latency (ns) over the job's received packets.
    pub avg_latency_ns: f64,
    /// Mean hops over the job's received packets.
    pub avg_hops: f64,
    /// Last packet delivery of the job (communication makespan).
    pub makespan: SimTime,
}

/// Everything a run produces: the analytics crate consumes this.
#[derive(Clone, Debug)]
pub struct RunData {
    /// The specification the run used.
    pub spec: NetworkSpec,
    /// Jobs that ran.
    pub jobs: Vec<JobMeta>,
    /// Per-router roll-ups.
    pub routers: Vec<RouterRecord>,
    /// Directed local links.
    pub local_links: Vec<LinkRecord>,
    /// Directed global links.
    pub global_links: Vec<LinkRecord>,
    /// Per-terminal records.
    pub terminals: Vec<TerminalRecord>,
    /// Class-level time series when sampling was enabled.
    pub series: Option<ClassSeries>,
    /// Simulated end time.
    pub end_time: SimTime,
    /// Events the engine processed.
    pub events_processed: u64,
    /// Events the engine scheduled.
    pub events_scheduled: u64,
    /// High-water mark of the engine's pending-event queue.
    pub peak_queue_depth: u64,
}

impl RunData {
    /// Extract records from the finished LP population.
    pub(crate) fn extract(
        spec: &NetworkSpec,
        jobs: Vec<JobMeta>,
        nodes: &[NetNode],
        stats: EngineStats,
    ) -> RunData {
        let topo = Topology::new(spec.topology);
        let cfg = spec.topology;
        let nt = cfg.num_terminals() as usize;

        let mut local_links = Vec::new();
        let mut global_links = Vec::new();
        let mut routers = Vec::with_capacity(cfg.num_routers() as usize);
        // Ejection-port saturation, merged into terminal records below.
        let mut eject_sat = vec![0u64; nt];
        let mut eject_traffic = vec![0u64; nt];
        let mut eject_sat_bins: Vec<Option<Bins>> = vec![None; nt];

        for node in &nodes[nt..] {
            let r = node.as_switch().expect("router LP range");
            let rid = r.id;
            let my_rank = topo.rank_of_router(rid);
            let mut rec = RouterRecord {
                router: rid,
                group: topo.group_of_router(rid).0,
                rank: my_rank,
                dropped: r.drops().total(),
                dropped_bytes: r.drops().bytes,
                rerouted: r.reroutes(),
                ..RouterRecord::default()
            };
            for port in r.ports() {
                match port.class {
                    LinkClass::Terminal => {
                        let t = topo.terminal_of(rid, port.class_idx);
                        eject_sat[t.0 as usize] = port.sat_ns;
                        eject_traffic[t.0 as usize] = port.traffic;
                        eject_sat_bins[t.0 as usize] = port.sat_bins.as_deref().cloned();
                    }
                    LinkClass::Local => {
                        if port.class_idx == my_rank {
                            continue; // unused self slot
                        }
                        rec.local_traffic += port.traffic;
                        rec.local_sat_ns += port.sat_ns;
                        local_links.push(LinkRecord {
                            class: LinkClass::Local,
                            src_router: rid,
                            src_port: port.class_idx,
                            dst_router: topo
                                .router_in_group(topo.group_of_router(rid), port.class_idx),
                            dst_port: my_rank,
                            traffic: port.traffic,
                            sat_ns: port.sat_ns,
                            traffic_bins: port.traffic_bins.as_deref().cloned(),
                            sat_bins: port.sat_bins.as_deref().cloned(),
                        });
                    }
                    LinkClass::Global => {
                        rec.global_traffic += port.traffic;
                        rec.global_sat_ns += port.sat_ns;
                        let (peer, peer_gp) = topo.global_peer(rid, port.class_idx);
                        global_links.push(LinkRecord {
                            class: LinkClass::Global,
                            src_router: rid,
                            src_port: port.class_idx,
                            dst_router: peer,
                            dst_port: peer_gp,
                            traffic: port.traffic,
                            sat_ns: port.sat_ns,
                            traffic_bins: port.traffic_bins.as_deref().cloned(),
                            sat_bins: port.sat_bins.as_deref().cloned(),
                        });
                    }
                }
            }
            routers.push(rec);
        }

        let mut terminals = Vec::with_capacity(nt);
        for node in &nodes[..nt] {
            let t = node.as_terminal().expect("terminal LP range");
            let s = &t.stats;
            let idx = t.id.0 as usize;
            let mut sat_bins = s.sat_bins.as_deref().cloned();
            if let (Some(dst), Some(src)) = (&mut sat_bins, &eject_sat_bins[idx]) {
                dst.merge(src);
            }
            terminals.push(TerminalRecord {
                terminal: t.id,
                router: topo.router_of_terminal(t.id),
                port: topo.terminal_port(t.id),
                job: t.job,
                data_bytes: s.injected_bytes,
                recv_bytes: s.recv_bytes,
                busy_ns: s.busy_ns,
                sat_ns: s.sat_ns + eject_sat[idx],
                packets_finished: s.packets_finished,
                packets_sent: s.packets_sent,
                avg_latency_ns: s.avg_latency_ns(),
                avg_hops: s.avg_hops(),
                last_arrival: s.last_arrival,
                traffic_bins: s.traffic_bins.as_deref().cloned(),
                sat_bins,
                latency_bins: s.latency_bins.as_deref().cloned(),
                count_bins: s.count_bins.as_deref().cloned(),
                hops_bins: s.hops_bins.as_deref().cloned(),
            });
        }
        let _ = eject_traffic; // ejection traffic mirrors recv_bytes

        let series = spec.sampling.map(|sampling| {
            let mut traffic = [Bins::new(sampling), Bins::new(sampling), Bins::new(sampling)];
            let mut sat = [Bins::new(sampling), Bins::new(sampling), Bins::new(sampling)];
            let mut latency_sum = Bins::new(sampling);
            let mut recv_count = Bins::new(sampling);
            let mut hops_sum = Bins::new(sampling);
            let class_slot = |c: LinkClass| {
                LinkClass::ALL.iter().position(|&x| x == c).expect("ALL covers every class")
            };
            for l in local_links.iter().chain(&global_links) {
                let slot = class_slot(l.class);
                if let Some(b) = &l.traffic_bins {
                    traffic[slot].merge(b);
                }
                if let Some(b) = &l.sat_bins {
                    sat[slot].merge(b);
                }
            }
            let tslot = class_slot(LinkClass::Terminal);
            for t in &terminals {
                if let Some(b) = &t.traffic_bins {
                    traffic[tslot].merge(b);
                }
                if let Some(b) = &t.sat_bins {
                    sat[tslot].merge(b);
                }
                if let Some(b) = &t.latency_bins {
                    latency_sum.merge(b);
                }
                if let Some(b) = &t.count_bins {
                    recv_count.merge(b);
                }
                if let Some(b) = &t.hops_bins {
                    hops_sum.merge(b);
                }
            }
            ClassSeries { sampling, traffic, sat, latency_sum, recv_count, hops_sum }
        });

        RunData {
            spec: spec.clone(),
            jobs,
            routers,
            local_links,
            global_links,
            terminals,
            series,
            end_time: stats.end_time,
            events_processed: stats.events_processed,
            events_scheduled: stats.events_scheduled,
            peak_queue_depth: stats.peak_queue_depth,
        }
    }

    /// Topology helper for this run.
    pub fn topology(&self) -> Topology {
        Topology::new(self.spec.topology)
    }

    /// Per-job performance aggregates (Fig. 13(d)).
    pub fn job_stats(&self) -> Vec<JobStats> {
        self.jobs
            .iter()
            .enumerate()
            .map(|(j, meta)| {
                let mut bytes = 0u64;
                let mut lat_sum = 0f64;
                let mut hop_sum = 0f64;
                let mut pkts = 0u64;
                let mut makespan = SimTime::ZERO;
                for t in &self.terminals {
                    if t.job == j as JobId {
                        bytes += t.data_bytes;
                        lat_sum += t.avg_latency_ns * t.packets_finished as f64;
                        hop_sum += t.avg_hops * t.packets_finished as f64;
                        pkts += t.packets_finished;
                        makespan = makespan.max(t.last_arrival);
                    }
                }
                JobStats {
                    job: j as JobId,
                    name: meta.name.clone(),
                    ranks: meta.ranks(),
                    bytes,
                    avg_latency_ns: if pkts == 0 { 0.0 } else { lat_sum / pkts as f64 },
                    avg_hops: if pkts == 0 { 0.0 } else { hop_sum / pkts as f64 },
                    makespan,
                }
            })
            .collect()
    }

    /// Total bytes delivered to terminals.
    pub fn total_delivered(&self) -> u64 {
        self.terminals.iter().map(|t| t.recv_bytes).sum()
    }

    /// Total bytes injected by terminals.
    pub fn total_injected(&self) -> u64 {
        self.terminals.iter().map(|t| t.data_bytes).sum()
    }

    /// Total packets dropped by routers under fault conditions.
    pub fn total_dropped(&self) -> u64 {
        self.routers.iter().map(|r| r.dropped).sum()
    }

    /// Total payload bytes across all fault drops (byte-conservation checks:
    /// `total_delivered() + dropped_bytes() == total_injected()`).
    pub fn dropped_bytes(&self) -> u64 {
        self.routers.iter().map(|r| r.dropped_bytes).sum()
    }

    /// Total packets routers diverted around dead links.
    pub fn total_rerouted(&self) -> u64 {
        self.routers.iter().map(|r| r.rerouted).sum()
    }

    /// Sum of `traffic` over links of a class (terminal class sums
    /// injection traffic).
    pub fn class_traffic(&self, class: LinkClass) -> u64 {
        match class {
            LinkClass::Local => self.local_links.iter().map(|l| l.traffic).sum(),
            LinkClass::Global => self.global_links.iter().map(|l| l.traffic).sum(),
            LinkClass::Terminal => self.terminals.iter().map(|t| t.data_bytes).sum(),
        }
    }

    /// Sum of saturation ns over links of a class.
    pub fn class_sat_ns(&self, class: LinkClass) -> u64 {
        match class {
            LinkClass::Local => self.local_links.iter().map(|l| l.sat_ns).sum(),
            LinkClass::Global => self.global_links.iter().map(|l| l.sat_ns).sum(),
            LinkClass::Terminal => self.terminals.iter().map(|t| t.sat_ns).sum(),
        }
    }
}
