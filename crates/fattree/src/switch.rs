//! Fat-Tree switch logical process, reusing the Dragonfly model's
//! credit-gated [`OutPort`]s and event vocabulary.

use crate::config::{FatTreeConfig, Layer, UpRouting};
use hrviz_faults::{FaultEvent, FaultView};
use hrviz_network::config::{LinkClass, LinkClassParams, SamplingConfig};
use hrviz_network::events::NetEvent;
use hrviz_network::node::Switch;
use hrviz_network::packet::Packet;
use hrviz_network::port::{OutPort, PortAction};
use hrviz_network::DropCounters;
use hrviz_pdes::{Ctx, Lp, SimTime};

/// Per-class link parameters for the Fat Tree.
#[derive(Clone, Copy, Debug)]
pub struct FtLinks {
    /// Host ↔ edge.
    pub host: LinkClassParams,
    /// Edge ↔ aggregation (in pod).
    pub pod: LinkClassParams,
    /// Aggregation ↔ core.
    pub core: LinkClassParams,
}

impl Default for FtLinks {
    fn default() -> Self {
        FtLinks {
            host: LinkClassParams { bandwidth_bytes_per_ns: 5.25, latency: SimTime::nanos(30) },
            pod: LinkClassParams { bandwidth_bytes_per_ns: 5.25, latency: SimTime::nanos(50) },
            core: LinkClassParams { bandwidth_bytes_per_ns: 5.25, latency: SimTime::nanos(100) },
        }
    }
}

/// Per-packet hop budget: a packet past it is a counted TTL drop.
const HOP_LIMIT: u8 = 16;

enum FtDrop {
    SwitchDown,
    NoRoute,
    Ttl,
}

/// One Fat-Tree switch.
#[derive(Debug)]
pub struct SwitchLp {
    /// Switch id (see [`FatTreeConfig`] id space).
    pub id: u32,
    cfg: FatTreeConfig,
    layer: Layer,
    /// Pod (edges/aggs) or 0 (cores).
    pod: u32,
    /// Index within the layer.
    idx: u32,
    routing: UpRouting,
    ports: Vec<OutPort>,
    faults: FaultView,
    drops: DropCounters,
    reroutes: u64,
}

impl SwitchLp {
    /// Build the switch with its wired port complement.
    pub fn new(
        cfg: FatTreeConfig,
        id: u32,
        routing: UpRouting,
        links: &FtLinks,
        num_vcs: u8,
        vc_buffer_bytes: u32,
        sampling: Option<SamplingConfig>,
    ) -> SwitchLp {
        let (layer, pod, idx) = cfg.classify(id);
        let h = cfg.half();
        let mut ports = Vec::new();
        let port = |class, class_idx, peer_lp, peer_port, params: LinkClassParams| {
            OutPort::new(
                class,
                class_idx,
                peer_lp,
                peer_port,
                params,
                num_vcs,
                vc_buffer_bytes,
                sampling,
            )
        };
        match layer {
            Layer::Edge => {
                // Down: k/2 hosts; class-idx = host position.
                for p in 0..h {
                    let hst = id * h + p;
                    ports.push(port(LinkClass::Terminal, p, cfg.host_lp(hst), 0, links.host));
                }
                // Up: to every aggregation of the pod; peer's down port = my
                // edge index.
                for j in 0..h {
                    let agg = cfg.agg_id(pod, j);
                    ports.push(port(LinkClass::Local, j, cfg.switch_lp(agg), idx, links.pod));
                }
            }
            Layer::Aggregation => {
                // Down: to every edge of the pod; peer's up port = my index.
                for e in 0..h {
                    let edge = cfg.edge_id(pod, e);
                    ports.push(port(LinkClass::Local, e, cfg.switch_lp(edge), h + idx, links.pod));
                }
                // Up: to cores idx*h .. (idx+1)*h; core's down port = my pod.
                for i in 0..h {
                    let core = idx * h + i;
                    ports.push(port(
                        LinkClass::Global,
                        i,
                        cfg.switch_lp(cfg.core_id(core)),
                        pod,
                        links.core,
                    ));
                }
            }
            Layer::Core => {
                // Down: one port per pod, to aggregation agg_index_of_core.
                let j = cfg.agg_index_of_core(idx);
                for p in 0..cfg.pods() {
                    let agg = cfg.agg_id(p, j);
                    ports.push(port(
                        LinkClass::Global,
                        p,
                        cfg.switch_lp(agg),
                        h + cfg.core_fan_index(idx),
                        links.core,
                    ));
                }
            }
        }
        SwitchLp {
            id,
            cfg,
            layer,
            pod,
            idx,
            routing,
            ports,
            faults: FaultView::new(),
            drops: DropCounters::default(),
            reroutes: 0,
        }
    }

    /// The switch's layer.
    pub fn layer(&self) -> Layer {
        self.layer
    }

    /// (pod, index-within-layer) of this switch (pod is 0 for cores).
    pub fn position(&self) -> (u32, u32) {
        (self.pod, self.idx)
    }

    fn up_range(&self) -> std::ops::Range<usize> {
        let h = self.cfg.half() as usize;
        h..2 * h
    }

    /// A port is usable when its link is up and its switch-class peer is
    /// alive; host links always accept ejection.
    fn port_is_live(&self, port: usize) -> bool {
        let p = &self.ports[port];
        if p.class == LinkClass::Terminal {
            return true;
        }
        if self.faults.link_dead(self.id, port as u32) {
            return false;
        }
        let peer_sw = p.peer_lp.0 - self.cfg.num_hosts();
        !self.faults.router_dead(peer_sw)
    }

    /// Pick an up-port among the live ones. With a clean fault view this is
    /// identical to plain ECMP / least-queued over the full up fan.
    fn choose_up(&self, pkt: &Packet) -> Option<usize> {
        let live: Vec<usize> = self.up_range().filter(|&p| self.port_is_live(p)).collect();
        if live.is_empty() {
            return None;
        }
        match self.routing {
            UpRouting::Ecmp => {
                let h = (pkt.id ^ (pkt.src.0 as u64) << 17 ^ (pkt.dst.0 as u64) << 31)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15);
                Some(live[(h >> 33) as usize % live.len()])
            }
            UpRouting::Adaptive => live.into_iter().min_by_key(|&p| self.ports[p].queued_bytes),
        }
    }

    /// Next-hop port and whether the packet was steered around dead
    /// up-capacity. `None` means no live port can make progress: the
    /// caller drops and counts the packet (down-paths in a tree are
    /// unique, so a dead down-link is unroutable by construction).
    fn route_live(&self, pkt: &Packet) -> Option<(usize, bool)> {
        let dst = pkt.dst.0;
        let h = self.cfg.half();
        let down = match self.layer {
            Layer::Edge => {
                (self.cfg.edge_of_host(dst) == self.id).then(|| self.cfg.host_port(dst) as usize)
            }
            Layer::Aggregation => (self.cfg.pod_of_host(dst) == self.pod)
                .then(|| (self.cfg.edge_of_host(dst) % h) as usize),
            Layer::Core => Some(self.cfg.pod_of_host(dst) as usize),
        };
        if let Some(port) = down {
            return self.port_is_live(port).then_some((port, false));
        }
        let degraded = self.up_range().any(|p| !self.port_is_live(p));
        self.choose_up(pkt).map(|port| (port, degraded))
    }

    #[cfg(test)]
    fn route(&self, pkt: &Packet) -> usize {
        self.route_live(pkt).expect("no live route for packet").0
    }

    fn drop_packet(&mut self, ctx: &mut Ctx<'_, NetEvent>, pkt: &Packet, reason: FtDrop) {
        match reason {
            FtDrop::SwitchDown => self.drops.router_down += 1,
            FtDrop::NoRoute => self.drops.no_route += 1,
            FtDrop::Ttl => self.drops.ttl += 1,
        }
        self.drops.bytes += pkt.bytes as u64;
        self.ports[pkt.in_port as usize].return_credit(ctx, pkt);
    }

    fn apply(&mut self, ctx: &mut Ctx<'_, NetEvent>, port: usize, action: PortAction) {
        if let PortAction::StartXmit { finish } = action {
            ctx.send_self(finish - ctx.now(), NetEvent::XmitDone { port: port as u16 });
        }
    }
}

// lint:allow(missing_state_saving, reason="Fat-Tree switches are not checkpointed: snapshot and restore keep the trait default, SnapshotError::Unsupported")
impl Lp<NetEvent> for SwitchLp {
    /// Post-drain invariant check: every credit lent out came back.
    fn audit(&self) -> Result<(), String> {
        for p in &self.ports {
            p.audit().map_err(|e| format!("switch {}: {e}", self.id))?;
        }
        Ok(())
    }

    /// Handle one event.
    fn on_event(&mut self, ctx: &mut Ctx<'_, NetEvent>, ev: NetEvent) {
        match ev {
            NetEvent::RouterArrive { mut pkt } => {
                pkt.hops = pkt.hops.saturating_add(1);
                if self.faults.router_dead(self.id) {
                    self.drop_packet(ctx, &pkt, FtDrop::SwitchDown);
                    return;
                }
                if pkt.hops > HOP_LIMIT {
                    self.drop_packet(ctx, &pkt, FtDrop::Ttl);
                    return;
                }
                let Some((port, rerouted)) = self.route_live(&pkt) else {
                    self.drop_packet(ctx, &pkt, FtDrop::NoRoute);
                    return;
                };
                if rerouted {
                    self.reroutes += 1;
                }
                // Up/down routing needs no VC escape ordering: the channel
                // dependency graph of a tree is acyclic on a single VC.
                let action = self.ports[port].offer(ctx.now(), pkt, 0);
                self.apply(ctx, port, action);
            }
            NetEvent::Credit { port, vc, bytes } => {
                let action = self.ports[port as usize].credit(ctx.now(), vc, bytes);
                self.apply(ctx, port as usize, action);
            }
            NetEvent::XmitDone { port } => {
                let now = ctx.now();
                let pkt = self.ports[port as usize].complete_xmit(now);
                self.ports[pkt.in_port as usize].return_credit(ctx, &pkt);
                self.ports[port as usize].deliver(ctx, pkt);
                let action = self.ports[port as usize].after_xmit(now);
                self.apply(ctx, port as usize, action);
            }
            NetEvent::Fault(fev) => {
                self.faults.apply(&fev);
                match fev {
                    FaultEvent::DegradedLink { router, port, factor } if router == self.id => {
                        if let Some(p) = self.ports.get_mut(port as usize) {
                            p.set_degrade_factor(factor);
                        }
                    }
                    FaultEvent::LinkUp { router, port } if router == self.id => {
                        if let Some(p) = self.ports.get_mut(port as usize) {
                            p.set_degrade_factor(1.0);
                        }
                    }
                    _ => {}
                }
            }
            other => unreachable!("host event delivered to switch: {other:?}"),
        }
    }

    /// Close open saturation intervals.
    fn on_finish(&mut self, now: SimTime) {
        for p in &mut self.ports {
            p.finish(now);
        }
    }
}

impl Switch for SwitchLp {
    /// The switch's ports (metric extraction).
    fn ports(&self) -> &[OutPort] {
        &self.ports
    }

    /// Packets discarded at this switch.
    fn drops(&self) -> &DropCounters {
        &self.drops
    }

    /// Packets steered to an alternate up-port because their first choice
    /// was dead.
    fn reroutes(&self) -> u64 {
        self.reroutes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrviz_network::packet::RoutePlan;
    use hrviz_network::topology::TerminalId;

    fn pkt(src: u32, dst: u32) -> Packet {
        Packet {
            id: 1,
            src: TerminalId(src),
            dst: TerminalId(dst),
            bytes: 1024,
            inject_time: SimTime::ZERO,
            job: 0,
            hops: 0,
            global_hops: 0,
            diverted: false,
            plan: RoutePlan::Minimal,
            in_port: 0,
            in_vc: 0,
            out_vc: 0,
        }
    }

    fn switch(cfg: FatTreeConfig, id: u32) -> SwitchLp {
        SwitchLp::new(cfg, id, UpRouting::Ecmp, &FtLinks::default(), 1, 16 * 1024, None)
    }

    #[test]
    fn edge_ejects_attached_host() {
        let cfg = FatTreeConfig::try_new(4).expect("valid k");
        let s = switch(cfg, cfg.edge_id(0, 0)); // hosts 0, 1
        assert_eq!(s.route(&pkt(5, 1)), 1);
        // Remote host goes up.
        let up = s.route(&pkt(0, 15));
        assert!((2..4).contains(&up));
    }

    #[test]
    fn agg_descends_within_pod_and_climbs_otherwise() {
        let cfg = FatTreeConfig::try_new(4).expect("valid k");
        let s = switch(cfg, cfg.agg_id(1, 0)); // pod 1
                                               // Host 5 lives in pod 1 (edge 2): descend via down port 0 (edge 2 % 2).
        assert_eq!(s.route(&pkt(0, 5)), 0);
        // Host 15 is pod 3: climb.
        assert!((2..4).contains(&s.route(&pkt(0, 15))));
    }

    #[test]
    fn core_picks_destination_pod() {
        let cfg = FatTreeConfig::try_new(4).expect("valid k");
        let s = switch(cfg, cfg.core_id(0));
        assert_eq!(s.route(&pkt(0, 13)), 3); // pod 3
        assert_eq!(s.route(&pkt(0, 2)), 0); // pod 0
    }

    #[test]
    fn wiring_is_consistent_both_ways() {
        let cfg = FatTreeConfig::try_new(6).expect("valid k");
        // For every switch port, the peer's port at peer_port points back
        // to this very port: credits are returned over that reverse port.
        let links = FtLinks::default();
        let all: Vec<SwitchLp> = (0..cfg.num_switches())
            .map(|id| SwitchLp::new(cfg, id, UpRouting::Ecmp, &links, 1, 1024, None))
            .collect();
        for s in &all {
            for (i, p) in s.ports().iter().enumerate() {
                if p.class == LinkClass::Terminal {
                    continue;
                }
                let peer_sw = p.peer_lp.0 - cfg.num_hosts();
                let peer = &all[peer_sw as usize];
                let back = &peer.ports()[p.peer_port as usize];
                assert_eq!(back.peer_lp, cfg.switch_lp(s.id), "switch {} port {i}", s.id);
                assert_eq!(back.peer_port as usize, i, "switch {} port {i}", s.id);
            }
        }
    }

    #[test]
    fn ecmp_is_deterministic_adaptive_prefers_idle() {
        let cfg = FatTreeConfig::try_new(4).expect("valid k");
        let s = switch(cfg, cfg.edge_id(0, 0));
        assert_eq!(s.route(&pkt(0, 15)), s.route(&pkt(0, 15)));
        let s2 = SwitchLp::new(
            cfg,
            cfg.edge_id(0, 0),
            UpRouting::Adaptive,
            &FtLinks::default(),
            1,
            16 * 1024,
            None,
        );
        // With empty queues adaptive picks the first up port.
        assert_eq!(s2.route(&pkt(0, 15)), 2);
    }
}
