//! Router logical process.
//!
//! Implements the per-hop pipeline: arrival → (plan transition) → routing
//! step selection → VC selection → credit-gated forwarding → serialization
//! → downstream arrival + upstream credit return. All four routing
//! strategies of [`crate::routing`] hang off the plan-transition step.

use crate::config::{LinkClass, NetworkSpec};
use crate::events::{CreditReturn, NetEvent};
use crate::node::Switch;
use crate::packet::{Packet, RoutePlan};
use crate::port::{OutPort, PortAction};
use crate::routing::{
    minimal_step, random_intermediate, toward_group, ugal_prefers_nonminimal, valiant_hops,
    vc_for_step, RoutingAlgorithm, Step,
};
use crate::topology::{GroupId, RouterId, Topology};
use hrviz_faults::{FaultEvent, FaultView};
use hrviz_pdes::wire::{SnapshotError, WireReader, WireWriter};
use hrviz_pdes::{Ctx, Lp, LpId, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// How many intermediate-group candidates a reroute samples before giving
/// up and counting the packet as undeliverable.
const REROUTE_ATTEMPTS: u32 = 8;

/// Packets discarded at a router, broken down by cause.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DropCounters {
    /// Dropped because this router was marked down by the fault schedule.
    pub router_down: u64,
    /// Dropped because every viable next hop was dead.
    pub no_route: u64,
    /// Dropped because the per-packet hop limit was exceeded.
    pub ttl: u64,
    /// Total payload bytes across all drops.
    pub bytes: u64,
}

impl DropCounters {
    /// Total dropped packets, all causes.
    pub fn total(&self) -> u64 {
        self.router_down + self.no_route + self.ttl
    }
}

enum DropReason {
    RouterDown,
    NoRoute,
    Ttl,
}

/// Router logical process.
#[derive(Debug)]
pub struct RouterLp {
    /// This router's id.
    pub id: RouterId,
    my_lp: LpId,
    topo: Topology,
    routing: RoutingAlgorithm,
    ports: Vec<OutPort>,
    rng: StdRng,
    faults: FaultView,
    /// LP id of router 0 (routers follow the terminals in LP order), so a
    /// port's `peer_lp` maps back to a `RouterId` without the topology.
    router_lp_base: u32,
    hop_limit: u8,
    drop_without_credit: bool,
    drops: DropCounters,
    reroutes: u64,
}

impl RouterLp {
    /// Build a router with its full port complement wired per the topology.
    pub fn new(spec: &Arc<NetworkSpec>, id: RouterId) -> Self {
        let topo = Topology::new(spec.topology);
        let my_lp = topo.router_lp(id);
        let group = topo.group_of_router(id);
        let my_rank = topo.rank_of_router(id);
        let cfg = spec.topology;
        let mut ports = Vec::with_capacity(topo.ports_per_router() as usize);
        // Ejection ports.
        for k in 0..cfg.terminals_per_router {
            let t = topo.terminal_of(id, k);
            ports.push(OutPort::new(
                LinkClass::Terminal,
                k,
                topo.terminal_lp(t),
                0,
                spec.terminal_link,
                spec.num_vcs,
                spec.vc_buffer_bytes,
                spec.sampling,
            ));
        }
        // Local ports, indexed by peer rank (self slot present but unused).
        for peer_rank in 0..cfg.routers_per_group {
            let peer = topo.router_in_group(group, peer_rank);
            ports.push(OutPort::new(
                LinkClass::Local,
                peer_rank,
                topo.router_lp(peer),
                topo.local_port(my_rank),
                spec.local_link,
                spec.num_vcs,
                spec.vc_buffer_bytes,
                spec.sampling,
            ));
        }
        // Global ports.
        for gp in 0..cfg.global_ports {
            let (peer, peer_gp) = topo.global_peer(id, gp);
            ports.push(OutPort::new(
                LinkClass::Global,
                gp,
                topo.router_lp(peer),
                topo.global_port(peer_gp),
                spec.global_link,
                spec.num_vcs,
                spec.vc_buffer_bytes,
                spec.sampling,
            ));
        }
        // Per-router deterministic RNG stream.
        let rng = StdRng::seed_from_u64(
            spec.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(my_lp.0 as u64 + 1)),
        );
        RouterLp {
            id,
            my_lp,
            topo,
            routing: spec.routing,
            ports,
            rng,
            faults: FaultView::new(),
            router_lp_base: cfg.num_terminals(),
            hop_limit: spec.hop_limit,
            drop_without_credit: spec.drop_without_credit,
            drops: DropCounters::default(),
            reroutes: 0,
        }
    }

    fn step_port(&self, step: Step) -> usize {
        (match step {
            Step::Eject(k) => self.topo.eject_port(k),
            Step::Local(rank) => self.topo.local_port(rank),
            Step::Global(gp) => self.topo.global_port(gp),
        }) as usize
    }

    fn queued(&self, step: Step) -> u64 {
        self.ports[self.step_port(step)].queued_bytes
    }

    /// Whether the out link a step uses is up and its far-end router alive.
    /// Ejection links never fail (a dead router is modeled at the router).
    fn step_is_live(&self, step: Step) -> bool {
        // The common case pays one check per hop: no fault was ever applied.
        if self.faults.is_clean() || matches!(step, Step::Eject(_)) {
            return true;
        }
        let port = self.step_port(step);
        if self.faults.link_dead(self.id.0, port as u32) {
            return false;
        }
        let peer = RouterId(self.ports[port].peer_lp.0 - self.router_lp_base);
        !self.faults.router_dead(peer.0)
    }

    /// Try to divert a packet around a dead next hop: sample intermediate
    /// groups until one is reachable over live links. Only legal while the
    /// packet is still in its source group with no global hops taken — the
    /// divert rides the same VC stage as a PAR divert, so the channel
    /// dependency order (and thus deadlock freedom) is preserved.
    fn reroute_step(
        &mut self,
        pkt: &mut Packet,
        src_group: GroupId,
        my_group: GroupId,
        dst_group: GroupId,
    ) -> Option<Step> {
        let adaptive = !matches!(self.routing, RoutingAlgorithm::Minimal);
        if !adaptive
            || my_group != src_group
            || my_group == dst_group
            || pkt.global_hops != 0
            || pkt.diverted
        {
            return None;
        }
        for _ in 0..REROUTE_ATTEMPTS {
            let gi = random_intermediate(&self.topo, &mut self.rng, my_group, dst_group)?;
            let step = toward_group(&self.topo, self.id, gi);
            if self.step_is_live(step) {
                pkt.plan = RoutePlan::Via(gi);
                pkt.diverted = true;
                return Some(step);
            }
        }
        None
    }

    /// Discard a packet, count it, and (normally) return the upstream
    /// credit so the drop does not consume buffer space forever. The
    /// `drop_without_credit` knob suppresses the return to deliberately
    /// induce a credit leak for auditor tests.
    fn drop_packet(
        &mut self,
        ctx: &mut Ctx<'_, NetEvent>,
        pkt: &Packet,
        from: CreditReturn,
        reason: DropReason,
    ) {
        match reason {
            DropReason::RouterDown => self.drops.router_down += 1,
            DropReason::NoRoute => self.drops.no_route += 1,
            DropReason::Ttl => self.drops.ttl += 1,
        }
        self.drops.bytes += pkt.bytes as u64;
        if !self.drop_without_credit {
            ctx.send(
                from.lp,
                from.latency,
                NetEvent::Credit { port: from.port, vc: from.vc, bytes: from.bytes },
            );
        }
    }

    /// UGAL-L comparison from this router; returns the intermediate group
    /// to divert through, if non-minimal wins.
    fn ugal_choice(
        &mut self,
        pkt: &Packet,
        dst_router: RouterId,
        my_group: GroupId,
        dst_group: GroupId,
        threshold: u64,
    ) -> Option<GroupId> {
        let gi = random_intermediate(&self.topo, &mut self.rng, my_group, dst_group)?;
        let min_first = minimal_step(&self.topo, self.id, dst_router, 0);
        let non_first = toward_group(&self.topo, self.id, gi);
        let q_min = self.queued(min_first);
        let q_non = self.queued(non_first);
        let h_min = self.topo.minimal_hops(self.id, dst_router).max(1);
        let h_non = valiant_hops(&self.topo, self.id, gi, dst_router).max(1);
        let _ = pkt;
        ugal_prefers_nonminimal(q_min, h_min, q_non, h_non, threshold).then_some(gi)
    }

    fn initial_decision(
        &mut self,
        pkt: &Packet,
        dst_router: RouterId,
        my_group: GroupId,
        dst_group: GroupId,
    ) -> RoutePlan {
        if my_group == dst_group {
            return RoutePlan::Minimal;
        }
        match self.routing {
            RoutingAlgorithm::Minimal => RoutePlan::Minimal,
            RoutingAlgorithm::NonMinimal => {
                match random_intermediate(&self.topo, &mut self.rng, my_group, dst_group) {
                    Some(gi) => RoutePlan::Via(gi),
                    None => RoutePlan::Minimal,
                }
            }
            RoutingAlgorithm::Adaptive { threshold } => {
                match self.ugal_choice(pkt, dst_router, my_group, dst_group, threshold) {
                    Some(gi) => RoutePlan::Via(gi),
                    None => RoutePlan::Minimal,
                }
            }
            RoutingAlgorithm::ProgressiveAdaptive { threshold } => {
                match self.ugal_choice(pkt, dst_router, my_group, dst_group, threshold) {
                    Some(gi) => RoutePlan::Via(gi),
                    None => RoutePlan::MinimalPar,
                }
            }
        }
    }

    fn route_and_offer(
        &mut self,
        ctx: &mut Ctx<'_, NetEvent>,
        mut pkt: Packet,
        from: CreditReturn,
    ) {
        let dst_router = self.topo.router_of_terminal(pkt.dst);
        let src_group = self.topo.group_of_router(self.topo.router_of_terminal(pkt.src));
        let my_group = self.topo.group_of_router(self.id);
        let dst_group = self.topo.group_of_router(dst_router);

        // A down router refuses new work; in-flight traffic already granted
        // credit keeps draining so credit conservation holds.
        if self.faults.router_dead(self.id.0) {
            self.drop_packet(ctx, &pkt, from, DropReason::RouterDown);
            return;
        }
        // Hop-limit guard: a packet trapped by churning faults is counted
        // and discarded, never left to cycle forever.
        if pkt.hops > self.hop_limit {
            self.drop_packet(ctx, &pkt, from, DropReason::Ttl);
            return;
        }

        // Plan transitions.
        match pkt.plan {
            RoutePlan::Decide => {
                pkt.plan = self.initial_decision(&pkt, dst_router, my_group, dst_group);
            }
            RoutePlan::MinimalPar
                if pkt.global_hops == 0
                    && my_group == src_group
                    && my_group != dst_group
                    && !pkt.diverted =>
            {
                // PAR: re-evaluate while still minimal in the source group.
                let threshold = match self.routing {
                    RoutingAlgorithm::ProgressiveAdaptive { threshold } => threshold,
                    _ => u64::MAX, // plan from a PAR run replayed elsewhere: stay minimal
                };
                if threshold != u64::MAX {
                    if let Some(gi) =
                        self.ugal_choice(&pkt, dst_router, my_group, dst_group, threshold)
                    {
                        pkt.plan = RoutePlan::Via(gi);
                        pkt.diverted = true;
                    }
                }
            }
            _ => {}
        }
        // Reaching the intermediate group completes the Valiant detour.
        if let RoutePlan::Via(gi) = pkt.plan {
            if my_group == gi {
                pkt.plan = RoutePlan::Minimal;
            }
        }

        let mut step = match pkt.plan {
            RoutePlan::Via(gi) => toward_group(&self.topo, self.id, gi),
            _ => minimal_step(&self.topo, self.id, dst_router, self.topo.terminal_port(pkt.dst)),
        };
        // Degraded-mode routing: a dead next hop is either diverted around
        // (adaptive policies, while still legal) or a counted drop.
        if !self.step_is_live(step) {
            match self.reroute_step(&mut pkt, src_group, my_group, dst_group) {
                Some(live) => {
                    step = live;
                    self.reroutes += 1;
                }
                None => {
                    self.drop_packet(ctx, &pkt, from, DropReason::NoRoute);
                    return;
                }
            }
        }
        let vc = vc_for_step(
            step,
            pkt.global_hops,
            my_group == src_group && pkt.global_hops == 0,
            pkt.diverted,
            my_group == dst_group,
        );
        let port = self.step_port(step);
        let action = self.ports[port].offer(ctx.now(), pkt, vc, from);
        self.apply(ctx, port, action);
    }

    fn apply(&mut self, ctx: &mut Ctx<'_, NetEvent>, port: usize, action: PortAction) {
        if let PortAction::StartXmit { finish } = action {
            ctx.send_self(finish - ctx.now(), NetEvent::XmitDone { port: port as u16 });
        }
    }
}

impl Lp<NetEvent> for RouterLp {
    /// End-of-run credit-conservation check across all out ports.
    fn audit(&self) -> Result<(), String> {
        for p in &self.ports {
            p.audit().map_err(|e| format!("router {}: {e}", self.id.0))?;
        }
        Ok(())
    }

    /// Handle an event addressed to this router.
    fn on_event(&mut self, ctx: &mut Ctx<'_, NetEvent>, ev: NetEvent) {
        match ev {
            NetEvent::RouterArrive { mut pkt, from } => {
                pkt.hops = pkt.hops.saturating_add(1);
                self.route_and_offer(ctx, pkt, from);
            }
            NetEvent::Credit { port, vc, bytes } => {
                let action = self.ports[port as usize].credit(ctx.now(), vc, bytes);
                self.apply(ctx, port as usize, action);
            }
            NetEvent::XmitDone { port } => {
                let now = ctx.now();
                let (mut pkt, vc, from) = self.ports[port as usize].complete_xmit(now);
                let (peer_lp, latency, class) = {
                    let p = &self.ports[port as usize];
                    (p.peer_lp, p.params.latency, p.class)
                };
                // Return the credit for the buffer the packet just vacated.
                ctx.send(
                    from.lp,
                    from.latency,
                    NetEvent::Credit { port: from.port, vc: from.vc, bytes: from.bytes },
                );
                // Deliver downstream.
                let next_from =
                    CreditReturn { lp: self.my_lp, port, vc, bytes: pkt.bytes, latency };
                match class {
                    LinkClass::Terminal => {
                        ctx.send(
                            peer_lp,
                            latency,
                            NetEvent::TerminalArrive { pkt, from: next_from },
                        );
                    }
                    LinkClass::Global => {
                        pkt.global_hops += 1;
                        ctx.send(peer_lp, latency, NetEvent::RouterArrive { pkt, from: next_from });
                    }
                    LinkClass::Local => {
                        ctx.send(peer_lp, latency, NetEvent::RouterArrive { pkt, from: next_from });
                    }
                }
                let action = self.ports[port as usize].after_xmit(now);
                self.apply(ctx, port as usize, action);
            }
            NetEvent::Fault(fev) => {
                self.faults.apply(&fev);
                // Degrade factors act on this router's own out ports.
                match fev {
                    FaultEvent::DegradedLink { router, port, factor } if router == self.id.0 => {
                        if let Some(p) = self.ports.get_mut(port as usize) {
                            p.set_degrade_factor(factor);
                        }
                    }
                    FaultEvent::LinkUp { router, port } if router == self.id.0 => {
                        if let Some(p) = self.ports.get_mut(port as usize) {
                            p.set_degrade_factor(1.0);
                        }
                    }
                    _ => {}
                }
            }
            NetEvent::InjectWake | NetEvent::TerminalXmitDone | NetEvent::TerminalArrive { .. } => {
                unreachable!("terminal event delivered to router")
            }
        }
    }

    /// Close open saturation intervals.
    fn on_finish(&mut self, now: SimTime) {
        for p in &mut self.ports {
            p.finish(now);
        }
    }

    /// Serialize the router's dynamic state — every out port, the RNG
    /// stream position, the fault view, and drop/reroute counters — for an
    /// engine checkpoint. Topology wiring is static and excluded.
    fn snapshot(&self, w: &mut WireWriter) -> Result<(), SnapshotError> {
        w.put_u64(self.ports.len() as u64);
        for p in &self.ports {
            p.snapshot(w)?;
        }
        for s in self.rng.state() {
            w.put_u64(s);
        }
        self.faults.encode(w);
        w.put_u64(self.drops.router_down);
        w.put_u64(self.drops.no_route);
        w.put_u64(self.drops.ttl);
        w.put_u64(self.drops.bytes);
        w.put_u64(self.reroutes);
        Ok(())
    }

    /// Inverse of [`RouterLp::snapshot`].
    fn restore(&mut self, r: &mut WireReader<'_>) -> Result<(), SnapshotError> {
        let n_ports = r.u64()? as usize;
        if n_ports != self.ports.len() {
            return Err(SnapshotError::Corrupt(format!(
                "router {}: snapshot has {n_ports} ports, model has {}",
                self.id.0,
                self.ports.len()
            )));
        }
        for p in &mut self.ports {
            p.restore(r)?;
        }
        let state = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
        self.rng = StdRng::from_state(state);
        self.faults = FaultView::decode(r)?;
        self.drops = DropCounters {
            router_down: r.u64()?,
            no_route: r.u64()?,
            ttl: r.u64()?,
            bytes: r.u64()?,
        };
        self.reroutes = r.u64()?;
        Ok(())
    }
}

impl Switch for RouterLp {
    /// The router's out ports (metric extraction).
    fn ports(&self) -> &[OutPort] {
        &self.ports
    }

    /// Packets discarded at this router (metric extraction).
    fn drops(&self) -> &DropCounters {
        &self.drops
    }

    /// Packets this router diverted around a dead link.
    fn reroutes(&self) -> u64 {
        self.reroutes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DragonflyConfig;
    use crate::topology::TerminalId;
    use hrviz_pdes::Event;

    fn spec() -> Arc<NetworkSpec> {
        let mut s = NetworkSpec::new(DragonflyConfig::canonical(2)); // g=9, a=4, p=2
        s.num_vcs = 4;
        Arc::new(s)
    }

    fn drive(r: &mut RouterLp, now: SimTime, ev: NetEvent) -> Vec<Event<NetEvent>> {
        let mut seq = 0;
        let mut out = Vec::new();
        let me = r.my_lp;
        let mut ctx = Ctx::detached(now, me, &mut seq, &mut out, SimTime(30));
        r.on_event(&mut ctx, ev);
        out
    }

    fn pkt_to(src: u32, dst: u32) -> Packet {
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
            plan: RoutePlan::Decide,
        }
    }

    fn terminal_from(t: u32) -> CreditReturn {
        CreditReturn { lp: LpId(t), port: 0, vc: 0, bytes: 1024, latency: SimTime(30) }
    }

    #[test]
    fn arrival_for_attached_terminal_ejects() {
        let spec = spec();
        let topo = Topology::new(spec.topology);
        let mut r = RouterLp::new(&spec, RouterId(0));
        // Terminal 1 lives on router 0 (p=2).
        let out = drive(
            &mut r,
            SimTime(100),
            NetEvent::RouterArrive { pkt: pkt_to(5, 1), from: terminal_from(5) },
        );
        // Serialization starts immediately: one self XmitDone event.
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].payload, NetEvent::XmitDone { port: 1 }));
        // Completing the xmit delivers to the terminal LP + returns credit.
        let finish = out[0].key.time;
        let out = drive(&mut r, finish, NetEvent::XmitDone { port: 1 });
        assert_eq!(out.len(), 2);
        assert!(matches!(out[0].payload, NetEvent::Credit { .. }));
        assert_eq!(out[0].key.dst, LpId(5));
        match &out[1].payload {
            NetEvent::TerminalArrive { pkt, from } => {
                assert_eq!(pkt.hops, 1);
                assert_eq!(from.lp, topo.router_lp(RouterId(0)));
            }
            other => panic!("expected TerminalArrive, got {other:?}"),
        }
        assert_eq!(out[1].key.dst, topo.terminal_lp(TerminalId(1)));
    }

    #[test]
    fn minimal_routing_walks_to_other_group() {
        let spec = spec();
        let topo = Topology::new(spec.topology);
        // Send a packet from terminal 0 (router 0, group 0) to the last
        // terminal (last group) and follow it through routers.
        let dst = TerminalId(spec.topology.num_terminals() - 1);
        let dst_router = topo.router_of_terminal(dst);
        let mut current = RouterId(0);
        let mut pkt = pkt_to(0, dst.0);
        let mut from = terminal_from(0);
        let mut hops = 0;
        loop {
            let mut r = RouterLp::new(&spec, current);
            let out = drive(&mut r, SimTime(0), NetEvent::RouterArrive { pkt, from });
            let xmit = out
                .iter()
                .find_map(|e| match e.payload {
                    NetEvent::XmitDone { port } => Some(port),
                    _ => None,
                })
                .expect("xmit scheduled");
            let out = drive(&mut r, SimTime(1000), NetEvent::XmitDone { port: xmit });
            let arrival = out.last().unwrap();
            match &arrival.payload {
                NetEvent::TerminalArrive { pkt: p, .. } => {
                    assert_eq!(p.dst, dst);
                    assert_eq!(current, dst_router);
                    break;
                }
                NetEvent::RouterArrive { pkt: p, from: f } => {
                    // Find which router the event targets.
                    let lp = arrival.key.dst;
                    let rid = RouterId(lp.0 - spec.topology.num_terminals());
                    pkt = *p;
                    from = *f;
                    current = rid;
                }
                other => panic!("unexpected {other:?}"),
            }
            hops += 1;
            assert!(hops <= 4, "minimal path too long");
        }
        assert!(hops <= 3);
    }

    #[test]
    fn nonminimal_packets_get_intermediate_group() {
        let mut s = NetworkSpec::new(DragonflyConfig::canonical(2));
        s.num_vcs = 4;
        s.routing = RoutingAlgorithm::NonMinimal;
        let spec = Arc::new(s);
        let mut r = RouterLp::new(&spec, RouterId(0));
        // Repeatedly decide for fresh packets: all must be Via(≠0, ≠dst group).
        let topo = Topology::new(spec.topology);
        let dst = TerminalId(spec.topology.num_terminals() - 1);
        let dst_group = topo.group_of_router(topo.router_of_terminal(dst));
        for _ in 0..20 {
            let plan = r.initial_decision(
                &pkt_to(0, dst.0),
                topo.router_of_terminal(dst),
                GroupId(0),
                dst_group,
            );
            match plan {
                RoutePlan::Via(gi) => {
                    assert_ne!(gi, GroupId(0));
                    assert_ne!(gi, dst_group);
                }
                other => panic!("expected Via, got {other:?}"),
            }
        }
    }

    #[test]
    fn adaptive_stays_minimal_with_empty_queues() {
        let mut s = NetworkSpec::new(DragonflyConfig::canonical(2));
        s.num_vcs = 4;
        s.routing = RoutingAlgorithm::adaptive_default();
        let spec = Arc::new(s);
        let topo = Topology::new(spec.topology);
        let mut r = RouterLp::new(&spec, RouterId(0));
        let dst = TerminalId(spec.topology.num_terminals() - 1);
        let dst_group = topo.group_of_router(topo.router_of_terminal(dst));
        let plan = r.initial_decision(
            &pkt_to(0, dst.0),
            topo.router_of_terminal(dst),
            GroupId(0),
            dst_group,
        );
        assert_eq!(plan, RoutePlan::Minimal);
    }

    #[test]
    fn intra_group_destination_routes_minimal_locally() {
        let mut s = NetworkSpec::new(DragonflyConfig::canonical(2));
        s.num_vcs = 4;
        s.routing = RoutingAlgorithm::NonMinimal;
        let spec = Arc::new(s);
        let mut r = RouterLp::new(&spec, RouterId(0));
        // Destination terminal on router 1, same group: local forward.
        let out = drive(
            &mut r,
            SimTime(0),
            NetEvent::RouterArrive {
                pkt: pkt_to(0, 2), // terminal 2 → router 1 (p=2)
                from: terminal_from(0),
            },
        );
        assert_eq!(out.len(), 1);
        let NetEvent::XmitDone { port } = out[0].payload else { panic!() };
        // local port to rank 1 = p + 1 = 3.
        assert_eq!(port, 3);
    }

    #[test]
    fn dead_router_drops_arrivals_and_returns_credit() {
        let spec = spec();
        let mut r = RouterLp::new(&spec, RouterId(0));
        let _ = drive(&mut r, SimTime(0), NetEvent::Fault(FaultEvent::RouterDown { router: 0 }));
        let out = drive(
            &mut r,
            SimTime(10),
            NetEvent::RouterArrive { pkt: pkt_to(5, 1), from: terminal_from(5) },
        );
        // Upstream credit comes back; nothing is forwarded.
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].payload, NetEvent::Credit { bytes: 1024, .. }));
        assert_eq!(out[0].key.dst, LpId(5));
        assert_eq!(r.drops().router_down, 1);
        assert_eq!(r.drops().bytes, 1024);
        // RouterUp restores service.
        let _ = drive(&mut r, SimTime(20), NetEvent::Fault(FaultEvent::RouterUp { router: 0 }));
        let out = drive(
            &mut r,
            SimTime(30),
            NetEvent::RouterArrive { pkt: pkt_to(5, 1), from: terminal_from(5) },
        );
        assert!(matches!(out[0].payload, NetEvent::XmitDone { .. }));
    }

    #[test]
    fn hop_limit_exceeded_is_counted_ttl_drop() {
        let spec = spec(); // hop_limit defaults to 16
        let mut r = RouterLp::new(&spec, RouterId(0));
        let mut p = pkt_to(5, 1);
        p.hops = spec.hop_limit; // arrival increments past the limit
        let out =
            drive(&mut r, SimTime(0), NetEvent::RouterArrive { pkt: p, from: terminal_from(5) });
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].payload, NetEvent::Credit { .. }));
        assert_eq!(r.drops().ttl, 1);
    }

    #[test]
    fn minimal_routing_counts_drop_on_dead_global_link() {
        let spec = spec();
        let topo = Topology::new(spec.topology);
        let dst = TerminalId(spec.topology.num_terminals() - 1);
        let dst_group = topo.group_of_router(topo.router_of_terminal(dst));
        let (gw, gp) = topo.gateway(GroupId(0), dst_group);
        let src_terminal = topo.terminal_of(gw, 0);
        let mut r = RouterLp::new(&spec, gw);
        let _ = drive(
            &mut r,
            SimTime(0),
            NetEvent::Fault(FaultEvent::LinkDown { router: gw.0, port: topo.global_port(gp) }),
        );
        let out = drive(
            &mut r,
            SimTime(10),
            NetEvent::RouterArrive {
                pkt: pkt_to(src_terminal.0, dst.0),
                from: terminal_from(src_terminal.0),
            },
        );
        assert!(matches!(out[0].payload, NetEvent::Credit { .. }));
        assert_eq!(r.drops().no_route, 1);
        assert_eq!(r.reroutes(), 0);
    }

    #[test]
    fn adaptive_routing_diverts_around_dead_global_link() {
        let mut s = NetworkSpec::new(DragonflyConfig::canonical(2));
        s.num_vcs = 4;
        s.routing = RoutingAlgorithm::adaptive_default();
        let spec = Arc::new(s);
        let topo = Topology::new(spec.topology);
        let dst = TerminalId(spec.topology.num_terminals() - 1);
        let dst_group = topo.group_of_router(topo.router_of_terminal(dst));
        let (gw, gp) = topo.gateway(GroupId(0), dst_group);
        let src_terminal = topo.terminal_of(gw, 0);
        let mut r = RouterLp::new(&spec, gw);
        let _ = drive(
            &mut r,
            SimTime(0),
            NetEvent::Fault(FaultEvent::LinkDown { router: gw.0, port: topo.global_port(gp) }),
        );
        let out = drive(
            &mut r,
            SimTime(10),
            NetEvent::RouterArrive {
                pkt: pkt_to(src_terminal.0, dst.0),
                from: terminal_from(src_terminal.0),
            },
        );
        // The packet is granted on some live port instead of being dropped.
        assert!(matches!(out[0].payload, NetEvent::XmitDone { .. }));
        assert_eq!(r.reroutes(), 1);
        assert_eq!(r.drops().total(), 0);
    }

    #[test]
    fn degraded_link_fault_slows_own_port() {
        let spec = spec();
        let mut r = RouterLp::new(&spec, RouterId(0));
        // Halve the ejection port for terminal 1 (port index 1).
        let _ = drive(
            &mut r,
            SimTime(0),
            NetEvent::Fault(FaultEvent::DegradedLink { router: 0, port: 1, factor: 0.5 }),
        );
        let out = drive(
            &mut r,
            SimTime(0),
            NetEvent::RouterArrive { pkt: pkt_to(5, 1), from: terminal_from(5) },
        );
        let healthy = {
            let mut r2 = RouterLp::new(&spec, RouterId(0));
            let out2 = drive(
                &mut r2,
                SimTime(0),
                NetEvent::RouterArrive { pkt: pkt_to(5, 1), from: terminal_from(5) },
            );
            out2[0].key.time
        };
        assert!(out[0].key.time > healthy);
        assert_eq!(out[0].key.time, spec.terminal_link.serialize_degraded(1024, 0.5));
    }

    #[test]
    fn global_traversal_increments_global_hops() {
        let spec = spec();
        let topo = Topology::new(spec.topology);
        // Use the router that owns the channel to the destination group so
        // the first hop is global.
        let dst = TerminalId(spec.topology.num_terminals() - 1);
        let dst_group = topo.group_of_router(topo.router_of_terminal(dst));
        let (gw, _) = topo.gateway(GroupId(0), dst_group);
        let src_terminal = topo.terminal_of(gw, 0);
        let mut r = RouterLp::new(&spec, gw);
        let out = drive(
            &mut r,
            SimTime(0),
            NetEvent::RouterArrive {
                pkt: pkt_to(src_terminal.0, dst.0),
                from: terminal_from(src_terminal.0),
            },
        );
        let NetEvent::XmitDone { port } = out[0].payload else { panic!() };
        let out = drive(&mut r, SimTime(1000), NetEvent::XmitDone { port });
        let NetEvent::RouterArrive { pkt, .. } = &out[1].payload else { panic!() };
        assert_eq!(pkt.global_hops, 1);
    }
}
