//! Router output ports: virtual channels, credit pools, serialization and
//! saturation accounting.
//!
//! Credits model the *downstream* input buffer: an out port may only start
//! a packet when the matching VC has enough credit. A packet that cannot
//! get credit parks; the paper's "link saturation time" is exactly the
//! time the port has parked packets (the VC buffers of the link are full —
//! §III).
//!
//! A port holds its VC state inline and queues bare [`Packet`]s: parked
//! packets of every VC share one FIFO, tagged by `Packet::out_vc`, and a
//! per-VC count keeps "park behind" O(1). A packet carries the link it
//! arrived over (`in_port`, `in_vc`), so when it leaves a node the credit
//! for the buffer it vacated is rebuilt from that port alone
//! ([`OutPort::return_credit`]), and [`OutPort::deliver`] stamps it on the
//! way out: every port's `peer_port` must point back at the port it is
//! wired to.

use crate::config::{LinkClass, LinkClassParams, SamplingConfig};
use crate::events::NetEvent;
use crate::packet::Packet;
use crate::sampling::Bins;
use crate::snapshot::{
    decode_opt_bins, decode_opt_time, decode_packet, encode_opt_bins, encode_opt_time,
    encode_packet,
};
use hrviz_pdes::wire::{SnapshotError, WireReader, WireWriter};
use hrviz_pdes::{Ctx, LpId, SimTime};
use std::collections::VecDeque;

/// Most virtual channels a port holds: the Dragonfly stage table emits
/// VCs 0–3 and the Fat-Tree uses one.
pub const MAX_VCS: usize = 4;

/// One virtual channel of an out port.
#[derive(Clone, Copy, Debug)]
struct VcState {
    credits: i64,
    /// Smallest credit level ever seen (peak downstream-buffer occupancy).
    min_credits: i64,
    /// Packets of this VC waiting in the port's parked queue.
    parked: u32,
}

/// A router (or terminal) output port.
#[derive(Debug)]
pub struct OutPort {
    /// Link class of this port.
    pub class: LinkClass,
    /// Index within the class (terminal k / peer rank / global port).
    pub class_idx: u32,
    /// LP on the far end of the link.
    pub peer_lp: LpId,
    /// Port index the reverse link occupies on the peer: credits for
    /// packets that arrived through this port go back to it.
    pub peer_port: u32,
    /// Link parameters.
    pub params: LinkClassParams,
    vcs: [VcState; MAX_VCS],
    num_vcs: u8,
    busy: bool,
    /// Packets waiting for credit, all VCs in arrival order.
    parked: VecDeque<Packet>,
    /// Packets granted credit, awaiting (or in) serialization.
    xmit_q: VecDeque<Packet>,
    /// Bytes committed to this port (pending + granted); the congestion
    /// signal adaptive routing reads.
    pub queued_bytes: u64,
    // --- statistics ---
    /// Total bytes serialized onto the link.
    pub traffic: u64,
    /// Total saturated time (some packet parked).
    pub sat_ns: u64,
    /// Packets that had to park for lack of credit (credit stalls).
    pub stalls: u64,
    /// Per-VC credit pool size (for occupancy normalization).
    vc_buffer_bytes: u32,
    /// Bandwidth fraction retained (fault-schedule degrade; 1.0 = healthy).
    degrade: f64,
    sat_since: Option<SimTime>,
    /// Optional time series.
    pub traffic_bins: Option<Box<Bins>>,
    /// Optional time series of saturated ns.
    pub sat_bins: Option<Box<Bins>>,
}

/// What the router should do after an [`OutPort`] operation.
#[derive(Debug, PartialEq, Eq)]
pub enum PortAction {
    /// Nothing to schedule.
    None,
    /// Start serializing: schedule `XmitDone` for this port at `finish`.
    StartXmit {
        /// Serialization completes at this time.
        finish: SimTime,
    },
}

impl OutPort {
    /// Build a port with `num_vcs` (at most [`MAX_VCS`]) virtual channels
    /// of `vc_buffer_bytes` credit each.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        class: LinkClass,
        class_idx: u32,
        peer_lp: LpId,
        peer_port: u32,
        params: LinkClassParams,
        num_vcs: u8,
        vc_buffer_bytes: u32,
        sampling: Option<SamplingConfig>,
    ) -> Self {
        assert!(num_vcs as usize <= MAX_VCS, "{num_vcs} VCs exceed the port's {MAX_VCS}");
        let full = VcState {
            credits: vc_buffer_bytes as i64,
            min_credits: vc_buffer_bytes as i64,
            parked: 0,
        };
        OutPort {
            class,
            class_idx,
            peer_lp,
            peer_port,
            params,
            vcs: [full; MAX_VCS],
            num_vcs,
            busy: false,
            parked: VecDeque::new(),
            xmit_q: VecDeque::new(),
            queued_bytes: 0,
            traffic: 0,
            sat_ns: 0,
            stalls: 0,
            vc_buffer_bytes,
            degrade: 1.0,
            sat_since: None,
            traffic_bins: sampling.map(|s| Box::new(Bins::new(s))),
            sat_bins: sampling.map(|s| Box::new(Bins::new(s))),
        }
    }

    /// Number of virtual channels.
    pub fn num_vcs(&self) -> usize {
        self.num_vcs as usize
    }

    fn vcs(&self) -> &[VcState] {
        &self.vcs[..self.num_vcs as usize]
    }

    /// Set the bandwidth fraction retained on this link. Takes effect for
    /// serializations that start after the call; an in-flight packet keeps
    /// its already-scheduled finish time.
    pub fn set_degrade_factor(&mut self, factor: f64) {
        self.degrade = if factor.is_finite() { factor.clamp(1e-6, 1.0) } else { 1.0 };
    }

    /// Return the buffer credit `pkt` held at this node to the upstream
    /// port it came from. `self` must be the port `pkt` arrived through
    /// (`pkt.in_port`): its link's far end is the upstream node, and its
    /// `peer_port` the upstream out port.
    pub fn return_credit(&self, ctx: &mut Ctx<'_, NetEvent>, pkt: &Packet) {
        ctx.send(
            self.peer_lp,
            self.params.latency,
            NetEvent::Credit { port: self.peer_port as u16, vc: pkt.in_vc, bytes: pkt.bytes },
        );
    }

    /// Send a packet that finished serializing on this port into the
    /// buffer at the link's far end: it arrives through the peer's
    /// `peer_port`, holding the VC it was granted here.
    pub fn deliver(&self, ctx: &mut Ctx<'_, NetEvent>, mut pkt: Packet) {
        pkt.in_port = self.peer_port as u16;
        pkt.in_vc = pkt.out_vc;
        let arrive = match self.class {
            LinkClass::Terminal => NetEvent::TerminalArrive { pkt },
            LinkClass::Local | LinkClass::Global => NetEvent::RouterArrive { pkt },
        };
        ctx.send(self.peer_lp, self.params.latency, arrive);
    }

    /// End-of-run invariant check: with the network drained, every credit
    /// must be back home and no packet may still be parked or queued.
    pub fn audit(&self) -> Result<(), String> {
        for (i, v) in self.vcs().iter().enumerate() {
            if v.credits != self.vc_buffer_bytes as i64 {
                return Err(format!(
                    "{:?} port {}: vc {} holds {} of {} credits after drain",
                    self.class, self.class_idx, i, v.credits, self.vc_buffer_bytes
                ));
            }
            if v.parked != 0 {
                return Err(format!(
                    "{:?} port {}: vc {} still has {} parked packets after drain",
                    self.class, self.class_idx, i, v.parked
                ));
            }
        }
        if !self.xmit_q.is_empty() {
            return Err(format!(
                "{:?} port {}: {} packets still queued for serialization after drain",
                self.class,
                self.class_idx,
                self.xmit_q.len()
            ));
        }
        Ok(())
    }

    /// Credits currently available on `vc` (can be transiently negative
    /// never — grants check first).
    pub fn credits(&self, vc: u8) -> i64 {
        self.vcs()[vc as usize].credits
    }

    /// Whether any packet is parked (the saturation condition).
    pub fn is_saturated(&self) -> bool {
        !self.parked.is_empty()
    }

    /// Peak occupancy of each VC's downstream buffer as a fraction of its
    /// credit pool (0 = never used, 1 = fully consumed at some point).
    pub fn vc_peak_occupancies(&self) -> impl Iterator<Item = f64> + '_ {
        let buf = self.vc_buffer_bytes as f64;
        self.vcs().iter().map(move |v| {
            if buf <= 0.0 {
                0.0
            } else {
                (self.vc_buffer_bytes as i64 - v.min_credits) as f64 / buf
            }
        })
    }

    fn note_sat_start(&mut self, now: SimTime) {
        if self.sat_since.is_none() {
            self.sat_since = Some(now);
        }
    }

    fn note_sat_maybe_end(&mut self, now: SimTime) {
        if !self.is_saturated() {
            self.finish(now);
        }
    }

    /// Close any open saturation interval at end of run.
    pub fn finish(&mut self, now: SimTime) {
        if let Some(s) = self.sat_since.take() {
            self.sat_ns += (now - s).as_nanos();
            if let Some(b) = &mut self.sat_bins {
                b.add_interval(s, now);
            }
        }
    }

    /// Offer a packet to this port on virtual channel `vc`.
    ///
    /// If the VC has credit the packet is granted (credit debited, packet
    /// queued for serialization) and, when the line is idle, serialization
    /// starts — the returned action tells the router what to schedule.
    /// Without credit the packet parks and the saturation clock starts.
    pub fn offer(&mut self, now: SimTime, mut pkt: Packet, vc: u8) -> PortAction {
        self.queued_bytes += pkt.bytes as u64;
        assert!(vc < self.num_vcs, "packet VC {vc} exceeds configured VCs");
        pkt.out_vc = vc;
        let v = &mut self.vcs[vc as usize];
        // FIFO per VC: if the VC already has parked packets, park behind them.
        if v.parked > 0 || v.credits < pkt.bytes as i64 {
            v.parked += 1;
            self.parked.push_back(pkt);
            self.stalls += 1;
            self.note_sat_start(now);
            return PortAction::None;
        }
        self.grant(pkt);
        self.try_start(now)
    }

    /// Debit `pkt.out_vc`'s credit and queue the packet for the line.
    fn grant(&mut self, pkt: Packet) {
        let v = &mut self.vcs[pkt.out_vc as usize];
        v.credits -= pkt.bytes as i64;
        v.min_credits = v.min_credits.min(v.credits);
        self.xmit_q.push_back(pkt);
    }

    fn try_start(&mut self, now: SimTime) -> PortAction {
        if self.busy {
            return PortAction::None;
        }
        let Some(head) = self.xmit_q.front() else { return PortAction::None };
        let bytes = head.bytes;
        self.busy = true;
        self.traffic += bytes as u64;
        if let Some(b) = &mut self.traffic_bins {
            b.add_at(now, bytes as u64);
        }
        PortAction::StartXmit { finish: now + self.params.serialize_degraded(bytes, self.degrade) }
    }

    /// Serialization finished: pop the transmitted packet (`out_vc` names
    /// the VC it was granted). The caller sends the arrival + upstream
    /// credit events, then must call [`OutPort::after_xmit`] to start the
    /// next packet.
    pub fn complete_xmit(&mut self, _now: SimTime) -> Packet {
        debug_assert!(self.busy);
        self.busy = false;
        let pkt = self.xmit_q.pop_front().expect("xmit queue empty on XmitDone");
        self.queued_bytes -= pkt.bytes as u64;
        pkt
    }

    /// Start the next granted packet, if any.
    pub fn after_xmit(&mut self, now: SimTime) -> PortAction {
        self.try_start(now)
    }

    /// Serialize the port's dynamic state (credits, parked and granted
    /// packets, serializer occupancy, statistics) for an engine checkpoint.
    pub fn snapshot(&self, w: &mut WireWriter) -> Result<(), SnapshotError> {
        w.put_u64(self.num_vcs as u64);
        for v in self.vcs() {
            w.put_i64(v.credits);
            w.put_i64(v.min_credits);
        }
        for q in [&self.parked, &self.xmit_q] {
            w.put_u64(q.len() as u64);
            for pkt in q {
                encode_packet(w, pkt);
            }
        }
        w.put_bool(self.busy);
        w.put_u64(self.queued_bytes);
        w.put_u64(self.traffic);
        w.put_u64(self.sat_ns);
        w.put_u64(self.stalls);
        w.put_f64(self.degrade);
        encode_opt_time(w, &self.sat_since);
        encode_opt_bins(w, &self.traffic_bins);
        encode_opt_bins(w, &self.sat_bins);
        Ok(())
    }

    /// Inverse of [`OutPort::snapshot`].
    pub fn restore(&mut self, r: &mut WireReader<'_>) -> Result<(), SnapshotError> {
        let n_vcs = r.u64()?;
        if n_vcs != self.num_vcs as u64 {
            return Err(SnapshotError::Corrupt(format!(
                "{:?} port {}: snapshot has {n_vcs} VCs, model has {}",
                self.class, self.class_idx, self.num_vcs
            )));
        }
        for v in &mut self.vcs[..self.num_vcs as usize] {
            v.credits = r.i64()?;
            v.min_credits = r.i64()?;
            v.parked = 0;
        }
        for q in [&mut self.parked, &mut self.xmit_q] {
            let n = r.u64()? as usize;
            q.clear();
            for _ in 0..n {
                let pkt = decode_packet(r)?;
                if pkt.out_vc >= self.num_vcs {
                    return Err(SnapshotError::Corrupt(format!(
                        "{:?} port {}: queued packet on VC {} of {}",
                        self.class, self.class_idx, pkt.out_vc, self.num_vcs
                    )));
                }
                q.push_back(pkt);
            }
        }
        for pkt in &self.parked {
            self.vcs[pkt.out_vc as usize].parked += 1;
        }
        self.busy = r.bool()?;
        self.queued_bytes = r.u64()?;
        self.traffic = r.u64()?;
        self.sat_ns = r.u64()?;
        self.stalls = r.u64()?;
        self.degrade = r.f64()?;
        self.sat_since = decode_opt_time(r)?;
        decode_opt_bins(r, &mut self.traffic_bins)?;
        decode_opt_bins(r, &mut self.sat_bins)?;
        Ok(())
    }

    /// Credit arrived from downstream: release bytes on `vc` and grant as
    /// many of its parked packets as now fit, oldest first (FIFO per VC;
    /// other VCs' parked packets keep their places).
    pub fn credit(&mut self, now: SimTime, vc: u8, bytes: u32) -> PortAction {
        self.vcs[vc as usize].credits += bytes as i64;
        let mut granted = false;
        let mut at = 0;
        while self.vcs[vc as usize].parked > 0 {
            let Some(skip) = self.parked.range(at..).position(|p| p.out_vc == vc) else { break };
            at += skip;
            if self.vcs[vc as usize].credits < self.parked[at].bytes as i64 {
                break;
            }
            let pkt = self.parked.remove(at).expect("parked index in range");
            self.vcs[vc as usize].parked -= 1;
            self.grant(pkt);
            granted = true;
        }
        self.note_sat_maybe_end(now);
        if granted {
            self.try_start(now)
        } else {
            PortAction::None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::RoutePlan;
    use crate::topology::TerminalId;

    fn params() -> LinkClassParams {
        LinkClassParams { bandwidth_bytes_per_ns: 1.0, latency: SimTime(10) }
    }

    fn port(buf: u32) -> OutPort {
        OutPort::new(LinkClass::Local, 0, LpId(99), 0, params(), 3, buf, None)
    }

    fn pkt(id: u64, bytes: u32, vc: u8) -> Packet {
        Packet {
            id,
            src: TerminalId(0),
            dst: TerminalId(1),
            bytes,
            inject_time: SimTime::ZERO,
            job: 0,
            hops: 0,
            global_hops: vc,
            diverted: false,
            plan: RoutePlan::Minimal,
            in_port: 0,
            in_vc: 0,
            out_vc: 0,
        }
    }

    #[test]
    fn grant_starts_xmit_when_idle() {
        let mut p = port(1000);
        let act = p.offer(SimTime(0), pkt(1, 100, 0), 0);
        assert_eq!(act, PortAction::StartXmit { finish: SimTime(100) });
        assert_eq!(p.credits(0), 900);
        assert_eq!(p.traffic, 100);
    }

    #[test]
    fn second_packet_waits_for_line() {
        let mut p = port(1000);
        let _ = p.offer(SimTime(0), pkt(1, 100, 0), 0);
        let act = p.offer(SimTime(5), pkt(2, 200, 0), 0);
        assert_eq!(act, PortAction::None); // line busy, but credit granted
        assert_eq!(p.credits(0), 700);
        let done = p.complete_xmit(SimTime(100));
        assert_eq!(done.id, 1);
        let act = p.after_xmit(SimTime(100));
        assert_eq!(act, PortAction::StartXmit { finish: SimTime(300) });
    }

    #[test]
    fn no_credit_parks_and_saturates() {
        let mut p = port(150);
        let _ = p.offer(SimTime(0), pkt(1, 100, 0), 0);
        let act = p.offer(SimTime(10), pkt(2, 100, 0), 0);
        assert_eq!(act, PortAction::None);
        assert!(p.is_saturated());
        // Credit arrives at t=60: packet 2 un-parks; 50 ns of saturation.
        let act = p.credit(SimTime(60), 0, 100);
        assert!(!p.is_saturated());
        assert_eq!(p.sat_ns, 50);
        // Line is still busy with packet 1 (finishes at t=100), so no start.
        assert_eq!(act, PortAction::None);
    }

    #[test]
    fn vcs_have_independent_credit() {
        let mut p = port(100);
        let _ = p.offer(SimTime(0), pkt(1, 100, 0), 0);
        // VC1 still has credit even though VC0 is drained.
        assert_eq!(p.credits(0), 0);
        assert_eq!(p.credits(1), 100);
        let act = p.offer(SimTime(0), pkt(2, 100, 1), 1);
        assert_eq!(act, PortAction::None); // busy line; granted though
        assert_eq!(p.credits(1), 0);
        assert!(!p.is_saturated());
    }

    #[test]
    fn fifo_within_vc_preserved_under_credit_starvation() {
        let mut p = port(100);
        let _ = p.offer(SimTime(0), pkt(1, 100, 0), 0);
        let _ = p.offer(SimTime(1), pkt(2, 60, 0), 0);
        let _ = p.offer(SimTime(2), pkt(3, 40, 0), 0);
        // Returning 60 bytes frees exactly packet 2; packet 3 must wait even
        // though it would also fit eventually (FIFO per VC).
        let _ = p.credit(SimTime(50), 0, 60);
        assert!(p.is_saturated());
        let _ = p.credit(SimTime(80), 0, 40);
        assert!(!p.is_saturated());
        // Drain the line: order must be 1, 2, 3.
        let a = p.complete_xmit(SimTime(100));
        let _ = p.after_xmit(SimTime(100));
        let b = p.complete_xmit(SimTime(160));
        let _ = p.after_xmit(SimTime(160));
        let c = p.complete_xmit(SimTime(200));
        assert_eq!((a.id, b.id, c.id), (1, 2, 3));
    }

    #[test]
    fn parked_vcs_share_one_queue_and_keep_their_own_order() {
        let mut p = port(100);
        // Fill VC0 and VC1, then park two packets on each, interleaved.
        let _ = p.offer(SimTime(0), pkt(1, 100, 0), 0);
        let _ = p.offer(SimTime(0), pkt(2, 100, 1), 1);
        let _ = p.offer(SimTime(1), pkt(3, 50, 0), 0);
        let _ = p.offer(SimTime(2), pkt(4, 50, 1), 1);
        let _ = p.offer(SimTime(3), pkt(5, 50, 0), 0);
        let _ = p.offer(SimTime(4), pkt(6, 50, 1), 1);
        assert_eq!(p.stalls, 4);
        // A VC1 credit grants VC1's parked packets past VC0's, in order.
        let _ = p.credit(SimTime(10), 1, 100);
        assert!(p.is_saturated()); // VC0's two still parked
        let _ = p.credit(SimTime(20), 0, 50);
        let _ = p.credit(SimTime(30), 0, 50);
        assert!(!p.is_saturated());
        assert_eq!(p.sat_ns, 29);
        let mut order = Vec::new();
        for t in 0..6 {
            let done = p.complete_xmit(SimTime(100 * (t + 1)));
            order.push((done.id, done.out_vc));
            let _ = p.after_xmit(SimTime(100 * (t + 1)));
        }
        assert_eq!(order, vec![(1, 0), (2, 1), (4, 1), (6, 1), (3, 0), (5, 0)]);
    }

    #[test]
    fn snapshot_restores_parked_counts() {
        let mut p = port(100);
        let _ = p.offer(SimTime(0), pkt(1, 100, 0), 0);
        let _ = p.offer(SimTime(1), pkt(2, 100, 0), 0);
        let _ = p.offer(SimTime(2), pkt(3, 100, 2), 2);
        let mut w = WireWriter::new();
        p.snapshot(&mut w).unwrap();
        let bytes = w.into_bytes();
        let mut q = port(100);
        q.restore(&mut WireReader::new(&bytes)).unwrap();
        assert!(q.is_saturated());
        // VC0's parked packet still waits behind the restored count.
        let _ = q.offer(SimTime(3), pkt(4, 10, 0), 0);
        assert_eq!(q.stalls, 2);
        let _ = q.credit(SimTime(4), 0, 110);
        assert!(!q.is_saturated());
        assert_eq!(q.credits(0), 0);
    }

    #[test]
    fn finish_closes_open_saturation() {
        let mut p = port(50);
        let _ = p.offer(SimTime(0), pkt(1, 50, 0), 0);
        let _ = p.offer(SimTime(20), pkt(2, 50, 0), 0);
        assert!(p.is_saturated());
        p.finish(SimTime(120));
        assert_eq!(p.sat_ns, 100);
    }

    #[test]
    fn queued_bytes_tracks_commitments() {
        let mut p = port(1000);
        let _ = p.offer(SimTime(0), pkt(1, 100, 0), 0);
        let _ = p.offer(SimTime(0), pkt(2, 200, 0), 0);
        assert_eq!(p.queued_bytes, 300);
        let _ = p.complete_xmit(SimTime(100));
        assert_eq!(p.queued_bytes, 200);
    }

    #[test]
    fn stalls_count_parked_packets() {
        let mut p = port(150);
        assert_eq!(p.stalls, 0);
        let _ = p.offer(SimTime(0), pkt(1, 100, 0), 0);
        assert_eq!(p.stalls, 0); // granted, no stall
        let _ = p.offer(SimTime(10), pkt(2, 100, 0), 0);
        let _ = p.offer(SimTime(20), pkt(3, 100, 0), 0);
        assert_eq!(p.stalls, 2);
        // Un-parking via credit does not count as a new stall.
        let _ = p.credit(SimTime(60), 0, 100);
        assert_eq!(p.stalls, 2);
    }

    #[test]
    fn vc_peak_occupancy_tracks_credit_low_water() {
        let mut p = port(1000);
        let _ = p.offer(SimTime(0), pkt(1, 250, 0), 0);
        let _ = p.offer(SimTime(1), pkt(2, 250, 0), 0);
        // VC0 dipped to 500 credits → 50% peak occupancy; VC1/VC2 untouched.
        let occ: Vec<f64> = p.vc_peak_occupancies().collect();
        assert_eq!(occ, vec![0.5, 0.0, 0.0]);
        // Credits returning do not lower the recorded peak.
        let _ = p.credit(SimTime(10), 0, 500);
        let occ: Vec<f64> = p.vc_peak_occupancies().collect();
        assert_eq!(occ[0], 0.5);
    }

    #[test]
    fn degraded_link_serializes_slower() {
        let mut p = port(1000);
        p.set_degrade_factor(0.5);
        let act = p.offer(SimTime(0), pkt(1, 100, 0), 0);
        assert_eq!(act, PortAction::StartXmit { finish: SimTime(200) });
        // Restoring full speed restores nominal serialization.
        p.set_degrade_factor(1.0);
        let _ = p.complete_xmit(SimTime(200));
        let act = p.offer(SimTime(200), pkt(2, 100, 0), 0);
        assert_eq!(act, PortAction::StartXmit { finish: SimTime(300) });
    }

    #[test]
    fn audit_flags_outstanding_credit_until_drained() {
        let mut p = port(1000);
        assert!(p.audit().is_ok());
        let _ = p.offer(SimTime(0), pkt(1, 100, 0), 0);
        assert!(p.audit().is_err()); // packet queued, credit debited
        let _ = p.complete_xmit(SimTime(100));
        assert!(p.audit().is_err()); // credit still downstream
        let _ = p.credit(SimTime(120), 0, 100);
        assert!(p.audit().is_ok());
    }

    #[test]
    fn sampling_bins_populated() {
        let sampling = SamplingConfig { bin_width: SimTime(50), max_bins: 100 };
        let mut p = OutPort::new(LinkClass::Local, 0, LpId(9), 0, params(), 2, 100, Some(sampling));
        let _ = p.offer(SimTime(0), pkt(1, 100, 0), 0);
        let _ = p.offer(SimTime(10), pkt(2, 100, 0), 0);
        let _ = p.credit(SimTime(75), 0, 100);
        assert_eq!(p.traffic_bins.as_ref().unwrap().values()[0], 100);
        // Saturated 10..75 → 40 ns in bin 0, 25 ns in bin 1.
        assert_eq!(p.sat_bins.as_ref().unwrap().values(), &[40, 25]);
    }
}
