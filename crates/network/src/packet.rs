//! Packets and routing plans.

use crate::topology::{GroupId, TerminalId};
use hrviz_pdes::SimTime;

/// Job identifier (index into the run's job table). Terminals with no job
/// use [`NO_JOB`].
pub type JobId = u16;

/// Sentinel job id for idle terminals / background traffic.
pub const NO_JOB: JobId = u16::MAX;

/// The routing state a packet carries along its path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoutePlan {
    /// Not yet decided; the first router the packet meets decides.
    Decide,
    /// Committed to the minimal path.
    Minimal,
    /// Minimal for now, but progressive-adaptive routers in the source
    /// group may still divert it.
    MinimalPar,
    /// Valiant: minimal to the intermediate group, then minimal to the
    /// destination.
    Via(GroupId),
}

/// A packet in flight. Messages are segmented into packets of at most
/// `NetworkSpec::packet_bytes` before injection.
#[derive(Clone, Copy, Debug)]
pub struct Packet {
    /// Globally unique packet id (for tracing/debugging).
    pub id: u64,
    /// Source terminal.
    pub src: TerminalId,
    /// Destination terminal.
    pub dst: TerminalId,
    /// Payload size in bytes.
    pub bytes: u32,
    /// Time the owning message was injected at the source terminal (source
    /// queueing is therefore part of measured latency, as in CODES).
    pub inject_time: SimTime,
    /// Job the source terminal belongs to.
    pub job: JobId,
    /// Routers visited so far.
    pub hops: u8,
    /// Global links traversed so far (selects the global-link VC stage).
    pub global_hops: u8,
    /// Set when a progressive-adaptive router diverted this packet after it
    /// already took a local hop; the diversion hop uses its own VC stage.
    pub diverted: bool,
    /// Routing plan / state.
    pub plan: RoutePlan,
    /// Port of the current node the packet arrived through: the reverse of
    /// the link it last crossed. The buffer credit it holds goes back over
    /// this port's link to its peer's `peer_port` (see [`crate::port`]).
    pub in_port: u16,
    /// Virtual channel of the buffer the packet holds at the current node.
    pub in_vc: u8,
    /// Virtual channel the packet asked for (while parked) or was granted
    /// at its current out port.
    pub out_vc: u8,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_is_small_copy_type() {
        let p = Packet {
            id: 1,
            src: TerminalId(0),
            dst: TerminalId(9),
            bytes: 2048,
            inject_time: SimTime::ZERO,
            job: 0,
            hops: 0,
            global_hops: 0,
            diverted: false,
            plan: RoutePlan::Decide,
            in_port: 0,
            in_vc: 0,
            out_vc: 0,
        };
        let q = p; // Copy
        assert_eq!(q.bytes, p.bytes);
        // The arrival-link fields fit the padding: port queues and the
        // calendar's events hold packets by value.
        assert!(std::mem::size_of::<Packet>() <= 48, "packets must stay 48 bytes");
    }
}
