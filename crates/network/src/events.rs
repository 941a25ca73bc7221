//! Event payloads exchanged between terminal and router LPs.

use crate::packet::Packet;
use crate::snapshot::{decode_packet, encode_packet};
use hrviz_pdes::wire::{SnapshotError, WirePayload, WireReader, WireWriter};

/// Network simulation event payload.
#[derive(Clone, Debug)]
pub enum NetEvent {
    /// Self-scheduled wake-up at a terminal to inject pending messages.
    InjectWake,
    /// A packet fully arrived at a router input buffer. Its `in_port` /
    /// `in_vc` name the buffer it occupies.
    RouterArrive {
        /// The packet.
        pkt: Packet,
    },
    /// A packet fully arrived at its destination terminal. Its `in_vc`
    /// names the VC it held at the router's ejection port.
    TerminalArrive {
        /// The packet.
        pkt: Packet,
    },
    /// Downstream freed `bytes` of buffer on (`port`, `vc`).
    Credit {
        /// Out-port index on the receiving node.
        port: u16,
        /// Virtual channel.
        vc: u8,
        /// Bytes released.
        bytes: u32,
    },
    /// An out-port finished serializing a packet; start the next one.
    XmitDone {
        /// Out-port index.
        port: u16,
    },
    /// The terminal's injection channel finished serializing a packet.
    TerminalXmitDone,
    /// A fault-schedule condition change, broadcast to every router at its
    /// trigger time (terminals never receive faults).
    Fault(hrviz_faults::FaultEvent),
}

impl WirePayload for NetEvent {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            NetEvent::InjectWake => w.put_u8(0),
            NetEvent::RouterArrive { pkt } => {
                w.put_u8(1);
                encode_packet(w, pkt);
            }
            NetEvent::TerminalArrive { pkt } => {
                w.put_u8(2);
                encode_packet(w, pkt);
            }
            NetEvent::Credit { port, vc, bytes } => {
                w.put_u8(3);
                w.put_u32(*port as u32);
                w.put_u8(*vc);
                w.put_u32(*bytes);
            }
            NetEvent::XmitDone { port } => {
                w.put_u8(4);
                w.put_u32(*port as u32);
            }
            NetEvent::TerminalXmitDone => w.put_u8(5),
            NetEvent::Fault(fev) => {
                w.put_u8(6);
                fev.encode(w);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, SnapshotError> {
        Ok(match r.u8()? {
            0 => NetEvent::InjectWake,
            1 => NetEvent::RouterArrive { pkt: decode_packet(r)? },
            2 => NetEvent::TerminalArrive { pkt: decode_packet(r)? },
            3 => NetEvent::Credit { port: r.u32()? as u16, vc: r.u8()?, bytes: r.u32()? },
            4 => NetEvent::XmitDone { port: r.u32()? as u16 },
            5 => NetEvent::TerminalXmitDone,
            6 => NetEvent::Fault(hrviz_faults::FaultEvent::decode(r)?),
            other => return Err(SnapshotError::Corrupt(format!("bad net-event tag {other}"))),
        })
    }
}
