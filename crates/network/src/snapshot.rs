//! Shared checkpoint codec helpers for the network model.
//!
//! The per-LP `snapshot`/`restore` implementations (terminal, router, out
//! port) and the [`crate::events::NetEvent`] payload codec all serialize
//! the same few building blocks — packets (with their arrival link),
//! optional sampling bins, optional timestamps. Keeping the codecs here means one
//! place defines each wire layout.

use crate::packet::{JobId, Packet, RoutePlan};
use crate::sampling::Bins;
use crate::topology::{GroupId, TerminalId};
use hrviz_pdes::wire::{SnapshotError, WireReader, WireWriter};
use hrviz_pdes::SimTime;

pub(crate) fn encode_packet(w: &mut WireWriter, p: &Packet) {
    w.put_u64(p.id);
    w.put_u32(p.src.0);
    w.put_u32(p.dst.0);
    w.put_u32(p.bytes);
    w.put_u64(p.inject_time.as_nanos());
    w.put_u32(p.job as u32);
    w.put_u8(p.hops);
    w.put_u8(p.global_hops);
    w.put_bool(p.diverted);
    match p.plan {
        RoutePlan::Decide => w.put_u8(0),
        RoutePlan::Minimal => w.put_u8(1),
        RoutePlan::MinimalPar => w.put_u8(2),
        RoutePlan::Via(g) => {
            w.put_u8(3);
            w.put_u32(g.0);
        }
    }
    w.put_u32(p.in_port as u32);
    w.put_u8(p.in_vc);
    w.put_u8(p.out_vc);
}

pub(crate) fn decode_packet(r: &mut WireReader<'_>) -> Result<Packet, SnapshotError> {
    Ok(Packet {
        id: r.u64()?,
        src: TerminalId(r.u32()?),
        dst: TerminalId(r.u32()?),
        bytes: r.u32()?,
        inject_time: SimTime(r.u64()?),
        job: r.u32()? as JobId,
        hops: r.u8()?,
        global_hops: r.u8()?,
        diverted: r.bool()?,
        plan: match r.u8()? {
            0 => RoutePlan::Decide,
            1 => RoutePlan::Minimal,
            2 => RoutePlan::MinimalPar,
            3 => RoutePlan::Via(GroupId(r.u32()?)),
            other => return Err(SnapshotError::Corrupt(format!("bad route-plan tag {other}"))),
        },
        in_port: r.u32()? as u16,
        in_vc: r.u8()?,
        out_vc: r.u8()?,
    })
}

pub(crate) fn encode_opt_time(w: &mut WireWriter, t: &Option<SimTime>) {
    match t {
        None => w.put_bool(false),
        Some(t) => {
            w.put_bool(true);
            w.put_u64(t.as_nanos());
        }
    }
}

pub(crate) fn decode_opt_time(r: &mut WireReader<'_>) -> Result<Option<SimTime>, SnapshotError> {
    Ok(if r.bool()? { Some(SimTime(r.u64()?)) } else { None })
}

/// Bins presence is static configuration (the sampling config), so the
/// codec only carries the accumulated values; a presence flag catches a
/// snapshot restored under a different sampling config.
pub(crate) fn encode_opt_bins(w: &mut WireWriter, b: &Option<Box<Bins>>) {
    match b {
        None => w.put_bool(false),
        Some(bins) => {
            w.put_bool(true);
            let v = bins.values();
            w.put_u64(v.len() as u64);
            for x in v {
                w.put_u64(*x);
            }
        }
    }
}

pub(crate) fn decode_opt_bins(
    r: &mut WireReader<'_>,
    b: &mut Option<Box<Bins>>,
) -> Result<(), SnapshotError> {
    let present = r.bool()?;
    match (present, b.as_mut()) {
        (false, None) => Ok(()),
        (true, Some(bins)) => {
            let n = r.u64()? as usize;
            let mut v = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                v.push(r.u64()?);
            }
            bins.set_values(v);
            Ok(())
        }
        _ => Err(SnapshotError::Corrupt(
            "sampling configuration differs between snapshot and model".into(),
        )),
    }
}
