//! The one simulation driver, shared by every topology and every run mode.
//!
//! A topology builds its LP population as [`Node`]s and hands it to
//! [`drive`] with a [`Mode`]. The driver builds the engine, broadcasts the
//! fault schedule to every switch, runs one absolute-grid boundary loop
//! (checkpoint snapshots or slice cuts), finalizes with the checked
//! `try_run_to_completion` (watchdog plus end-of-run credit audit),
//! reports network telemetry and extracts the topology's result. Because
//! batch, checkpointed, streamed and parallel runs all go through this one
//! loop, their results are bit-identical by construction.

use crate::events::NetEvent;
use crate::node::{Node, Switch};
use hrviz_faults::{FaultSchedule, HrvizError};
use hrviz_obs::{Collector, Json};
use hrviz_pdes::wire::{SnapshotError, WireReader, WireWriter};
use hrviz_pdes::{Engine, EngineStats, LpId, ParallelEngine, RunOutcome, SimTime};
use hrviz_stream::{CumulativeTotals, SliceControl, SliceCursor, SliceSink, StreamedOutcome};

/// Receives each checkpoint a checkpointed run takes: the (absolute)
/// virtual-time boundary and the checkpoint bytes, which carry that
/// boundary ahead of the engine snapshot.
pub type CheckpointSink<'a> = &'a mut dyn FnMut(SimTime, &[u8]) -> Result<(), HrvizError>;

/// Checkpoint/restore options for [`Simulation::try_run_checkpointed`](crate::Simulation::try_run_checkpointed).
#[derive(Default)]
pub struct CheckpointOptions<'a> {
    /// Restore engine state from this checkpoint (bytes produced by an
    /// earlier checkpoint of an identically configured simulation) before
    /// running, and resume the boundary grid after the boundary it was
    /// taken at. The simulation must be rebuilt with the same spec,
    /// injections, jobs, and fault schedule — only dynamic state rides in
    /// the checkpoint.
    pub restore_from: Option<&'a [u8]>,
    /// Snapshot every this much virtual time. Boundaries are absolute
    /// multiples of the interval, so an interrupted-then-restored run
    /// takes exactly the straight-through run's checkpoints after its own
    /// boundary, byte for byte.
    pub every: Option<SimTime>,
}

/// What the boundary loop does at each grid point.
pub enum Boundary<'a> {
    /// Snapshot the engine into the sink.
    Checkpoint(CheckpointSink<'a>),
    /// Seal one slice of counter deltas into the sink, which may abort.
    Slice(SliceSink<'a>),
}

/// How [`drive`] runs the engine.
pub enum Mode<'a> {
    /// The sequential engine: restored from `restore_from` when given
    /// (instead of broadcasting the faults, which ride in the snapshot),
    /// and stopping at every absolute multiple of `grid`'s interval.
    Serial {
        /// Checkpoint bytes to resume from.
        restore_from: Option<&'a [u8]>,
        /// The boundary interval and what to do at each boundary.
        grid: Option<(SimTime, Boundary<'a>)>,
    },
    /// The conservative parallel engine on this many partitions.
    Parallel(usize),
}

/// Leads every checkpoint: the boundary and the engine snapshot follow.
/// Differs from the engine snapshot's own magic, so a bare snapshot is
/// refused instead of being resumed at the wrong boundary.
const CHECKPOINT_MAGIC: u32 = 0x6872_7643;

fn encode_checkpoint(bound: u64, snapshot: &[u8]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u32(CHECKPOINT_MAGIC);
    w.put_u64(bound);
    w.put_bytes(snapshot);
    w.into_bytes()
}

/// Inverse of [`encode_checkpoint`]: the boundary and the engine snapshot.
fn decode_checkpoint(bytes: &[u8]) -> Result<(u64, &[u8]), SnapshotError> {
    let mut r = WireReader::new(bytes);
    if r.u32()? != CHECKPOINT_MAGIC {
        return Err(SnapshotError::Corrupt("bad checkpoint magic".into()));
    }
    let bound = r.u64()?;
    let snapshot = r.bytes()?;
    r.finish()?;
    Ok((bound, snapshot))
}

fn snapshot_to_hrviz(e: SnapshotError) -> HrvizError {
    match e {
        SnapshotError::Unsupported(what) => HrvizError::config(what),
        SnapshotError::Corrupt(detail) => HrvizError::parse("engine checkpoint", detail),
    }
}

/// Run `nodes` in `mode` and hand the finished population and engine
/// stats to `extract`, all under one `sim/run` span. `lookahead` is the
/// minimum cross-LP link latency; each timed fault is broadcast to every
/// switch node. Only a [`Boundary::Slice`] sink can end a run
/// [`StreamedOutcome::Aborted`].
pub fn drive<S: Switch, R>(
    nodes: Vec<Node<S>>,
    lookahead: SimTime,
    faults: &FaultSchedule,
    collector: &Collector,
    mode: Mode<'_>,
    extract: impl FnOnce(Vec<Node<S>>, EngineStats) -> R,
) -> Result<StreamedOutcome<R>, HrvizError> {
    let span = collector.span("sim/run");
    let terminals = nodes.iter().filter(|n| n.as_terminal().is_some()).count();
    let switches: Vec<LpId> = nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| n.as_switch().is_some())
        .map(|(i, _)| LpId(i as u32))
        .collect();
    let broadcast = |schedule: &mut dyn FnMut(SimTime, LpId, NetEvent)| {
        if faults.is_empty() {
            return;
        }
        for tf in faults.events() {
            collector.event(
                "fault_injected",
                &[
                    ("time_ns", Json::U64(tf.time.0)),
                    ("kind", Json::Str(tf.fault.kind().to_string())),
                    ("router", Json::U64(tf.fault.router() as u64)),
                ],
            );
            for &lp in &switches {
                schedule(tf.time, lp, NetEvent::Fault(tf.fault));
            }
        }
        collector.counter_add("net/fault_events", faults.len() as u64);
    };
    let (nodes, stats) = match mode {
        Mode::Parallel(partitions) => {
            let mut engine = ParallelEngine::new(nodes, lookahead, partitions);
            engine.set_collector(collector.clone());
            broadcast(&mut |t, lp, ev| engine.schedule(t, lp, ev));
            let stats = engine.try_run_to_completion()?;
            (engine.into_lps(), stats)
        }
        Mode::Serial { restore_from, mut grid } => {
            if let Some((every, boundary)) = &grid {
                if every.as_nanos() == 0 {
                    let what = match boundary {
                        Boundary::Checkpoint(_) => "checkpoint interval",
                        Boundary::Slice(_) => "slice window",
                    };
                    return Err(HrvizError::config(format!("{what} must be positive")));
                }
            }
            let mut engine = Engine::new(nodes, lookahead);
            engine.set_collector(collector.clone());
            // The boundary the run resumes from: its checkpoint's, not the
            // restored clock, which is the last event at or before it.
            let mut start = 0;
            match restore_from {
                Some(bytes) => {
                    let (bound, snapshot) = decode_checkpoint(bytes).map_err(snapshot_to_hrviz)?;
                    engine.restore(snapshot).map_err(snapshot_to_hrviz)?;
                    start = bound;
                    collector.counter_add("sim/checkpoint_restores", 1);
                }
                None => broadcast(&mut |t, lp, ev| engine.schedule(t, lp, ev)),
            }
            let mut cursor = SliceCursor::new(terminals);
            if let Some((every, boundary)) = &mut grid {
                // Boundaries are absolute multiples of the interval (tracked
                // as the multiple index, so quiet stretches skip ahead but
                // the grid itself never shifts): interrupted and
                // straight-through runs, and every observer of a streamed
                // config, share it.
                let every = every.as_nanos();
                let mut next = start / every + 1;
                loop {
                    let bound = next.saturating_mul(every);
                    if engine.try_run_until(SimTime(bound))? != RunOutcome::TimeBound {
                        break;
                    }
                    match boundary {
                        Boundary::Checkpoint(sink) => {
                            let snap = engine.snapshot().map_err(snapshot_to_hrviz)?;
                            collector.counter_add("sim/checkpoints", 1);
                            sink(SimTime(bound), &encode_checkpoint(bound, &snap))?;
                        }
                        Boundary::Slice(sink) => {
                            let cur = totals(engine.lps(), terminals);
                            if let Some(stop) = seal(sink, &mut cursor, bound, cur)? {
                                return Ok(stop);
                            }
                        }
                    }
                    next = (engine.now().as_nanos() / every + 1).max(next + 1);
                }
            }
            engine.try_run_to_completion()?;
            // The final partial slice sees the post-finish counters.
            if let Some((_, Boundary::Slice(sink))) = &mut grid {
                let cur = totals(engine.lps(), terminals);
                if let Some(stop) = seal(sink, &mut cursor, engine.now().as_nanos(), cur)? {
                    return Ok(stop);
                }
            }
            let stats = engine.stats();
            (engine.into_lps(), stats)
        }
    };
    report_network(collector, &nodes);
    let run = {
        let _extract = collector.span("sim/extract");
        extract(nodes, stats)
    };
    span.end();
    Ok(StreamedOutcome::Completed(run))
}

/// Cut the slice ending at `t_end` into `sink`; `Some` when the sink
/// aborts the run there.
fn seal<R>(
    sink: &mut SliceSink<'_>,
    cursor: &mut SliceCursor,
    t_end: u64,
    cur: CumulativeTotals,
) -> Result<Option<StreamedOutcome<R>>, HrvizError> {
    let Some(slice) = cursor.cut(t_end, cur) else { return Ok(None) };
    Ok(match sink(&slice)? {
        SliceControl::Continue => None,
        SliceControl::Abort(reason) => {
            Some(StreamedOutcome::Aborted { reason, at_ns: t_end, slices: cursor.slices() })
        }
    })
}

/// Report network-level boundary telemetry: packet and byte totals, fault
/// drops and reroutes, credit stalls, and the peak VC-occupancy histogram
/// across all switch ports.
fn report_network<S: Switch>(c: &Collector, nodes: &[Node<S>]) {
    if !c.is_enabled() {
        return;
    }
    let terminals = || nodes.iter().filter_map(Node::as_terminal);
    let switches = || nodes.iter().filter_map(Node::as_switch);
    c.counter_add("net/packets_injected", terminals().map(|t| t.stats.packets_sent).sum());
    c.counter_add("net/packets_delivered", terminals().map(|t| t.stats.packets_finished).sum());
    c.counter_add("net/bytes_injected", terminals().map(|t| t.stats.injected_bytes).sum());
    c.counter_add("net/bytes_delivered", terminals().map(|t| t.stats.recv_bytes).sum());
    c.counter_add("net/packets_dropped", switches().map(|s| s.drops().total()).sum());
    c.counter_add("net/packets_rerouted", switches().map(|s| s.reroutes()).sum());
    // 21 buckets of 0.05 over [0, 1.05): exact 1.0 lands in the last bucket.
    c.hist_ensure("net/vc_occupancy", 0.0, 0.05, 21);
    let mut stalls = 0u64;
    for port in switches().flat_map(|s| s.ports()) {
        stalls += port.stalls;
        for occ in port.vc_peak_occupancies() {
            c.hist_record("net/vc_occupancy", occ);
        }
    }
    c.counter_add("net/credit_stalls", stalls);
}

/// Cumulative network totals from the live LP population (read-only; the
/// slice cursor turns successive snapshots into window deltas).
fn totals<'a, S: Switch + 'a>(
    nodes: impl Iterator<Item = &'a Node<S>>,
    terminals: usize,
) -> CumulativeTotals {
    let mut cur =
        CumulativeTotals { per_terminal: vec![(0, 0); terminals], ..CumulativeTotals::default() };
    for node in nodes {
        match node {
            Node::Terminal(t) => {
                cur.delivered_packets += t.stats.packets_finished;
                cur.delivered_bytes += t.stats.recv_bytes;
                cur.injected_packets += t.stats.packets_sent;
                cur.injected_bytes += t.stats.injected_bytes;
                if let Some(slot) = cur.per_terminal.get_mut(t.id.0 as usize) {
                    *slot = (t.stats.latency_sum_ns, t.stats.packets_finished);
                }
            }
            Node::Switch(s) => {
                cur.dropped_packets += s.drops().total();
                cur.vc_sat_ns += s.ports().iter().map(|p| p.sat_ns).sum::<u64>();
            }
        }
    }
    cur
}
