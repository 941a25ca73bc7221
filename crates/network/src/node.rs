//! The LP enum tying terminals and switches into one engine.

use crate::events::NetEvent;
use crate::port::OutPort;
use crate::router::{DropCounters, RouterLp};
use crate::terminal::TerminalLp;
use hrviz_pdes::wire::{SnapshotError, WireReader, WireWriter};
use hrviz_pdes::{Ctx, Lp, SimTime};

/// A switch LP model: the Dragonfly [`RouterLp`] or another topology's
/// switch. Beside handling events it exposes what the driver reads from
/// every switch: its out ports and its fault counters. A switch that does
/// not override [`Lp::snapshot`] / [`Lp::restore`] makes checkpointing
/// fail with [`SnapshotError::Unsupported`].
pub trait Switch: Lp<NetEvent> {
    /// The out ports (metric extraction and slice totals).
    fn ports(&self) -> &[OutPort];
    /// Packets discarded at this switch.
    fn drops(&self) -> &DropCounters;
    /// Packets this switch steered around a dead link.
    fn reroutes(&self) -> u64;
}

/// A simulation node: either a terminal or a switch. Using an enum (rather
/// than trait objects) keeps the event loop monomorphic and branch-predicted.
// Terminals dominate the node population; boxing either variant would trade
// the intended flat in-place layout for a pointer chase on the hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Node<S> {
    /// Compute-node NIC.
    Terminal(TerminalLp),
    /// Router or switch.
    Switch(S),
}

/// A Dragonfly node.
pub type NetNode = Node<RouterLp>;

impl<S> Node<S> {
    /// The terminal, if this node is one.
    pub fn as_terminal(&self) -> Option<&TerminalLp> {
        match self {
            Node::Terminal(t) => Some(t),
            Node::Switch(_) => None,
        }
    }

    /// The switch, if this node is one.
    pub fn as_switch(&self) -> Option<&S> {
        match self {
            Node::Switch(s) => Some(s),
            Node::Terminal(_) => None,
        }
    }
}

impl<S: Switch> Lp<NetEvent> for Node<S> {
    fn on_init(&mut self, ctx: &mut Ctx<'_, NetEvent>) {
        if let Node::Terminal(t) = self {
            t.on_init(ctx);
        }
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_, NetEvent>, ev: NetEvent) {
        match self {
            Node::Terminal(t) => t.on_event(ctx, ev),
            Node::Switch(s) => s.on_event(ctx, ev),
        }
    }

    fn on_finish(&mut self, now: SimTime) {
        match self {
            Node::Terminal(t) => t.on_finish(now),
            Node::Switch(s) => s.on_finish(now),
        }
    }

    fn audit(&self) -> Result<(), String> {
        match self {
            Node::Terminal(t) => t.audit(),
            Node::Switch(s) => s.audit(),
        }
    }

    fn snapshot(&self, w: &mut WireWriter) -> Result<(), SnapshotError> {
        match self {
            Node::Terminal(t) => {
                w.put_u8(0);
                t.snapshot(w)
            }
            Node::Switch(s) => {
                w.put_u8(1);
                s.snapshot(w)
            }
        }
    }

    fn restore(&mut self, r: &mut WireReader<'_>) -> Result<(), SnapshotError> {
        let tag = r.u8()?;
        match (tag, self) {
            (0, Node::Terminal(t)) => t.restore(r),
            (1, Node::Switch(s)) => s.restore(r),
            (tag, _) => Err(SnapshotError::Corrupt(format!(
                "node kind mismatch: snapshot tag {tag} does not match model node"
            ))),
        }
    }
}
