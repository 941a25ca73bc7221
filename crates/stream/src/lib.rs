//! # hrviz-stream — live run telemetry for in-flight sweeps
//!
//! The batch pipeline (simulate → store → query) answers questions about
//! *finished* runs; the paper's workflow explores large sweep grids where
//! most of the value is in watching configs converge or saturate while
//! they run. This crate is the shared substrate for that live path:
//!
//! * [`Slice`] — one virtual-time window of columnar deltas (delivered /
//!   injected packets and bytes, drops, a log₂ latency histogram, VC
//!   saturation time), emitted by the simulators at absolute window
//!   boundaries so interrupted and straight-through runs slice the same;
//! * [`Progress`] — the per-run watermark (`progress.json`): lifecycle
//!   state, number of sealed slices, virtual time reached;
//! * [`SliceWriter`] / [`read_slices`] / [`read_progress`] — crash-safe
//!   `slices/NNNN.jsonl` segment files inside a run directory, every seal
//!   an atomic rewrite (temp + fsync + rename, [`fsio::atomic_write`]),
//!   so a watcher never observes a torn segment or a watermark ahead of
//!   its data;
//! * [`AbortPolicy`] / [`AbortSpec`] — pluggable early-abort decisions
//!   over the slice stream (e.g. [`SaturationAbort`]: offered/delivered
//!   ratio below a threshold for K consecutive windows), letting a sweep
//!   cancel doomed configs mid-grid;
//! * [`StreamedOutcome`] — how a streamed simulation ended: completed
//!   with its payload, or aborted by policy at a known virtual time.
//!
//! Everything here is deterministic integer math over the simulation's
//! own counters: two replays of the same seed produce byte-identical
//! slice files, which is what lets incremental aggregates downstream
//! (`hrviz_core`) promise byte-identity with a cold batch rebuild.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod abort;
pub mod cursor;
pub mod fsio;
pub mod slice;
pub mod writer;

pub use abort::{AbortPolicy, AbortSpec, SaturationAbort};
pub use cursor::{CumulativeTotals, SliceCursor};
pub use hrviz_faults::HrvizError;
pub use slice::{Progress, Slice, LATENCY_BINS};
pub use writer::{read_progress, read_slices, SliceWriter, SLICES_PER_SEGMENT};

/// What a slice sink tells the simulator after each sealed window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SliceControl {
    /// Keep simulating.
    Continue,
    /// Stop now; the run is recorded as `aborted` with this reason.
    Abort(String),
}

/// Receives each sealed [`Slice`] during a streamed run and decides
/// whether to continue (mirrors `CheckpointSink` in `hrviz_network`).
pub type SliceSink<'a> = &'a mut dyn FnMut(&Slice) -> Result<SliceControl, HrvizError>;

/// How a streamed simulation ended.
pub enum StreamedOutcome<T> {
    /// Ran to completion; the payload is the simulator's normal result.
    Completed(T),
    /// The sink asked to stop mid-run.
    Aborted {
        /// Policy-provided reason, recorded in the run manifest.
        reason: String,
        /// Virtual time at which the run stopped.
        at_ns: u64,
        /// Slices sealed before the abort.
        slices: u64,
    },
}

impl<T> StreamedOutcome<T> {
    /// The completed payload, if any.
    pub fn completed(self) -> Option<T> {
        match self {
            StreamedOutcome::Completed(t) => Some(t),
            StreamedOutcome::Aborted { .. } => None,
        }
    }

    /// Apply `f` to the completed payload; an abort passes through as is.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> StreamedOutcome<U> {
        match self {
            StreamedOutcome::Completed(t) => StreamedOutcome::Completed(f(t)),
            StreamedOutcome::Aborted { reason, at_ns, slices } => {
                StreamedOutcome::Aborted { reason, at_ns, slices }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::StreamedOutcome;

    #[test]
    fn map_transforms_completed_and_keeps_aborts() {
        let done = StreamedOutcome::Completed(21u32).map(|n| n * 2);
        assert!(matches!(done, StreamedOutcome::Completed(42)));
        let stopped = StreamedOutcome::<u32>::Aborted { reason: "r".into(), at_ns: 5, slices: 2 }
            .map(|n| n * 2);
        assert!(matches!(
            stopped,
            StreamedOutcome::Aborted { reason, at_ns: 5, slices: 2 } if reason == "r"
        ));
    }
}
