//! # hrviz-sweep — parallel design-space sweeps over a columnar run store
//!
//! The paper's workflow (§VI) is comparative: the interesting questions —
//! does adaptive routing beat minimal under tornado traffic? what does a
//! random placement cost on a faulty network? — need *grids* of runs, not
//! single simulations. This crate turns the workspace's one-run simulators
//! into a batch engine:
//!
//! * [`SweepSpec`] declares a cartesian grid over routing × pattern ×
//!   placement × faults × seed and [`expand`](SweepSpec::expand)s it into
//!   concrete [`RunConfig`]s;
//! * each config is **content-addressed** ([`RunConfig::canonical`] →
//!   FNV-1a hash → run id), so a store never simulates the same point
//!   twice;
//! * [`SweepEngine`] spreads the uncached configs across a fixed-width
//!   worker pool and lands every result in a [`RunStore`] — per run a
//!   `manifest.json` plus `columns.jsonl`, the columnar
//!   (struct-of-arrays) form of the analytics tables. Stores are
//!   deterministic: serial and parallel sweeps of the same grid produce
//!   byte-identical files;
//! * the store's `GENERATION` counter feeds
//!   [`RunStore::data_key`] → [`hrviz_core::AggregateCache`], so
//!   projection/comparison aggregates computed over stored runs are
//!   memoized until the store actually changes.
//!
//! ## Example
//!
//! ```no_run
//! use hrviz_sweep::{RunStore, SweepEngine, SweepSpec, TopologyAxis};
//! use hrviz_network::RoutingAlgorithm;
//! use hrviz_workloads::TrafficPattern;
//!
//! let spec = SweepSpec::new("routing-vs-pattern", TopologyAxis::Dragonfly { terminals: 72 })
//!     .routings([RoutingAlgorithm::Minimal, RoutingAlgorithm::adaptive_default()])
//!     .patterns([TrafficPattern::UniformRandom, TrafficPattern::Tornado])
//!     .seeds([1, 2]);
//! let engine = SweepEngine::new(RunStore::open("out/store").unwrap()).with_workers(4);
//! let outcome = engine.run(&spec).unwrap();      // 8 runs, in parallel
//! let again = engine.run(&spec).unwrap();        // all cache hits
//! assert_eq!(again.events_simulated, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod journal;
pub mod spec;
pub mod store;

pub use engine::{StreamOptions, SweepEngine, SweepOptions, SweepOutcome};
pub use hrviz_stream::{
    read_progress, read_slices, AbortSpec, Progress, Slice, SliceControl, SliceSink,
    StreamedOutcome,
};
pub use journal::{JournalEntry, SweepJournal};
pub use spec::{
    dragonfly_of, routing_name, FaultAxis, PlacementAxis, RunConfig, RunResult, SweepSpec,
    TopologyAxis,
};
pub use store::{
    code_fingerprint, FsckReport, Provenance, RunHealth, RunState, RunStore, StoredManifest,
    StoredRun,
};
#[doc(hidden)]
pub use store::{CrashMode, CrashPlan};
