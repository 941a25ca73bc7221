//! # hrviz-network — CODES-style packet-level Dragonfly simulator
//!
//! The paper evaluates its visual analytics system on CODES simulations of
//! Dragonfly networks (2,550–9,702 terminals). This crate is that
//! substrate, rebuilt in Rust on top of [`hrviz_pdes`]:
//!
//! * [`DragonflyConfig`] / [`Topology`] — the two-tier topology of Kim et
//!   al. 2008 with consecutive global-channel allocation,
//! * credit-gated virtual-channel flow control with a stage-ordered VC
//!   discipline (deadlock-free for all supported routings),
//! * [`RoutingAlgorithm`] — minimal, Valiant, UGAL-L adaptive, and
//!   progressive adaptive routing,
//! * full instrumentation: per-link traffic and saturation time, per-
//!   terminal data size / busy time / packets finished / mean latency /
//!   mean hops / job id (paper Fig. 2a), plus time-series sampling at any
//!   rate (paper §III),
//! * [`Simulation`] — assembly + execution through the one [`driver`]
//!   every topology shares (sequential, checkpointed, streamed or
//!   conservative-parallel, bit-identical results), producing a
//!   [`RunData`] consumed by `hrviz-core`.
//!
//! ## Example
//!
//! ```
//! use hrviz_network::{DragonflyConfig, NetworkSpec, Simulation, MsgInjection,
//!                     TerminalId, RoutingAlgorithm};
//! use hrviz_pdes::SimTime;
//!
//! let spec = NetworkSpec::new(DragonflyConfig::canonical(2))
//!     .with_routing(RoutingAlgorithm::adaptive_default());
//! let mut sim = Simulation::new(spec);
//! sim.inject(MsgInjection {
//!     time: SimTime::ZERO,
//!     src: TerminalId(0),
//!     dst: TerminalId(40),
//!     bytes: 8192,
//!     job: 0,
//! });
//! let run = sim.try_run()?;
//! assert_eq!(run.total_delivered(), 8192);
//! # Ok::<(), hrviz_network::HrvizError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod driver;
pub mod events;
pub mod metrics;
pub mod node;
pub mod packet;
pub mod port;
pub mod router;
pub mod routing;
pub mod sampling;
pub mod sim;
pub(crate) mod snapshot;
pub mod terminal;
pub mod topology;
pub mod traffic;

pub use config::{DragonflyConfig, LinkClass, LinkClassParams, NetworkSpec, SamplingConfig};
pub use driver::{CheckpointOptions, CheckpointSink};
pub use hrviz_faults::{FaultEvent, FaultSchedule, FaultView, HrvizError, TimedFault};
pub use hrviz_stream::{Slice, SliceControl, SliceSink, StreamedOutcome};
pub use metrics::{ClassSeries, JobStats, LinkRecord, RouterRecord, RunData, TerminalRecord};
pub use packet::{JobId, Packet, RoutePlan, NO_JOB};
pub use router::DropCounters;
pub use routing::RoutingAlgorithm;
pub use sampling::Bins;
pub use sim::Simulation;
pub use topology::{GroupId, RouterId, TerminalId, Topology};
pub use traffic::{JobMeta, MsgInjection};
