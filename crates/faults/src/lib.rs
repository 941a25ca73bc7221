//! # hrviz-faults — deterministic fault injection for the network models
//!
//! Design-space exploration per the paper needs *degraded* scenarios, not
//! just healthy networks: dead links, failed routers, and links running at
//! a fraction of nominal bandwidth. This crate provides
//!
//! * [`FaultSchedule`] — a seedable, serializable list of timed
//!   [`FaultEvent`]s (`LinkDown`/`LinkUp`, `RouterDown`/`RouterUp`,
//!   `DegradedLink`), replayable bit-for-bit under a fixed seed,
//! * [`FaultView`] — the deterministic liveness state a router or switch
//!   consults while routing (dead routers, dead links, degrade factors),
//! * [`HrvizError`] — the workspace error type with CLI exit codes, so an
//!   invalid config or a mid-run fault yields a clean error instead of a
//!   panic.
//!
//! Schedules are plain JSON, read with the workspace's one codec
//! ([`hrviz_obs::Json`]; the workspace builds offline with no serde):
//!
//! ```
//! use hrviz_faults::{FaultSchedule, FaultEvent};
//!
//! let text = r#"{
//!   "seed": 7,
//!   "events": [
//!     {"time_ns": 5000, "kind": "link_down", "router": 4, "port": 9},
//!     {"time_ns": 9000, "kind": "degraded_link", "router": 2, "port": 6, "factor": 0.5},
//!     {"time_ns": 20000, "kind": "link_up", "router": 4, "port": 9}
//!   ]
//! }"#;
//! let sched = FaultSchedule::from_json(text).unwrap();
//! assert_eq!(sched.len(), 3);
//! assert_eq!(sched.events()[0].fault, FaultEvent::LinkDown { router: 4, port: 9 });
//! // Round-trips exactly.
//! assert_eq!(FaultSchedule::from_json(&sched.to_json()).unwrap(), sched);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod error;
pub mod schedule;
pub mod view;

pub use error::HrvizError;
pub use schedule::{FaultEvent, FaultSchedule, TimedFault};
pub use view::FaultView;
