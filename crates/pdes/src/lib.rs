//! # hrviz-pdes — ROSS-style discrete-event simulation engine
//!
//! The paper couples its visual analytics system with CODES, which runs on
//! ROSS, a parallel discrete-event simulator (PDES). This crate is the
//! reproduction's substrate: a deterministic event-driven engine with
//!
//! * integer-nanosecond [`SimTime`] and a total event order ([`EventKey`]),
//! * logical processes ([`Lp`]) that interact *only* through events,
//! * a sequential reference engine ([`Engine`]),
//! * a conservative, lookahead-windowed parallel engine
//!   ([`ParallelEngine`]) that produces bit-identical results, and
//! * one pending-event set for both engines, the per-timestamp
//!   [`CalendarQueue`], with [`HeapQueue`] kept as the reference oracle its
//!   tests (and the benchmark's hold-model probe) compare it against.
//!
//! ## Example
//!
//! ```
//! use hrviz_pdes::{Engine, Lp, Ctx, LpId, SimTime};
//!
//! struct PingPong { hits: u32 }
//!
//! impl Lp<&'static str> for PingPong {
//!     fn on_event(&mut self, ctx: &mut Ctx<'_, &'static str>, msg: &'static str) {
//!         self.hits += 1;
//!         if self.hits < 3 {
//!             let peer = LpId(1 - ctx.me().0);
//!             ctx.send(peer, SimTime::nanos(100), msg);
//!         }
//!     }
//! }
//!
//! let mut eng = Engine::new(vec![PingPong { hits: 0 }, PingPong { hits: 0 }],
//!                           SimTime::nanos(100));
//! eng.schedule(SimTime::ZERO, LpId(0), "ball");
//! eng.run_to_completion();
//! assert_eq!(eng.lp(LpId(0)).hits + eng.lp(LpId(1)).hits, 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calendar;
pub mod engine;
pub mod error;
pub mod event;
pub mod lp;
pub mod parallel;
pub mod time;
pub mod wire;

pub use calendar::{CalendarQueue, EventQueue, HeapQueue};
pub use engine::{Engine, EngineStats, RunOutcome};
pub use error::{SimError, WatchdogConfig};
pub use event::{Event, EventKey, LpId, EXTERNAL_SRC};
pub use lp::{Ctx, Lp};
pub use parallel::ParallelEngine;
pub use time::SimTime;
pub use wire::{SnapshotError, WirePayload, WireReader, WireWriter};
