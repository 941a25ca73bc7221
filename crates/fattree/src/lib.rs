//! # hrviz-fattree — k-ary Fat-Tree model (paper future work, §VI)
//!
//! The paper closes with: *"we plan to extend our system to support
//! analysis and exploration of other network topologies, such as Fat
//! Tree"*. This crate does exactly that: a packet-level k-ary Fat-Tree
//! (Al-Fares et al. 2008, the paper's reference \[40\]) built on the same
//! [`hrviz_pdes`] engine, reusing the Dragonfly model's credit-gated
//! [`OutPort`](hrviz_network::port::OutPort) flow control and
//! [`TerminalLp`](hrviz_network::terminal::TerminalLp) hosts, and feeding
//! the *same* `hrviz-core` analytics through
//! [`DataSet::from_tables`](hrviz_core::DataSet::from_tables):
//!
//! * pods ↔ the analytics' `group_id` (core switches form one extra
//!   pseudo-group),
//! * switch position in the pod ↔ `router_rank` (edge `0..k/2`, then
//!   aggregation),
//! * host↔edge links are the terminal class, edge↔aggregation links the
//!   local class, aggregation↔core links the global class.
//!
//! Routing is up/down (deadlock-free on one VC): deterministic ECMP
//! hashing or adaptive least-queued up-port selection. Hosts and switches
//! run as [`Node`](hrviz_network::node::Node)s through the Dragonfly
//! model's [`driver`](hrviz_network::driver), so batch and streamed runs
//! share its checked boundary loop, fault broadcast and telemetry.
//!
//! ```
//! use hrviz_fattree::{FatTreeConfig, FatTreeSim, UpRouting};
//! use hrviz_network::{MsgInjection, TerminalId};
//! use hrviz_pdes::SimTime;
//!
//! let mut sim = FatTreeSim::new(FatTreeConfig::try_new(4)?, UpRouting::Adaptive);
//! sim.inject(MsgInjection {
//!     time: SimTime::ZERO,
//!     src: TerminalId(0),
//!     dst: TerminalId(15),
//!     bytes: 8192,
//!     job: 0,
//! });
//! let run = sim.try_run()?;
//! assert_eq!(run.delivered_bytes(), 8192);
//! let ds = run.to_dataset();        // same analytics as the Dragonfly
//! assert_eq!(ds.len(hrviz_core::EntityKind::Terminal), 16);
//! # Ok::<(), hrviz_network::HrvizError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod sim;
pub mod switch;

pub use config::{FatTreeConfig, UpRouting};
pub use sim::{FatTreeRun, FatTreeSim};
