//! Structured run telemetry for the hrviz stack: counters, gauges,
//! fixed-bucket histograms, RAII span timers, JSONL trace streams, and
//! run manifests — with zero external dependencies.
//!
//! # Design
//!
//! The central type is [`Collector`], a cheap cloneable handle. A *disabled*
//! collector (the default) costs one branch per operation and never reads
//! the clock, so instrumentation can stay in the code unconditionally; the
//! simulator additionally reports at phase boundaries rather than per
//! event, keeping even the enabled cost off the hot path.
//!
//! ```
//! use hrviz_obs::{Collector, LogLevel};
//!
//! let c = Collector::enabled();
//! {
//!     let _span = c.span("sim/run");
//!     c.counter_add("net/packets_delivered", 128);
//!     c.hist_record("net/vc_occupancy", 0.75);
//! }
//! let snap = c.snapshot();
//! assert_eq!(snap.counters["net/packets_delivered"], 128);
//! assert_eq!(snap.spans["sim/run"].count, 1);
//! ```
//!
//! Components that are too far from the run entry point to be handed a
//! collector (analytics, rendering) use the process-global handle:
//! [`install`] once near `main`, [`get`] at use sites. The global defaults
//! to disabled.

#![forbid(unsafe_code)]
pub mod chrome;
mod collector;
mod json;
mod manifest;
pub mod metrics;
pub mod prom;
pub mod recorder;
mod span;
mod trace;

pub use collector::{Collector, Hist, LogLevel, Snapshot, SpanStat};
pub use json::{Json, ObjectReader};
pub use manifest::{fingerprint64, RunManifest};
pub use metrics::{metric, MetricDef, MetricKind, METRICS};
pub use prom::{render_prometheus, PROMETHEUS_CONTENT_TYPE};
pub use recorder::SpanRecord;
pub use span::Span;
pub use trace::TraceSink;

use std::sync::Mutex;

static GLOBAL: Mutex<Option<Collector>> = Mutex::new(None);

/// Install `c` as the process-global collector (replacing any previous one).
pub fn install(c: Collector) {
    *GLOBAL.lock().expect("global collector poisoned") = Some(c);
}

/// The process-global collector; disabled until [`install`] is called.
pub fn get() -> Collector {
    GLOBAL.lock().expect("global collector poisoned").clone().unwrap_or_else(Collector::disabled)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_defaults_to_disabled_then_installs() {
        // Single test exercising the global to avoid cross-test ordering
        // dependence on shared state.
        let before = get();
        let c = Collector::enabled();
        install(c.clone());
        get().counter_add("global/x", 2);
        assert_eq!(c.counter("global/x"), 2);
        install(Collector::disabled());
        assert!(!get().is_enabled());
        drop(before);
    }
}
