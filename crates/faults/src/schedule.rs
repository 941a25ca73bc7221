//! Fault schedules: timed, serializable, seedable.
//!
//! A [`FaultSchedule`] is the unit of fault injection: a list of
//! [`TimedFault`]s the simulation broadcasts to its routers/switches before
//! the run starts. Schedules can be written by hand as JSON, loaded from a
//! file (the CLI's `--faults` flag), or generated pseudo-randomly from a
//! seed — and an identical seed + schedule always replays bit-for-bit.

use crate::error::HrvizError;
use hrviz_obs::Json;
use hrviz_pdes::wire::{SnapshotError, WireReader, WireWriter};
use hrviz_pdes::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One fault condition change. `router` is the global router (or switch)
/// id in the target topology; `port` is the absolute output-port index on
/// that router, so a link fault names one *directed* channel.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultEvent {
    /// The directed link out of `router` via `port` stops accepting new
    /// traffic (in-flight transmissions drain).
    LinkDown {
        /// Owning router/switch id.
        router: u32,
        /// Output-port index on the owner.
        port: u32,
    },
    /// The link comes back (also clears any degrade factor on it).
    LinkUp {
        /// Owning router/switch id.
        router: u32,
        /// Output-port index on the owner.
        port: u32,
    },
    /// The router stops accepting newly arriving packets; arrivals are
    /// dropped and counted until a matching `RouterUp`.
    RouterDown {
        /// Router/switch id.
        router: u32,
    },
    /// The router resumes normal operation.
    RouterUp {
        /// Router/switch id.
        router: u32,
    },
    /// The link keeps working at `factor` of nominal bandwidth
    /// (`0 < factor <= 1`; `1` restores full speed).
    DegradedLink {
        /// Owning router/switch id.
        router: u32,
        /// Output-port index on the owner.
        port: u32,
        /// Fraction of nominal bandwidth retained.
        factor: f64,
    },
}

impl FaultEvent {
    /// The `kind` tag used in the JSON serialization.
    pub fn kind(&self) -> &'static str {
        match self {
            FaultEvent::LinkDown { .. } => "link_down",
            FaultEvent::LinkUp { .. } => "link_up",
            FaultEvent::RouterDown { .. } => "router_down",
            FaultEvent::RouterUp { .. } => "router_up",
            FaultEvent::DegradedLink { .. } => "degraded_link",
        }
    }

    /// The router/switch this event targets.
    pub fn router(&self) -> u32 {
        match *self {
            FaultEvent::LinkDown { router, .. }
            | FaultEvent::LinkUp { router, .. }
            | FaultEvent::RouterDown { router }
            | FaultEvent::RouterUp { router }
            | FaultEvent::DegradedLink { router, .. } => router,
        }
    }

    /// Append the event's checkpoint wire form to `w` (see
    /// [`hrviz_pdes::wire`]).
    pub fn encode(&self, w: &mut WireWriter) {
        match *self {
            FaultEvent::LinkDown { router, port } => {
                w.put_u8(0);
                w.put_u32(router);
                w.put_u32(port);
            }
            FaultEvent::LinkUp { router, port } => {
                w.put_u8(1);
                w.put_u32(router);
                w.put_u32(port);
            }
            FaultEvent::RouterDown { router } => {
                w.put_u8(2);
                w.put_u32(router);
            }
            FaultEvent::RouterUp { router } => {
                w.put_u8(3);
                w.put_u32(router);
            }
            FaultEvent::DegradedLink { router, port, factor } => {
                w.put_u8(4);
                w.put_u32(router);
                w.put_u32(port);
                w.put_f64(factor);
            }
        }
    }

    /// Inverse of [`FaultEvent::encode`].
    pub fn decode(r: &mut WireReader<'_>) -> Result<FaultEvent, SnapshotError> {
        Ok(match r.u8()? {
            0 => FaultEvent::LinkDown { router: r.u32()?, port: r.u32()? },
            1 => FaultEvent::LinkUp { router: r.u32()?, port: r.u32()? },
            2 => FaultEvent::RouterDown { router: r.u32()? },
            3 => FaultEvent::RouterUp { router: r.u32()? },
            4 => FaultEvent::DegradedLink { router: r.u32()?, port: r.u32()?, factor: r.f64()? },
            other => return Err(SnapshotError::Corrupt(format!("bad fault-event tag {other}"))),
        })
    }
}

/// A fault event bound to a simulation time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimedFault {
    /// Absolute simulation time at which the condition changes.
    pub time: SimTime,
    /// The condition change.
    pub fault: FaultEvent,
}

/// A serializable schedule of timed fault events.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultSchedule {
    /// The seed this schedule was generated from (informational for
    /// hand-written schedules; drives [`FaultSchedule::generate`]).
    pub seed: u64,
    events: Vec<TimedFault>,
}

impl FaultSchedule {
    /// An empty schedule carrying `seed`.
    pub fn new(seed: u64) -> Self {
        FaultSchedule { seed, events: Vec::new() }
    }

    /// Append a fault at `time`. Events keep insertion order; the engine
    /// orders delivery by time (ties break by insertion order).
    pub fn push(&mut self, time: SimTime, fault: FaultEvent) -> &mut Self {
        self.events.push(TimedFault { time, fault });
        self
    }

    /// The scheduled events in insertion order.
    pub fn events(&self) -> &[TimedFault] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Generate a pseudo-random schedule of `count` events over routers
    /// `0..routers` with `ports_per_router` output ports each, with event
    /// times uniform in `[0, horizon_ns)`. Deterministic in `seed`: equal
    /// arguments always produce an identical schedule.
    pub fn generate(
        seed: u64,
        routers: u32,
        ports_per_router: u32,
        count: usize,
        horizon_ns: u64,
    ) -> Self {
        assert!(routers > 0 && ports_per_router > 0, "topology must be non-empty");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x000F_A017_5EED);
        let mut sched = FaultSchedule::new(seed);
        for _ in 0..count {
            let time = SimTime(rng.gen_range(0..horizon_ns.max(1)));
            let router = rng.gen_range(0..routers);
            let port = rng.gen_range(0..ports_per_router);
            let fault = match rng.gen_range(0u32..5) {
                0 => FaultEvent::LinkDown { router, port },
                1 => FaultEvent::LinkUp { router, port },
                2 => FaultEvent::RouterDown { router },
                3 => FaultEvent::RouterUp { router },
                _ => FaultEvent::DegradedLink {
                    router,
                    port,
                    factor: rng.gen_range(1u32..=9) as f64 / 10.0,
                },
            };
            sched.push(time, fault);
        }
        sched
    }

    /// Serialize to the JSON schedule format. Guaranteed to round-trip
    /// through [`FaultSchedule::from_json`] exactly.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 64);
        out.push_str(&format!("{{\n  \"seed\": {},\n  \"events\": [", self.seed));
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            let t = ev.time.as_nanos();
            let kind = ev.fault.kind();
            match ev.fault {
                FaultEvent::LinkDown { router, port } | FaultEvent::LinkUp { router, port } => {
                    out.push_str(&format!(
                        "{{\"time_ns\": {t}, \"kind\": \"{kind}\", \"router\": {router}, \"port\": {port}}}"
                    ));
                }
                FaultEvent::RouterDown { router } | FaultEvent::RouterUp { router } => {
                    out.push_str(&format!(
                        "{{\"time_ns\": {t}, \"kind\": \"{kind}\", \"router\": {router}}}"
                    ));
                }
                FaultEvent::DegradedLink { router, port, factor } => {
                    // `{:?}` prints the shortest representation that parses
                    // back to the identical f64.
                    out.push_str(&format!(
                        "{{\"time_ns\": {t}, \"kind\": \"{kind}\", \"router\": {router}, \"port\": {port}, \"factor\": {factor:?}}}"
                    ));
                }
            }
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parse a schedule from its JSON form.
    pub fn from_json(text: &str) -> Result<Self, HrvizError> {
        let doc = Json::parse(text).map_err(|e| HrvizError::parse("fault schedule", e))?;
        let bad = |msg: String| HrvizError::parse("fault schedule", msg);
        let seed = match doc.get("seed") {
            None => 0,
            Some(v) => v.as_u64().ok_or_else(|| bad("\"seed\" must be an integer".into()))?,
        };
        let events_v = doc
            .get("events")
            .ok_or_else(|| bad("missing \"events\" array".into()))?
            .as_array()
            .ok_or_else(|| bad("\"events\" must be an array".into()))?;
        let mut sched = FaultSchedule::new(seed);
        for (i, ev) in events_v.iter().enumerate() {
            let field_u64 = |name: &str| {
                ev.get(name)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad(format!("event {i}: missing integer \"{name}\"")))
            };
            let field_u32 = |name: &str| {
                field_u64(name).and_then(|v| {
                    u32::try_from(v).map_err(|_| bad(format!("event {i}: \"{name}\" out of range")))
                })
            };
            let time = SimTime(field_u64("time_ns")?);
            let kind = ev
                .get("kind")
                .and_then(Json::as_str)
                .ok_or_else(|| bad(format!("event {i}: missing string \"kind\"")))?;
            let fault = match kind {
                "link_down" => {
                    FaultEvent::LinkDown { router: field_u32("router")?, port: field_u32("port")? }
                }
                "link_up" => {
                    FaultEvent::LinkUp { router: field_u32("router")?, port: field_u32("port")? }
                }
                "router_down" => FaultEvent::RouterDown { router: field_u32("router")? },
                "router_up" => FaultEvent::RouterUp { router: field_u32("router")? },
                "degraded_link" => {
                    let factor = ev
                        .get("factor")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| bad(format!("event {i}: missing number \"factor\"")))?;
                    if !(factor > 0.0 && factor <= 1.0) {
                        return Err(bad(format!(
                            "event {i}: \"factor\" must be in (0, 1], got {factor}"
                        )));
                    }
                    FaultEvent::DegradedLink {
                        router: field_u32("router")?,
                        port: field_u32("port")?,
                        factor,
                    }
                }
                other => return Err(bad(format!("event {i}: unknown kind \"{other}\""))),
            };
            sched.push(time, fault);
        }
        Ok(sched)
    }

    /// Load a schedule from a JSON file.
    pub fn from_file(path: &str) -> Result<Self, HrvizError> {
        let text = std::fs::read_to_string(path).map_err(|e| HrvizError::io(path, e))?;
        Self::from_json(&text).map_err(|e| match e {
            HrvizError::Parse { detail, .. } => HrvizError::parse(path, detail),
            other => other,
        })
    }

    /// Write the schedule to a JSON file.
    pub fn to_file(&self, path: &str) -> Result<(), HrvizError> {
        std::fs::write(path, self.to_json()).map_err(|e| HrvizError::io(path, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trips_all_event_kinds() {
        let mut s = FaultSchedule::new(99);
        s.push(SimTime(10), FaultEvent::LinkDown { router: 1, port: 2 })
            .push(SimTime(20), FaultEvent::DegradedLink { router: 3, port: 4, factor: 0.375 })
            .push(SimTime(20), FaultEvent::RouterDown { router: 5 })
            .push(SimTime(30), FaultEvent::RouterUp { router: 5 })
            .push(SimTime(40), FaultEvent::LinkUp { router: 1, port: 2 });
        let json = s.to_json();
        let back = FaultSchedule::from_json(&json).expect("round trip");
        assert_eq!(back, s);
        // Serialization itself is deterministic.
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn generate_is_deterministic_in_seed() {
        let a = FaultSchedule::generate(7, 10, 8, 50, 100_000);
        let b = FaultSchedule::generate(7, 10, 8, 50, 100_000);
        let c = FaultSchedule::generate(8, 10, 8, 50, 100_000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 50);
        assert!(a.events().iter().all(|e| e.time.as_nanos() < 100_000));
        assert!(a.events().iter().all(|e| e.fault.router() < 10));
    }

    #[test]
    fn rejects_bad_schedules() {
        for (doc, why) in [
            (r#"{"events": [{"kind": "link_down", "router": 1, "port": 0}]}"#, "missing time"),
            (r#"{"events": [{"time_ns": 5, "kind": "nope", "router": 1}]}"#, "unknown kind"),
            (r#"{"events": [{"time_ns": 5, "kind": "link_down", "router": 1}]}"#, "missing port"),
            (
                r#"{"events": [{"time_ns": 5, "kind": "degraded_link", "router": 1, "port": 0, "factor": 0.0}]}"#,
                "factor 0",
            ),
            (
                r#"{"events": [{"time_ns": 5, "kind": "degraded_link", "router": 1, "port": 0, "factor": 1.5}]}"#,
                "factor > 1",
            ),
            (r#"{"seed": 1}"#, "missing events"),
            (r#"not json"#, "not json"),
        ] {
            let got = FaultSchedule::from_json(doc);
            assert!(got.is_err(), "should reject ({why}): {doc}");
            assert_eq!(got.unwrap_err().exit_code(), 5, "parse errors exit 5 ({why})");
        }
    }

    #[test]
    fn file_io_reports_io_errors() {
        let e = FaultSchedule::from_file("/nonexistent/path/sched.json").unwrap_err();
        assert_eq!(e.exit_code(), 4);
    }

    proptest! {
        /// Any generated schedule serializes and parses back identically —
        /// the serialization layer can never break replay.
        #[test]
        fn generated_schedules_round_trip(seed in 0u64..1_000_000, count in 0usize..40) {
            let s = FaultSchedule::generate(seed, 16, 12, count, 1_000_000);
            let back = FaultSchedule::from_json(&s.to_json()).expect("round trip");
            prop_assert_eq!(back, s);
        }
    }
}
