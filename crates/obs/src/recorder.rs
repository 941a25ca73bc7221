//! Bounded in-memory rings: the flight recorder and the recent-span buffer.
//!
//! An enabled collector keeps the most recent trace-event lines and the
//! most recent completed [`SpanRecord`]s in fixed-capacity rings. The
//! span ring backs `GET /tracez` and the Chrome trace exporter
//! ([`crate::chrome`]); the event ring is the *flight recorder* — when a
//! watchdog trips, a worker panics, or a shed burst occurs, the ring is
//! dumped to disk so the moments leading up to the incident survive the
//! incident. Both rings are bounded, so a long-lived server never grows
//! telemetry state without bound.
//!
//! This module is inside the panic-free scope (hrviz-lint's `slice_index`
//! and the clippy deny below): dump paths run exactly when something
//! already went wrong, so they must not add a second failure.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
// Test code is exempt: clippy.toml's allow-*-in-tests covers the other three.
#![cfg_attr(test, allow(clippy::unreachable, clippy::todo, clippy::unimplemented))]

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::{Mutex, PoisonError};

use crate::json::Json;

/// Trace-event lines retained for flight dumps.
pub const EVENT_RING_CAP: usize = 2048;
/// Completed spans retained for `/tracez` and Chrome export.
pub const SPAN_RING_CAP: usize = 4096;

/// One completed span, with its causal identity.
///
/// `parent` is `0` for root spans. `tid` is the collector's small
/// per-thread id (not the OS tid); records carrying an explicit `lane`
/// are placed on a synthetic named lane by the Chrome exporter instead
/// of their thread lane.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Stable id, unique within the collector.
    pub id: u64,
    /// Id of the enclosing span on the same thread (0 = root).
    pub parent: u64,
    /// Small per-thread id assigned on first use.
    pub tid: u64,
    /// Explicit timeline lane (engine partitions, sweep runs); `None`
    /// places the span on its thread's lane.
    pub lane: Option<String>,
    /// Hierarchical label, e.g. `serve/request`.
    pub label: String,
    /// Start, microseconds since the collector epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Extra annotations (virtual-time progress, queue depth, ...).
    pub args: Vec<(String, Json)>,
}

impl SpanRecord {
    /// JSON form used by `/tracez`.
    pub fn to_json(&self) -> Json {
        let lane = match &self.lane {
            Some(l) => Json::Str(l.clone()),
            None => Json::Null,
        };
        Json::obj([
            ("id", Json::U64(self.id)),
            ("parent", Json::U64(self.parent)),
            ("tid", Json::U64(self.tid)),
            ("lane", lane),
            ("label", Json::Str(self.label.clone())),
            ("start_us", Json::U64(self.start_us)),
            ("dur_us", Json::U64(self.dur_us)),
            ("args", Json::Obj(self.args.clone())),
        ])
    }
}

/// The collector's bounded recent-history state.
pub(crate) struct Flight {
    pub(crate) events: VecDeque<String>,
    pub(crate) spans: VecDeque<SpanRecord>,
    pub(crate) dump_dir: Option<PathBuf>,
    pub(crate) dump_seq: u64,
}

impl Flight {
    pub(crate) fn new() -> Flight {
        Flight { events: VecDeque::new(), spans: VecDeque::new(), dump_dir: None, dump_seq: 0 }
    }

    pub(crate) fn push_event(&mut self, line: String) {
        if self.events.len() >= EVENT_RING_CAP {
            self.events.pop_front();
        }
        self.events.push_back(line);
    }

    pub(crate) fn push_span(&mut self, rec: SpanRecord) {
        if self.spans.len() >= SPAN_RING_CAP {
            self.spans.pop_front();
        }
        self.spans.push_back(rec);
    }
}

/// Small thread ids → thread names, process-wide. Thread lanes in the
/// Chrome export are labeled from this registry.
static THREAD_NAMES: Mutex<Vec<(u64, String)>> = Mutex::new(Vec::new());

pub(crate) fn register_thread_name(tid: u64, name: String) {
    let mut names = THREAD_NAMES.lock().unwrap_or_else(PoisonError::into_inner);
    if !names.iter().any(|(t, _)| *t == tid) {
        names.push((tid, name));
    }
}

/// Every `(tid, name)` pair registered so far, in registration order.
pub fn thread_names() -> Vec<(u64, String)> {
    THREAD_NAMES.lock().unwrap_or_else(PoisonError::into_inner).clone()
}

/// Keep a dump-file name component readable and filesystem-safe.
pub(crate) fn sanitize_reason(reason: &str) -> String {
    let mut out = String::with_capacity(reason.len());
    for ch in reason.chars().take(48) {
        if ch.is_ascii_alphanumeric() || ch == '-' || ch == '_' {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push_str("unspecified");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_ring_is_bounded() {
        let mut f = Flight::new();
        for i in 0..(EVENT_RING_CAP + 10) {
            f.push_event(format!("{{\"n\":{i}}}"));
        }
        assert_eq!(f.events.len(), EVENT_RING_CAP);
        assert_eq!(f.events.front().map(String::as_str), Some("{\"n\":10}"), "oldest evicted");
    }

    #[test]
    fn span_ring_is_bounded() {
        let mut f = Flight::new();
        for i in 0..(SPAN_RING_CAP + 3) {
            f.push_span(SpanRecord {
                id: i as u64,
                parent: 0,
                tid: 1,
                lane: None,
                label: "x".into(),
                start_us: 0,
                dur_us: 1,
                args: Vec::new(),
            });
        }
        assert_eq!(f.spans.len(), SPAN_RING_CAP);
        assert_eq!(f.spans.front().map(|r| r.id), Some(3));
    }

    #[test]
    fn span_record_renders_json() {
        let rec = SpanRecord {
            id: 7,
            parent: 3,
            tid: 2,
            lane: Some("pdes/p0".into()),
            label: "pdes/window".into(),
            start_us: 10,
            dur_us: 5,
            args: vec![("events".into(), Json::U64(42))],
        };
        let text = rec.to_json().render();
        assert!(text.contains("\"id\":7"), "{text}");
        assert!(text.contains("\"parent\":3"), "{text}");
        assert!(text.contains("\"lane\":\"pdes/p0\""), "{text}");
        assert!(text.contains("\"events\":42"), "{text}");
    }

    #[test]
    fn reasons_sanitize() {
        assert_eq!(sanitize_reason("worker panic!"), "worker_panic_");
        assert_eq!(sanitize_reason(""), "unspecified");
        assert_eq!(sanitize_reason("shed-burst"), "shed-burst");
    }
}
