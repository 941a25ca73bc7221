//! The workspace metric manifest — the single registry every counter,
//! gauge and histogram name must appear in.
//!
//! Three consumers keep it honest:
//!
//! * [`crate::prom::render_prometheus`] emits `# HELP` / `# TYPE` lines
//!   from the manifest, so `/metricsz` documents what it exposes;
//! * `hrviz-lint`'s counter-drift pass cross-checks every write site in
//!   the workspace against this list (and this list against DESIGN.md's
//!   telemetry table) — an increment of an unregistered name, or a
//!   registered name nothing increments, fails the gate;
//! * DESIGN.md's "Telemetry reference" table is generated from the same
//!   triples, one row per entry.
//!
//! Adding a metric therefore takes three edits (write site, this table,
//! the DESIGN.md row) and the lint gate refuses anything less.

/// What a metric name denotes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic count (`counter_add`).
    Counter,
    /// Last-or-max value (`gauge_set` / `gauge_max`).
    Gauge,
    /// Bucketed distribution (`hist_record` et al).
    Hist,
}

impl MetricKind {
    /// Lower-case name used in DESIGN.md rows and lint diagnostics.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Hist => "hist",
        }
    }
}

/// One registered metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// The name write sites use (`area/metric`).
    pub name: &'static str,
    /// Counter / gauge / histogram.
    pub kind: MetricKind,
    /// One-line meaning, emitted as the Prometheus `# HELP` text.
    pub help: &'static str,
}

const fn c(name: &'static str, help: &'static str) -> MetricDef {
    MetricDef { name, kind: MetricKind::Counter, help }
}

const fn g(name: &'static str, help: &'static str) -> MetricDef {
    MetricDef { name, kind: MetricKind::Gauge, help }
}

const fn h(name: &'static str, help: &'static str) -> MetricDef {
    MetricDef { name, kind: MetricKind::Hist, help }
}

/// Every metric the workspace writes, sorted by name.
pub const METRICS: &[MetricDef] = &[
    c("core/agg_cache_hit", "aggregate-cache lookups answered without projecting"),
    c("core/agg_cache_miss", "aggregate-cache lookups that ran the projection pipeline"),
    c("lint/files_parsed", "lint files tokenized and analyzed this run"),
    c("net/bytes_delivered", "payload bytes delivered to terminals"),
    c("net/bytes_injected", "payload bytes injected by workloads"),
    c("net/credit_stalls", "flit sends deferred for lack of credits"),
    c("net/fault_events", "fault-schedule events applied to the topology"),
    c("net/packets_delivered", "packets that reached their destination terminal"),
    c("net/packets_dropped", "packets dropped at faulted links/routers"),
    c("net/packets_injected", "packets entering the network"),
    c("net/packets_rerouted", "packets re-routed around degraded links"),
    h("net/vc_occupancy", "per-sample virtual-channel buffer occupancy fraction"),
    c("obs/flight_dumps", "flight-recorder ring dumps triggered by failures"),
    c("pdes/barrier_wait_ns", "nanoseconds partitions spent waiting at window barriers, summed"),
    g("pdes/events_per_sec", "sustained event rate of the last engine drain"),
    c("pdes/events_processed", "events dequeued and handed to an Lp"),
    c("pdes/events_scheduled", "events enqueued into the calendar"),
    g("pdes/peak_queue_depth", "high-water mark of the pending event queue"),
    c("pdes/watchdog_trips", "stall/leak watchdog activations"),
    c("pdes/windows", "conservative-engine synchronization windows executed"),
    c("serve/accept_errors", "listener accept() failures"),
    c("serve/cache_hit", "response-cache hits"),
    c("serve/cache_miss", "response-cache misses"),
    c("serve/coalesced", "requests that joined an in-flight single-flight build"),
    c("serve/corrupt_run", "requests rejected because the run failed integrity checks"),
    c("serve/http_errors", "responses with a 4xx/5xx status"),
    h("serve/latency_us", "request latency in microseconds"),
    c("serve/not_modified", "conditional requests answered 304"),
    c("serve/panics", "worker panics caught at the request boundary"),
    c("serve/requests", "HTTP requests accepted"),
    c("serve/shed", "requests shed with 503 under overload"),
    c("sim/checkpoint_restores", "engine restores from a virtual-time checkpoint"),
    c("sim/checkpoints", "engine checkpoints written at virtual-time marks"),
    c("store/fsck_orphans", "fsck-detected runs with no terminal state"),
    c("store/fsck_runs", "runs examined by fsck"),
    c("store/fsck_tmp_removed", "abandoned temp files removed by fsck"),
    c("store/quarantined", "torn runs moved to quarantine"),
    c("stream/runs_aborted", "runs cancelled by an early-abort policy"),
    c("stream/slices_sealed", "telemetry slices sealed into run stores"),
    c("stream/sse_events", "SSE frames (slices + terminal events) sent to watchers"),
    c("stream/sse_watchers", "SSE watcher connections handed to the stream hub"),
    c("sweep/generation_recovered", "store generation counters rebuilt after crash"),
    c("sweep/resumed_runs", "runs skipped by --resume because the store had them"),
    c("sweep/retries", "sweep runs retried after a worker failure"),
    c("sweep/store_hit", "sweep runs answered from the store without simulating"),
    c("sweep/store_miss", "sweep runs that had to simulate"),
];

/// Look a metric up by name.
pub fn metric(name: &str) -> Option<&'static MetricDef> {
    METRICS.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_is_sorted_and_unique() {
        for pair in METRICS.windows(2) {
            assert!(pair[0].name < pair[1].name, "{} !< {}", pair[0].name, pair[1].name);
        }
    }

    #[test]
    fn every_entry_has_help_text() {
        for m in METRICS {
            assert!(!m.help.is_empty(), "{} lacks help text", m.name);
        }
    }

    #[test]
    fn lookup_finds_registered_names_only() {
        assert!(metric("serve/requests").is_some());
        assert_eq!(metric("serve/requests").map(|m| m.kind), Some(MetricKind::Counter));
        assert!(metric("no/such_metric").is_none());
    }
}
