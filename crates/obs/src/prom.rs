//! Prometheus text exposition (format 0.0.4) over a [`Snapshot`].
//!
//! `GET /metricsz` keeps its JSON default; clients sending
//! `Accept: text/plain` get this rendering instead. Metric names are the
//! collector's hierarchical names with every non-alphanumeric character
//! mapped to `_` and an `hrviz_` prefix (`serve/latency_us` →
//! `hrviz_serve_latency_us`). Counters gain the conventional `_total`
//! suffix; histograms render as summaries with q50/q90/q99 from the
//! bucket estimator; span aggregates render as `_duration_ns` sum/count
//! plus a `_max` gauge.
//!
//! This module is inside the panic-free scope (hrviz-lint's `slice_index`
//! and the clippy deny below).

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

use std::fmt::Write as _;

use crate::collector::Snapshot;
use crate::metrics::metric;

/// The content type to serve alongside [`render_prometheus`] output.
pub const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Render `snap` in Prometheus text exposition format. Names registered
/// in the [`crate::metrics::METRICS`] manifest carry their `# HELP` line,
/// so the exposition documents itself.
pub fn render_prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (name, &v) in &snap.counters {
        let m = metric_name(name, "_total");
        help_line(&mut out, name, &m);
        let _ = writeln!(out, "# TYPE {m} counter\n{m} {v}");
    }
    for (name, &v) in &snap.gauges {
        let m = metric_name(name, "");
        help_line(&mut out, name, &m);
        let _ = writeln!(out, "# TYPE {m} gauge\n{m} {}", num(v));
    }
    for (name, h) in &snap.hists {
        let m = metric_name(name, "");
        help_line(&mut out, name, &m);
        let _ = writeln!(out, "# TYPE {m} summary");
        for q in [0.5, 0.9, 0.99] {
            let _ = writeln!(out, "{m}{{quantile=\"{q}\"}} {}", num(h.quantile(q)));
        }
        let _ = writeln!(out, "{m}_sum {}\n{m}_count {}", num(h.sum), h.count);
    }
    for (label, s) in &snap.spans {
        let m = metric_name(label, "_duration_ns");
        let _ = writeln!(out, "# TYPE {m}_sum counter\n{m}_sum {}", s.total_ns);
        let _ = writeln!(out, "# TYPE {m}_count counter\n{m}_count {}", s.count);
        let _ = writeln!(out, "# TYPE {m}_max gauge\n{m}_max {}", s.max_ns);
    }
    out
}

/// `# HELP` line for manifest-registered names (ad-hoc names render bare).
fn help_line(out: &mut String, name: &str, mangled: &str) {
    if let Some(def) = metric(name) {
        let _ = writeln!(out, "# HELP {mangled} {}", def.help);
    }
}

/// `serve/latency_us` → `hrviz_serve_latency_us<suffix>`.
fn metric_name(name: &str, suffix: &str) -> String {
    let mut m = String::with_capacity(name.len() + 6 + suffix.len());
    m.push_str("hrviz_");
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() {
            m.push(ch);
        } else {
            m.push('_');
        }
    }
    m.push_str(suffix);
    m
}

/// Prometheus floats: finite values as-is, non-finite as `NaN`.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "NaN".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::Collector;

    #[test]
    fn names_mangle_and_prefix() {
        assert_eq!(metric_name("serve/latency_us", ""), "hrviz_serve_latency_us");
        assert_eq!(metric_name("a-b.c", "_total"), "hrviz_a_b_c_total");
    }

    #[test]
    fn all_metric_families_render() {
        let c = Collector::enabled();
        c.counter_add("serve/requests", 3);
        c.gauge_set("pdes/events_per_sec", 1.5e6);
        c.hist_config("serve/latency_us", 0.0, 100.0, 8);
        c.hist_record("serve/latency_us", 250.0);
        drop(c.span("serve/request"));
        let text = render_prometheus(&c.snapshot());
        assert!(text.contains("# TYPE hrviz_serve_requests_total counter"), "{text}");
        assert!(
            text.contains("# HELP hrviz_serve_requests_total HTTP requests accepted"),
            "{text}"
        );
        assert!(text.contains("hrviz_serve_requests_total 3"), "{text}");
        assert!(text.contains("hrviz_pdes_events_per_sec 1500000"), "{text}");
        assert!(text.contains("hrviz_serve_latency_us{quantile=\"0.99\"}"), "{text}");
        assert!(text.contains("hrviz_serve_latency_us_count 1"), "{text}");
        assert!(text.contains("hrviz_serve_request_duration_ns_count 1"), "{text}");
    }

    #[test]
    fn empty_snapshot_renders_empty() {
        assert_eq!(render_prometheus(&Snapshot::default()), "");
    }
}
