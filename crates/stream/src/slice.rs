//! The slice and progress data model, with canonical JSON round-trips.
//!
//! Rendering is canonical — fixed key order, no whitespace — because
//! downstream equality checks (incremental vs batch aggregates, streamed
//! vs straight-through stores) compare bytes, not parsed values.

use hrviz_faults::HrvizError;
use hrviz_obs::Json;

/// Latency histogram buckets per slice: bucket 0 counts sub-microsecond
/// per-terminal window-mean latencies, bucket *i* ≥ 1 counts means in
/// `[2^(i-1), 2^i)` microseconds, and the last bucket is open-ended.
pub const LATENCY_BINS: usize = 8;

/// One sealed virtual-time window of a running simulation: deltas of the
/// cumulative network counters over `[t_start_ns, t_end_ns)`.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Slice {
    /// 0-based sequence number; also the watermark before this seal.
    pub seq: u64,
    /// Window start (absolute virtual nanoseconds).
    pub t_start_ns: u64,
    /// Window end (absolute virtual nanoseconds).
    pub t_end_ns: u64,
    /// Packets delivered to terminals in this window.
    pub delivered_packets: u64,
    /// Payload bytes delivered in this window.
    pub delivered_bytes: u64,
    /// Packets injected by terminals in this window.
    pub injected_packets: u64,
    /// Payload bytes injected in this window.
    pub injected_bytes: u64,
    /// Packets dropped (faults, TTL) in this window.
    pub dropped_packets: u64,
    /// Sum of delivered-packet latencies in this window (ns).
    pub latency_sum_ns: u64,
    /// Log₂-bucketed latency histogram (see [`LATENCY_BINS`]).
    pub latency_hist: [u64; LATENCY_BINS],
    /// Virtual-channel saturation time accumulated across all router
    /// ports in this window (ns).
    pub vc_sat_ns: u64,
}

impl Slice {
    /// The log₂ histogram bucket for a window-mean latency in ns.
    pub fn latency_bucket(mean_ns: u64) -> usize {
        let us = mean_ns / 1_000;
        if us == 0 {
            return 0;
        }
        (us.ilog2() as usize + 1).min(LATENCY_BINS - 1)
    }

    /// Canonical single-line JSON.
    pub fn to_json(&self) -> String {
        let hist: Vec<String> = self.latency_hist.iter().map(u64::to_string).collect();
        format!(
            "{{\"seq\":{},\"t_start_ns\":{},\"t_end_ns\":{},\"delivered_packets\":{},\
             \"delivered_bytes\":{},\"injected_packets\":{},\"injected_bytes\":{},\
             \"dropped_packets\":{},\"latency_sum_ns\":{},\"latency_hist\":[{}],\
             \"vc_sat_ns\":{}}}",
            self.seq,
            self.t_start_ns,
            self.t_end_ns,
            self.delivered_packets,
            self.delivered_bytes,
            self.injected_packets,
            self.injected_bytes,
            self.dropped_packets,
            self.latency_sum_ns,
            hist.join(","),
            self.vc_sat_ns,
        )
    }

    /// Parse one slice line.
    pub fn from_json(text: &str) -> Result<Slice, HrvizError> {
        let v = Json::parse(text).map_err(|e| HrvizError::parse("slice", e))?;
        let field = |k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| HrvizError::parse("slice", format!("missing field `{k}`")))
        };
        let mut latency_hist = [0u64; LATENCY_BINS];
        let hist = v
            .get("latency_hist")
            .and_then(Json::as_array)
            .ok_or_else(|| HrvizError::parse("slice", "missing field `latency_hist`"))?;
        if hist.len() != LATENCY_BINS {
            return Err(HrvizError::parse(
                "slice",
                format!("latency_hist has {} bins, expected {LATENCY_BINS}", hist.len()),
            ));
        }
        for (slot, item) in latency_hist.iter_mut().zip(hist) {
            *slot = item
                .as_u64()
                .ok_or_else(|| HrvizError::parse("slice", "non-integer latency bin"))?;
        }
        Ok(Slice {
            seq: field("seq")?,
            t_start_ns: field("t_start_ns")?,
            t_end_ns: field("t_end_ns")?,
            delivered_packets: field("delivered_packets")?,
            delivered_bytes: field("delivered_bytes")?,
            injected_packets: field("injected_packets")?,
            injected_bytes: field("injected_bytes")?,
            dropped_packets: field("dropped_packets")?,
            latency_sum_ns: field("latency_sum_ns")?,
            latency_hist,
            vc_sat_ns: field("vc_sat_ns")?,
        })
    }
}

/// The per-run watermark (`progress.json`): what a watcher may trust.
///
/// Invariant: the writer seals slice data *before* advancing `sealed`, so
/// every slice with `seq < sealed` is durably readable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Progress {
    /// Run id (16-hex content hash).
    pub run: String,
    /// Lifecycle state: `running`, `completed`, `failed` or `aborted`.
    pub state: String,
    /// Number of sealed slices (the watermark).
    pub sealed: u64,
    /// Virtual time reached at the last seal (ns).
    pub virtual_ns: u64,
    /// Slice window length (ns).
    pub window_ns: u64,
}

impl Progress {
    /// Canonical single-line JSON.
    pub fn to_json(&self) -> String {
        Json::obj([
            ("run", Json::Str(self.run.clone())),
            ("state", Json::Str(self.state.clone())),
            ("sealed", Json::U64(self.sealed)),
            ("virtual_ns", Json::U64(self.virtual_ns)),
            ("window_ns", Json::U64(self.window_ns)),
        ])
        .render()
    }

    /// Parse a `progress.json` document.
    pub fn from_json(text: &str) -> Result<Progress, HrvizError> {
        let v = Json::parse(text).map_err(|e| HrvizError::parse("progress", e))?;
        let s = |k: &str| {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| HrvizError::parse("progress", format!("missing field `{k}`")))
        };
        let n = |k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| HrvizError::parse("progress", format!("missing field `{k}`")))
        };
        Ok(Progress {
            run: s("run")?,
            state: s("state")?,
            sealed: n("sealed")?,
            virtual_ns: n("virtual_ns")?,
            window_ns: n("window_ns")?,
        })
    }

    /// Whether the run can produce no further slices.
    pub fn is_terminal(&self) -> bool {
        matches!(self.state.as_str(), "completed" | "failed" | "aborted")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Slice {
        Slice {
            seq: 3,
            t_start_ns: 150_000,
            t_end_ns: 200_000,
            delivered_packets: 41,
            delivered_bytes: 83_968,
            injected_packets: 44,
            injected_bytes: 90_112,
            dropped_packets: 1,
            latency_sum_ns: 512_431,
            latency_hist: [0, 2, 30, 9, 0, 0, 0, 0],
            vc_sat_ns: 7_331,
        }
    }

    #[test]
    fn slice_json_round_trips_exactly() {
        let s = sample();
        let text = s.to_json();
        assert_eq!(Slice::from_json(&text).unwrap(), s);
        // Canonical: re-render is byte-identical.
        assert_eq!(Slice::from_json(&text).unwrap().to_json(), text);
    }

    #[test]
    fn progress_json_round_trips() {
        let p = Progress {
            run: "00c0ffee00c0ffee".into(),
            state: "running".into(),
            sealed: 4,
            virtual_ns: 200_000,
            window_ns: 50_000,
        };
        assert_eq!(Progress::from_json(&p.to_json()).unwrap(), p);
        assert!(!p.is_terminal());
        let done = Progress { state: "aborted".into(), ..p };
        assert!(done.is_terminal());
    }

    #[test]
    fn latency_buckets_are_log2_microseconds() {
        assert_eq!(Slice::latency_bucket(0), 0);
        assert_eq!(Slice::latency_bucket(999), 0);
        assert_eq!(Slice::latency_bucket(1_000), 1);
        assert_eq!(Slice::latency_bucket(1_999), 1);
        assert_eq!(Slice::latency_bucket(2_000), 2);
        assert_eq!(Slice::latency_bucket(3_999), 2);
        assert_eq!(Slice::latency_bucket(4_000), 3);
        // Open-ended top bucket.
        assert_eq!(Slice::latency_bucket(u64::MAX / 2), LATENCY_BINS - 1);
    }

    #[test]
    fn malformed_slices_are_rejected() {
        for bad in [
            "{}",
            "{\"seq\":1}",
            "{\"seq\":1,\"t_start_ns\":0,\"t_end_ns\":1,\"delivered_packets\":0,\
             \"delivered_bytes\":0,\"injected_packets\":0,\"injected_bytes\":0,\
             \"dropped_packets\":0,\"latency_sum_ns\":0,\"latency_hist\":[1,2],\"vc_sat_ns\":0}",
        ] {
            assert!(Slice::from_json(bad).is_err(), "should reject {bad}");
        }
    }
}
