//! Run manifests.
//!
//! A [`RunManifest`] captures the reproducibility envelope of one run —
//! config fingerprint, seed, topology parameters — together with its
//! headline performance numbers (wall time, events/sec, peak queue depth)
//! and the full collector snapshot. It is written to
//! `out/<run>/manifest.json`.

use crate::collector::Snapshot;
use crate::json::Json;
use std::io;
use std::path::{Path, PathBuf};

/// 64-bit FNV-1a hash, used to fingerprint run configurations.
pub fn fingerprint64(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Everything needed to identify and summarize one simulation run.
#[derive(Clone, Debug, Default)]
pub struct RunManifest {
    /// Run name (directory name under `out/`).
    pub run: String,
    /// FNV-1a fingerprint of the rendered configuration.
    pub config_fingerprint: u64,
    /// RNG seed the run used.
    pub seed: u64,
    /// Topology parameters as ordered key/value pairs.
    pub topology: Vec<(String, Json)>,
    /// Wall-clock duration in seconds.
    pub wall_time_s: f64,
    /// Engine throughput (events processed / wall second).
    pub events_per_sec: f64,
    /// Peak pending-event queue depth across the run.
    pub peak_queue_depth: u64,
    /// Collector snapshot (counters, gauges, histograms, spans).
    pub snapshot: Option<Snapshot>,
    /// Free-form additional fields.
    pub extra: Vec<(String, Json)>,
}

impl RunManifest {
    /// An empty manifest for run `run`.
    pub fn new(run: impl Into<String>) -> RunManifest {
        RunManifest { run: run.into(), ..RunManifest::default() }
    }

    /// Render the manifest as a JSON object.
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(String, Json)> = vec![
            ("run".into(), Json::Str(self.run.clone())),
            ("config_fingerprint".into(), Json::Str(format!("{:016x}", self.config_fingerprint))),
            ("seed".into(), Json::U64(self.seed)),
            ("topology".into(), Json::Obj(self.topology.clone())),
            ("wall_time_s".into(), Json::F64(self.wall_time_s)),
            ("events_per_sec".into(), Json::F64(self.events_per_sec)),
            ("peak_queue_depth".into(), Json::U64(self.peak_queue_depth)),
        ];
        if let Some(snap) = &self.snapshot {
            pairs.push(("telemetry".into(), snap.to_json()));
        }
        for (k, v) in &self.extra {
            pairs.push((k.clone(), v.clone()));
        }
        Json::Obj(pairs)
    }

    /// Write `out_root/<run>/manifest.json`, returning its path.
    pub fn write(&self, out_root: &Path) -> io::Result<PathBuf> {
        let dir = out_root.join(&self.run);
        std::fs::create_dir_all(&dir)?;
        let path = dir.join("manifest.json");
        std::fs::write(&path, self.to_json().render() + "\n")?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Collector;

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        // Published FNV-1a test vectors: run ids are FNV-1a hashes.
        assert_eq!(fingerprint64(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fingerprint64("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fingerprint64("foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fingerprint64("abc"), fingerprint64("abc"));
        assert_ne!(fingerprint64("abc"), fingerprint64("abd"));
    }

    #[test]
    fn manifest_round_trips_to_disk() {
        let root = std::env::temp_dir().join("hrviz_obs_manifest_test");
        let _ = std::fs::remove_dir_all(&root);
        let c = Collector::enabled();
        c.counter_add("net/packets_delivered", 42);
        let mut m = RunManifest::new("demo");
        m.config_fingerprint = fingerprint64("spec");
        m.seed = 7;
        m.topology = vec![("groups".into(), Json::U64(9))];
        m.wall_time_s = 0.5;
        m.events_per_sec = 1e6;
        m.peak_queue_depth = 128;
        m.snapshot = Some(c.snapshot());
        let path = m.write(&root).unwrap();
        assert!(path.ends_with("demo/manifest.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"run\":\"demo\""));
        assert!(text.contains("\"seed\":7"));
        assert!(text.contains("\"groups\":9"));
        assert!(text.contains("\"net/packets_delivered\":42"));
        let _ = std::fs::remove_dir_all(&root);
    }
}
