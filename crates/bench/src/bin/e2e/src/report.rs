//! What a workload run produces, and the helpers every workload shares:
//! scratch directories, set-up timing, store digests and an in-process server.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Instant;

use hrviz_obs::{fingerprint64, Json};
use hrviz_serve::{ServeConfig, ServeReport, Server, ServerHandle};
use hrviz_sweep::RunStore;

use crate::gen::{Rng, Scale};
use crate::stats::{self, Summary};

/// Server worker threads in every workload that serves: the box has two cores.
pub const SERVER_WORKERS: usize = 2;

/// One named number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples the value summarises (1 for a single reading).
    pub samples: u64,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, samples: u64) -> Metric {
        Metric { name: name.into(), unit, value, samples }
    }
}

/// The end-to-end metric names, in `BENCHMARK.json` order. Every workload
/// reports all six; what each generic name measures on each workload is
/// tabulated in the README.
pub const END_TO_END: [&str; 6] = [
    "setup_s",
    "peak_rss_mb",
    "throughput_per_s",
    "latency_p50_ms",
    "latency_tail_ms",
    "followup_p50_ms",
];

/// Assemble a workload's end-to-end metrics. `rates` holds one
/// operations-per-second reading per unit of work (batch, run, cycle or time
/// window); throughput is their median, so a stall that hits a minority of a
/// run's units does not move it. `peaks_mb` holds the peak resident set of
/// each stretch the mark was reset for (one, unless the workload cycles).
pub fn end_to_end(
    setup: &SetupTime,
    peaks_mb: &[f64],
    rates: &[f64],
    latency: &Summary,
    followup: &Summary,
) -> Vec<Metric> {
    let values = [
        (setup.median_s, "s", setup.reps as u64),
        (stats::median(&stats::sorted(peaks_mb.to_vec())), "MB", peaks_mb.len() as u64),
        (stats::median(&stats::sorted(rates.to_vec())), "1/s", rates.len() as u64),
        (latency.p50, "ms", latency.n as u64),
        (latency.tail, "ms", latency.n as u64),
        (followup.p50, "ms", followup.n as u64),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(name, (value, unit, samples))| Metric::new(*name, unit, value, samples))
        .collect()
}

/// Everything one run of one workload reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks: description and whether it held.
    pub checks: Vec<(String, bool)>,
    pub metrics: Vec<Metric>,
    /// Exact digest of the first measured unit's simulation output, printed
    /// so model drift between commits is visible. Reported, never failed.
    pub sim_digest: String,
    /// Load shape: loop type, worker and connection counts, and the like.
    pub load: Vec<(&'static str, Json)>,
}

impl Outcome {
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    /// Count one operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }
}

/// What a workload is given.
pub struct Ctx {
    pub scale: Scale,
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// This run's own directory under `target/e2e/`.
    pub scratch: PathBuf,
}

impl Ctx {
    pub fn rng(&self, purpose: &str) -> Rng {
        Rng::new(self.seed).fork(purpose)
    }
}

pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// An empty directory at `path`, replacing whatever was there.
pub fn fresh_dir(path: &Path) -> PathBuf {
    let _ = std::fs::remove_dir_all(path);
    std::fs::create_dir_all(path).expect("create scratch directory");
    path.to_path_buf()
}

/// A cheap set-up is repeated beyond `reps` until this much time has gone
/// into it (or [`MAX_SETUP_REPS`]): a 0.2 s set-up needs more than three
/// readings for its median to hold still.
const MIN_SETUP_TOTAL_S: f64 = 1.0;
const MAX_SETUP_REPS: usize = 9;

/// What [`timed_setup`] measured.
pub struct SetupTime {
    /// Median wall time of one repetition.
    pub median_s: f64,
    pub reps: usize,
    /// Whether the peak-RSS mark could be reset once set-up was over. If not,
    /// `peak_rss_mb` covers the whole process, set-up included.
    pub rss_reset: bool,
    /// Resident set when the measured phase began, in MB.
    pub rss_after_mb: f64,
}

impl SetupTime {
    /// The set-up facts a result file records beside the load shape.
    pub fn load_facts(&self) -> [(&'static str, Json); 3] {
        [
            ("setup_reps", Json::U64(self.reps as u64)),
            ("peak_rss_reset_after_setup", Json::Bool(self.rss_reset)),
            ("rss_after_setup_mb", Json::F64(self.rss_after_mb)),
        ]
    }
}

/// Run `setup` at least `reps` times, each into its own directory, and return
/// the last product with the median wall time. Earlier products are dropped
/// (which shuts their servers down) before the next repetition starts. The
/// process's peak-RSS mark is then reset, so `peak_rss_mb` is the peak of the
/// measured phase and not of the repeated set-up before it.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut(usize) -> T) -> (T, SetupTime) {
    let mut walls: Vec<f64> = Vec::new();
    let mut last = None;
    while walls.len() < reps.max(1)
        || (walls.iter().sum::<f64>() < MIN_SETUP_TOTAL_S && walls.len() < MAX_SETUP_REPS)
    {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup(walls.len()));
        walls.push(t0.elapsed().as_secs_f64());
    }
    let time = SetupTime {
        reps: walls.len(),
        median_s: stats::median(&stats::sorted(walls)),
        rss_reset: crate::host::reset_peak_rss(),
        rss_after_mb: crate::host::rss_mb("VmRSS:"),
    };
    (last.expect("at least one repetition"), time)
}

/// Digest of every run's `manifest.json` and `columns.jsonl` under a store:
/// the bytes two executions of one configuration must agree on.
pub fn store_digest(store: &RunStore) -> u64 {
    let mut acc = String::new();
    for run in store.runs().expect("list runs") {
        for file in ["manifest.json", "columns.jsonl"] {
            let text = std::fs::read_to_string(store.run_dir(&run).join(file)).unwrap_or_default();
            acc.push_str(&format!("{run}/{file}:{:016x};", fingerprint64(&text)));
        }
    }
    fingerprint64(&acc)
}

/// Digest of what the simulator computed for `runs`, leaving out the writer's
/// code fingerprint so it only moves when the model's output does.
pub fn sim_digest(store: &RunStore, runs: &[String]) -> String {
    let mut acc = String::new();
    for run in runs {
        match store.load_manifest(run) {
            Ok(m) => acc.push_str(&format!(
                "{run}|{}|{}|{}|{}|{}|{};",
                m.columns_checksum,
                m.events_processed,
                m.end_time_ns,
                m.delivered,
                m.dropped,
                m.rerouted
            )),
            Err(_) => acc.push_str(&format!("{run}|missing;")),
        }
    }
    format!("{:016x}", fingerprint64(&acc))
}

/// An `hrviz-serve` server on a loopback port, stopped and joined on drop.
pub struct Served {
    pub addr: SocketAddr,
    handle: ServerHandle,
    thread: Option<JoinHandle<ServeReport>>,
}

impl Served {
    pub fn bind(store: RunStore) -> Served {
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: SERVER_WORKERS,
            // The cap bounds rogue clients; the warm phases legitimately
            // stream millions of requests down one connection.
            keepalive_requests: usize::MAX,
            ..ServeConfig::default()
        };
        let server = Server::bind(cfg, store).expect("bind loopback");
        let addr = server.local_addr().expect("local addr");
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.serve().expect("serve loop"));
        Served { addr, handle, thread: Some(thread) }
    }

    /// Stop accepting, drain, and return what the server counted.
    pub fn shutdown(mut self) -> ServeReport {
        self.stop().unwrap_or_default()
    }

    fn stop(&mut self) -> Option<ServeReport> {
        let thread = self.thread.take()?;
        self.handle.shutdown();
        thread.join().ok()
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        self.stop();
    }
}
