//! Shared experiment harness for the figure/table drivers in `src/bin/`.
//!
//! Every driver regenerates one table or figure of the paper: it runs the
//! required simulations, builds the views, writes SVG + CSV under `out/`,
//! and prints the series the paper reports (see DESIGN.md's
//! per-experiment index and EXPERIMENTS.md for paper-vs-measured).

#![forbid(unsafe_code)]

use hrviz_core::{DataSet, EntityKind, Field, LevelSpec, ProjectionSpec, RibbonSpec};
use hrviz_network::{
    DragonflyConfig, JobMeta, LinkClass, NetworkSpec, RoutingAlgorithm, RunData, Simulation,
};
use hrviz_obs::{fingerprint64, Collector, Json, LogLevel, RunManifest};
use hrviz_pdes::SimTime;
use hrviz_workloads::{
    generate_app, generate_synthetic, place_jobs, AppConfig, AppKind, PlacementPolicy,
    PlacementRequest, SyntheticConfig,
};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

/// Output directory for figures/CSVs (`out/` in the working directory, or
/// `$HRVIZ_OUT`).
pub fn out_dir() -> PathBuf {
    let dir = std::env::var("HRVIZ_OUT").unwrap_or_else(|_| "out".into());
    let p = PathBuf::from(dir);
    std::fs::create_dir_all(&p).expect("create output dir");
    p
}

/// Write a file under [`out_dir`], logging the path.
pub fn write_out(name: &str, content: &str) -> PathBuf {
    let path = out_dir().join(name);
    std::fs::write(&path, content).expect("write output");
    println!("  wrote {}", path.display());
    path
}

/// Write CSV rows (first row = header).
pub fn write_csv(name: &str, rows: &[Vec<String>]) -> PathBuf {
    let text: String = rows.iter().map(|r| r.join(",") + "\n").collect();
    write_out(name, &text)
}

/// Global volume scale for application proxies (override with
/// `$HRVIZ_SCALE`, e.g. `HRVIZ_SCALE=0.002` for quicker runs). The default
/// 1/24, combined with the 150 µs injection window, reproduces the paper\'s
/// congestion regime: AMG bursts transiently saturate router uplinks and
/// MiniFE runs communication-bound (its measured latency is dominated by
/// source queueing, as the paper\'s Fig. 13d magnitudes imply).
pub fn data_scale() -> f64 {
    std::env::var("HRVIZ_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(1.0 / 24.0)
}

/// Injection window used by all application-proxy experiments.
pub fn app_duration() -> SimTime {
    SimTime::micros(150)
}

/// Simulation seed shared by all experiments.
pub const SEED: u64 = 0xC0DE5;

/// Driver telemetry state: name + start time from [`obs_init`], plus the
/// topology of the last simulation the harness set up (for the manifest).
struct ObsRun {
    driver: String,
    started: Instant,
    topology: Vec<(String, Json)>,
}

static OBS_RUN: Mutex<Option<ObsRun>> = Mutex::new(None);

/// Initialize driver telemetry and install the collector globally (so spans
/// in core/render/workloads attach to the same run). Tracing is opt-in via
/// `$HRVIZ_TRACE`: unset → disabled collector (near-zero overhead); `1` →
/// trace JSONL at `out/<driver>/trace.jsonl`; any other value → that path.
/// `$HRVIZ_LOG` sets the log level (error/warn/info/debug/trace).
pub fn obs_init(driver: &str) -> Collector {
    let c = match std::env::var("HRVIZ_TRACE") {
        Ok(v) if !v.is_empty() => {
            let path = if v == "1" {
                out_dir().join(driver).join("trace.jsonl")
            } else {
                PathBuf::from(v)
            };
            Collector::with_trace_file(&path).expect("create trace file")
        }
        _ => Collector::disabled(),
    };
    if let Some(level) = std::env::var("HRVIZ_LOG").ok().as_deref().and_then(LogLevel::parse) {
        c.set_level(level);
    }
    hrviz_obs::install(c.clone());
    *OBS_RUN.lock().unwrap_or_else(std::sync::PoisonError::into_inner) =
        Some(ObsRun { driver: driver.into(), started: Instant::now(), topology: Vec::new() });
    c
}

/// Record the network shape for the run manifest (harness-internal).
fn note_topology(spec: &NetworkSpec) {
    if let Some(run) = OBS_RUN.lock().unwrap_or_else(std::sync::PoisonError::into_inner).as_mut() {
        let t = spec.topology;
        run.topology = vec![
            ("groups".into(), Json::from(t.groups)),
            ("routers_per_group".into(), Json::from(t.routers_per_group)),
            ("terminals_per_router".into(), Json::from(t.terminals_per_router)),
            ("global_ports".into(), Json::from(t.global_ports)),
            ("terminals".into(), Json::from(t.num_terminals())),
            ("routing".into(), Json::Str(spec.routing.name().into())),
        ];
    }
}

/// Write `out/<driver>/manifest.json` and flush the trace. No-op unless
/// [`obs_init`] ran with tracing enabled. Called by [`Expectations::finish`]
/// because drivers exit via `std::process::exit` (destructors never run).
fn write_obs_artifacts() {
    // Clone the run record out of the guard before any file I/O: the
    // manifest write must not happen with OBS_RUN held.
    let run = {
        let guard = OBS_RUN.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let Some(run) = guard.as_ref() else { return };
        ObsRun { driver: run.driver.clone(), started: run.started, topology: run.topology.clone() }
    };
    let c = hrviz_obs::get();
    if !c.is_enabled() {
        return;
    }
    let wall = run.started.elapsed().as_secs_f64();
    let events = c.counter("pdes/events_processed");
    let eps = if wall > 0.0 { events as f64 / wall } else { 0.0 };
    let peak = c.gauge("pdes/peak_queue_depth").unwrap_or(0.0) as u64;
    let topo_text: String =
        run.topology.iter().map(|(k, v)| format!("{k}={};", v.render())).collect();

    let mut m = RunManifest::new(run.driver.clone());
    m.config_fingerprint =
        fingerprint64(&format!("{}:{}scale={}", run.driver, topo_text, data_scale()));
    m.seed = SEED;
    m.topology = run.topology.clone();
    m.wall_time_s = wall;
    m.events_per_sec = eps;
    m.peak_queue_depth = peak;
    m.snapshot = Some(c.snapshot());
    match m.write(&out_dir()) {
        Ok(p) => println!("  wrote {}", p.display()),
        Err(e) => eprintln!("  manifest write failed: {e}"),
    }

    // Final snapshot + flush, not just flush: drivers exit via
    // `std::process::exit`, so this is the sink's last chance.
    let _ = c.finalize();
}

/// Run one application alone on a network (paper §V-C setup: adaptive
/// routing, contiguous placement unless stated otherwise).
pub fn run_app(
    terminals: u32,
    kind: AppKind,
    routing: RoutingAlgorithm,
    placement: PlacementPolicy,
    sampling: Option<(SimTime, usize)>,
) -> RunData {
    let mut spec =
        NetworkSpec::new(DragonflyConfig::try_paper_scale(terminals).expect("paper scale"))
            .with_routing(routing)
            .with_seed(SEED);
    if let Some((w, n)) = sampling {
        spec = spec.with_sampling(w, n);
    }
    note_topology(&spec);
    let mut sim = Simulation::new(spec).with_collector(hrviz_obs::get());
    let topo = sim.topology();
    let jobs = place_jobs(
        topo,
        &[PlacementRequest { name: kind.name().into(), ranks: kind.ranks(), policy: placement }],
        SEED,
    )
    .expect("placement fits");
    let cfg = AppConfig::new(kind).with_scale(data_scale()).with_duration(app_duration());
    let job_id = sim.add_job(jobs[0].clone());
    sim.inject_all(generate_app(job_id, &jobs[0], &cfg));
    sim.try_run().expect("simulation completes")
}

/// Run a synthetic pattern over the whole machine.
pub fn run_synthetic(
    terminals: u32,
    pattern: SyntheticConfig,
    routing: RoutingAlgorithm,
) -> RunData {
    let spec = NetworkSpec::new(DragonflyConfig::try_paper_scale(terminals).expect("paper scale"))
        .with_routing(routing)
        .with_seed(SEED);
    note_topology(&spec);
    let mut sim = Simulation::new(spec).with_collector(hrviz_obs::get());
    let all: Vec<_> = (0..terminals).map(hrviz_network::TerminalId).collect();
    let meta = JobMeta { name: pattern.pattern.name().into(), terminals: all };
    let job = sim.add_job(meta.clone());
    sim.inject_all(generate_synthetic(job, &meta, &pattern));
    sim.try_run().expect("simulation completes")
}

/// The three-job interference workload of §V-D: AMG + AMR Boxlib + MiniFE
/// in parallel on the 5,256-terminal network.
pub fn run_three_jobs(
    policies: [PlacementPolicy; 3],
    routing: RoutingAlgorithm,
    sampling: Option<(SimTime, usize)>,
) -> RunData {
    let mut spec = NetworkSpec::new(DragonflyConfig::try_paper_scale(5_256).expect("paper scale"))
        .with_routing(routing)
        .with_seed(SEED);
    if let Some((w, n)) = sampling {
        spec = spec.with_sampling(w, n);
    }
    note_topology(&spec);
    let mut sim = Simulation::new(spec).with_collector(hrviz_obs::get());
    let topo = sim.topology();
    let kinds = [AppKind::Amg, AppKind::AmrBoxlib, AppKind::MiniFe];
    let requests: Vec<PlacementRequest> = kinds
        .iter()
        .zip(policies)
        .map(|(k, policy)| PlacementRequest { name: k.name().into(), ranks: k.ranks(), policy })
        .collect();
    let jobs = place_jobs(topo, &requests, SEED).expect("placement fits");
    for (kind, job_meta) in kinds.iter().zip(&jobs) {
        let cfg = AppConfig::new(*kind).with_scale(data_scale()).with_duration(app_duration());
        let id = sim.add_job(job_meta.clone());
        sim.inject_all(generate_app(id, job_meta, &cfg));
    }
    sim.try_run().expect("simulation completes")
}

/// The paper's Fig. 7/8/10 projection configuration: local-link ribbons in
/// the center, then rings of local-link / global-link / terminal-link
/// saturation aggregated by router rank.
pub fn intra_group_spec() -> ProjectionSpec {
    ProjectionSpec::new(vec![
        LevelSpec::new(EntityKind::LocalLink)
            .aggregate(&[Field::RouterRank])
            .color(Field::SatTime)
            .colors(&["white", "steelblue"]),
        LevelSpec::new(EntityKind::GlobalLink)
            .aggregate(&[Field::RouterRank, Field::RouterPort])
            .color(Field::SatTime)
            .size(Field::Traffic)
            .colors(&["white", "purple"]),
        LevelSpec::new(EntityKind::Terminal)
            .aggregate(&[Field::RouterRank, Field::RouterPort])
            .color(Field::SatTime)
            .colors(&["white", "purple"]),
    ])
    .ribbons(
        RibbonSpec::new(EntityKind::LocalLink)
            .size(Field::Traffic)
            .color(Field::SatTime)
            .colors(&["white", "steelblue"]),
    )
}

/// The paper's Fig. 9/11 configuration: global-link view aggregated by
/// group with per-terminal latency on the outside.
pub fn inter_group_spec(max_groups: usize) -> ProjectionSpec {
    ProjectionSpec::new(vec![
        LevelSpec::new(EntityKind::GlobalLink)
            .aggregate(&[Field::GroupId])
            .max_bins(max_groups)
            .color(Field::SatTime)
            .size(Field::Traffic)
            .colors(&["white", "purple"]),
        LevelSpec::new(EntityKind::LocalLink)
            .aggregate(&[Field::GroupId])
            .max_bins(max_groups)
            .color(Field::SatTime)
            .size(Field::Traffic)
            .colors(&["white", "steelblue"]),
        LevelSpec::new(EntityKind::Terminal)
            .aggregate(&[Field::RouterId])
            .color(Field::AvgLatency)
            .size(Field::AvgHops)
            .colors(&["white", "purple"]),
    ])
    .ribbons(
        RibbonSpec::new(EntityKind::GlobalLink)
            .size(Field::Traffic)
            .color(Field::SatTime)
            .colors(&["white", "purple"]),
    )
}

/// Summary row of per-class totals used by several CSVs.
pub fn class_summary(label: &str, run: &RunData) -> Vec<String> {
    vec![
        label.to_string(),
        run.class_traffic(LinkClass::Local).to_string(),
        run.class_sat_ns(LinkClass::Local).to_string(),
        run.class_traffic(LinkClass::Global).to_string(),
        run.class_sat_ns(LinkClass::Global).to_string(),
        run.class_traffic(LinkClass::Terminal).to_string(),
        run.class_sat_ns(LinkClass::Terminal).to_string(),
        format!("{:.1}", mean_latency_ns(run)),
        format!("{:.3}", mean_hops(run)),
    ]
}

/// Header matching [`class_summary`].
pub fn class_summary_header() -> Vec<String> {
    [
        "config",
        "local_traffic",
        "local_sat_ns",
        "global_traffic",
        "global_sat_ns",
        "terminal_traffic",
        "terminal_sat_ns",
        "mean_latency_ns",
        "mean_hops",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// Packet-weighted mean latency over all terminals.
pub fn mean_latency_ns(run: &RunData) -> f64 {
    let pkts: u64 = run.terminals.iter().map(|t| t.packets_finished).sum();
    if pkts == 0 {
        return 0.0;
    }
    run.terminals.iter().map(|t| t.avg_latency_ns * t.packets_finished as f64).sum::<f64>()
        / pkts as f64
}

/// Packet-weighted mean hop count.
pub fn mean_hops(run: &RunData) -> f64 {
    let pkts: u64 = run.terminals.iter().map(|t| t.packets_finished).sum();
    if pkts == 0 {
        return 0.0;
    }
    run.terminals.iter().map(|t| t.avg_hops * t.packets_finished as f64).sum::<f64>() / pkts as f64
}

/// Dataset with idle terminals dropped (paper §V-C).
pub fn dataset_active(run: &RunData) -> DataSet {
    DataSet::builder(run).drop_idle().build()
}

/// PASS/FAIL expectation reporting for the shape checks each driver runs.
pub struct Expectations {
    checks: Vec<(String, bool)>,
}

impl Expectations {
    /// Empty set.
    pub fn new() -> Expectations {
        Expectations { checks: Vec::new() }
    }

    /// Record one named check.
    pub fn check(&mut self, name: &str, ok: bool) {
        println!("  [{}] {}", if ok { "PASS" } else { "FAIL" }, name);
        self.checks.push((name.to_string(), ok));
    }

    /// Summary line; returns whether all passed. Also writes the telemetry
    /// artifacts (manifest, trace flush) when tracing is on, since drivers
    /// exit via `std::process::exit` right after.
    pub fn finish(self, what: &str) -> bool {
        write_obs_artifacts();
        let pass = self.checks.iter().filter(|c| c.1).count();
        println!("{what}: {pass}/{} expectation checks passed", self.checks.len());
        pass == self.checks.len()
    }
}

impl Default for Expectations {
    fn default() -> Self {
        Self::new()
    }
}

/// Does a file exist under out/?
pub fn exists(name: &str) -> bool {
    Path::new(&out_dir()).join(name).exists()
}
