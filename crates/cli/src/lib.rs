//! Implementation of the `hrviz` command-line tool.
//!
//! ```text
//! hrviz view    --terminals 2550 --pattern tornado --routing adaptive \
//!               [--script view.hrviz] [--svg out/view.svg]
//! hrviz trace   --in trace.csv --terminals 2550 --routing minimal \
//!               [--script view.hrviz] [--svg out/view.svg]
//! hrviz compare --terminals 2550 --pattern tornado \
//!               --routing minimal,adaptive [--store DIR] [--svg out/cmp.svg]
//! hrviz sweep   --terminals 72 --routings minimal,adaptive \
//!               --patterns uniform-random,tornado --seeds 1,2 \
//!               --store out/store --workers 4
//! hrviz check   view.hrviz
//! ```
//!
//! Argument parsing is hand-rolled (`--key value` pairs after a
//! subcommand) to keep the dependency set at zero.
//!
//! [`run`] returns a typed [`RunOutput`] — summary text, the artifact
//! paths the command wrote, and named numeric metrics — whose `Display`
//! form is exactly the text older versions returned as a bare `String`.
//!
//! Every failure is a structured [`HrvizError`]; `main` maps the error
//! class to a distinct nonzero exit code (usage 2, config 3, io 4,
//! parse 5, sim 6).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use hrviz_core::{
    build_view, compare_views, compare_views_cached, parse_script, AggregateCache, DataKey,
    DataSet, EntityKind, Field, LevelSpec, ProjectionGraph, ProjectionSpec, ProjectionView,
    RibbonSpec, ViewRequest,
};
use hrviz_network::{
    CheckpointOptions, DragonflyConfig, FaultSchedule, HrvizError, JobMeta, LinkClass, NetworkSpec,
    RoutingAlgorithm, RunData, Simulation, TerminalId,
};
use hrviz_obs::{Collector, LogLevel};
use hrviz_pdes::SimTime;
use hrviz_render::{render_radial, render_radial_row, RadialLayout};
use hrviz_serve::{install_signal_shutdown, ServeConfig, Server};
use hrviz_stream::fsio::atomic_write;
use hrviz_sweep::{
    dragonfly_of, read_progress, read_slices, AbortSpec, FaultAxis, RunStore, StoredManifest,
    StreamOptions, SweepEngine, SweepOptions, SweepSpec, TopologyAxis,
};
use hrviz_workloads::{generate_synthetic, load_trace, SyntheticConfig, TrafficPattern};
use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;

/// A parsed command line: subcommand + `--key value` options.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cli {
    /// The subcommand (`view`, `trace`, `compare`, `check`).
    pub command: String,
    /// Positional arguments after the subcommand.
    pub positional: Vec<String>,
    /// `--key value` options.
    pub options: BTreeMap<String, String>,
}

fn err<T>(msg: impl Into<String>) -> Result<T, HrvizError> {
    Err(HrvizError::usage(msg))
}

/// The typed result of a CLI command.
///
/// `Display` reproduces the exact text the old `run -> String` API
/// returned: the summary, then one `wrote <path>` line per artifact.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunOutput {
    /// Human-readable summary (ends with a newline when artifacts follow).
    pub summary: String,
    /// Files or directories the command wrote, in creation order.
    pub artifacts: Vec<PathBuf>,
    /// Named numeric results (event counts, byte totals, cache counters).
    pub metrics: Vec<(String, f64)>,
}

impl RunOutput {
    /// An output that is pure text (no artifacts, no metrics).
    pub fn text(summary: impl Into<String>) -> RunOutput {
        RunOutput { summary: summary.into(), ..RunOutput::default() }
    }

    /// Append an artifact path.
    pub fn artifact(mut self, path: impl Into<PathBuf>) -> RunOutput {
        self.artifacts.push(path.into());
        self
    }

    /// Append a named metric.
    pub fn metric(mut self, name: impl Into<String>, value: f64) -> RunOutput {
        self.metrics.push((name.into(), value));
        self
    }

    /// Look up a metric by name.
    pub fn metric_value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

impl fmt::Display for RunOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.summary)?;
        for (i, path) in self.artifacts.iter().enumerate() {
            if i > 0 {
                f.write_str("\n")?;
            }
            write!(f, "wrote {}", path.display())?;
        }
        Ok(())
    }
}

/// Flags that take no value: presence alone means `true`.
const BOOL_FLAGS: &[&str] = &["resume"];

/// Parse an argument vector (without the program name).
pub fn parse_args(args: &[String]) -> Result<Cli, HrvizError> {
    let Some(command) = args.first() else {
        return err(USAGE);
    };
    let mut positional = Vec::new();
    let mut options = BTreeMap::new();
    let mut i = 1;
    while let Some(a) = args.get(i) {
        if let Some(key) = a.strip_prefix("--") {
            if BOOL_FLAGS.contains(&key) {
                options.insert(key.to_string(), "true".to_string());
                i += 1;
                continue;
            }
            let Some(value) = args.get(i + 1) else {
                return err(format!("--{key} needs a value"));
            };
            options.insert(key.to_string(), value.clone());
            i += 2;
        } else {
            positional.push(a.clone());
            i += 1;
        }
    }
    Ok(Cli { command: command.clone(), positional, options })
}

/// Usage text.
pub const USAGE: &str = "usage: hrviz <view|trace|compare|sweep|serve|fsck|watch|check> [options]
  view    --terminals N --pattern P --routing R [--msgs N] [--bytes N]
          [--period-us N] [--script FILE] [--svg FILE] [--seed N]
          [--lod 0..2] [--max-depth N] [--max-items N] [--page-size N]
          (the projection graph lands next to the SVG as FILE.graph.json)
          [--checkpoint-every US --store DIR (periodic engine checkpoints
           into <store>/checkpoints/)] [--restore-from FILE (resume a
           checkpointed run; bit-identical to straight-through)]
  trace   --in FILE --terminals N --routing R [--script FILE] [--svg FILE]
  compare --terminals N --pattern P --routing R1,R2[,..] [--script FILE] [--svg FILE]
          [--lod 0..2] [--max-depth N] [--max-items N] [--page-size N]
          [--store DIR (reuse/persist runs in a content-addressed store)]
          [--workers N]
  sweep   --terminals N | --fattree K
          [--routings R1,R2[,..]] [--patterns P1,P2[,..]] [--seeds S1,S2[,..]]
          [--store DIR] [--workers N] [--report DIR] [--name NAME]
          [--msgs N] [--bytes N] [--period-us N]
          [--resume (skip completed runs, retry failed/orphaned ones with
           deterministic seeded backoff — safe after a kill -9)]
          [--slice-every-us N (live telemetry: seal a counter slice per N
           microseconds of virtual time into each run's slices/ dir)]
          [--abort-policy saturation[:PERMILLE:WINDOWS] (cancel runs the
           policy judges saturated; implies --slice-every-us 5)]
          (--faults FILE sweeps a faulty axis point next to the healthy one)
  fsck    --store DIR (run the store recovery pass and print its JSON
          report; a dirty store — quarantines, orphans, failures — exits 7)
  watch   --store DIR --run ID [--poll-ms N] [--max-s N]
          (tail a streamed run's sealed slices until it turns terminal)
  serve   --store DIR [--addr HOST:PORT] [--workers N] [--queue-depth N]
          [--max-conns N] [--timeout-ms N] [--keepalive-requests N]
          (HTTP endpoints: /runs /runs/{id}/columns/{field} /views /compare
           /runs/{id}/progress /runs/{id}/stream /healthz /metricsz;
           SIGINT drains and exits 0)
  check   FILE
common: --trace-out FILE (write a JSONL telemetry trace; a Chrome
          trace-event file lands next to it as FILE.chrome.json —
          $HRVIZ_TRACE=1|PATH does the same without the flag)
        --log-level error|warn|info|debug|trace
sim:    --faults FILE (fault schedule JSON, applied to every run)
        --hop-limit N (per-packet hop budget before a counted drop, default 16)
patterns: uniform-random nearest-neighbor all-to-all transpose
          bit-complement tornado permutation
routings: minimal nonminimal adaptive progressive-adaptive";

/// Flags every subcommand accepts.
const COMMON_FLAGS: &[&str] = &["trace-out", "log-level"];

/// The per-subcommand flag allowlist (`None` = unknown subcommand, reported
/// separately by [`run`]).
fn allowed_flags(command: &str) -> Option<&'static [&'static str]> {
    match command {
        "view" => Some(&[
            "terminals",
            "pattern",
            "routing",
            "msgs",
            "bytes",
            "period-us",
            "seed",
            "stride",
            "script",
            "svg",
            "faults",
            "hop-limit",
            "checkpoint-every",
            "restore-from",
            "store",
            "lod",
            "max-depth",
            "max-items",
            "page-size",
        ]),
        "compare" => Some(&[
            "terminals",
            "pattern",
            "routing",
            "msgs",
            "bytes",
            "period-us",
            "seed",
            "stride",
            "script",
            "svg",
            "faults",
            "hop-limit",
            "store",
            "workers",
            "lod",
            "max-depth",
            "max-items",
            "page-size",
        ]),
        "sweep" => Some(&[
            "terminals",
            "fattree",
            "pattern",
            "patterns",
            "routing",
            "routings",
            "seeds",
            "msgs",
            "bytes",
            "period-us",
            "faults",
            "store",
            "workers",
            "report",
            "name",
            "resume",
            "slice-every-us",
            "abort-policy",
        ]),
        "fsck" => Some(&["store"]),
        "watch" => Some(&["store", "run", "poll-ms", "max-s"]),
        "serve" => Some(&[
            "store",
            "addr",
            "workers",
            "queue-depth",
            "max-conns",
            "timeout-ms",
            "keepalive-requests",
        ]),
        "trace" => Some(&["in", "terminals", "routing", "script", "svg", "faults", "hop-limit"]),
        "check" => Some(&[]),
        "help" | "--help" | "-h" => Some(&[]),
        _ => None,
    }
}

/// Reject flags the subcommand does not understand, naming the ones it does.
fn validate_flags(cli: &Cli) -> Result<(), HrvizError> {
    let Some(allowed) = allowed_flags(&cli.command) else {
        return Ok(()); // unknown subcommand: handled with its own error
    };
    for key in cli.options.keys() {
        if !allowed.contains(&key.as_str()) && !COMMON_FLAGS.contains(&key.as_str()) {
            let mut known: Vec<&str> = allowed.iter().chain(COMMON_FLAGS).copied().collect();
            known.sort_unstable();
            let listed: Vec<String> = known.iter().map(|f| format!("--{f}")).collect();
            return err(format!(
                "unknown flag --{key} for '{}'; accepted flags: {}",
                cli.command,
                listed.join(" ")
            ));
        }
    }
    Ok(())
}

/// Build the run's collector from `--trace-out` / `--log-level` /
/// `$HRVIZ_TRACE`. Any of them enables telemetry; with no trace file,
/// events go to an in-memory sink and logs still reach stderr. Returns
/// the trace path (when one is being written) so [`run`] can drop the
/// Chrome trace-event export next to it on exit.
fn collector_of(cli: &Cli) -> Result<(Collector, Option<PathBuf>), HrvizError> {
    // The flag wins over the environment, matching the bench harness.
    let trace_out =
        cli.options.get("trace-out").cloned().or_else(|| match std::env::var("HRVIZ_TRACE") {
            Ok(v) if v == "1" => Some("out/trace.jsonl".into()),
            Ok(v) if !v.is_empty() => Some(v),
            _ => None,
        });
    let log_level = cli.options.get("log-level");
    let (c, trace_path) = match trace_out {
        Some(path) => {
            let path = PathBuf::from(path);
            let c = Collector::with_trace_file(&path)
                .map_err(|e| HrvizError::io(path.display().to_string(), e))?;
            (c, Some(path))
        }
        None if log_level.is_some() => (Collector::enabled(), None),
        None => (Collector::disabled(), None),
    };
    if let Some(lv) = log_level {
        let level = LogLevel::parse(lv).ok_or_else(|| {
            HrvizError::usage(format!(
                "unknown log level {lv:?}; use error, warn, info, debug or trace"
            ))
        })?;
        c.set_level(level);
    }
    Ok((c, trace_path))
}

fn routing_of(s: &str) -> Result<RoutingAlgorithm, HrvizError> {
    Ok(match s {
        "minimal" => RoutingAlgorithm::Minimal,
        "nonminimal" | "valiant" => RoutingAlgorithm::NonMinimal,
        "adaptive" | "ugal" => RoutingAlgorithm::adaptive_default(),
        "progressive-adaptive" | "par" => RoutingAlgorithm::par_default(),
        other => return err(format!("unknown routing {other:?}")),
    })
}

fn pattern_of(s: &str) -> Result<TrafficPattern, HrvizError> {
    Ok(match s {
        "uniform-random" | "ur" => TrafficPattern::UniformRandom,
        "nearest-neighbor" | "nn" => TrafficPattern::NearestNeighbor,
        "all-to-all" => TrafficPattern::AllToAll,
        "transpose" => TrafficPattern::Transpose,
        "bit-complement" => TrafficPattern::BitComplement,
        "tornado" => TrafficPattern::Tornado,
        "permutation" => TrafficPattern::Permutation,
        other => return err(format!("unknown pattern {other:?}")),
    })
}

fn terminals_of(cli: &Cli) -> Result<DragonflyConfig, HrvizError> {
    let n: u32 = cli
        .options
        .get("terminals")
        .ok_or_else(|| HrvizError::usage("--terminals is required"))?
        .parse()
        .map_err(|_| HrvizError::usage("--terminals must be a number"))?;
    match n {
        2_550 | 5_256 | 9_702 => DragonflyConfig::try_paper_scale(n),
        _ => {
            // Find the canonical h whose terminal count matches, else error.
            for h in 1..=16 {
                let c = DragonflyConfig::canonical(h);
                if c.num_terminals() == n {
                    return Ok(c);
                }
            }
            Err(HrvizError::config(format!(
                "no canonical Dragonfly with {n} terminals; use a paper scale \
                 (2550/5256/9702) or a canonical size (g*a*p for a=2h, p=h)"
            )))
        }
    }
}

fn u64_opt(cli: &Cli, key: &str, default: u64) -> Result<u64, HrvizError> {
    match cli.options.get(key) {
        Some(v) => v.parse().map_err(|_| HrvizError::usage(format!("--{key} must be a number"))),
        None => Ok(default),
    }
}

/// The sweep topology: `--terminals N` (Dragonfly) or `--fattree K`.
fn topology_of(cli: &Cli) -> Result<TopologyAxis, HrvizError> {
    match (cli.options.get("terminals"), cli.options.get("fattree")) {
        (Some(_), Some(_)) => err("--terminals and --fattree are mutually exclusive"),
        (Some(n), None) => {
            let terminals =
                n.parse().map_err(|_| HrvizError::usage("--terminals must be a number"))?;
            dragonfly_of(terminals)?; // validate the size eagerly
            Ok(TopologyAxis::Dragonfly { terminals })
        }
        (None, Some(k)) => Ok(TopologyAxis::FatTree {
            k: k.parse().map_err(|_| HrvizError::usage("--fattree must be a number"))?,
        }),
        (None, None) => err("--terminals N or --fattree K is required"),
    }
}

/// First present of `keys`, split on commas.
fn csv_opt<'a>(cli: &'a Cli, keys: &[&str]) -> Option<Vec<&'a str>> {
    keys.iter()
        .find_map(|k| cli.options.get(*k))
        .map(|v| v.split(',').map(str::trim).filter(|s| !s.is_empty()).collect())
}

/// Shared sweep-grid parsing for `sweep` and `compare --store`. When
/// `fault_baseline` is set, `--faults FILE` sweeps the schedule *next to*
/// a healthy axis point (doubling the grid); otherwise the schedule is the
/// only fault axis point, matching `--faults` semantics elsewhere.
fn sweep_spec_of(
    cli: &Cli,
    default_name: &str,
    fault_baseline: bool,
) -> Result<SweepSpec, HrvizError> {
    let routings: Vec<RoutingAlgorithm> = csv_opt(cli, &["routings", "routing"])
        .unwrap_or_else(|| vec!["minimal"])
        .into_iter()
        .map(routing_of)
        .collect::<Result<_, _>>()?;
    let patterns: Vec<TrafficPattern> = csv_opt(cli, &["patterns", "pattern"])
        .unwrap_or_else(|| vec!["uniform-random"])
        .into_iter()
        .map(pattern_of)
        .collect::<Result<_, _>>()?;
    let seeds: Vec<u64> = match csv_opt(cli, &["seeds", "seed"]) {
        None => vec![42],
        Some(list) => list
            .into_iter()
            .map(|s| s.parse().map_err(|_| HrvizError::usage("--seeds must be numbers")))
            .collect::<Result<_, _>>()?,
    };
    let name = cli.options.get("name").cloned().unwrap_or_else(|| default_name.to_string());
    let mut spec = SweepSpec::new(name, topology_of(cli)?)
        .routings(routings)
        .patterns(patterns)
        .seeds(seeds)
        .msgs_per_rank(u64_opt(cli, "msgs", 16)? as u32)
        .msg_bytes(u64_opt(cli, "bytes", 16 * 1024)? as u32)
        .period(SimTime::micros(u64_opt(cli, "period-us", 4)?));
    if let Some(path) = cli.options.get("faults") {
        let schedule = FaultSchedule::from_file(path)?;
        let faulted = FaultAxis::schedule("faulted", schedule);
        spec = spec.faults(if fault_baseline {
            vec![FaultAxis::none(), faulted]
        } else {
            vec![faulted]
        });
    }
    Ok(spec)
}

/// Summary block for a run loaded from the store (same shape as
/// [`summarize`], minus the per-class rows the manifest does not keep).
fn summarize_manifest(m: &StoredManifest) -> String {
    let mut s = format!(
        "events {}  end {} ns  delivered {}/{} bytes\n",
        m.events_processed, m.end_time_ns, m.delivered, m.injected,
    );
    if m.dropped > 0 || m.rerouted > 0 {
        s.push_str(&format!(
            "  faults: dropped {} packet(s)  rerouted {} packet(s)\n",
            m.dropped, m.rerouted
        ));
    }
    s
}

/// The default projection script applied when `--script` is omitted.
pub const DEFAULT_SCRIPT: &str = r#"
{ project : "local_link",
  aggregate : "router_rank",
  vmap : { color : "sat_time" },
  colors : ["white", "steelblue"],
  ribbons : { project : "local_link", size : "traffic", color : "sat_time" } },
{ project : "global_link",
  aggregate : ["router_rank", "router_port"],
  vmap : { color : "sat_time", size : "traffic" },
  colors : ["white", "purple"] },
{ project : "terminal",
  aggregate : ["router_id"],
  vmap : { color : "avg_latency", size : "avg_hops" },
  colors : ["white", "purple"] }
"#;

fn spec_of(cli: &Cli) -> Result<ProjectionSpec, HrvizError> {
    match cli.options.get("script") {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| HrvizError::io(path.clone(), e))?;
            parse_script(&text).map_err(|e| HrvizError::parse(path.clone(), e.to_string()))
        }
        None => parse_script(DEFAULT_SCRIPT)
            .map_err(|e| HrvizError::parse("default script", e.to_string())),
    }
}

/// Map CLI flags to request-parameter keys (`--max-depth` → `max_depth`).
const REQUEST_FLAGS: &[(&str, &str)] = &[
    ("lod", "lod"),
    ("max-depth", "max_depth"),
    ("max-items", "max_items"),
    ("page-size", "page_size"),
];

/// Parse the view/compare request through the same typed path serve uses
/// ([`ViewRequest::parse`]): one code path decides what a valid `--lod`,
/// `--max-depth` or `--page-size` is on both surfaces.
fn view_request_of(cli: &Cli, compare: bool) -> Result<ViewRequest, HrvizError> {
    let (script, origin) = match cli.options.get("script") {
        Some(path) => (
            std::fs::read_to_string(path).map_err(|e| HrvizError::io(path.clone(), e))?,
            path.clone(),
        ),
        None => (DEFAULT_SCRIPT.to_string(), "default script".to_string()),
    };
    let mut params = BTreeMap::new();
    for (flag, key) in REQUEST_FLAGS {
        if let Some(v) = cli.options.get(*flag) {
            params.insert((*key).to_string(), v.clone());
        }
    }
    ViewRequest::parse(&params, &script, compare, false).map_err(|e| {
        if e.code == "bad_script" {
            HrvizError::parse(origin.clone(), e.message.clone())
        } else {
            HrvizError::usage(format!("--{}: {}", e.field.replace('_', "-"), e.message))
        }
    })
}

/// Build the projection graph for a simulation-backed view/compare and
/// write its envelope (the same schema-2 page serve answers) next to the
/// SVG as `<svg>.graph.json`. With `--page-size 0` (the default) the
/// envelope holds every node; otherwise the first page.
fn write_graph(
    svg_path: &str,
    vreq: &ViewRequest,
    single: Option<&ProjectionView>,
    labeled: &[(&str, &ProjectionView)],
) -> Result<(PathBuf, usize), HrvizError> {
    let source_hash =
        hrviz_obs::fingerprint64(&format!("|{:016x}", hrviz_obs::fingerprint64(&vreq.script)));
    let graph = match single {
        Some(view) => ProjectionGraph::build(view, &vreq.policy, source_hash),
        None => ProjectionGraph::build_compare(labeled, &vreq.policy, source_hash),
    };
    let body = graph.page_to_json(0, vreq.page_size, None).render();
    let path = std::path::Path::new(svg_path).with_extension("graph.json");
    std::fs::write(&path, body).map_err(|e| HrvizError::io(path.display().to_string(), e))?;
    Ok((path, graph.len()))
}

fn summarize(run: &RunData) -> String {
    let pkts: u64 = run.terminals.iter().map(|t| t.packets_finished).sum();
    let lat =
        run.terminals.iter().map(|t| t.avg_latency_ns * t.packets_finished as f64).sum::<f64>()
            / pkts.max(1) as f64;
    let mut s = format!(
        "events {}  end {}  delivered {}/{} bytes  mean latency {:.1} us\n",
        run.events_processed,
        run.end_time,
        run.total_delivered(),
        run.total_injected(),
        lat / 1e3,
    );
    for class in LinkClass::ALL {
        s.push_str(&format!(
            "  {:<8} traffic {:>14} B  saturation {:>14} ns\n",
            class.label(),
            run.class_traffic(class),
            run.class_sat_ns(class)
        ));
    }
    if run.total_dropped() > 0 || run.total_rerouted() > 0 {
        s.push_str(&format!(
            "  faults: dropped {} packet(s)  rerouted {} packet(s)\n",
            run.total_dropped(),
            run.total_rerouted()
        ));
    }
    s
}

/// Apply `--faults` / `--hop-limit` to a network spec + simulation pair.
fn faulted_sim(cli: &Cli, mut spec: NetworkSpec) -> Result<Simulation, HrvizError> {
    if let Some(v) = cli.options.get("hop-limit") {
        spec.hop_limit =
            v.parse().map_err(|_| HrvizError::usage("--hop-limit must be a number in 1..=255"))?;
    }
    let mut sim = Simulation::try_new(spec)?;
    if let Some(path) = cli.options.get("faults") {
        sim = sim.with_faults(FaultSchedule::from_file(path)?);
    }
    Ok(sim)
}

fn simulate(cli: &Cli, routing: RoutingAlgorithm) -> Result<RunData, HrvizError> {
    Ok(simulate_checkpointed(cli, routing)?.0)
}

/// Like [`simulate`], honoring `--checkpoint-every` / `--restore-from`:
/// periodic engine snapshots land in `<store>/checkpoints/` (written
/// with [`atomic_write`]) and the returned paths are reported as artifacts.
fn simulate_checkpointed(
    cli: &Cli,
    routing: RoutingAlgorithm,
) -> Result<(RunData, Vec<PathBuf>), HrvizError> {
    let cfg = terminals_of(cli)?;
    let pattern = pattern_of(
        cli.options.get("pattern").ok_or_else(|| HrvizError::usage("--pattern is required"))?,
    )?;
    let msgs = u64_opt(cli, "msgs", 16)? as u32;
    let bytes = u64_opt(cli, "bytes", 16 * 1024)? as u32;
    let period = SimTime::micros(u64_opt(cli, "period-us", 4)?);
    let seed = u64_opt(cli, "seed", 42)?;
    let spec = NetworkSpec::new(cfg).with_routing(routing).with_seed(seed);
    let mut sim = faulted_sim(cli, spec)?;
    let all: Vec<TerminalId> = (0..cfg.num_terminals()).map(TerminalId).collect();
    let meta = JobMeta { name: pattern.name().into(), terminals: all };
    let job = sim.add_job(meta.clone());
    let mut scfg =
        SyntheticConfig { pattern, msg_bytes: bytes, msgs_per_rank: msgs, period, stride: 1, seed };
    if let Some(s) = cli.options.get("stride") {
        scfg.stride = s.parse().map_err(|_| HrvizError::usage("--stride must be a number"))?;
    }
    sim.inject_all(generate_synthetic(job, &meta, &scfg));
    let sim = sim.with_collector(hrviz_obs::get());

    let every = match cli.options.get("checkpoint-every") {
        Some(v) => Some(SimTime::micros(v.parse().map_err(|_| {
            HrvizError::usage("--checkpoint-every must be a number of microseconds")
        })?)),
        None => None,
    };
    let restore = match cli.options.get("restore-from") {
        Some(p) => Some(std::fs::read(p).map_err(|e| HrvizError::io(p.clone(), e))?),
        None => None,
    };
    if every.is_none() && restore.is_none() {
        return Ok((sim.try_run()?, Vec::new()));
    }
    let store_dir = cli.options.get("store").cloned().unwrap_or_else(|| "out/store".to_string());
    let dir = PathBuf::from(&store_dir).join("checkpoints");
    std::fs::create_dir_all(&dir).map_err(|e| HrvizError::io(dir.display().to_string(), e))?;
    let label = format!("{}-{}-{}t-s{seed}", pattern.name(), routing.name(), cfg.num_terminals());
    let mut written = Vec::new();
    let run = sim.try_run_checkpointed(
        CheckpointOptions { restore_from: restore.as_deref(), every },
        &mut |t, snap| {
            let path = dir.join(format!("{label}-t{:020}.ckpt", t.as_nanos()));
            atomic_write(&path, snap)?;
            written.push(path);
            Ok(())
        },
    )?;
    Ok((run, written))
}

fn write_svg(cli: &Cli, default_name: &str, svg: String) -> Result<String, HrvizError> {
    let fallback = format!("out/{default_name}");
    let path = cli.options.get("svg").cloned().unwrap_or(fallback);
    if let Some(dir) = std::path::Path::new(&path).parent() {
        std::fs::create_dir_all(dir).ok();
    }
    std::fs::write(&path, svg).map_err(|e| HrvizError::io(path.clone(), e))?;
    Ok(path)
}

/// Run metrics shared by `view` and `trace`.
fn run_metrics(out: RunOutput, run: &RunData) -> RunOutput {
    out.metric("events", run.events_processed as f64)
        .metric("delivered_bytes", run.total_delivered() as f64)
        .metric("injected_bytes", run.total_injected() as f64)
        .metric("dropped_packets", run.total_dropped() as f64)
        .metric("rerouted_packets", run.total_rerouted() as f64)
}

/// `--slice-every-us` / `--abort-policy` → [`StreamOptions`]. Either flag
/// enables streaming; an abort policy without an explicit window defaults
/// to 5 µs slices (a policy needs slices to observe).
fn stream_options_of(cli: &Cli) -> Result<Option<StreamOptions>, HrvizError> {
    let window_us = cli
        .options
        .get("slice-every-us")
        .map(|w| {
            w.parse::<u64>()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| HrvizError::usage("--slice-every-us must be a positive number"))
        })
        .transpose()?;
    let abort = cli.options.get("abort-policy").map(|p| AbortSpec::parse(p)).transpose()?;
    Ok(match (window_us, abort) {
        (None, None) => None,
        (window_us, abort) => {
            Some(StreamOptions { window: SimTime::micros(window_us.unwrap_or(5)), abort })
        }
    })
}

/// Run a parsed command.
pub fn run(cli: &Cli) -> Result<RunOutput, HrvizError> {
    validate_flags(cli)?;
    let (mut collector, trace_path) = collector_of(cli)?;
    // A server's /metricsz must be live regardless of tracing flags.
    if cli.command == "serve" && !collector.is_enabled() {
        collector = Collector::enabled();
    }
    hrviz_obs::install(collector.clone());
    let mut result = dispatch(cli);
    // Final snapshot + flush even on error paths: a failed run's trace
    // is exactly the one worth keeping.
    collector.finalize().map_err(|e| HrvizError::io("trace output", e))?;
    if let Some(path) = trace_path {
        let chrome_path = path.with_extension("chrome.json");
        let wrote = hrviz_obs::chrome::export(&collector, &chrome_path)
            .map_err(|e| HrvizError::io(chrome_path.display().to_string(), e))?;
        if wrote {
            if let Ok(out) = &mut result {
                out.artifacts.push(chrome_path);
            }
        }
    }
    result
}

fn dispatch(cli: &Cli) -> Result<RunOutput, HrvizError> {
    match cli.command.as_str() {
        "view" => {
            let routing =
                routing_of(cli.options.get("routing").map(String::as_str).unwrap_or("adaptive"))?;
            let (run, checkpoints) = simulate_checkpointed(cli, routing)?;
            let vreq = view_request_of(cli, false)?;
            let ds = DataSet::builder(&run).build();
            let view =
                build_view(&ds, &vreq.spec).map_err(|e| HrvizError::config(e.to_string()))?;
            let svg = render_radial(&view, &RadialLayout::default(), "hrviz view");
            let path = write_svg(cli, "view.svg", svg)?;
            let (graph_path, graph_nodes) = write_graph(&path, &vreq, Some(&view), &[])?;
            let n_ckpts = checkpoints.len();
            let mut out = RunOutput::text(summarize(&run)).artifact(path).artifact(graph_path);
            out.artifacts.extend(checkpoints);
            let out = out.metric("graph_nodes", graph_nodes as f64);
            let mut out = run_metrics(out, &run);
            if n_ckpts > 0 || cli.options.contains_key("restore-from") {
                out = out.metric("checkpoints", n_ckpts as f64);
            }
            Ok(out)
        }
        "trace" => {
            let input =
                cli.options.get("in").ok_or_else(|| HrvizError::usage("--in is required"))?;
            let msgs = load_trace(std::path::Path::new(input))
                .map_err(|e| HrvizError::parse(input.clone(), e.to_string()))?;
            let cfg = terminals_of(cli)?;
            // The trace is outside input: a terminal past the network is a
            // parse error, not an injection panic.
            let n = cfg.num_terminals();
            if let Some((i, m)) = msgs.iter().enumerate().find(|(_, m)| m.src.0.max(m.dst.0) >= n) {
                return Err(HrvizError::parse(
                    input.clone(),
                    format!(
                        "message {} ({} -> {}) names a terminal outside the {n}-terminal network",
                        i + 1,
                        m.src.0,
                        m.dst.0
                    ),
                ));
            }
            let routing =
                routing_of(cli.options.get("routing").map(String::as_str).unwrap_or("adaptive"))?;
            let mut sim = faulted_sim(cli, NetworkSpec::new(cfg).with_routing(routing))?
                .with_collector(hrviz_obs::get());
            sim.inject_all(msgs);
            let run = sim.try_run()?;
            let spec = spec_of(cli)?;
            let ds = DataSet::builder(&run).build();
            let view = build_view(&ds, &spec).map_err(|e| HrvizError::config(e.to_string()))?;
            let svg = render_radial(&view, &RadialLayout::default(), input);
            let path = write_svg(cli, "trace.svg", svg)?;
            Ok(run_metrics(RunOutput::text(summarize(&run)).artifact(path), &run))
        }
        "compare" => {
            let routings: Vec<RoutingAlgorithm> = cli
                .options
                .get("routing")
                .ok_or_else(|| HrvizError::usage("--routing R1,R2 is required"))?
                .split(',')
                .map(routing_of)
                .collect::<Result<_, _>>()?;
            if routings.len() < 2 {
                return err("compare needs at least two routings (comma-separated)");
            }
            if cli.options.contains_key("store") {
                return compare_from_store(cli, &routings);
            }
            let vreq = view_request_of(cli, true)?;
            let runs: Vec<RunData> =
                routings.iter().map(|&r| simulate(cli, r)).collect::<Result<_, _>>()?;
            let datasets: Vec<DataSet> = runs.iter().map(|r| DataSet::builder(r).build()).collect();
            let refs: Vec<&DataSet> = datasets.iter().collect();
            let views =
                compare_views(&refs, &vreq.spec).map_err(|e| HrvizError::config(e.to_string()))?;
            let labeled: Vec<(&_, &str)> =
                views.iter().zip(routings.iter().map(|r| r.name())).collect();
            let svg = render_radial_row(&labeled, &RadialLayout::default(), "hrviz compare");
            let path = write_svg(cli, "compare.svg", svg)?;
            let named: Vec<(&str, &ProjectionView)> =
                routings.iter().map(|r| r.name()).zip(views.iter()).collect();
            let (graph_path, graph_nodes) = write_graph(&path, &vreq, None, &named)?;
            let mut out = String::new();
            for (r, run) in routings.iter().zip(&runs) {
                out.push_str(&format!("--- {} ---\n{}", r.name(), summarize(run)));
            }
            let mut typed = RunOutput::text(out)
                .artifact(path)
                .artifact(graph_path)
                .metric("graph_nodes", graph_nodes as f64);
            for (r, run) in routings.iter().zip(&runs) {
                typed = typed.metric(format!("{}/events", r.name()), run.events_processed as f64);
            }
            Ok(typed)
        }
        "sweep" => {
            let spec = sweep_spec_of(cli, "cli", true)?;
            let workers = u64_opt(cli, "workers", 0)? as usize;
            let resume = cli.options.contains_key("resume");
            let store_dir =
                cli.options.get("store").cloned().unwrap_or_else(|| "out/store".to_string());
            let engine = SweepEngine::new(RunStore::open(&store_dir)?).with_workers(workers);
            let stream = stream_options_of(cli)?;
            let base = if resume { SweepOptions::resume() } else { SweepOptions::default() };
            let opts = SweepOptions { stream, ..base };
            let outcome = engine.run_with(&spec, &opts)?;
            let report_dir = cli.options.get("report").cloned().unwrap_or_else(|| "out".into());
            let report = outcome.write(std::path::Path::new(&report_dir))?;
            let mut summary = format!(
                "sweep {}: {} configs, {} cached, {} simulated on {} worker(s)\n\
                 events {}  store generation {}\n",
                outcome.name,
                outcome.configs,
                outcome.store_hits,
                outcome.store_misses,
                outcome.workers,
                outcome.events_simulated,
                outcome.generation,
            );
            if resume {
                summary.push_str(&format!(
                    "resume: {} interrupted run(s) retried, {} extra attempt(s)\n",
                    outcome.resumed_runs, outcome.retries,
                ));
            }
            if stream.is_some() || outcome.aborted > 0 {
                summary
                    .push_str(&format!("stream: {} run(s) aborted by policy\n", outcome.aborted));
            }
            Ok(RunOutput::text(summary)
                .artifact(report)
                .artifact(store_dir)
                .metric("configs", outcome.configs as f64)
                .metric("store_hits", outcome.store_hits as f64)
                .metric("store_misses", outcome.store_misses as f64)
                .metric("resumed_runs", outcome.resumed_runs as f64)
                .metric("retries", outcome.retries as f64)
                .metric("aborted", outcome.aborted as f64)
                .metric("events_simulated", outcome.events_simulated as f64))
        }
        "fsck" => {
            let Some(store_dir) = cli.options.get("store") else {
                return err("fsck needs --store DIR (a sweep run store)");
            };
            // Opening the store *is* the recovery pass: torn runs move to
            // quarantine, stray temp files are reaped, the counter is
            // validated, and the report lands as <store>/fsck_report.json.
            let store = RunStore::open(store_dir)?;
            let Some(report) = store.last_fsck() else {
                return Err(HrvizError::config("store open did not produce an fsck report"));
            };
            let summary = report.to_json().render() + "\n";
            if !report.is_clean() {
                eprint!("{summary}");
                return Err(HrvizError::gate(format!(
                    "store {store_dir} is dirty: {} quarantined, {} orphaned, {} failed, \
                     {} queued{} — run `hrviz sweep --resume` to recover",
                    report.quarantined.len(),
                    report.running_orphans.len(),
                    report.failed.len(),
                    report.queued.len(),
                    if report.generation_reset { ", generation reset" } else { "" },
                )));
            }
            Ok(RunOutput::text(summary)
                .metric("scanned", report.scanned as f64)
                .metric("completed", report.completed as f64)
                .metric("quarantined", report.quarantined.len() as f64)
                .metric("tmp_removed", report.tmp_removed as f64))
        }
        "watch" => {
            let Some(store_dir) = cli.options.get("store") else {
                return err("watch needs --store DIR (a sweep run store)");
            };
            let Some(run) = cli.options.get("run") else {
                return err("watch needs --run ID (16 hex digits)");
            };
            let poll_ms = u64_opt(cli, "poll-ms", 200)?.max(1);
            let max_s = u64_opt(cli, "max-s", 60)?.max(1);
            let store = RunStore::open(store_dir)?;
            let dir = store.run_dir(run);
            let mut next_seq = 0u64;
            let mut out = String::new();
            // Bounded by iteration count, not a wall-clock deadline: the
            // watch always terminates even against a stalled producer.
            let mut rounds_left = max_s.saturating_mul(1000) / poll_ms;
            let last = loop {
                let Some(progress) = read_progress(&dir)? else {
                    return err(format!(
                        "run {run:?} has no live telemetry (batch-mode run, or not in {store_dir}); \
                         sweep with --slice-every-us to stream it"
                    ));
                };
                for slice in read_slices(&dir, next_seq)? {
                    out.push_str(&format!(
                        "slice {:>4}  t [{:>10}..{:>10}) ns  injected {:>9} B  \
                         delivered {:>9} B  dropped {:>4}\n",
                        slice.seq,
                        slice.t_start_ns,
                        slice.t_end_ns,
                        slice.injected_bytes,
                        slice.delivered_bytes,
                        slice.dropped_packets,
                    ));
                    next_seq = slice.seq + 1;
                }
                if (progress.is_terminal() && next_seq >= progress.sealed) || rounds_left == 0 {
                    break progress;
                }
                rounds_left -= 1;
                std::thread::sleep(std::time::Duration::from_millis(poll_ms));
            };
            out.push_str(&format!(
                "run {run}: {} — {} slice(s) sealed, virtual time {} ns\n",
                last.state, last.sealed, last.virtual_ns
            ));
            Ok(RunOutput::text(out)
                .metric("slices", next_seq as f64)
                .metric("terminal", if last.is_terminal() { 1.0 } else { 0.0 }))
        }
        "serve" => {
            let Some(store_dir) = cli.options.get("store") else {
                return err("serve needs --store DIR (a sweep run store)");
            };
            let cfg = ServeConfig {
                addr: cli
                    .options
                    .get("addr")
                    .cloned()
                    .unwrap_or_else(|| ServeConfig::default().addr),
                workers: u64_opt(cli, "workers", ServeConfig::default().workers as u64)? as usize,
                queue_depth: u64_opt(cli, "queue-depth", ServeConfig::default().queue_depth as u64)?
                    as usize,
                max_conns: u64_opt(cli, "max-conns", ServeConfig::default().max_conns as u64)?
                    as usize,
                timeout_ms: u64_opt(cli, "timeout-ms", ServeConfig::default().timeout_ms)?,
                keepalive_requests: u64_opt(
                    cli,
                    "keepalive-requests",
                    ServeConfig::default().keepalive_requests as u64,
                )? as usize,
            };
            let store = RunStore::open(store_dir)?;
            let server = Server::bind(cfg, store)?;
            let addr = server.local_addr()?;
            install_signal_shutdown(server.handle())?;
            // Announce readiness on stderr before blocking: scripts (and
            // the CI smoke job) wait for this line before issuing requests.
            eprintln!("hrviz serve: listening on {addr} (store {store_dir}, SIGINT to stop)");
            let report = server.serve()?;
            let summary = format!(
                "serve on {addr}: {} request(s) handled, {} shed\n",
                report.requests, report.shed
            );
            Ok(RunOutput::text(summary)
                .metric("requests", report.requests as f64)
                .metric("shed", report.shed as f64))
        }
        "check" => {
            let Some(path) = cli.positional.first() else {
                return err("check needs a script file argument");
            };
            let text =
                std::fs::read_to_string(path).map_err(|e| HrvizError::io(path.clone(), e))?;
            let spec =
                parse_script(&text).map_err(|e| HrvizError::parse(path.clone(), e.to_string()))?;
            let mut out = format!("{path}: ok, {} ring(s)\n", spec.levels.len());
            for (i, l) in spec.levels.iter().enumerate() {
                out.push_str(&format!(
                    "  ring {i}: {} by {:?} -> {:?}\n",
                    l.entity,
                    l.aggregate.iter().map(Field::name).collect::<Vec<_>>(),
                    l.vmap.plot_kind()
                ));
            }
            Ok(RunOutput::text(out).metric("rings", spec.levels.len() as f64))
        }
        "help" | "--help" | "-h" => Ok(RunOutput::text(USAGE)),
        other => err(format!("unknown command {other:?}\n{USAGE}")),
    }
}

/// `compare --store DIR`: resolve each routing's run through the
/// content-addressed store (simulating only what is missing), then build
/// the comparison views through the aggregation cache.
fn compare_from_store(cli: &Cli, routings: &[RoutingAlgorithm]) -> Result<RunOutput, HrvizError> {
    let vreq = view_request_of(cli, true)?;
    let sweep = sweep_spec_of(cli, "compare", false)?.routings(routings.to_vec());
    let workers = u64_opt(cli, "workers", 0)? as usize;
    let store_dir = cli
        .options
        .get("store")
        .ok_or_else(|| HrvizError::usage("compare --store needs a directory"))?;
    let engine = SweepEngine::new(RunStore::open(store_dir)?).with_workers(workers);
    let outcome = engine.run(&sweep)?;
    let configs = sweep.expand()?;
    let mut loaded: Vec<(DataSet, DataKey, StoredManifest)> = Vec::with_capacity(configs.len());
    for cfg in &configs {
        let stored = engine.store().load(&cfg.run_id())?;
        loaded.push((stored.data, engine.store().data_key(cfg), stored.manifest));
    }
    let cache = AggregateCache::new();
    let pairs: Vec<(&DataSet, DataKey)> = loaded.iter().map(|(d, k, _)| (d, *k)).collect();
    let views = compare_views_cached(&pairs, &vreq.spec, &cache)
        .map_err(|e| HrvizError::config(e.to_string()))?;
    let labels: Vec<&str> = routings.iter().map(|r| r.name()).collect();
    let labeled: Vec<(&_, &str)> = views.iter().zip(labels.iter().copied()).collect();
    let svg = render_radial_row(&labeled, &RadialLayout::default(), "hrviz compare");
    let path = write_svg(cli, "compare.svg", svg)?;
    let named: Vec<(&str, &ProjectionView)> = labels.iter().copied().zip(views.iter()).collect();
    let (graph_path, graph_nodes) = write_graph(&path, &vreq, None, &named)?;
    let mut out = String::new();
    for (label, (_, _, manifest)) in labels.iter().zip(&loaded) {
        out.push_str(&format!("--- {label} ---\n{}", summarize_manifest(manifest)));
    }
    out.push_str(&format!(
        "store: {} cached, {} simulated  aggregates: {} hit(s), {} miss(es)\n",
        outcome.store_hits,
        outcome.store_misses,
        cache.hits(),
        cache.misses(),
    ));
    let mut typed = RunOutput::text(out)
        .artifact(path)
        .artifact(graph_path)
        .metric("graph_nodes", graph_nodes as f64)
        .metric("store_hits", outcome.store_hits as f64)
        .metric("store_misses", outcome.store_misses as f64)
        .metric("agg_cache_hits", cache.hits() as f64)
        .metric("agg_cache_misses", cache.misses() as f64);
    for (label, (_, _, manifest)) in labels.iter().zip(&loaded) {
        typed = typed.metric(format!("{label}/events"), manifest.events_processed as f64);
    }
    Ok(typed)
}

/// Default spec builder used for doc parity with the script constant.
pub fn default_spec() -> ProjectionSpec {
    ProjectionSpec::new(vec![
        LevelSpec::new(EntityKind::LocalLink).aggregate(&[Field::RouterRank]).color(Field::SatTime),
        LevelSpec::new(EntityKind::GlobalLink)
            .aggregate(&[Field::RouterRank, Field::RouterPort])
            .color(Field::SatTime)
            .size(Field::Traffic),
    ])
    .ribbons(RibbonSpec::new(EntityKind::LocalLink))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_subcommand_options_and_positionals() {
        let cli =
            parse_args(&args(&["view", "--terminals", "72", "--pattern", "tornado"])).unwrap();
        assert_eq!(cli.command, "view");
        assert_eq!(cli.options["terminals"], "72");
        let cli = parse_args(&args(&["check", "file.hrviz"])).unwrap();
        assert_eq!(cli.positional, vec!["file.hrviz"]);
    }

    #[test]
    fn missing_value_is_an_error() {
        let e = parse_args(&args(&["view", "--terminals"])).unwrap_err();
        assert!(e.to_string().contains("needs a value"));
        assert!(parse_args(&[]).is_err());
    }

    #[test]
    fn terminal_counts_resolve() {
        let cli = parse_args(&args(&["view", "--terminals", "2550"])).unwrap();
        assert_eq!(terminals_of(&cli).unwrap().groups, 51);
        let cli = parse_args(&args(&["view", "--terminals", "72"])).unwrap();
        assert_eq!(terminals_of(&cli).unwrap().groups, 9); // canonical h=2
        let cli = parse_args(&args(&["view", "--terminals", "123"])).unwrap();
        assert!(terminals_of(&cli).is_err());
    }

    #[test]
    fn view_end_to_end() {
        let dir = std::env::temp_dir().join("hrviz_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let svg = dir.join("v.svg");
        let cli = parse_args(&args(&[
            "view",
            "--terminals",
            "72",
            "--pattern",
            "tornado",
            "--routing",
            "adaptive",
            "--msgs",
            "4",
            "--bytes",
            "4096",
            "--svg",
            svg.to_str().unwrap(),
        ]))
        .unwrap();
        let out = run(&cli).unwrap();
        assert!(out.to_string().contains("delivered"));
        let graph = svg.with_extension("graph.json");
        assert_eq!(out.artifacts, vec![svg.clone(), graph.clone()]);
        assert!(out.metric_value("events").unwrap() > 0.0);
        assert!(svg.exists());
        assert!(std::fs::read_to_string(&svg).unwrap().starts_with("<svg"));
        // The graph envelope rides along: schema 2, every node, no cursor.
        let body = std::fs::read_to_string(&graph).unwrap();
        assert!(body.contains("\"schema_version\":2"), "{body}");
        assert!(body.contains("\"next_cursor\":null"), "{body}");
        assert!(out.metric_value("graph_nodes").unwrap() > 1.0);
        std::fs::remove_file(&svg).ok();
        std::fs::remove_file(&graph).ok();
    }

    #[test]
    fn view_policy_flags_share_serves_validation() {
        // Bad values answer the same codes the server's 400s carry.
        let cli =
            parse_args(&args(&["view", "--terminals", "72", "--pattern", "tornado", "--lod", "9"]))
                .unwrap();
        let e = run(&cli).unwrap_err();
        assert_eq!(e.exit_code(), 2, "{e}");
        assert!(e.to_string().contains("--lod"), "{e}");

        let cli = parse_args(&args(&[
            "view",
            "--terminals",
            "72",
            "--pattern",
            "tornado",
            "--page-size",
            "soft",
        ]))
        .unwrap();
        let e = run(&cli).unwrap_err().to_string();
        assert!(e.contains("--page-size"), "{e}");

        // Good values land in the written envelope: a paged graph with a
        // depth-limited policy.
        let dir = std::env::temp_dir().join("hrviz_cli_policy");
        std::fs::create_dir_all(&dir).unwrap();
        let svg = dir.join("p.svg");
        let cli = parse_args(&args(&[
            "view",
            "--terminals",
            "72",
            "--pattern",
            "tornado",
            "--msgs",
            "2",
            "--bytes",
            "1024",
            "--lod",
            "1",
            "--max-depth",
            "2",
            "--page-size",
            "5",
            "--svg",
            svg.to_str().unwrap(),
        ]))
        .unwrap();
        let out = run(&cli).unwrap();
        let graph = svg.with_extension("graph.json");
        let body = std::fs::read_to_string(&graph).unwrap();
        assert!(body.contains("\"count\":5"), "first page only: {body}");
        assert!(out.metric_value("graph_nodes").unwrap() > 5.0, "{out}");
        std::fs::remove_file(&svg).ok();
        std::fs::remove_file(&graph).ok();
    }

    #[test]
    fn compare_needs_two_routings() {
        let cli = parse_args(&args(&[
            "compare",
            "--terminals",
            "72",
            "--pattern",
            "tornado",
            "--routing",
            "minimal",
        ]))
        .unwrap();
        assert!(run(&cli).unwrap_err().to_string().contains("at least two"));
    }

    #[test]
    fn compare_end_to_end() {
        let dir = std::env::temp_dir().join("hrviz_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let svg = dir.join("c.svg");
        let cli = parse_args(&args(&[
            "compare",
            "--terminals",
            "72",
            "--pattern",
            "tornado",
            "--routing",
            "minimal,adaptive",
            "--msgs",
            "4",
            "--svg",
            svg.to_str().unwrap(),
        ]))
        .unwrap();
        let out = run(&cli).unwrap().to_string();
        assert!(out.contains("--- minimal ---"));
        assert!(out.contains("--- adaptive ---"));
        assert!(svg.exists());
        std::fs::remove_file(&svg).ok();
    }

    #[test]
    fn trace_subcommand_simulates_a_csv() {
        let dir = std::env::temp_dir().join("hrviz_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("t.csv");
        std::fs::write(&trace, "time_ns,src,dst,bytes,job\n0,0,40,8192,0\n").unwrap();
        let svg = dir.join("t.svg");
        let cli = parse_args(&args(&[
            "trace",
            "--in",
            trace.to_str().unwrap(),
            "--terminals",
            "72",
            "--routing",
            "minimal",
            "--svg",
            svg.to_str().unwrap(),
        ]))
        .unwrap();
        let out = run(&cli).unwrap();
        assert!(out.to_string().contains("delivered 8192/8192"));
        assert_eq!(out.metric_value("delivered_bytes"), Some(8192.0));
        std::fs::remove_file(&trace).ok();
        std::fs::remove_file(&svg).ok();
    }

    #[test]
    fn trace_rejects_rows_outside_the_network_or_their_field() {
        let dir = std::env::temp_dir().join("hrviz_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        for (name, row, needle) in [
            ("far.csv", "0,0,99999,8192,0", "message 2 (0 -> 99999)"),
            ("wide.csv", "0,4294967296,1,8192,0", "trace line 3: bad src"),
            ("job.csv", "0,0,1,8192,65536", "trace line 3: bad job"),
        ] {
            let trace = dir.join(name);
            std::fs::write(&trace, format!("time_ns,src,dst,bytes,job\n0,0,1,64,0\n{row}\n"))
                .unwrap();
            let cli =
                parse_args(&args(&["trace", "--in", trace.to_str().unwrap(), "--terminals", "72"]))
                    .unwrap();
            let e = run(&cli).expect_err(row);
            assert_eq!(e.exit_code(), 5, "{row}: {e}");
            assert!(e.to_string().contains(needle), "{row}: {e}");
            std::fs::remove_file(&trace).ok();
        }
    }

    #[test]
    fn check_reports_rings() {
        let dir = std::env::temp_dir().join("hrviz_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let f = dir.join("s.hrviz");
        std::fs::write(&f, DEFAULT_SCRIPT).unwrap();
        let cli = parse_args(&args(&["check", f.to_str().unwrap()])).unwrap();
        let out = run(&cli).unwrap();
        assert!(out.to_string().contains("3 ring(s)"));
        assert!(out.to_string().contains("Heatmap1D"));
        assert_eq!(out.metric_value("rings"), Some(3.0));
        assert!(out.artifacts.is_empty());
        std::fs::remove_file(&f).ok();
    }

    #[test]
    fn unknown_commands_and_enums_error() {
        let cli = parse_args(&args(&["frobnicate"])).unwrap();
        assert!(run(&cli).is_err());
        assert!(routing_of("warp").is_err());
        assert!(pattern_of("noise").is_err());
        let cli = parse_args(&args(&["help"])).unwrap();
        assert!(run(&cli).unwrap().to_string().contains("usage"));
    }

    #[test]
    fn retired_perf_gate_subcommand_is_a_usage_error() {
        // Performance is measured by the e2e benchmark alone; the old
        // perf-regression subcommand is now an unknown command.
        let retired = ["bench", "gate"].join("-");
        let cli = parse_args(&args(&[retired.as_str(), "--out", "out"])).unwrap();
        let e = run(&cli).unwrap_err();
        assert_eq!(e.exit_code(), 2, "{e}");
        assert!(e.to_string().contains(&format!("unknown command {retired:?}")), "{e}");
        assert!(!USAGE.contains(&retired));
    }

    #[test]
    fn unknown_flags_are_rejected_with_the_allowlist() {
        let cli = parse_args(&args(&["view", "--terminls", "72"])).unwrap();
        let e = run(&cli).unwrap_err().to_string();
        assert!(e.contains("unknown flag --terminls for 'view'"), "got: {e}");
        assert!(e.contains("--terminals"), "error should list accepted flags: {e}");
        assert!(e.contains("--trace-out"), "error should list common flags: {e}");
        // check takes only positionals (plus the common flags).
        let cli = parse_args(&args(&["check", "f.hrviz", "--svg", "x"])).unwrap();
        assert!(run(&cli).unwrap_err().to_string().contains("unknown flag --svg"));
    }

    #[test]
    fn trace_out_writes_a_jsonl_trace() {
        let dir = std::env::temp_dir().join("hrviz_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let svg = dir.join("traced.svg");
        let trace = dir.join("traced.jsonl");
        let cli = parse_args(&args(&[
            "view",
            "--terminals",
            "72",
            "--pattern",
            "tornado",
            "--msgs",
            "2",
            "--bytes",
            "2048",
            "--svg",
            svg.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
        ]))
        .unwrap();
        run(&cli).unwrap();
        let text = std::fs::read_to_string(&trace).unwrap();
        assert!(text.lines().count() >= 2, "trace should hold several events: {text}");
        assert!(text.contains("\"kind\":\"engine_run\""), "engine boundary event: {text}");
        assert!(text.contains("\"label\":\"sim/run\""), "sim span event: {text}");
        std::fs::remove_file(&svg).ok();
        std::fs::remove_file(&trace).ok();
    }

    #[test]
    fn log_level_flag_parses_and_rejects_garbage() {
        let cli = parse_args(&args(&["view", "--log-level", "shout"])).unwrap();
        let e = run(&cli).unwrap_err().to_string();
        assert!(e.contains("unknown log level"), "got: {e}");
        // A valid level alone enables an in-memory collector.
        let cli = parse_args(&args(&["check", "--log-level", "debug"])).unwrap();
        let (c, trace_path) = collector_of(&cli).unwrap();
        assert!(c.is_enabled());
        assert!(trace_path.is_none());
        assert_eq!(c.level(), Some(LogLevel::Debug));
    }

    #[test]
    fn faults_flag_runs_a_degraded_view() {
        use hrviz_network::FaultEvent;
        let dir = std::env::temp_dir().join("hrviz_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let sched = dir.join("faults.json");
        let svg = dir.join("faulted.svg");
        let mut faults = FaultSchedule::new(3);
        // Tornado from group 0 with its first global link dead: drops under
        // minimal routing show up in the summary.
        faults.push(SimTime::ZERO, FaultEvent::RouterDown { router: 0 });
        faults.to_file(sched.to_str().unwrap()).unwrap();
        let cli = parse_args(&args(&[
            "view",
            "--terminals",
            "72",
            "--pattern",
            "tornado",
            "--routing",
            "minimal",
            "--msgs",
            "2",
            "--bytes",
            "2048",
            "--faults",
            sched.to_str().unwrap(),
            "--svg",
            svg.to_str().unwrap(),
        ]))
        .unwrap();
        let out = run(&cli).unwrap().to_string();
        assert!(out.contains("dropped"), "fault summary line expected: {out}");
        std::fs::remove_file(&sched).ok();
        std::fs::remove_file(&svg).ok();
    }

    #[test]
    fn fault_flag_errors_have_distinct_exit_codes() {
        // Usage: bad hop limit.
        let cli = parse_args(&args(&[
            "view",
            "--terminals",
            "72",
            "--pattern",
            "tornado",
            "--hop-limit",
            "many",
        ]))
        .unwrap();
        let e = run(&cli).unwrap_err();
        assert!(e.to_string().contains("--hop-limit"));
        assert_eq!(e.exit_code(), 2);
        // Config: hop limit of zero is rejected by spec validation.
        let cli = parse_args(&args(&[
            "view",
            "--terminals",
            "72",
            "--pattern",
            "tornado",
            "--hop-limit",
            "0",
        ]))
        .unwrap();
        assert_eq!(run(&cli).unwrap_err().exit_code(), 3);
        // Io: missing schedule file.
        let cli = parse_args(&args(&[
            "view",
            "--terminals",
            "72",
            "--pattern",
            "tornado",
            "--faults",
            "/nonexistent/faults.json",
        ]))
        .unwrap();
        assert_eq!(run(&cli).unwrap_err().exit_code(), 4);
        // Config: impossible terminal count.
        let cli =
            parse_args(&args(&["view", "--terminals", "123", "--pattern", "tornado"])).unwrap();
        assert_eq!(run(&cli).unwrap_err().exit_code(), 3);
    }

    #[test]
    fn run_output_display_reproduces_the_legacy_string() {
        let plain = RunOutput::text("summary line\n");
        assert_eq!(plain.to_string(), "summary line\n");
        let with_artifact = RunOutput::text("summary line\n").artifact("out/x.svg");
        assert_eq!(with_artifact.to_string(), "summary line\nwrote out/x.svg");
        let two = RunOutput::text("s\n").artifact("a").artifact("b");
        assert_eq!(two.to_string(), "s\nwrote a\nwrote b");
        let m = RunOutput::text("x").metric("events", 5.0);
        assert_eq!(m.metric_value("events"), Some(5.0));
        assert_eq!(m.metric_value("nope"), None);
    }

    #[test]
    fn sweep_end_to_end_then_warm_cache() {
        let dir = std::env::temp_dir().join(format!("hrviz_cli_sweep_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = dir.join("store");
        let report = dir.join("reports");
        let argv = args(&[
            "sweep",
            "--terminals",
            "72",
            "--routings",
            "minimal,adaptive",
            "--patterns",
            "uniform-random,tornado",
            "--msgs",
            "2",
            "--bytes",
            "1024",
            "--workers",
            "2",
            "--store",
            store.to_str().unwrap(),
            "--report",
            report.to_str().unwrap(),
        ]);
        let cli = parse_args(&argv).unwrap();
        let cold = run(&cli).unwrap();
        assert_eq!(cold.metric_value("configs"), Some(4.0));
        assert_eq!(cold.metric_value("store_misses"), Some(4.0));
        assert!(cold.metric_value("events_simulated").unwrap() > 0.0);
        assert!(cold.to_string().contains("4 simulated"), "{cold}");
        let report_file = report.join("sweep_cli.json");
        assert!(report_file.is_file());
        // Second identical sweep: all hits, zero events, report says so.
        let warm = run(&cli).unwrap();
        assert_eq!(warm.metric_value("store_hits"), Some(4.0));
        assert_eq!(warm.metric_value("store_misses"), Some(0.0));
        assert_eq!(warm.metric_value("events_simulated"), Some(0.0));
        let text = std::fs::read_to_string(&report_file).unwrap();
        assert!(text.contains("\"store_misses\":0"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_streams_slices_then_watch_tails_them() {
        let dir = std::env::temp_dir().join(format!("hrviz_cli_stream_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = dir.join("store");
        let argv = args(&[
            "sweep",
            "--terminals",
            "72",
            "--routings",
            "minimal",
            "--msgs",
            "2",
            "--bytes",
            "1024",
            "--slice-every-us",
            "5",
            "--store",
            store.to_str().unwrap(),
            "--report",
            dir.join("reports").to_str().unwrap(),
        ]);
        let out = run(&parse_args(&argv).unwrap()).unwrap();
        assert_eq!(out.metric_value("aborted"), Some(0.0));
        assert!(out.to_string().contains("0 run(s) aborted"), "{out}");

        let run_id = RunStore::open(&store).unwrap().runs().unwrap().remove(0);
        let watch =
            args(&["watch", "--store", store.to_str().unwrap(), "--run", &run_id, "--max-s", "5"]);
        let watched = run(&parse_args(&watch).unwrap()).unwrap();
        assert_eq!(watched.metric_value("terminal"), Some(1.0), "{watched}");
        assert!(watched.metric_value("slices").unwrap() >= 1.0, "{watched}");
        assert!(watched.to_string().contains("completed"), "{watched}");

        // Watching a run that never streamed is a usage error, not a hang.
        let batch_store = dir.join("batch");
        let mut batch_argv = argv.clone();
        let pos = batch_argv.iter().position(|a| a == "--slice-every-us").unwrap();
        batch_argv.drain(pos..pos + 2);
        let pos = batch_argv.iter().position(|a| a == "--store").unwrap();
        batch_argv[pos + 1] = batch_store.to_str().unwrap().into();
        run(&parse_args(&batch_argv).unwrap()).unwrap();
        let batch_run = RunStore::open(&batch_store).unwrap().runs().unwrap().remove(0);
        let watch_batch =
            args(&["watch", "--store", batch_store.to_str().unwrap(), "--run", &batch_run]);
        let e = run(&parse_args(&watch_batch).unwrap()).unwrap_err();
        assert!(e.to_string().contains("no live telemetry"), "{e}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_abort_policy_cancels_and_reports() {
        let dir = std::env::temp_dir().join(format!("hrviz_cli_abort_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = dir.join("store");
        let argv = args(&[
            "sweep",
            "--terminals",
            "72",
            "--routings",
            "minimal,adaptive",
            "--msgs",
            "2",
            "--bytes",
            "1024",
            // One 200 ns window with an impossible delivery bar: every
            // run aborts on its first slice.
            "--abort-policy",
            "saturation:1000:1",
            "--slice-every-us",
            "1",
            "--store",
            store.to_str().unwrap(),
            "--report",
            dir.join("reports").to_str().unwrap(),
        ]);
        let out = run(&parse_args(&argv).unwrap()).unwrap();
        assert_eq!(out.metric_value("aborted"), Some(2.0), "{out}");
        assert!(out.to_string().contains("2 run(s) aborted"), "{out}");
        // Aborted runs never become servable completions.
        assert!(RunStore::open(&store).unwrap().runs().unwrap().is_empty());

        let bad = args(&["sweep", "--terminals", "72", "--abort-policy", "nonsense"]);
        assert!(run(&parse_args(&bad).unwrap()).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_requires_a_topology_and_rejects_two() {
        let cli = parse_args(&args(&["sweep", "--routings", "minimal"])).unwrap();
        assert!(run(&cli).unwrap_err().to_string().contains("--terminals N or --fattree K"));
        let cli = parse_args(&args(&["sweep", "--terminals", "72", "--fattree", "4"])).unwrap();
        assert!(run(&cli).unwrap_err().to_string().contains("mutually exclusive"));
    }

    #[test]
    fn compare_store_reuses_runs_and_aggregates() {
        let dir = std::env::temp_dir().join(format!("hrviz_cli_cmpstore_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = dir.join("store");
        let svg = dir.join("c.svg");
        let argv = args(&[
            "compare",
            "--terminals",
            "72",
            "--pattern",
            "tornado",
            "--routing",
            "minimal,adaptive",
            "--msgs",
            "2",
            "--bytes",
            "1024",
            "--store",
            store.to_str().unwrap(),
            "--svg",
            svg.to_str().unwrap(),
        ]);
        let cli = parse_args(&argv).unwrap();
        let cold = run(&cli).unwrap();
        assert_eq!(cold.metric_value("store_misses"), Some(2.0));
        assert!(cold.to_string().contains("--- minimal ---"), "{cold}");
        assert!(
            cold.metric_value("agg_cache_misses").unwrap() > 0.0,
            "groups go through the cache"
        );
        assert!(svg.exists());
        // Second run: both runs come from the store, nothing simulates.
        let warm = run(&cli).unwrap();
        assert_eq!(warm.metric_value("store_hits"), Some(2.0));
        assert_eq!(warm.metric_value("store_misses"), Some(0.0));
        assert_eq!(
            warm.metric_value("minimal/events"),
            cold.metric_value("minimal/events"),
            "stored manifests replay identical counters"
        );
        // Repeating a comparison of the stored runs through one cache
        // groups nothing again: zero new misses, every lookup a hit.
        let stored = RunStore::open(&store).unwrap();
        let loaded: Vec<(DataSet, DataKey)> = stored
            .runs()
            .unwrap()
            .iter()
            .map(|id| {
                let run = u64::from_str_radix(id, 16).unwrap();
                let key = DataKey { run, generation: stored.generation() };
                (stored.load(id).unwrap().data, key)
            })
            .collect();
        let pairs: Vec<(&DataSet, DataKey)> = loaded.iter().map(|(d, k)| (d, *k)).collect();
        let spec = parse_script(DEFAULT_SCRIPT).unwrap();
        let cache = AggregateCache::new();
        let first = compare_views_cached(&pairs, &spec, &cache).unwrap();
        let (hits, misses) = (cache.hits(), cache.misses());
        let again = compare_views_cached(&pairs, &spec, &cache).unwrap();
        assert_eq!(cache.misses(), misses, "a repeated compare adds no misses");
        assert!(cache.hits() > hits, "a repeated compare hits the cache");
        assert_eq!(first.len(), again.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_out_also_exports_a_chrome_trace() {
        let dir = std::env::temp_dir().join(format!("hrviz_cli_chrome_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let svg = dir.join("v.svg");
        let trace = dir.join("t.jsonl");
        let cli = parse_args(&args(&[
            "view",
            "--terminals",
            "72",
            "--pattern",
            "tornado",
            "--msgs",
            "2",
            "--bytes",
            "2048",
            "--svg",
            svg.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
        ]))
        .unwrap();
        let out = run(&cli).unwrap();
        let chrome = dir.join("t.chrome.json");
        assert!(out.artifacts.contains(&chrome), "{out}");
        let text = std::fs::read_to_string(&chrome).unwrap();
        let parsed = hrviz_obs::Json::parse(&text).expect("valid JSON");
        let events = parsed.get("traceEvents").and_then(hrviz_obs::Json::as_array).unwrap();
        assert!(!events.is_empty(), "trace carries events");
        // The final snapshot landed in the JSONL before the flush.
        let jsonl = std::fs::read_to_string(&trace).unwrap();
        assert!(jsonl.contains("\"final\":true"), "final snapshot: {jsonl}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_is_a_bare_flag() {
        let cli = parse_args(&args(&["sweep", "--resume", "--terminals", "72"])).unwrap();
        assert_eq!(cli.options.get("resume").map(String::as_str), Some("true"));
        assert_eq!(cli.options.get("terminals").map(String::as_str), Some("72"));
    }

    #[test]
    fn view_checkpoints_then_restores_bit_identically() {
        let dir = std::env::temp_dir().join(format!("hrviz_cli_ckpt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join("store");
        let svg = dir.join("v.svg");
        let base = [
            "view",
            "--terminals",
            "72",
            "--pattern",
            "tornado",
            "--routing",
            "adaptive",
            "--msgs",
            "4",
            "--bytes",
            "8192",
            "--svg",
            svg.to_str().unwrap(),
            "--store",
            store.to_str().unwrap(),
        ];
        let mut argv = args(&base);
        argv.extend(args(&["--checkpoint-every", "3"]));
        let cli = parse_args(&argv).unwrap();
        let straight = run(&cli).unwrap();
        let ckpts: Vec<_> = straight
            .artifacts
            .iter()
            .filter(|p| p.extension().is_some_and(|e| e == "ckpt"))
            .collect();
        assert!(!ckpts.is_empty(), "expected checkpoint artifacts: {straight:?}");
        assert_eq!(straight.metric_value("checkpoints"), Some(ckpts.len() as f64));
        assert!(store.join("checkpoints").is_dir());

        // Restore from the first checkpoint: the summary (events, bytes,
        // per-class traffic) must be indistinguishable.
        let mut argv = args(&base);
        argv.extend(args(&["--restore-from", ckpts[0].to_str().unwrap()]));
        let cli = parse_args(&argv).unwrap();
        let resumed = run(&cli).unwrap();
        assert_eq!(resumed.summary, straight.summary, "restored run summary diverged");
        assert_eq!(resumed.metric_value("events"), straight.metric_value("events"));
        assert_eq!(
            resumed.metric_value("delivered_bytes"),
            straight.metric_value("delivered_bytes")
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoints_survive_concurrent_store_opens() {
        use std::sync::atomic::{AtomicBool, Ordering};
        // Every `RunStore::open` reaps `<store>/checkpoints/` tmps whose
        // writer is gone, so a checkpoint's tmp must name its live writer.
        let dir = std::env::temp_dir().join(format!("hrviz_cli_ckpt_race_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = dir.join("store");
        let svg = dir.join("v.svg");
        let cli = parse_args(&args(&[
            "view",
            "--terminals",
            "72",
            "--pattern",
            "uniform-random",
            "--routing",
            "minimal",
            "--msgs",
            "16",
            "--svg",
            svg.to_str().unwrap(),
            "--store",
            store.to_str().unwrap(),
            "--checkpoint-every",
            "1",
        ]))
        .unwrap();
        let done = AtomicBool::new(false);
        let out = std::thread::scope(|s| {
            s.spawn(|| {
                while !done.load(Ordering::Relaxed) {
                    let _ = RunStore::open(&store);
                }
            });
            let out = run(&cli);
            done.store(true, Ordering::Relaxed);
            out
        });
        let out = out.unwrap();
        assert!(out.metric_value("checkpoints") >= Some(100.0), "{out}");
        for entry in std::fs::read_dir(store.join("checkpoints")).unwrap() {
            let name = entry.unwrap().file_name();
            assert!(!name.to_string_lossy().ends_with(".tmp"), "stray {name:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsck_reports_clean_and_dirty_stores() {
        let dir = std::env::temp_dir().join(format!("hrviz_cli_fsck_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = dir.join("store");
        // An empty (freshly created) store is clean.
        std::fs::create_dir_all(&store).unwrap();
        let cli = parse_args(&args(&["fsck", "--store", store.to_str().unwrap()])).unwrap();
        let out = run(&cli).unwrap();
        assert!(out.to_string().contains("\"clean\":1"), "{out}");
        assert_eq!(out.metric_value("scanned"), Some(0.0));
        // A torn run directory makes it dirty (exit 7) and gets quarantined…
        let torn = store.join("0123456789abcdef");
        std::fs::create_dir_all(&torn).unwrap();
        std::fs::write(torn.join("manifest.json"), "{ not json").unwrap();
        let e = run(&cli).unwrap_err();
        assert_eq!(e.exit_code(), 7, "{e}");
        assert!(e.to_string().contains("quarantined"), "{e}");
        assert!(!torn.exists(), "torn run should have moved to quarantine");
        // …after which the store is clean again.
        assert!(run(&cli).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_resume_on_a_clean_store_is_a_no_op() {
        let dir = std::env::temp_dir().join(format!("hrviz_cli_resume_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = dir.join("store");
        let report = dir.join("reports");
        let base = [
            "sweep",
            "--terminals",
            "72",
            "--routings",
            "minimal",
            "--patterns",
            "tornado",
            "--msgs",
            "2",
            "--bytes",
            "1024",
            "--store",
            store.to_str().unwrap(),
            "--report",
            report.to_str().unwrap(),
        ];
        let cli = parse_args(&args(&base)).unwrap();
        run(&cli).unwrap();
        let mut argv = args(&base);
        argv.push("--resume".into());
        let cli = parse_args(&argv).unwrap();
        let out = run(&cli).unwrap();
        assert_eq!(out.metric_value("store_misses"), Some(0.0));
        assert_eq!(out.metric_value("resumed_runs"), Some(0.0));
        assert!(out.to_string().contains("resume: 0 interrupted run(s)"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn default_script_matches_builder_shape() {
        let s = parse_script(DEFAULT_SCRIPT).unwrap();
        let b = default_spec();
        assert_eq!(s.levels[0].entity, b.levels[0].entity);
        assert_eq!(s.levels[1].vmap.plot_kind(), b.levels[1].vmap.plot_kind());
    }
}
