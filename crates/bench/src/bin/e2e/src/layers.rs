//! The traced pass: where a workload's time goes, layer by layer.
//!
//! Nothing inside the program is instrumented, so a layer's time can only be
//! seen from outside by calling the layers one at a time. The pass *replays*
//! the workload's units serially on this thread, calling each crate's public
//! API directly with a span around every call, and sums self time by layer.
//! Each unit then runs again through the real entry point the end-to-end
//! workload uses (`SweepEngine::run_with`, `App::handle`), untraced: its wall
//! is what the replay's wall is compared with, and its output is what the
//! replay's output must equal, so the replay cannot drift from the program
//! unnoticed. A fixed set of probes then measures each layer in isolation
//! (queue hold cost, a no-op LP engine, routing decisions, store save/load,
//! decode, aggregate, project, encode, HTTP parse/handle/write). Every traced
//! run reports every per-layer metric, so rows compare across workloads.
//!
//! The engine and the network model run inside one call (`try_run`), so from
//! outside they are one row, `pdes_network`; `pdes.null_lp_events_per_s` and
//! `pdes.heap_ns_per_hold` bound the engine's part of it.

use std::hint::black_box;
use std::io::Write;
use std::time::{Duration, Instant};

use hrviz_core::{
    build_view, build_view_cached, compare_views, compare_views_cached, parse_script,
    AggregateCache, AggregateTree, DataKey, DataSet, EntityKind, Field, LiveAggregate,
    ProjectionGraph, RenderPolicy, TreeLevel,
};
use hrviz_network::routing::{minimal_step, ugal_prefers_nonminimal};
use hrviz_network::{
    JobMeta, NetworkSpec, RouterId, RunData, Simulation, Slice, SliceControl, TerminalId, Topology,
};
use hrviz_obs::{fingerprint64, Collector, Json};
use hrviz_pdes::{
    CalendarQueue, Ctx as LpCtx, Engine, EngineStats, Event, EventKey, EventQueue, HeapQueue, Lp,
    LpId, SimTime, SnapshotError, WireReader, WireWriter,
};
use hrviz_render::{render_radial, RadialLayout};
use hrviz_serve::http::read_request;
use hrviz_serve::{App, Request};
use hrviz_stream::SliceWriter;
use hrviz_sweep::{
    dragonfly_of, read_progress, read_slices, RunConfig, RunResult, RunStore, SweepEngine,
    SweepOptions, SweepSpec, TopologyAxis,
};
use hrviz_workloads::{generate_synthetic, SyntheticConfig};

use crate::client::{self, Conn};
use crate::explore::{view_request, ColdCycles, ColdRequest};
use crate::gen::{self, Rng, Scale, LIVE_WINDOW, SCRIPTS};
use crate::report::{fresh_dir, sim_digest, Ctx, Metric, Outcome, Served};
use crate::spans::{self, Tracer};
use crate::stats::{median, sorted};

/// The rows of the per-layer table, in print order. `bench` is the replay
/// harness itself: request generation, shuffling, bookkeeping.
const LAYERS: [&str; 9] =
    ["pdes_network", "network", "workloads", "sweep", "stream", "core", "render", "serve", "bench"];

/// Share of `--seconds` the traced replay may use; the real entry points take
/// about as much again, and the probes are fixed work.
const REPLAY_SHARE: f64 = 0.3;

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Median wall time of `reps` calls of `f`, in seconds.
fn median_secs(reps: u64, mut f: impl FnMut()) -> f64 {
    let walls: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            secs(t0.elapsed())
        })
        .collect();
    median(&sorted(walls))
}

// ---------------------------------------------------------------- replays

/// A simulation built from a sweep configuration the way `RunConfig::execute`
/// builds it, with a span around each layer's call.
fn build_sim(t: &Tracer, cfg: &RunConfig) -> (Simulation, usize) {
    let TopologyAxis::Dragonfly { terminals } = cfg.topology else {
        unreachable!("the benchmark only sweeps Dragonfly configurations");
    };
    let df = dragonfly_of(terminals).expect("a paper-scale or canonical Dragonfly");
    let spec = NetworkSpec::new(df).with_routing(cfg.routing).with_seed(cfg.seed);
    let mut sim = t.span("network.build", || Simulation::try_new(spec)).expect("valid spec");
    let meta = JobMeta {
        name: cfg.pattern.name().into(),
        terminals: (0..df.num_terminals()).map(TerminalId).collect(),
    };
    let job = sim.add_job(meta.clone());
    let synthetic = SyntheticConfig {
        pattern: cfg.pattern,
        msg_bytes: cfg.msg_bytes,
        msgs_per_rank: cfg.msgs_per_rank,
        period: cfg.period,
        stride: 1,
        seed: cfg.seed,
    };
    let msgs = t.span("workloads.generate", || generate_synthetic(job, &meta, &synthetic));
    let generated = msgs.len();
    t.span("network.build", || sim.inject_all(msgs));
    (sim, generated)
}

fn result_of(t: &Tracer, run: &RunData) -> RunResult {
    RunResult {
        dataset: t.span("core.dataset_build", || DataSet::builder(run).build()),
        stats: EngineStats {
            events_processed: run.events_processed,
            events_scheduled: run.events_scheduled,
            end_time: run.end_time,
            peak_queue_depth: run.peak_queue_depth,
        },
        delivered: run.total_delivered(),
        injected: run.total_injected(),
        dropped: run.total_dropped(),
        rerouted: run.total_rerouted(),
    }
}

/// One simulated run, layer by layer, chained the way `SweepEngine` and
/// `RunConfig::execute` chain them: generate → build → run → flatten → save.
/// A `live` run seals every slice as the engine does, and folds it as a
/// watcher would.
fn replay_sim(t: &Tracer, cfg: &RunConfig, live: bool, store: &RunStore) -> bool {
    let (sim, _) = build_sim(t, cfg);
    let run = if live {
        let id = cfg.run_id();
        let window = LIVE_WINDOW.as_nanos();
        let Ok(mut writer) =
            SliceWriter::create(&store.run_dir(&id), &id, window, hrviz_obs::get())
        else {
            return false;
        };
        let mut fold = LiveAggregate::new();
        let mut sink = |slice: &Slice| {
            t.span("stream.seal", || writer.seal(slice))?;
            t.span("core.live_merge", || fold.merge_slice(slice));
            Ok(SliceControl::Continue)
        };
        let run = t
            .span("pdes_network.run", || sim.try_run_streamed(LIVE_WINDOW, &mut sink))
            .ok()
            .and_then(|outcome| outcome.completed());
        if t.span("stream.seal", || writer.finish("completed")).is_err() {
            return false;
        }
        run
    } else {
        t.span("pdes_network.run", || sim.try_run()).ok()
    };
    let Some(run) = run else { return false };
    let result = result_of(t, &run);
    t.span("sweep.store_save", || store.save(cfg, &result)).is_ok()
}

fn body_digest(body: &[u8]) -> u64 {
    fingerprint64(&String::from_utf8_lossy(body))
}

/// What a fresh server holds for each run it has loaded.
type Loaded = Vec<(String, DataSet, DataKey)>;

/// The index of `run` in `loaded`, loading it first if this is its first touch.
fn touch(t: &Tracer, store: &RunStore, loaded: &mut Loaded, run: &str) -> Option<usize> {
    if let Some(at) = loaded.iter().position(|(id, ..)| id == run) {
        return Some(at);
    }
    let stored = t.span("sweep.store_load", || store.load(run)).ok()?;
    let ds = t.span("core.dataset_build", || stored.data.to_dataset());
    let key = DataKey { run: u64::from_str_radix(run, 16).ok()?, generation: store.generation() };
    loaded.push((run.to_string(), ds, key));
    Some(loaded.len() - 1)
}

/// One cold exploration cycle without the server: what a fresh server does
/// for the same requests, one public call at a time. Pushes a digest of every
/// envelope it renders; `None` when a call fails.
fn replay_cold(
    t: &Tracer,
    store: &RunStore,
    plan: &[ColdRequest],
    bodies: &mut Vec<u64>,
) -> Option<()> {
    let agg = AggregateCache::new();
    let policy = RenderPolicy::default();
    let mut loaded = Loaded::new();
    for req in plan {
        let (ColdRequest::View { script, .. } | ColdRequest::Compare { script, .. }) = req;
        let script_fp = format!("{:016x}", fingerprint64(script));
        let spec = t.span("core.script_parse", || parse_script(script)).ok()?;
        let graph = match req {
            ColdRequest::View { run, .. } => {
                let at = touch(t, store, &mut loaded, run)?;
                let (_, ds, key) = &loaded[at];
                let view =
                    t.span("core.project", || build_view_cached(ds, &spec, &agg, *key)).ok()?;
                let source = fingerprint64(&format!("{run}|{script_fp}"));
                t.span("core.graph_build", || ProjectionGraph::build(&view, &policy, source))
            }
            ColdRequest::Compare { a, b, .. } => {
                let (ia, ib) = (touch(t, store, &mut loaded, a)?, touch(t, store, &mut loaded, b)?);
                let pair = [(&loaded[ia].1, loaded[ia].2), (&loaded[ib].1, loaded[ib].2)];
                let views =
                    t.span("core.compare", || compare_views_cached(&pair, &spec, &agg)).ok()?;
                let labeled = [(a.as_str(), &views[0]), (b.as_str(), &views[1])];
                let source = fingerprint64(&format!("{a},{b}|{script_fp}"));
                t.span("core.graph_build", || {
                    ProjectionGraph::build_compare(&labeled, &policy, source)
                })
            }
        };
        let body = t.span("core.envelope_encode", || encode(&graph));
        bodies.push(body_digest(&body));
    }
    Some(())
}

/// The unpaged schema-2 envelope of `graph`, as bytes.
fn encode(graph: &ProjectionGraph) -> Vec<u8> {
    graph.page_to_json(0, 0, None).render().into_bytes()
}

/// The same cycle through the real entry point: a fresh `App`, one
/// `handle` per request.
fn real_cold(store: &RunStore, plan: &[ColdRequest], bodies: &mut Vec<u64>) -> bool {
    let app = App::new(store.clone());
    let mut ok = true;
    for req in plan {
        let reply = app.handle(&parse_request(&req.bytes()));
        ok &= reply.status == 200;
        bodies.push(body_digest(&reply.body));
    }
    ok
}

/// An `App` with every (run, script) body cached, and for each body the
/// serialized conditional and unconditional warm requests.
struct WarmApp {
    app: App,
    /// `(conditional, unconditional)` request bytes per cached body.
    requests: Vec<(Vec<u8>, Vec<u8>)>,
}

fn parse_request(bytes: &[u8]) -> Request {
    read_request(&mut &bytes[..]).ok().flatten().expect("a request this file serialized")
}

fn warm_app(store: &RunStore, runs: &[String]) -> WarmApp {
    let app = App::new(store.clone());
    let mut requests = Vec::new();
    for run in runs {
        for script in SCRIPTS {
            let plain = view_request(run, script, None);
            let reply = app.handle(&parse_request(&plain));
            let etag = reply
                .headers
                .iter()
                .find(|(name, _)| name == "ETag")
                .map(|(_, v)| v.clone())
                .expect("a view reply carries an ETag");
            requests.push((view_request(run, script, Some(&etag)), plain));
        }
    }
    WarmApp { app, requests }
}

/// One deck of warm requests without the socket: parse, handle, serialize.
fn replay_warm(t: &Tracer, warm: &WarmApp, rng: &mut Rng, sink: &mut Vec<u8>) -> bool {
    let mut ok = true;
    for (body, conditional) in gen::warm_deck(rng, warm.requests.len()) {
        let (inm, plain) = &warm.requests[body];
        let bytes = if conditional { inm } else { plain };
        let req = t.span("serve.http_parse", || parse_request(bytes));
        let resp = t.span("serve.handle_warm", || warm.app.handle(&req));
        ok &= resp.status == if conditional { 304 } else { 200 };
        sink.clear();
        ok &= t.span("serve.write", || resp.write_to(sink, false)).is_ok();
    }
    ok
}

/// One side of the traced pass: the layer-by-layer replay of a workload's
/// units, or (`real`) the same units through the real entry points.
struct Replay {
    real: bool,
    rng: Rng,
    kind: ReplayKind,
}

enum ReplayKind {
    Sim {
        live: bool,
        store: RunStore,
        scale: Scale,
    },
    /// `bodies` collects a digest of every reply body, in request order.
    Cold {
        store: RunStore,
        runs: Vec<String>,
        cycles: ColdCycles,
        bodies: Vec<u64>,
    },
    Warm {
        warm: Box<WarmApp>,
        sink: Vec<u8>,
    },
}

impl Replay {
    /// `tag` names this side's own scratch store. Both sides of one workload
    /// draw the same units from the same seeded stream.
    fn new(name: &str, tag: &str, real: bool, ctx: &Ctx, fixture: &Fixture) -> Replay {
        let kind = match name {
            "sim_uniform" | "live_bursty" => ReplayKind::Sim {
                live: name == "live_bursty",
                store: RunStore::open(fresh_dir(&ctx.scratch.join(tag))).expect("open store"),
                scale: ctx.scale,
            },
            "explore_cold" => ReplayKind::Cold {
                store: fixture.store.clone(),
                runs: fixture.runs.clone(),
                cycles: ColdCycles::new(ctx.rng(name)),
                bodies: Vec::new(),
            },
            _ => ReplayKind::Warm {
                warm: Box::new(warm_app(&fixture.store, &fixture.runs)),
                sink: Vec::new(),
            },
        };
        Replay { real, rng: ctx.rng(name), kind }
    }

    /// Run one unit of the workload; returns `(operations, all succeeded)`.
    fn unit(&mut self, t: &Tracer) -> (u64, bool) {
        let (real, rng) = (self.real, &mut self.rng);
        match &mut self.kind {
            ReplayKind::Sim { live, store, scale } => {
                let seed = rng.sim_seed();
                let spec = if *live {
                    gen::bursty_run(scale, scale.sim_msgs, seed)
                } else {
                    gen::uniform_batch(scale, scale.sim_msgs, seed)
                };
                let configs = spec.expand().expect("spec expands");
                let ok = if real {
                    let opts = if *live { gen::streamed() } else { SweepOptions::default() };
                    let engine = SweepEngine::new(store.clone()).with_workers(1);
                    engine.run_with(&spec, &opts).is_ok_and(|o| o.store_misses == configs.len())
                } else {
                    configs.iter().all(|cfg| replay_sim(t, cfg, *live, store))
                };
                (configs.len() as u64, ok)
            }
            ReplayKind::Cold { store, runs, cycles, bodies } => {
                let plan = cycles.next_cycle(runs);
                let ok = if real {
                    real_cold(store, &plan, bodies)
                } else {
                    replay_cold(t, store, &plan, bodies).is_some()
                };
                (plan.len() as u64, ok)
            }
            // The warm path is three public calls either way.
            ReplayKind::Warm { warm, sink } => {
                let ops = (warm.requests.len() * gen::DECK_COPIES) as u64;
                (ops, replay_warm(t, warm, rng, sink))
            }
        }
    }

    /// What the units produced: the stored simulation outputs, or the reply
    /// bodies. A replay and its real twin must agree on it.
    fn produced(&self) -> String {
        match &self.kind {
            ReplayKind::Sim { store, .. } => {
                let runs = store.runs().unwrap_or_default();
                format!("{} runs {}", runs.len(), sim_digest(store, &runs))
            }
            ReplayKind::Cold { bodies, .. } => {
                format!("{} bodies {:016x}", bodies.len(), fingerprint64(&format!("{bodies:x?}")))
            }
            ReplayKind::Warm { .. } => String::new(),
        }
    }
}

// ---------------------------------------------------------------- fixture

/// Stored runs the probes and the exploration replays read: one routing pair
/// at explore scale (batch) and one streamed run of the probe configuration.
struct Fixture {
    store: RunStore,
    /// The explore-scale runs (minimal first, adaptive second).
    runs: Vec<String>,
    /// The streamed probe run.
    live_run: String,
    /// The simulation the pdes/network/sweep probes time.
    probe: RunConfig,
    /// Both routings of the probe's pattern, for the worker-scaling probe.
    probe_batch: SweepSpec,
}

fn fixture(name: &str, ctx: &Ctx) -> Fixture {
    let store = RunStore::open(fresh_dir(&ctx.scratch.join("fixture"))).expect("open store");
    let engine = SweepEngine::new(store.clone()).with_workers(2);
    // The explore replays need the whole grid; the other workloads only
    // probe the exploration layers, for which one routing pair is enough.
    let mut pair = Scale { explore_seeds: 1, explore_patterns: 1, ..ctx.scale };
    if name.starts_with("explore") {
        pair = ctx.scale;
    }
    let grid = gen::explore_grid(&pair, &mut ctx.rng("explore_grid"));
    let runs = engine.run(&grid).expect("sweep the fixture grid").run_ids;
    let msgs = ctx.scale.small_msgs * 2;
    let seed = ctx.rng("probe").sim_seed();
    let live = name == "live_bursty";
    let probe_spec = if live {
        gen::bursty_run(&ctx.scale, msgs, seed)
    } else {
        gen::uniform_batch(&ctx.scale, msgs, seed)
    };
    let probe = probe_spec.expand().expect("spec expands").pop().expect("one config");
    let live_spec = gen::bursty_run(&ctx.scale, msgs, seed + 1);
    let live_run =
        engine.run_with(&live_spec, &gen::streamed()).expect("streamed fixture run").run_ids[0]
            .clone();
    Fixture {
        store,
        runs,
        live_run,
        probe,
        probe_batch: gen::uniform_batch(&ctx.scale, msgs, seed),
    }
}

// ---------------------------------------------------------------- probes

/// Fixed work of the three micro-probes.
const RELAY_EVENTS: u64 = 1_000_000;
const HOLDS: u64 = 400_000;
const ROUTE_CALLS: usize = 1_000_000;

/// A logical process that only forwards: what the engine costs per event
/// when the model costs nothing.
struct Relay {
    next: LpId,
    hop: SimTime,
}

impl Lp<()> for Relay {
    fn on_event(&mut self, ctx: &mut LpCtx<'_, ()>, _payload: ()) {
        ctx.send(self.next, self.hop, ());
    }

    fn audit(&self) -> Result<(), String> {
        Ok(())
    }

    // A relay has no run state: its snapshot is empty.
    fn snapshot(&self, _w: &mut WireWriter) -> Result<(), SnapshotError> {
        Ok(())
    }

    fn restore(&mut self, _r: &mut WireReader<'_>) -> Result<(), SnapshotError> {
        Ok(())
    }
}

/// Events per second of an `Engine` over `lps` relays with `depth` events in
/// flight — the topology's LP count and the workload's measured queue depth.
fn null_lp_rate(lps: u32, depth: u64, hop: SimTime) -> f64 {
    let relays = (0..lps).map(|i| Relay { next: LpId((i + 1) % lps), hop }).collect();
    let mut engine = Engine::new(relays, hop);
    for i in 0..depth {
        engine.schedule(SimTime(i % hop.as_nanos().max(1)), LpId((i % lps as u64) as u32), ());
    }
    engine.set_event_budget(RELAY_EVENTS);
    let t0 = Instant::now();
    engine.run_to_completion();
    engine.stats().events_processed as f64 / secs(t0.elapsed())
}

/// The classic hold model: at a steady `depth`, pop the earliest event and
/// push one a random increment later. Returns ns per hold (pop + push).
fn hold_ns(queue: &mut dyn EventQueue<u32>, depth: u64, rng: &mut Rng) -> f64 {
    let mut seq = 0u64;
    let mut push = |queue: &mut dyn EventQueue<u32>, time: u64, rng: &mut Rng| {
        seq += 1;
        let dst = LpId(rng.below(4_096) as u32);
        queue.push(Event { key: EventKey { time: SimTime(time), dst, src: dst, seq }, payload: 0 });
    };
    for _ in 0..depth.max(1) {
        let at = rng.below(2_000) as u64;
        push(queue, at, rng);
    }
    let t0 = Instant::now();
    for _ in 0..HOLDS {
        let ev = queue.pop().expect("queue holds its depth");
        let at = ev.key.time.as_nanos() + 1 + rng.below(2_000) as u64;
        push(queue, at, rng);
    }
    t0.elapsed().as_nanos() as f64 / HOLDS as f64
}

/// ns per routing decision: a minimal step plus a UGAL comparison on seeded
/// router pairs.
fn route_ns(topo: &Topology, rng: &mut Rng) -> f64 {
    let routers = topo.config().num_routers() as usize;
    let pairs: Vec<(u32, u32, u64, u64)> = (0..4_096)
        .map(|_| {
            (
                rng.below(routers) as u32,
                rng.below(routers) as u32,
                rng.below(1 << 16) as u64,
                rng.below(1 << 16) as u64,
            )
        })
        .collect();
    let t0 = Instant::now();
    for &(me, dst, q_min, q_non) in pairs.iter().cycle().take(ROUTE_CALLS) {
        black_box(minimal_step(topo, RouterId(me), RouterId(dst), 0));
        black_box(ugal_prefers_nonminimal(q_min, 3, q_non, 5, 2_048));
    }
    t0.elapsed().as_nanos() as f64 / ROUTE_CALLS as f64
}

/// The per-layer metrics as they accumulate, with the two ways a probe
/// produces one: a value it computed, or the median wall time of a call.
struct Probes<'a> {
    ctx: &'a Ctx,
    fx: &'a Fixture,
    rng: Rng,
    metrics: Vec<Metric>,
    checks: Vec<(String, bool)>,
}

impl Probes<'_> {
    fn put(&mut self, name: &str, unit: &'static str, value: f64, samples: u64) {
        self.metrics.push(Metric::new(name, unit, value, samples));
    }

    /// Record the median of `reps` timings of `f`, in milliseconds.
    fn time_ms<R>(&mut self, name: &str, reps: u64, mut f: impl FnMut() -> R) {
        let ms = median_secs(reps, || drop(black_box(f()))) * 1e3;
        self.put(name, "ms", ms, reps);
    }

    /// pdes + network + workloads: the probe simulation, sequential then on
    /// two partitions, with a collector for the counters only it exposes.
    fn simulation(&mut self) -> RunData {
        let cfg = &self.fx.probe;
        let build_spans = Tracer::on();
        let (sim, generated) = build_sim(&build_spans, cfg);
        let build_rows = spans::table_by_name(&build_spans.records());
        let build_self = |name: &str| {
            build_rows.iter().find(|r| r.name == name).map_or(0.0, |r| r.self_ns as f64 / 1e9)
        };
        let counters = Collector::enabled();
        let t0 = Instant::now();
        let run = sim.with_collector(counters.clone()).try_run().expect("probe run");
        let seq = t0.elapsed();
        let (events, depth) = (run.events_processed, run.peak_queue_depth);
        self.put("pdes.seq_events_per_s", "1/s", events as f64 / secs(seq), events);
        self.put("pdes.ns_per_event", "ns", seq.as_nanos() as f64 / events as f64, events);
        self.put("pdes.events_committed", "count", events as f64, 1);
        self.put("pdes.peak_queue_depth", "count", depth as f64, 1);
        let topo = run.topology();
        let relay_rate = null_lp_rate(topo.num_lps(), depth, run.spec.lookahead());
        self.put("pdes.null_lp_events_per_s", "1/s", relay_rate, RELAY_EVENTS);
        let heap = hold_ns(&mut HeapQueue::new(), depth, &mut self.rng);
        self.put("pdes.heap_ns_per_hold", "ns", heap, HOLDS);
        let calendar = hold_ns(&mut CalendarQueue::new(16), depth, &mut self.rng);
        self.put("pdes.calendar_ns_per_hold", "ns", calendar, HOLDS);

        let par_counters = Collector::enabled();
        let (par_sim, _) = build_sim(&Tracer::off(), cfg);
        let t0 = Instant::now();
        let par_run = par_sim.with_collector(par_counters.clone()).try_run_parallel(2);
        let par = t0.elapsed();
        black_box(par_run.expect("parallel probe run").events_processed);
        self.put("pdes.par2_speedup", "x", secs(seq) / secs(par), 1);
        let barrier_ns = par_counters.counter("pdes/barrier_wait_ns") as f64;
        let waited = 100.0 * barrier_ns / (2.0 * par.as_nanos() as f64);
        self.put("pdes.par2_barrier_wait_share", "%", waited, 1);

        self.put("network.build_s", "s", build_self("network.build"), 1);
        self.put("network.run_s", "s", secs(seq), 1);
        let stalls = counters.counter("net/credit_stalls");
        self.put("network.credit_stalls", "count", stalls as f64, 1);
        let delivered = counters.counter("net/packets_delivered");
        self.put("network.packets_delivered", "count", delivered as f64, 1);
        self.put("network.reroutes", "count", run.total_rerouted() as f64, 1);
        let route = route_ns(&topo, &mut self.rng);
        self.put("network.route_ns_per_call", "ns", route, ROUTE_CALLS as u64);
        self.put("workloads.generate_s", "s", build_self("workloads.generate"), 1);
        self.put("workloads.msgs_generated", "count", generated as f64, 1);
        run
    }

    /// sweep: execute, save, load, reopen, re-run, and one worker against two.
    /// Returns the median `execute` seconds for the stream probe to compare to.
    fn sweep(&mut self, run: &RunData) -> f64 {
        let (ctx, fx) = (self.ctx, self.fx);
        let execute = median_secs(3, || drop(black_box(fx.probe.execute())));
        self.put("sweep.execute_s", "s", execute, 3);
        let side = RunStore::open(fresh_dir(&ctx.scratch.join("probe_store"))).expect("open store");
        let result = fx.probe.execute().expect("probe executes");
        // The pdes and network probes time a simulation this file built by
        // hand (`build_sim`); it must be the one `RunConfig::execute` builds.
        self.checks.push((
            "the probe simulation commits the events RunConfig::execute commits".into(),
            result.stats.events_processed == run.events_processed
                && result.delivered == run.total_delivered(),
        ));
        self.time_ms("sweep.store_save_ms", 5, || side.save(&fx.probe, &result));
        let stored = &fx.runs[0];
        self.time_ms("sweep.store_load_ms", 5, || fx.store.load(stored));
        self.time_ms("sweep.store_open_fsck_ms", 3, || RunStore::open(fx.store.root()));
        let bytes: u64 = ["manifest.json", "columns.jsonl"]
            .iter()
            .filter_map(|f| std::fs::metadata(fx.store.run_dir(stored).join(f)).ok())
            .map(|m| m.len())
            .sum();
        self.put("sweep.store_bytes_per_run", "B", bytes as f64, 1);
        // Median of three cold sweeps of the two-run probe batch, and the
        // all-cached sweep that follows it.
        let sweep_walls = |workers: usize| {
            let mut walls: Vec<(f64, f64)> = (0..3)
                .map(|rep| {
                    let dir = ctx.scratch.join(format!("workers{workers}_{rep}"));
                    let store = RunStore::open(fresh_dir(&dir)).expect("open store");
                    let engine = SweepEngine::new(store).with_workers(workers);
                    let t0 = Instant::now();
                    engine.run(&fx.probe_batch).expect("probe batch");
                    let cold = secs(t0.elapsed());
                    let t0 = Instant::now();
                    engine.run(&fx.probe_batch).expect("probe batch again");
                    (cold, secs(t0.elapsed()))
                })
                .collect();
            walls.sort_by(|a, b| a.0.total_cmp(&b.0));
            walls[1]
        };
        let (one, _) = sweep_walls(1);
        let (two, rerun) = sweep_walls(2);
        self.put("sweep.workers2_speedup", "x", one / two, 3);
        self.put("sweep.warm_rerun_ms", "ms", rerun * 1e3, 3);
        execute
    }

    /// stream: what cutting slices costs the simulation, reading them back,
    /// and folding them.
    fn stream(&mut self, execute: f64) {
        let fx = self.fx;
        let mut noop = |_: &Slice| Ok(SliceControl::Continue);
        let sliced = median_secs(3, || {
            drop(black_box(fx.probe.execute_streamed(LIVE_WINDOW, &mut noop)));
        });
        self.put("stream.slice_overhead_pct", "%", 100.0 * (sliced / execute - 1.0), 3);
        let live_dir = fx.store.run_dir(&fx.live_run);
        let sealed = read_progress(&live_dir).ok().flatten().map_or(0, |p| p.sealed);
        self.put("stream.slices_sealed", "count", sealed as f64, 1);
        self.time_ms("stream.read_slices_ms", 5, || read_slices(&live_dir, 0));
        let slices = read_slices(&live_dir, 0).unwrap_or_default();
        let count = slices.len().max(1) as u64;
        let bytes: usize = slices.iter().map(|s| s.to_json().len()).sum();
        self.put("stream.slice_bytes", "B", bytes as f64 / count as f64, count);
        const FOLDS: u64 = 2_000;
        let t0 = Instant::now();
        for _ in 0..FOLDS {
            let mut fold = LiveAggregate::new();
            for s in &slices {
                black_box(fold.merge_slice(s));
            }
        }
        let per_slice = secs(t0.elapsed()) * 1e6 / (FOLDS * count) as f64;
        self.put("core.live_merge_us_per_slice", "us", per_slice, FOLDS * count);
    }

    /// core + render: one stored explore-scale run under the Fig. 5(a) script.
    fn core(&mut self) {
        let fx = self.fx;
        let stored = fx.store.load(&fx.runs[0]).expect("load fixture run");
        let other = fx.store.load(&fx.runs[1]).expect("load fixture run").data.to_dataset();
        self.time_ms("core.dataset_build_ms", 5, || stored.data.to_dataset());
        let ds = stored.data.to_dataset();
        let spec = parse_script(SCRIPTS[0]).expect("fixed script");
        // The three groupings of the Fig. 5(a) script, written out.
        let levels = [
            TreeLevel {
                entity: EntityKind::GlobalLink,
                fields: vec![Field::GroupId],
                max_bins: Some((Field::Traffic, 8)),
            },
            TreeLevel {
                entity: EntityKind::Router,
                fields: vec![Field::RouterRank],
                max_bins: None,
            },
            TreeLevel {
                entity: EntityKind::Terminal,
                fields: vec![Field::RouterPort, Field::Workload],
                max_bins: None,
            },
        ];
        self.time_ms("core.aggregate_ms", 5, || AggregateTree::build(&ds, &levels));
        self.time_ms("core.project_ms", 5, || build_view(&ds, &spec));
        let view = build_view(&ds, &spec).expect("fixed script builds");
        let policy = RenderPolicy::default();
        let hash = fingerprint64(&fx.runs[0]);
        self.time_ms("core.graph_build_ms", 5, || ProjectionGraph::build(&view, &policy, hash));
        let graph = ProjectionGraph::build(&view, &policy, hash);
        self.time_ms("core.envelope_encode_ms", 5, || encode(&graph));
        self.time_ms("core.compare_ms", 5, || compare_views(&[&ds, &other], &spec));
        let agg = AggregateCache::new();
        let key = DataKey { run: 1, generation: 0 };
        for script in SCRIPTS {
            let spec = parse_script(script).expect("fixed script");
            black_box(build_view_cached(&ds, &spec, &agg, key).is_ok());
        }
        let lookups = agg.hits() + agg.misses();
        let hit_ratio = 100.0 * agg.hits() as f64 / lookups.max(1) as f64;
        self.put("core.agg_cache_hit_ratio", "%", hit_ratio, lookups);
        let layout = RadialLayout::default();
        self.time_ms("render.svg_ms", 5, || render_radial(&view, &layout, "probe"));
        let svg_bytes = render_radial(&view, &layout, "probe").len();
        self.put("render.svg_bytes", "B", svg_bytes as f64, 1);
    }

    /// serve without the socket: a cold handle on a fresh `App` per request,
    /// then the warm path split into parse, handle and write. Returns the
    /// warm handle time in µs for the socket probe to subtract.
    fn serve_in_process(&mut self) -> f64 {
        let fx = self.fx;
        let pair = &fx.runs[..2];
        let cold: Vec<f64> = pair
            .iter()
            .flat_map(|run| SCRIPTS.iter().map(move |script| (run, script)))
            .map(|(run, script)| {
                let app = App::new(fx.store.clone());
                let req = parse_request(&view_request(run, script, None));
                let t0 = Instant::now();
                black_box(app.handle(&req).status);
                secs(t0.elapsed()) * 1e3
            })
            .collect();
        let samples = cold.len() as u64;
        self.put("serve.handle_cold_ms", "ms", median(&sorted(cold)), samples);
        // A cold comparison of the routing pair: two loads and a shared scale.
        let compare_cold: Vec<f64> = SCRIPTS
            .iter()
            .map(|script| {
                let app = App::new(fx.store.clone());
                let (a, b) = (pair[0].clone(), pair[1].clone());
                let req = parse_request(&ColdRequest::Compare { a, b, script }.bytes());
                let t0 = Instant::now();
                black_box(app.handle(&req).status);
                secs(t0.elapsed()) * 1e3
            })
            .collect();
        let samples = compare_cold.len() as u64;
        self.put("serve.compare_cold_ms", "ms", median(&sorted(compare_cold)), samples);

        const CALLS: u32 = 50_000;
        let per_call_ns = |d: Duration| d.as_nanos() as f64 / f64::from(CALLS);
        let warm = warm_app(&fx.store, pair);
        let conditional = &warm.requests[0].0;
        let t0 = Instant::now();
        for _ in 0..CALLS {
            black_box(parse_request(conditional).path.len());
        }
        self.put("serve.http_parse_ns", "ns", per_call_ns(t0.elapsed()), u64::from(CALLS));
        let req = parse_request(conditional);
        let t0 = Instant::now();
        for _ in 0..CALLS {
            black_box(warm.app.handle(&req).status);
        }
        let handle_warm_us = per_call_ns(t0.elapsed()) / 1e3;
        self.put("serve.handle_warm_us", "us", handle_warm_us, u64::from(CALLS));
        let not_modified = warm.app.handle(&req);
        let mut sink = Vec::with_capacity(512);
        let t0 = Instant::now();
        for _ in 0..CALLS {
            sink.clear();
            black_box(not_modified.write_to(&mut sink, false).is_ok());
        }
        self.put("serve.write_ns", "ns", per_call_ns(t0.elapsed()), u64::from(CALLS));
        handle_warm_us
    }

    /// serve with the socket, under an installed collector so `/metricsz`
    /// counts: a cold fill, a burst of revalidations, one SSE replay.
    fn serve_over_socket(&mut self, handle_warm_us: f64) {
        const TRIPS: u64 = 5_000;
        let fx = self.fx;
        hrviz_obs::install(Collector::enabled());
        let served = Served::bind(fx.store.clone());
        let mut conn = Conn::connect(served.addr).expect("connect to the probe server");
        let mut last = (String::new(), String::new());
        for run in &fx.runs[..2] {
            for script in SCRIPTS {
                let reply = conn.roundtrip(&view_request(run, script, None)).expect("cold fill");
                last = (run.clone(), reply.etag.unwrap_or_default());
            }
        }
        let revalidate = view_request(&last.0, SCRIPTS[SCRIPTS.len() - 1], Some(&last.1));
        let trips: Vec<f64> = (0..TRIPS)
            .map(|_| {
                let t0 = Instant::now();
                black_box(conn.roundtrip(&revalidate).is_ok());
                secs(t0.elapsed()) * 1e6
            })
            .collect();
        let overhead = median(&sorted(trips)) - handle_warm_us;
        self.put("serve.socket_overhead_us", "us", overhead, TRIPS);
        let mut sse_events = 0u64;
        let _ = client::watch_sse(served.addr, &fx.live_run, |_| sse_events += 1);
        let snapshot = conn
            .roundtrip(&client::request("GET", "/metricsz", "", None))
            .ok()
            .and_then(|r| Json::parse(&String::from_utf8_lossy(&r.body)).ok())
            .unwrap_or(Json::Null);
        drop(conn);
        served.shutdown();
        hrviz_obs::install(Collector::disabled());
        let counter = |name: &str| {
            snapshot.get("counters").and_then(|c| c.get(name)).and_then(Json::as_f64).unwrap_or(0.0)
        };
        let warm = counter("serve/cache_hit") + counter("serve/not_modified");
        let answered = warm + counter("serve/cache_miss");
        self.put("serve.cache_hit_ratio", "%", 100.0 * warm / answered.max(1.0), answered as u64);
        self.put("serve.shed", "count", counter("serve/shed"), 1);
        self.put("serve.singleflight_coalesced", "count", counter("serve/coalesced"), 1);
        self.put("serve.sse_watchers", "count", counter("stream/sse_watchers"), 1);
        self.put("serve.sse_events", "count", sse_events as f64, 1);
    }
}

/// Measure every layer in isolation. The values of all exact counts depend
/// only on the seed; everything else is host time.
fn probes(ctx: &Ctx, fx: &Fixture) -> (Vec<Metric>, Vec<(String, bool)>) {
    let mut p = Probes { ctx, fx, rng: ctx.rng("probes"), metrics: Vec::new(), checks: Vec::new() };
    let run = p.simulation();
    let execute = p.sweep(&run);
    p.stream(execute);
    p.core();
    let handle_warm_us = p.serve_in_process();
    p.serve_over_socket(handle_warm_us);
    (p.metrics, p.checks)
}

// ---------------------------------------------------------------- the pass

fn print_table(rows: &[spans::Row], wall_ns: u64) {
    println!("  per-layer self time (traced replay, {:.3} s wall)", wall_ns as f64 / 1e9);
    for r in rows {
        println!(
            "    {:<26} {:>8} calls {:>12.3} ms {:>6.2}%",
            r.name,
            r.count,
            r.self_ns as f64 / 1e6,
            100.0 * r.self_ns as f64 / wall_ns.max(1) as f64
        );
    }
}

/// The traced pass of workload `name`: replay it layer by layer under the
/// recorder, run the same units through the real entry points, probe every
/// layer, and report all of it.
pub fn traced(name: &str, ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let fx = fixture(name, ctx);
    out.sim_digest = crate::report::sim_digest(&fx.store, &fx.runs);

    // Replay whole units until the share of the time is used: each unit once
    // layer by layer under the recorder and once through the real entry
    // point, alternating which goes first so drift and warm-up fall on both
    // sides alike.
    let tracer = Tracer::on();
    let mut replay = Replay::new(name, "replay_traced", false, ctx, &fx);
    let mut real = Replay::new(name, "replay_real", true, ctx, &fx);
    let budget = Duration::from_secs_f64(ctx.seconds * 2.0 * REPLAY_SHARE);
    let (mut traced_wall, mut real_wall) = (Duration::ZERO, Duration::ZERO);
    let mut real_ok = true;
    let mut units = 0u32;
    let started = Instant::now();
    while units == 0 || started.elapsed() < budget {
        // Odd units run the real twin first: whoever goes second finds
        // warmer caches.
        for traced in if units % 2 == 0 { [true, false] } else { [false, true] } {
            let t0 = Instant::now();
            if traced {
                let (ops, ok) = tracer.span("bench.unit", || replay.unit(&tracer));
                traced_wall += t0.elapsed();
                out.attempted += ops;
                out.failed += if ok { 0 } else { ops };
            } else {
                real_ok &= real.unit(&Tracer::off()).1;
                real_wall += t0.elapsed();
            }
        }
        units += 1;
    }
    out.check("every unit succeeded through the real entry point", real_ok);
    out.check(
        "the layer-by-layer replay produced what the real entry points produced",
        replay.produced() == real.produced(),
    );
    drop((replay, real));

    let records = tracer.records();
    let rows = spans::table_by_name(&records);
    let wall_ns: u64 =
        records.iter().filter(|r| r.parent.is_none()).map(|root| root.end - root.start).sum();
    let by_layer = spans::table_by_layer(&rows);
    let total: u64 = by_layer.values().sum();
    print_table(&rows, wall_ns);
    let trace_path =
        ctx.scratch.parent().unwrap_or(&ctx.scratch).join(format!("trace_{name}.jsonl"));
    if let Err(e) = spans::write_jsonl(&trace_path, name, &records) {
        eprintln!("e2e: cannot write {}: {e}", trace_path.display());
    }
    out.check(
        "per-layer rows sum to within 5 % of the traced wall",
        (total as f64 - wall_ns as f64).abs() <= 0.05 * wall_ns as f64,
    );
    out.check(
        "every replayed span belongs to a known layer",
        by_layer.keys().all(|layer| LAYERS.contains(&layer.as_str())),
    );

    let (metrics, checks) = probes(ctx, &fx);
    out.metrics = metrics;
    out.checks.extend(checks);
    for layer in LAYERS {
        let own = by_layer.get(layer).copied().unwrap_or(0);
        out.metrics.push(Metric::new(
            format!("share.{layer}_pct"),
            "%",
            100.0 * own as f64 / wall_ns.max(1) as f64,
            u64::from(units),
        ));
    }
    out.metrics.push(Metric::new(
        "trace.overhead_pct",
        "%",
        100.0 * (secs(traced_wall) / secs(real_wall) - 1.0),
        u64::from(units),
    ));
    out.metrics.push(Metric::new("trace.spans", "count", records.len() as f64, 1));
    out.check(
        "every per-layer metric is reported, once, in the listed order",
        out.metrics.iter().map(|m| m.name.as_str()).eq(PER_LAYER),
    );
    out.load = vec![
        (
            "loop",
            Json::Str(
                "serial on one thread: each unit layer by layer and through the real entry \
                 point, then fixed-work probes"
                    .into(),
            ),
        ),
        ("replay_units", Json::U64(u64::from(units))),
        ("traced_wall_s", Json::F64(secs(traced_wall))),
        ("real_wall_s", Json::F64(secs(real_wall))),
        ("trace_file", Json::Str(trace_path.display().to_string())),
    ];
    std::io::stdout().flush().ok();
    out
}

/// Every per-layer metric, in the order a traced run reports them and
/// `BENCHMARK.json` lists them.
pub const PER_LAYER: [&str; 60] = [
    "pdes.seq_events_per_s",
    "pdes.ns_per_event",
    "pdes.events_committed",
    "pdes.peak_queue_depth",
    "pdes.null_lp_events_per_s",
    "pdes.heap_ns_per_hold",
    "pdes.calendar_ns_per_hold",
    "pdes.par2_speedup",
    "pdes.par2_barrier_wait_share",
    "network.build_s",
    "network.run_s",
    "network.credit_stalls",
    "network.packets_delivered",
    "network.reroutes",
    "network.route_ns_per_call",
    "workloads.generate_s",
    "workloads.msgs_generated",
    "sweep.execute_s",
    "sweep.store_save_ms",
    "sweep.store_load_ms",
    "sweep.store_open_fsck_ms",
    "sweep.store_bytes_per_run",
    "sweep.workers2_speedup",
    "sweep.warm_rerun_ms",
    "stream.slice_overhead_pct",
    "stream.slices_sealed",
    "stream.read_slices_ms",
    "stream.slice_bytes",
    "core.live_merge_us_per_slice",
    "core.dataset_build_ms",
    "core.aggregate_ms",
    "core.project_ms",
    "core.graph_build_ms",
    "core.envelope_encode_ms",
    "core.compare_ms",
    "core.agg_cache_hit_ratio",
    "render.svg_ms",
    "render.svg_bytes",
    "serve.handle_cold_ms",
    "serve.compare_cold_ms",
    "serve.http_parse_ns",
    "serve.handle_warm_us",
    "serve.write_ns",
    "serve.socket_overhead_us",
    "serve.cache_hit_ratio",
    "serve.shed",
    "serve.singleflight_coalesced",
    "serve.sse_watchers",
    "serve.sse_events",
    "share.pdes_network_pct",
    "share.network_pct",
    "share.workloads_pct",
    "share.sweep_pct",
    "share.stream_pct",
    "share.core_pct",
    "share.render_pct",
    "share.serve_pct",
    "share.bench_pct",
    "trace.overhead_pct",
    "trace.spans",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relay_engine_and_hold_model_do_the_work_they_report() {
        assert!(null_lp_rate(64, 32, SimTime(100)) > 0.0);
        let mut rng = Rng::new(1);
        let mut heap = HeapQueue::new();
        assert!(hold_ns(&mut heap, 100, &mut rng) > 0.0);
        assert_eq!(heap.len(), 100, "the hold model keeps its depth");
        let mut calendar = CalendarQueue::new(16);
        assert!(hold_ns(&mut calendar, 100, &mut rng) > 0.0);
        assert_eq!(calendar.len(), 100);
    }
}
