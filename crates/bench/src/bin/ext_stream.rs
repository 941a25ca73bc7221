//! Extension: live streaming analytics (EXPERIMENTS.md `ext_stream`).
//! Sweeps the same 4-config grid (72-terminal Dragonfly, minimal vs
//! adaptive × uniform-random vs tornado) twice — once in batch mode and
//! once streamed with a 250 µs slice window — into fresh stores, best of
//! three repetitions each, and measures:
//!
//! * **slice overhead**: the streamed sweep's wall-time cost over the
//!   batch sweep (gate: ≤5%), with the manifests and columnar tables
//!   byte-identical between the two stores — the slice emitter must not
//!   perturb the simulation, only observe it;
//! * **SSE fan-out**: 8 concurrent raw-TCP watchers on one run's
//!   `GET /runs/{id}/stream`, all served by the hub's single tailer
//!   thread; every watcher must read a byte-identical replay with ≥2
//!   `event: slice` frames and exactly one `event: end`.
//!
//! The overhead percentage, slice counts, and fan-out timings are printed.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use hrviz_bench::{out_dir, Expectations};
use hrviz_network::RoutingAlgorithm;
use hrviz_pdes::SimTime;
use hrviz_serve::{ServeConfig, Server, ServerHandle};
use hrviz_sweep::{
    read_progress, RunStore, StreamOptions, SweepEngine, SweepOptions, SweepOutcome, SweepSpec,
    TopologyAxis,
};
use hrviz_workloads::TrafficPattern;

/// Wall-time repetitions per mode; the minimum is the measurement.
const REPS: usize = 5;
/// Concurrent SSE watchers in the fan-out phase.
const WATCHERS: usize = 8;

/// The 4-config grid both modes sweep.
fn grid() -> SweepSpec {
    SweepSpec::new("ext_stream", TopologyAxis::Dragonfly { terminals: 72 })
        .routings([RoutingAlgorithm::Minimal, RoutingAlgorithm::adaptive_default()])
        .patterns([TrafficPattern::UniformRandom, TrafficPattern::Tornado])
        .msgs_per_rank(64)
        .msg_bytes(16 * 1024)
        .period(SimTime::micros(1))
}

fn fresh_store(dir: &Path) -> RunStore {
    let _ = std::fs::remove_dir_all(dir);
    RunStore::open(dir).expect("open store")
}

/// Sweep the grid into a fresh store under `dir`, returning the outcome
/// and wall seconds.
fn timed_sweep(dir: &Path, opts: &SweepOptions) -> (SweepOutcome, f64) {
    let engine = SweepEngine::new(fresh_store(dir)).with_workers(1);
    let t0 = Instant::now();
    let outcome = engine.run_with(&grid(), opts).expect("sweep completes");
    (outcome, t0.elapsed().as_secs_f64())
}

/// Best-of-`REPS` cold sweep wall time for one mode. Every repetition
/// starts from a fresh store so nothing is a cache hit. Returns the
/// minimum wall (least scheduler noise) and the last outcome.
fn best_of(dir: &Path, opts: &SweepOptions) -> (SweepOutcome, f64) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..REPS {
        let (outcome, wall) = timed_sweep(dir, opts);
        best = best.min(wall);
        last = Some(outcome);
    }
    (last.expect("at least one repetition"), best)
}

/// `manifest.json` + `columns.jsonl` bytes under `root`, keyed by path
/// relative to it — the files both modes must agree on. The streamed
/// store additionally holds `progress.json` + `slices/`, which batch
/// mode (correctly) never writes.
fn sim_tree(root: &Path) -> BTreeMap<String, Vec<u8>> {
    fn walk(dir: &Path, root: &Path, out: &mut BTreeMap<String, Vec<u8>>) {
        for entry in std::fs::read_dir(dir).expect("read store dir") {
            let path = entry.expect("store entry").path();
            if path.is_dir() {
                walk(&path, root, out);
            } else if matches!(
                path.file_name().and_then(|n| n.to_str()),
                Some("manifest.json" | "columns.jsonl")
            ) {
                let rel = path.strip_prefix(root).expect("store prefix").display().to_string();
                out.insert(rel, std::fs::read(&path).expect("read store file"));
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(root, root, &mut out);
    out
}

fn bind(
    store: RunStore,
) -> (SocketAddr, ServerHandle, std::thread::JoinHandle<hrviz_serve::ServeReport>) {
    let cfg = ServeConfig { addr: "127.0.0.1:0".into(), workers: 4, ..ServeConfig::default() };
    let server = Server::bind(cfg, store).expect("bind loopback");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.serve().expect("serve loop"));
    (addr, handle, thread)
}

/// One raw SSE watch: GET the stream, read to EOF (the hub closes the
/// socket after the terminal event), return the full body text.
fn watch_sse(addr: SocketAddr, run: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    let req = format!("GET /runs/{run}/stream HTTP/1.1\r\nHost: bench\r\n\r\n");
    stream.write_all(req.as_bytes()).expect("send request");
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf).expect("read stream to EOF");
    let text = String::from_utf8_lossy(&buf).into_owned();
    let split = text.find("\r\n\r\n").expect("complete response head");
    text[split + 4..].to_string()
}

fn main() {
    hrviz_bench::obs_init("ext_stream");
    println!("Extension: live streaming analytics (Dragonfly 72t, 4 configs, 250 µs slices)");
    let out = out_dir();

    let batch_root = out.join("store_ext_stream_batch");
    let streamed_root = out.join("store_ext_stream_live");
    let streamed_opts = SweepOptions {
        stream: Some(StreamOptions { window: SimTime::micros(250), abort: None }),
        ..SweepOptions::default()
    };

    let (batch, batch_wall) = best_of(&batch_root, &SweepOptions::default());
    println!("  batch    sweep: {} runs in {batch_wall:.3}s (best of {REPS})", batch.store_misses);
    let (streamed, streamed_wall) = best_of(&streamed_root, &streamed_opts);
    println!(
        "  streamed sweep: {} runs in {streamed_wall:.3}s (best of {REPS})",
        streamed.store_misses
    );
    let overhead_pct = (streamed_wall / batch_wall.max(1e-9) - 1.0) * 100.0;
    println!("  slice overhead: {overhead_pct:+.2}%");

    let identical = sim_tree(&batch_root) == sim_tree(&streamed_root);

    // Watermarks: every streamed run must hold a terminal `completed`
    // progress file whose watermark seals at least two slices.
    let store = RunStore::open(&streamed_root).expect("reopen streamed store");
    let runs = store.runs().expect("list runs");
    let mut sealed_total = 0u64;
    let mut watermarks_ok = !runs.is_empty();
    for run in &runs {
        match read_progress(&store.run_dir(run)).expect("read watermark") {
            Some(p) if p.is_terminal() && p.state == "completed" && p.sealed >= 2 => {
                sealed_total += p.sealed;
            }
            other => {
                println!("  [gate] run {run} has unexpected progress: {other:?}");
                watermarks_ok = false;
            }
        }
    }
    println!("  watermarks: {} slices sealed across {} runs", sealed_total, runs.len());

    // SSE fan-out: 8 concurrent watchers replay one run's stream.
    let (addr, handle, serve_thread) = bind(store);
    let run = runs.first().expect("streamed store has runs").clone();
    let t_fan = Instant::now();
    let threads: Vec<_> = (0..WATCHERS)
        .map(|_| {
            let run = run.clone();
            std::thread::spawn(move || watch_sse(addr, &run))
        })
        .collect();
    let bodies: Vec<String> =
        threads.into_iter().map(|t| t.join().expect("watcher thread")).collect();
    let fanout_wall = t_fan.elapsed().as_secs_f64();
    handle.shutdown();
    let report = serve_thread.join().expect("serve thread");

    let slice_events = bodies[0].matches("event: slice").count();
    let end_events = bodies[0].matches("event: end").count();
    let fanout_identical = bodies.iter().all(|b| b == &bodies[0]);
    println!(
        "  fan-out: {WATCHERS} watchers, {slice_events} slice events each, \
         {:.1} ms wall, report {report:?}",
        fanout_wall * 1e3
    );

    let mut exp = Expectations::new();
    exp.check("both modes simulate the full 4-config grid", {
        batch.store_misses == 4 && streamed.store_misses == 4
    });
    exp.check("streaming does not perturb the simulation (stores agree)", identical);
    exp.check("slice overhead ≤5% over the batch sweep", overhead_pct <= 5.0);
    exp.check("every streamed run seals ≥2 slices and completes", watermarks_ok);
    exp.check(
        "each watcher sees ≥2 slice events and exactly one terminal event",
        slice_events >= 2 && end_events == 1,
    );
    exp.check("all 8 watchers read byte-identical replays", fanout_identical);
    exp.check("nothing shed while fanning out", report.shed == 0);
    let ok = exp.finish("ext_stream");

    std::process::exit(i32::from(!ok));
}
