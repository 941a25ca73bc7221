//! The two simulation workloads, measured from outside with tracing off.
//!
//! `sim_uniform` is a batch sweep: pdes + network do almost all the work over
//! a shallow, steady calendar, and store/core/serve do almost nothing.
//! `live_bursty` uses the same engine differently — bursty same-timestamp
//! batches, deep queues, adaptive routing decisions — while a server and a
//! watcher read what the run is writing.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use hrviz_obs::Json;
use hrviz_sweep::{read_progress, RunStore, SweepEngine, SweepSpec};

use crate::client::{self, Conn};
use crate::gen;
use crate::host;
use crate::report::{
    end_to_end, fresh_dir, ms, sim_digest, store_digest, timed_setup, Ctx, Outcome, Served,
    SERVER_WORKERS,
};
use crate::stats::summarize;

const SWEEP_WORKERS: usize = 2;
/// Times each finished batch is asked for again (every one a pure cache hit).
const RERUNS_PER_BATCH: usize = 20;
/// The poller's period: an analyst's dashboard refreshing ten times a second.
const POLL_PERIOD: Duration = Duration::from_millis(100);

/// `sim_uniform`: batches of {minimal, adaptive} × one seed on two sweep
/// workers into a flat store, until the time is up.
pub fn uniform(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut rng = ctx.rng("sim_uniform");
    let warm_seed = rng.sim_seed();

    // Set-up: a fresh store and one small batch on both workers, so the
    // measured batches start with the allocator and page cache warm. Every
    // repetition runs the same two configurations into its own store; their
    // bytes must agree.
    let mut digests = Vec::new();
    let (engine, setup) = timed_setup(ctx.scale.setup_reps, |rep| {
        let store = RunStore::open(fresh_dir(&ctx.scratch.join(format!("store{rep}"))))
            .expect("open store");
        let engine = SweepEngine::new(store).with_workers(SWEEP_WORKERS);
        let warm = gen::uniform_batch(&ctx.scale, ctx.scale.small_msgs, warm_seed);
        engine.run(&warm).expect("warm-up batch");
        digests.push(store_digest(engine.store()));
        engine
    });
    out.check(
        "repeated runs of one config give identical columns.jsonl and manifest digests",
        digests.windows(2).all(|w| w[0] == w[1]) && digests.len() >= 2,
    );

    let mut walls = Vec::new();
    let mut rates = Vec::new();
    let mut reruns = Vec::new();
    let mut events = 0u64;
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < ctx.seconds {
        let spec = gen::uniform_batch(&ctx.scale, ctx.scale.sim_msgs, rng.sim_seed());
        let t0 = Instant::now();
        let result = engine.run(&spec);
        let wall = t0.elapsed();
        let simulated = result.as_ref().map_or(0, |o| o.store_misses);
        for i in 0..2 {
            out.op(i < simulated);
        }
        let Ok(outcome) = result else { continue };
        if walls.is_empty() {
            out.sim_digest = sim_digest(engine.store(), &outcome.run_ids);
        }
        events += outcome.events_simulated;
        rates.push(outcome.events_simulated as f64 / wall.as_secs_f64());
        walls.push(ms(wall));
        // The follow-up an analyst makes: ask for the same sweep again.
        for _ in 0..RERUNS_PER_BATCH {
            let t1 = Instant::now();
            let again = engine.run(&spec);
            reruns.push(ms(t1.elapsed()));
            out.op(again.is_ok_and(|o| o.store_hits == 2 && o.events_simulated == 0));
        }
    }

    // About fifteen batches fit, too few for any percentile to have ten
    // samples beyond it; the upper quartile is the steadiest tail they give.
    let latency = summarize(&walls, 75.0);
    let peak = [host::peak_rss_mb()];
    out.metrics = end_to_end(&setup, &peak, &rates, &latency, &summarize(&reruns, 50.0));
    out.load = vec![
        ("loop", Json::Str("closed: next batch starts when the last is durable".into())),
        ("sweep_workers", Json::U64(SWEEP_WORKERS as u64)),
        ("runs_per_batch", Json::U64(2)),
        ("batches", Json::U64(walls.len() as u64)),
        ("events_simulated", Json::U64(events)),
    ];
    out.load.extend(setup.load_facts());
    out
}

/// First wall-clock sighting of each watermark value, by the benchmark's own
/// 1 ms poll of `progress.json` — the reference SSE arrivals are held to.
struct Watermarks {
    /// `seen[k]`: when a watermark above `k` (slice `k` sealed) was first read.
    seen: Vec<Instant>,
    /// The terminal watermark, if the run reached one.
    sealed: Option<u64>,
}

fn poll_watermarks(run_dir: &Path, appeared: &AtomicBool, stop: &AtomicBool) -> Watermarks {
    let mut marks = Watermarks { seen: Vec::new(), sealed: None };
    loop {
        if let Ok(Some(progress)) = read_progress(run_dir) {
            let now = Instant::now();
            appeared.store(true, Ordering::SeqCst);
            while (marks.seen.len() as u64) < progress.sealed {
                marks.seen.push(now);
            }
            if progress.is_terminal() {
                marks.sealed = Some(progress.sealed);
                return marks;
            }
        }
        if stop.load(Ordering::SeqCst) {
            return marks;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// What one SSE watcher saw.
#[derive(Default)]
struct SseLog {
    attached: bool,
    /// `(slice seq, arrival)` in arrival order.
    slices: Vec<(u64, Instant)>,
    /// `sealed` from the terminal `event: end`.
    end_sealed: Option<u64>,
}

fn watch_run(
    addr: SocketAddr,
    run: &str,
    watched: &Mutex<Option<String>>,
    appeared: &AtomicBool,
    stop: &AtomicBool,
) -> SseLog {
    let mut log = SseLog::default();
    // The stream endpoint answers 404 until the run has a watermark; a real
    // watcher learns that from `/runs?state=running`, this one from the poll.
    while !appeared.load(Ordering::SeqCst) {
        if stop.load(Ordering::SeqCst) {
            return log;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    // From here the run answers `/progress`, so the poller may follow it too.
    *watched.lock().expect("watched-run lock") = Some(run.to_string());
    let status = client::watch_sse(addr, run, |ev| {
        let arrived = Instant::now();
        let field = |key| Json::parse(ev.data).ok().and_then(|v| v.get(key)?.as_u64());
        match ev.event {
            "slice" => log.slices.extend(field("seq").map(|seq| (seq, arrived))),
            "end" => log.end_sealed = field("sealed"),
            _ => {}
        }
    });
    log.attached = matches!(status, Ok(200));
    log
}

/// Due-time accounting for an open loop: a request is due on schedule whether
/// or not the previous one has finished, is sent as soon after that as the
/// connection is free, and is timed from when it was due — so a stall is
/// charged to every request it delays. Returns `(lateness, latency)` for a
/// request due at `due`, sent at `sent` and answered at `done`, all measured
/// from the loop's start.
pub fn from_due(due: Duration, sent: Duration, done: Duration) -> (Duration, Duration) {
    (sent.saturating_sub(due), done.saturating_sub(due))
}

#[derive(Default)]
struct PollLog {
    attempted: u64,
    failed: u64,
    lateness_ms: Vec<f64>,
    listing_ms: Vec<f64>,
    progress_ms: Vec<f64>,
}

/// The open-loop poller: every 100 ms, list the running runs and read the
/// watched run's progress, on one keep-alive connection.
fn poll_server(addr: SocketAddr, watched: &Mutex<Option<String>>, stop: &AtomicBool) -> PollLog {
    let mut log = PollLog::default();
    let Ok(mut conn) = Conn::connect(addr) else {
        log.attempted = 1;
        log.failed = 1;
        return log;
    };
    let listing = client::request("GET", "/runs?state=running", "", None);
    let start = Instant::now();
    for tick in 0.. {
        let due = POLL_PERIOD * tick;
        if let Some(wait) = due.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let sent = start.elapsed();
        let ok = conn.roundtrip(&listing).is_ok_and(|r| r.status == 200);
        let (late, latency) = from_due(due, sent, start.elapsed());
        log.attempted += 1;
        log.failed += u64::from(!ok);
        log.lateness_ms.push(ms(late));
        log.listing_ms.push(ms(latency));
        let run = watched.lock().expect("watched-run lock").clone();
        if let Some(run) = run {
            let req = client::request("GET", &format!("/runs/{run}/progress"), "", None);
            let ok = conn.roundtrip(&req).is_ok_and(|r| r.status == 200);
            let (_, latency) = from_due(due, sent, start.elapsed());
            log.attempted += 1;
            log.failed += u64::from(!ok);
            log.progress_ms.push(ms(latency));
        }
    }
    log
}

/// One watched run: sweep it streamed on one worker while an SSE client and
/// the watermark poll follow it. Returns the sweep wall (spec → durable),
/// the events simulated and the per-slice SSE lags in ms.
fn watched_run(
    engine: &SweepEngine,
    addr: SocketAddr,
    spec: &SweepSpec,
    watched: &Mutex<Option<String>>,
    out: &mut Outcome,
) -> Option<(Duration, u64, Vec<f64>)> {
    let run = spec.expand().expect("spec expands")[0].run_id();
    let run_dir = engine.store().run_dir(&run);
    let (appeared, stop) = (AtomicBool::new(false), AtomicBool::new(false));
    let (result, wall, marks, log) = std::thread::scope(|s| {
        let poll = s.spawn(|| poll_watermarks(&run_dir, &appeared, &stop));
        let watch = s.spawn(|| watch_run(addr, &run, watched, &appeared, &stop));
        let t0 = Instant::now();
        let result = engine.run_with(spec, &gen::streamed());
        let wall = t0.elapsed();
        if result.is_err() {
            stop.store(true, Ordering::SeqCst);
        }
        // A completed run leaves a terminal watermark, which ends both.
        let marks = poll.join().expect("watermark poll");
        let log = watch.join().expect("sse watcher");
        (result, wall, marks, log)
    });
    let outcome = result.ok().filter(|o| o.store_misses == 1);
    out.op(outcome.is_some());
    let sealed = marks.sealed.unwrap_or(0);
    // Every sealed slice must arrive, in order, then exactly one `end`.
    let in_order = log.slices.iter().map(|(seq, _)| *seq).eq(0..sealed);
    for seq in 0..sealed {
        out.op(log.attached && log.slices.iter().any(|(s, _)| *s == seq));
    }
    out.op(log.end_sealed == Some(sealed) && in_order);
    let lags = log
        .slices
        .iter()
        .filter_map(|(seq, arrived)| {
            marks.seen.get(*seq as usize).map(|seen| ms(arrived.saturating_duration_since(*seen)))
        })
        .collect();
    outcome.map(|o| (wall, o.events_simulated, lags))
}

/// `live_bursty`: one streamed run at a time on one sweep worker, a server in
/// the same process, one SSE client per run and one open-loop poller.
pub fn bursty(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut rng = ctx.rng("live_bursty");
    let warm = gen::bursty_run(&ctx.scale, ctx.scale.small_msgs, rng.sim_seed());
    let watched = Mutex::new(None);

    // Set-up: a fresh store, a bound server, and one small watched run. The
    // same configuration also runs in batch mode into a side store: streaming
    // must observe the simulation, not change it.
    let mut identical = true;
    let mut warm_out = Outcome::default();
    let ((engine, served), setup) = timed_setup(ctx.scale.setup_reps, |rep| {
        let store = RunStore::open(fresh_dir(&ctx.scratch.join(format!("store{rep}"))))
            .expect("open store");
        let engine = SweepEngine::new(store.clone()).with_workers(1);
        let served = Served::bind(store);
        watched_run(&engine, served.addr, &warm, &watched, &mut warm_out);
        let batch = RunStore::open(fresh_dir(&ctx.scratch.join(format!("batch{rep}"))))
            .expect("open batch store");
        let batch = SweepEngine::new(batch).with_workers(1);
        batch.run(&warm).expect("batch twin of the warm-up run");
        identical &= store_digest(batch.store()) == store_digest(engine.store());
        (engine, served)
    });
    out.check("streamed store == batch store bytes (manifest + columns)", identical);
    out.check("warm-up watched runs delivered every slice and an end", warm_out.failed == 0);

    let stop_poller = AtomicBool::new(false);
    let mut walls = Vec::new();
    let mut rates = Vec::new();
    let mut lags = Vec::new();
    let mut events = 0u64;
    let mut slices_match = true;
    let polls = std::thread::scope(|s| {
        let poller = s.spawn(|| poll_server(served.addr, &watched, &stop_poller));
        let started = Instant::now();
        while started.elapsed().as_secs_f64() < ctx.seconds {
            let spec = gen::bursty_run(&ctx.scale, ctx.scale.sim_msgs, rng.sim_seed());
            let failed_before = out.failed;
            let Some((wall, simulated, run_lags)) =
                watched_run(&engine, served.addr, &spec, &watched, &mut out)
            else {
                continue;
            };
            slices_match &= out.failed == failed_before;
            if walls.is_empty() {
                let run = spec.expand().expect("spec expands")[0].run_id();
                out.sim_digest = sim_digest(engine.store(), &[run]);
            }
            events += simulated;
            rates.push(simulated as f64 / wall.as_secs_f64());
            walls.push(ms(wall));
            lags.extend(run_lags);
        }
        stop_poller.store(true, Ordering::SeqCst);
        poller.join().expect("open-loop poller")
    });
    let report = served.shutdown();
    out.attempted += polls.attempted;
    out.failed += polls.failed;
    out.check("SSE slices received == progress.sealed, closed by event: end", slices_match);
    out.check("nothing shed", report.shed == 0);

    let lag = summarize(&lags, 95.0);
    let peak = [host::peak_rss_mb()];
    out.metrics = end_to_end(&setup, &peak, &rates, &lag, &summarize(&polls.progress_ms, 50.0));
    let lateness = summarize(&polls.lateness_ms, 95.0);
    out.load = vec![
        ("loop", Json::Str("runs: closed, one at a time; poller: open, every 100 ms".into())),
        ("sweep_workers", Json::U64(1)),
        ("server_workers", Json::U64(SERVER_WORKERS as u64)),
        ("connections", Json::Str("1 SSE per run + 1 keep-alive poller".into())),
        ("runs", Json::U64(walls.len() as u64)),
        ("run_wall_p50_ms", Json::F64(summarize(&walls, 50.0).p50)),
        ("slices", Json::U64(lags.len() as u64)),
        ("sse_lag_tail_supported", Json::Bool(lag.tail_supported)),
        ("poll_lateness_p50_ms", Json::F64(lateness.p50)),
        ("poll_lateness_p95_ms", Json::F64(lateness.tail)),
        ("listing_p50_ms", Json::F64(summarize(&polls.listing_ms, 50.0).p50)),
        ("events_simulated", Json::U64(events)),
    ];
    out.load.extend(setup.load_facts());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_times_from_when_a_request_was_due() {
        let at = Duration::from_millis;
        let due = |tick: u32| at(100) * tick;
        // On time: sent when due, 5 ms of service.
        assert_eq!(from_due(due(1), at(100), at(105)), (at(0), at(5)));
        // A 250 ms stall on tick 0 makes ticks 1 and 2 late; each is charged
        // the wait since it was due, not since it was sent.
        assert_eq!(from_due(due(1), at(250), at(255)), (at(150), at(155)));
        assert_eq!(from_due(due(2), at(255), at(260)), (at(55), at(60)));
        // Woken a hair early: lateness never goes negative.
        assert_eq!(from_due(due(1), at(99), at(104)).0, at(0));
    }
}
