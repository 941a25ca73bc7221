//! The two exploration workloads over a store of paper-scale runs, measured
//! from outside with tracing off.
//!
//! `explore_cold` is an analyst opening runs: every cycle binds a fresh server
//! (empty caches, OS page cache warm) and touches every run, re-scripts it and
//! compares pairs — store load, columnar decode, aggregation, projection and
//! envelope encoding dominate; pdes and network do nothing. `explore_warm`
//! asks only for what is already cached, so only serve works (parse, route,
//! cache lookup, socket write, cursor verify): it is the bypass workload for
//! every core/store change.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use hrviz_obs::Json;
use hrviz_sweep::{RunStore, SweepEngine};

use crate::client::{self, Conn, Reply};
use crate::gen::{self, Rng, ScriptDeck, SCRIPTS};
use crate::host;
use crate::report::{
    end_to_end, fresh_dir, ms, sim_digest, timed_setup, Ctx, Outcome, Served, SERVER_WORKERS,
};
use crate::stats::summarize;

/// Requests per pipelined batch in the warm throughput phase.
const PIPELINE_BATCH: usize = 32;
/// Keep-alive connections in the warm throughput phase: one per core.
const PIPELINE_CONNS: usize = 2;
/// Nodes per page in the cursor walks.
const PAGE_SIZE: usize = 64;

/// Sweep the explore grid into a fresh store under `dir`; returns the store
/// and its run ids in expansion order (routing-major, so run `i` and run
/// `i + n/2` differ only in routing).
pub fn build_store(ctx: &Ctx, dir: &str) -> (RunStore, Vec<String>) {
    let store = RunStore::open(fresh_dir(&ctx.scratch.join(dir))).expect("open store");
    let engine = SweepEngine::new(store.clone()).with_workers(2);
    let spec = gen::explore_grid(&ctx.scale, &mut ctx.rng("explore_grid"));
    let outcome = engine.run(&spec).expect("sweep the explore grid");
    (store, outcome.run_ids)
}

/// The comparisons an analyst makes: the same pattern and seed under minimal
/// and under adaptive routing.
pub fn routing_pairs(runs: &[String]) -> Vec<(String, String)> {
    let half = runs.len() / 2;
    (0..half).map(|i| (runs[i].clone(), runs[i + half].clone())).collect()
}

pub fn view_request(run: &str, script: &str, inm: Option<&str>) -> Vec<u8> {
    client::request("POST", &format!("/views?run={run}"), script, inm)
}

/// One request of an `explore_cold` cycle.
pub enum ColdRequest {
    /// `POST /views?run=`; `first` marks the first touch of the run.
    View { run: String, script: &'static str, first: bool },
    /// `POST /compare?runs=a,b`.
    Compare { a: String, b: String, script: &'static str },
}

impl ColdRequest {
    pub fn bytes(&self) -> Vec<u8> {
        match self {
            ColdRequest::View { run, script, .. } => view_request(run, script, None),
            ColdRequest::Compare { a, b, script } => {
                client::request("POST", &format!("/compare?runs={a},{b}"), script, None)
            }
        }
    }
}

/// Generates `explore_cold` cycles. The workload, its traced replay and the
/// replay's real twin all ask for exactly these.
pub struct ColdCycles {
    rng: Rng,
    /// Which script touches a run first, and which a pair is compared under:
    /// both dealt from decks, so the costly scripts fall equally on every seed.
    first: ScriptDeck,
    compare: ScriptDeck,
}

impl ColdCycles {
    pub fn new(rng: Rng) -> ColdCycles {
        ColdCycles { rng, first: ScriptDeck::new(), compare: ScriptDeck::new() }
    }

    /// The requests of the next cycle: every run in seeded order, first under
    /// a dealt script and then under the other five in seeded order, then one
    /// comparison per routing pair under a dealt script.
    pub fn next_cycle(&mut self, runs: &[String]) -> Vec<ColdRequest> {
        let mut plan = Vec::new();
        let mut order = runs.to_vec();
        self.rng.shuffle(&mut order);
        for run in order {
            let first = self.first.draw(&mut self.rng);
            plan.push(ColdRequest::View { run: run.clone(), script: first, first: true });
            let mut rest: Vec<&'static str> =
                SCRIPTS.iter().copied().filter(|s| *s != first).collect();
            self.rng.shuffle(&mut rest);
            for script in rest {
                plan.push(ColdRequest::View { run: run.clone(), script, first: false });
            }
        }
        for (a, b) in routing_pairs(runs) {
            plan.push(ColdRequest::Compare { a, b, script: self.compare.draw(&mut self.rng) });
        }
        plan
    }
}

fn ok200(reply: &std::io::Result<Reply>) -> bool {
    reply.as_ref().is_ok_and(|r| r.status == 200)
}

/// `explore_cold`: closed loop, one connection. Each cycle binds a fresh
/// server, then per run one first-touch view and five re-scripts, then one
/// comparison per routing pair. Cycle 0 only warms the OS page cache.
pub fn cold(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let ((store, runs), setup) =
        timed_setup(ctx.scale.setup_reps, |rep| build_store(ctx, &format!("store{rep}")));
    out.sim_digest = sim_digest(&store, &runs);
    let mut cycles_of = ColdCycles::new(ctx.rng("explore_cold"));

    let (mut first, mut rescript, mut compare) = (Vec::new(), Vec::new(), Vec::new());
    let (mut rates, mut peaks) = (Vec::new(), Vec::new());
    let mut shed = 0u64;
    let mut cycles = 0u64;
    let started = Instant::now();
    while cycles == 0 || started.elapsed().as_secs_f64() < ctx.seconds {
        let measured = cycles > 0;
        let served = Served::bind(store.clone());
        let mut conn = Conn::connect(served.addr).expect("connect to the fresh server");
        let plan = cycles_of.next_cycle(&runs);
        // A cycle is one analyst session against one fresh server: its peak is
        // read per cycle, from what a fresh process would start with, and the
        // run reports the median.
        host::release_free_memory();
        host::reset_peak_rss();
        let cycle_start = Instant::now();
        for req in &plan {
            let samples = match req {
                ColdRequest::View { first: true, .. } => &mut first,
                ColdRequest::View { .. } => &mut rescript,
                ColdRequest::Compare { .. } => &mut compare,
            };
            let bytes = req.bytes();
            let t0 = Instant::now();
            let reply = conn.roundtrip(&bytes);
            let took = ms(t0.elapsed());
            if measured {
                out.op(ok200(&reply));
                samples.push(took);
            }
        }
        if measured {
            rates.push(plan.len() as f64 / cycle_start.elapsed().as_secs_f64());
            peaks.push(host::peak_rss_mb());
        }
        drop(conn);
        shed += served.shutdown().shed;
        cycles += 1;
    }
    out.check("no cycle shed a connection", shed == 0);

    let first_touch = summarize(&first, 90.0);
    let compare_cold = summarize(&compare, 50.0);
    out.metrics = end_to_end(&setup, &peaks, &rates, &first_touch, &summarize(&rescript, 50.0));
    out.load = vec![
        ("loop", Json::Str("closed: one request in flight".into())),
        ("connections", Json::U64(1)),
        ("server_workers", Json::U64(SERVER_WORKERS as u64)),
        ("stored_runs", Json::U64(runs.len() as u64)),
        ("measured_cycles", Json::U64(cycles - 1)),
        ("first_touch_tail_supported", Json::Bool(first_touch.tail_supported)),
        ("compare_cold_p50_ms", Json::F64(compare_cold.p50)),
        ("compare_cold_samples", Json::U64(compare_cold.n as u64)),
    ];
    out.load.extend(setup.load_facts());
    out
}

/// One cached (run, script) body.
struct Body {
    run: String,
    script: &'static str,
    etag: String,
    bytes: Vec<u8>,
}

/// Fill every (run, script) body through one connection; the replies are the
/// cold bodies later warm replies must equal.
fn fill(addr: SocketAddr, runs: &[String], out: &mut Outcome) -> Vec<Body> {
    let mut conn = Conn::connect(addr).expect("connect for the cold fill");
    let mut bodies = Vec::new();
    for run in runs {
        for script in SCRIPTS {
            let reply = conn.roundtrip(&view_request(run, script, None));
            out.op(ok200(&reply));
            if let Ok(Reply { etag: Some(etag), body, .. }) = reply {
                bodies.push(Body { run: run.clone(), script, etag, bytes: body });
            }
        }
    }
    bodies
}

/// The warm request for mix entry `(body, conditional)` and the status it
/// must be answered with.
fn warm_request(bodies: &[Body], entry: (usize, bool)) -> (Vec<u8>, u16) {
    let b = &bodies[entry.0];
    if entry.1 {
        (view_request(&b.run, b.script, Some(&b.etag)), 304)
    } else {
        (view_request(&b.run, b.script, None), 200)
    }
}

/// Width of the windows phase A's replies are counted in.
const RATE_WINDOW: Duration = Duration::from_millis(250);

/// What one phase A connection saw.
#[derive(Default)]
struct Pipelined {
    /// Replies received in each [`RATE_WINDOW`] since `epoch`.
    per_window: Vec<u64>,
    /// Replies with the wrong status, or lost to a broken connection.
    wrong: u64,
}

/// Phase A on one connection: pipeline seeded batches until `window` after
/// `epoch`, counting replies per rate window.
fn pipeline(
    addr: SocketAddr,
    bodies: &[Body],
    mut rng: Rng,
    epoch: Instant,
    window: Duration,
) -> Pipelined {
    // Two decks, cut into pre-serialized batches and cycled: generation stays
    // out of the timed loop and the request order still comes from the seed.
    let deck: Vec<(usize, bool)> =
        (0..2).flat_map(|_| gen::warm_deck(&mut rng, bodies.len())).collect();
    let batches: Vec<(Vec<u8>, Vec<u16>)> = deck
        .chunks(PIPELINE_BATCH)
        .map(|chunk| {
            let mut bytes = Vec::new();
            let mut expect = Vec::new();
            for entry in chunk {
                let (req, status) = warm_request(bodies, *entry);
                bytes.extend(req);
                expect.push(status);
            }
            (bytes, expect)
        })
        .collect();
    let mut seen = Pipelined::default();
    let Ok(mut conn) = Conn::connect(addr) else {
        seen.wrong = 1;
        return seen;
    };
    for (bytes, expect) in batches.iter().cycle() {
        if epoch.elapsed() >= window {
            break;
        }
        if conn.send(bytes).is_err() {
            seen.wrong += expect.len() as u64;
            break;
        }
        for status in expect {
            seen.wrong += u64::from(!conn.recv_status().is_ok_and(|got| got == *status));
            let slot = (epoch.elapsed().as_nanos() / RATE_WINDOW.as_nanos()) as usize;
            if seen.per_window.len() <= slot {
                seen.per_window.resize(slot + 1, 0);
            }
            seen.per_window[slot] += 1;
        }
    }
    seen
}

/// The `next_cursor` of a schema-2 envelope, read without parsing the page:
/// the field precedes `nodes`, so its first occurrence is the envelope's, and
/// the token is plain hex and dots. `null` (the last page) gives `None`.
fn next_cursor(body: &[u8]) -> Option<String> {
    const KEY: &[u8] = b"\"next_cursor\":";
    let head = &body[..body.len().min(512)];
    let at = head.windows(KEY.len()).position(|w| w == KEY)? + KEY.len();
    let token = head[at..].strip_prefix(b"\"")?;
    let len = token.iter().position(|&b| b == b'"')?;
    String::from_utf8(token[..len].to_vec()).ok()
}

/// Walk one view page by page, handing each page body to `on_page`; returns
/// the page count and whether every page answered 200. `page_size` 0 asks
/// for the unpaged reply.
fn walk(
    conn: &mut Conn,
    run: &str,
    script: &str,
    page_size: usize,
    mut on_page: impl FnMut(&[u8]),
) -> (u64, bool) {
    let mut pages = 0u64;
    let mut cursor: Option<String> = None;
    loop {
        let target = match (&cursor, page_size) {
            (None, 0) => format!("/views?run={run}"),
            (None, n) => format!("/views?run={run}&page_size={n}"),
            (Some(c), n) => format!("/views?run={run}&page_size={n}&cursor={c}"),
        };
        let reply = conn.roundtrip(&client::request("POST", &target, script, None));
        pages += 1;
        let Some(reply) = reply.ok().filter(|r| r.status == 200) else {
            return (pages, false);
        };
        on_page(&reply.body);
        match next_cursor(&reply.body) {
            Some(token) => cursor = Some(token),
            None => return (pages, true),
        }
    }
}

/// The node JSON of a walk, concatenated: what a paged and an unpaged reply
/// must agree on.
fn walk_nodes(conn: &mut Conn, run: &str, script: &str, page_size: usize) -> (String, bool) {
    let mut nodes = String::new();
    let (_, ok) = walk(conn, run, script, page_size, |body| {
        let env = Json::parse(&String::from_utf8_lossy(body)).unwrap_or(Json::Null);
        for node in env.get("nodes").and_then(Json::as_array).unwrap_or_default() {
            nodes.push_str(&node.render());
            nodes.push('\n');
        }
    });
    (nodes, ok)
}

/// `explore_warm`: the 48 (run, script) bodies are filled once, then phase A
/// (35 % of the time) pipelines a seeded 80 % `If-None-Match`→304 / 20 %
/// warm-200 mix on two connections, phase B (35 %) sends the same mix one at
/// a time, and phase C (30 %) repeats full cursor walks.
pub fn warm(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut fill_out = Outcome::default();
    let ((store, runs, served, bodies), setup) = timed_setup(ctx.scale.setup_reps, |rep| {
        let (store, runs) = build_store(ctx, &format!("store{rep}"));
        let served = Served::bind(store.clone());
        let bodies = fill(served.addr, &runs, &mut fill_out);
        (store, runs, served, bodies)
    });
    out.sim_digest = sim_digest(&store, &runs);
    out.check(
        "cold fill answered every (run, script) with a body and an ETag",
        fill_out.failed == 0 && bodies.len() == runs.len() * SCRIPTS.len(),
    );
    let rng = ctx.rng("explore_warm");
    let phase = |share: f64| Duration::from_secs_f64(ctx.seconds * share);

    // Phase A: pipelined throughput, one client thread per connection. The
    // rate is read per 250 ms window, summed over the connections; the first
    // and last windows are ramp-up and drain and are left out.
    let epoch = Instant::now();
    let seen: Vec<Pipelined> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..PIPELINE_CONNS)
            .map(|c| {
                let (bodies, rng) = (&bodies, rng.fork(&format!("pipeline{c}")));
                s.spawn(move || pipeline(served.addr, bodies, rng, epoch, phase(0.35)))
            })
            .collect();
        clients.into_iter().map(|c| c.join().expect("pipeline client")).collect()
    });
    let replies: u64 = seen.iter().flat_map(|p| &p.per_window).sum();
    let windows = seen.iter().map(|p| p.per_window.len()).min().unwrap_or(0);
    let mut rates: Vec<f64> = (1..windows.saturating_sub(1))
        .map(|w| {
            seen.iter().map(|p| p.per_window[w]).sum::<u64>() as f64 / RATE_WINDOW.as_secs_f64()
        })
        .collect();
    if rates.is_empty() {
        // A phase too short for an interior window (the smoke run): one reading.
        rates.push(replies as f64 / epoch.elapsed().as_secs_f64());
    }
    out.attempted += replies;
    out.failed += seen.iter().map(|p| p.wrong).sum::<u64>();

    // Phase B: the same mix, one request in flight, every reply timed; every
    // warm 200 must be the cold body under the cold ETag.
    let mut conn = Conn::connect(served.addr).expect("connect for phase B");
    let mut mix_rng = rng.fork("one_in_flight");
    let mut latencies = Vec::new();
    let mut identical = true;
    let t_b = Instant::now();
    while t_b.elapsed() < phase(0.35) {
        for entry in gen::warm_deck(&mut mix_rng, bodies.len()) {
            let (req, status) = warm_request(&bodies, entry);
            let t0 = Instant::now();
            let reply = conn.roundtrip(&req);
            latencies.push(ms(t0.elapsed()));
            out.op(reply.as_ref().is_ok_and(|r| r.status == status));
            if let (Ok(r), 200) = (&reply, status) {
                let cold = &bodies[entry.0];
                identical &= r.body == cold.bytes && r.etag.as_deref() == Some(&cold.etag);
            }
        }
    }
    out.check("warm body == cold body and same ETag", identical);

    // Phase C: repeated full schema-2 cursor walks of the grid's first run
    // (minimal routing, first pattern: the same configuration whatever the
    // seed, so a walk is the same size) under the paper's two figure scripts.
    // Their pages fit the server's body cache beside the 48 bodies, so after
    // the first (unpaged-checked, untimed) pass every page is warm: parse,
    // route, cursor verify, cache lookup, socket write. One sample is both
    // walks.
    let run = &runs[0];
    let figures = &SCRIPTS[..2];
    let mut walks_match = true;
    for script in figures {
        let (unpaged, unpaged_ok) = walk_nodes(&mut conn, run, script, 0);
        let (paged, paged_ok) = walk_nodes(&mut conn, run, script, PAGE_SIZE);
        walks_match &= unpaged_ok && paged_ok && !paged.is_empty() && paged == unpaged;
    }
    out.check("paged walk == unpaged reply, node for node", walks_match);
    let mut walks = Vec::new();
    let mut pages = 0u64;
    let t_c = Instant::now();
    while t_c.elapsed() < phase(0.3) {
        let t0 = Instant::now();
        for script in figures {
            let (walked, ok) = walk(&mut conn, run, script, PAGE_SIZE, |_| ());
            pages += walked;
            out.attempted += walked;
            out.failed += u64::from(!ok);
        }
        walks.push(ms(t0.elapsed()));
    }
    drop(conn);
    let report = served.shutdown();
    out.check("nothing shed", report.shed == 0);

    let latency = summarize(&latencies, 99.0);
    let peak = [host::peak_rss_mb()];
    out.metrics = end_to_end(&setup, &peak, &rates, &latency, &summarize(&walks, 50.0));
    out.load = vec![
        (
            "loop",
            Json::Str("A: closed, batches of 32 pipelined; B, C: closed, one in flight".into()),
        ),
        ("connections", Json::Str("A: 2 keep-alive; B, C: 1 keep-alive".into())),
        ("server_workers", Json::U64(SERVER_WORKERS as u64)),
        ("cached_bodies", Json::U64(bodies.len() as u64)),
        ("conditional_percent", Json::U64(100 - 100 / gen::DECK_COPIES as u64)),
        ("latency_tail_supported", Json::Bool(latency.tail_supported)),
        ("walks", Json::U64(walks.len() as u64)),
        ("pages_per_walk", Json::U64(pages / walks.len().max(1) as u64)),
        (
            "body_bytes_mean",
            Json::U64(
                bodies.iter().map(|b| b.bytes.len() as u64).sum::<u64>()
                    / bodies.len().max(1) as u64,
            ),
        ),
    ];
    out.load.extend(setup.load_facts());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_cursor_is_read_from_the_envelope_head() {
        let page = br#"{"schema_version":2,"total_nodes":9,"next_cursor":"g00ab.01.02.03","nodes":[{"id":"x"}]}"#;
        assert_eq!(next_cursor(page).as_deref(), Some("g00ab.01.02.03"));
        let last = br#"{"schema_version":2,"next_cursor":null,"nodes":[{"next_cursor":"no"}]}"#;
        assert_eq!(next_cursor(last), None, "null ends the walk; node content is never a cursor");
        assert_eq!(next_cursor(b""), None);
    }

    #[test]
    fn routing_pairs_match_minimal_with_adaptive() {
        let runs: Vec<String> = ["m1", "m2", "a1", "a2"].iter().map(|r| r.to_string()).collect();
        let pairs = routing_pairs(&runs);
        assert_eq!(pairs, [("m1".into(), "a1".into()), ("m2".into(), "a2".into())]);
    }
}
