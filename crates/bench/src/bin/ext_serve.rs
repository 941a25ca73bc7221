//! Extension: serving the run store (EXPERIMENTS.md `ext_serve`). Sweeps
//! a 2-run grid (72-terminal Dragonfly, minimal vs adaptive) into a store,
//! binds `hrviz-serve` on a loopback port with 4 workers, and measures:
//!
//! * the caching ladder from a real TCP client — cold `POST /views`
//!   (disk load + aggregate + project + render), the warm byte-identical
//!   repeat, and the conditional `304`;
//! * sustained warm throughput over pipelined keep-alive connections
//!   (the ROADMAP `≥100k req/s` target) and tail latency under a 2×
//!   overload burst;
//! * paged-view determinism: a cursor walk is byte-identical (node for
//!   node) to the unpaged reply.
//!
//! Latencies, the cold/warm speedup, the sustained rate, and the p99 are
//! printed.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use hrviz_bench::{out_dir, Expectations};
use hrviz_network::RoutingAlgorithm;
use hrviz_obs::Json;
use hrviz_pdes::SimTime;
use hrviz_serve::{ServeConfig, Server, ServerHandle};
use hrviz_sweep::{RunStore, SweepEngine, SweepSpec, TopologyAxis};

const SCRIPT: &str = r#"{ project: "terminal", aggregate: "router_id",
                          vmap: { color: "sat_time", size: "traffic" } }"#;
const WARM_SAMPLES: usize = 30;
const PIPELINE_CLIENTS: usize = 4;
const PIPELINE_BATCH: usize = 64;
const THROUGHPUT_WINDOW_S: f64 = 2.0;
const OVERLOAD_CLIENTS: usize = 8; // 2× the worker count
const OVERLOAD_WINDOW_S: f64 = 2.0;

/// Status line, ETag (if any), and body of one round-tripped request.
struct Reply {
    status: u16,
    etag: Option<String>,
    body: Vec<u8>,
}

fn request_bytes(path: &str, body: &str, inm: Option<&str>, close: bool) -> String {
    let mut req =
        format!("POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n", body.len());
    if let Some(tag) = inm {
        req.push_str(&format!("If-None-Match: {tag}\r\n"));
    }
    if close {
        req.push_str("Connection: close\r\n");
    }
    req.push_str("\r\n");
    req.push_str(body);
    req
}

/// One request per fresh connection (`Connection: close`), read to EOF.
fn post(addr: SocketAddr, path: &str, body: &str, inm: Option<&str>) -> Reply {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    stream.write_all(request_bytes(path, body, inm, true).as_bytes()).expect("send request");
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf).expect("read reply");
    let split = buf.windows(4).position(|w| w == b"\r\n\r\n").expect("complete reply");
    parse_head(&buf[..split], buf[split + 4..].to_vec())
}

fn parse_head(head: &[u8], body: Vec<u8>) -> Reply {
    let head = String::from_utf8_lossy(head).into_owned();
    let status = head
        .lines()
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let etag = head.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        k.eq_ignore_ascii_case("etag").then(|| v.trim().to_string())
    });
    Reply { status, etag, body }
}

/// Read one `Content-Length`-framed reply off a keep-alive connection.
fn read_framed(reader: &mut BufReader<TcpStream>) -> Reply {
    let mut head = Vec::new();
    let mut line = String::new();
    let mut length = 0usize;
    loop {
        line.clear();
        let n = reader.read_line(&mut line).expect("read header line");
        assert!(n > 0, "EOF inside reply headers");
        if line == "\r\n" {
            break;
        }
        head.extend_from_slice(line.as_bytes());
        if let Some(v) = line.strip_prefix("Content-Length: ") {
            length = v.trim().parse().expect("numeric length");
        }
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).expect("read body");
    parse_head(&head, body)
}

/// Median seconds over `n` round trips of the same request.
fn median_latency(n: usize, mut one: impl FnMut() -> Reply) -> f64 {
    let mut samples: Vec<f64> = (0..n)
        .map(|_| {
            let t0 = Instant::now();
            let _ = one();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    samples[samples.len() / 2]
}

/// Sustained warm throughput: `clients` pipelined keep-alive connections,
/// each writing `PIPELINE_BATCH` conditional requests per burst and
/// draining the batch of `304`s, for `window_s`. Returns (req/s, errors).
fn pipelined_rate(
    addr: SocketAddr,
    path: &str,
    tag: &str,
    clients: usize,
    window_s: f64,
) -> (f64, u64) {
    let t0 = Instant::now();
    let threads: Vec<_> = (0..clients)
        .map(|_| {
            let batch = request_bytes(path, SCRIPT, Some(tag), false).repeat(PIPELINE_BATCH);
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                stream.set_nodelay(true).ok();
                stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
                let mut writer = stream.try_clone().expect("clone");
                let mut reader = BufReader::with_capacity(64 * 1024, stream);
                let deadline = Instant::now() + Duration::from_secs_f64(window_s);
                let mut done = 0u64;
                let mut errors = 0u64;
                while Instant::now() < deadline {
                    writer.write_all(batch.as_bytes()).expect("send batch");
                    for _ in 0..PIPELINE_BATCH {
                        let reply = read_framed(&mut reader);
                        errors += u64::from(reply.status != 304);
                    }
                    done += PIPELINE_BATCH as u64;
                }
                (done, errors)
            })
        })
        .collect();
    let results: Vec<(u64, u64)> =
        threads.into_iter().map(|t| t.join().expect("pipeline client")).collect();
    let wall = t0.elapsed().as_secs_f64();
    let done: u64 = results.iter().map(|(d, _)| d).sum();
    let errors: u64 = results.iter().map(|(_, e)| e).sum();
    (done as f64 / wall.max(1e-9), errors)
}

/// Overload burst: `OVERLOAD_CLIENTS` closed-loop keep-alive clients
/// (one request in flight each) hammering the warm path. Returns the
/// pooled p99 latency in seconds and the error count.
fn overload_p99(addr: SocketAddr, path: &str, tag: &str) -> (f64, u64) {
    let threads: Vec<_> = (0..OVERLOAD_CLIENTS)
        .map(|_| {
            let req = request_bytes(path, SCRIPT, Some(tag), false);
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                stream.set_nodelay(true).ok();
                stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
                let mut writer = stream.try_clone().expect("clone");
                let mut reader = BufReader::with_capacity(16 * 1024, stream);
                let deadline = Instant::now() + Duration::from_secs_f64(OVERLOAD_WINDOW_S);
                let mut lat = Vec::new();
                let mut errors = 0u64;
                while Instant::now() < deadline {
                    let t = Instant::now();
                    writer.write_all(req.as_bytes()).expect("send");
                    let reply = read_framed(&mut reader);
                    lat.push(t.elapsed().as_secs_f64());
                    errors += u64::from(reply.status != 304);
                }
                (lat, errors)
            })
        })
        .collect();
    let mut all = Vec::new();
    let mut errors = 0u64;
    for t in threads {
        let (lat, e) = t.join().expect("overload client");
        all.extend(lat);
        errors += e;
    }
    all.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    assert!(!all.is_empty(), "overload clients completed at least one request");
    let p99 = all[((all.len() * 99) / 100).min(all.len() - 1)];
    (p99, errors)
}

fn build_store(dir: &Path) -> RunStore {
    let _ = std::fs::remove_dir_all(dir);
    let store = RunStore::open(dir).expect("open store");
    let spec = SweepSpec::new("ext_serve", TopologyAxis::Dragonfly { terminals: 72 })
        .routings([RoutingAlgorithm::Minimal, RoutingAlgorithm::adaptive_default()])
        .msgs_per_rank(8)
        .msg_bytes(4 * 1024)
        .period(SimTime::micros(2));
    let engine = SweepEngine::new(store).with_workers(2);
    engine.run(&spec).expect("sweep the store");
    RunStore::open(dir).expect("reopen store")
}

fn bind(
    store: RunStore,
) -> (SocketAddr, ServerHandle, std::thread::JoinHandle<hrviz_serve::ServeReport>) {
    // The per-connection request cap exists to bound rogue clients; the
    // throughput clients here legitimately stream millions.
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        keepalive_requests: 10_000_000,
        ..ServeConfig::default()
    };
    let server = Server::bind(cfg, store).expect("bind loopback");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.serve().expect("serve loop"));
    (addr, handle, thread)
}

/// Walk `/views` page by page and return the concatenated node JSON
/// (exactly the bytes inside `"nodes":[...]` across all pages) plus the
/// envelope's `source_hash`/`policy_hash`/`root`/`total_nodes` fields.
fn walk_pages(addr: SocketAddr, run: &str, page_size: usize) -> (String, String) {
    let mut nodes = String::new();
    let mut envelope_fields = String::new();
    let mut cursor: Option<String> = None;
    loop {
        let path = match &cursor {
            None if page_size == 0 => format!("/views?run={run}"),
            None => format!("/views?run={run}&page_size={page_size}"),
            Some(c) => format!("/views?run={run}&page_size={page_size}&cursor={c}"),
        };
        let reply = post(addr, &path, SCRIPT, None);
        assert_eq!(reply.status, 200, "page walk reply: {}", String::from_utf8_lossy(&reply.body));
        let text = String::from_utf8_lossy(&reply.body).into_owned();
        let env = Json::parse(&text).expect("envelope JSON");
        if envelope_fields.is_empty() {
            for key in ["source_hash", "policy_hash", "root", "total_nodes"] {
                let v = env.get(key).expect("envelope field");
                envelope_fields.push_str(&format!("{key}={};", v.render()));
            }
        }
        for node in env.get("nodes").and_then(Json::as_array).expect("nodes") {
            nodes.push_str(&node.render());
            nodes.push('\n');
        }
        match env.get("next_cursor").and_then(Json::as_str) {
            Some(tok) => cursor = Some(tok.to_string()),
            None => break,
        }
    }
    (nodes, envelope_fields)
}

fn main() {
    hrviz_bench::obs_init("ext_serve");
    println!("Extension: serving the run store (hrviz-serve, Dragonfly 72t, 2 runs)");
    let out = out_dir();
    let t0 = Instant::now();

    let store = build_store(&out.join("store_ext_serve"));
    let runs = store.runs().expect("list runs");
    assert_eq!(runs.len(), 2, "two configs, two runs");
    let sweep_wall = t0.elapsed().as_secs_f64();
    println!("  store built: {} runs in {sweep_wall:.3}s", runs.len());

    let (addr, handle, serve_thread) = bind(store);
    let views_path = format!("/views?run={}", runs[0]);

    // Cold: every cache layer misses.
    let t_cold = Instant::now();
    let cold = post(addr, &views_path, SCRIPT, None);
    let cold_s = t_cold.elapsed().as_secs_f64();
    let tag = cold.etag.clone().unwrap_or_default();
    println!("  cold  POST /views: {:>8.1} µs  ({} bytes)", cold_s * 1e6, cold.body.len());

    // Warm: the body cache answers.
    let warm = post(addr, &views_path, SCRIPT, None);
    let warm_s = median_latency(WARM_SAMPLES, || post(addr, &views_path, SCRIPT, None));
    println!("  warm  POST /views: {:>8.1} µs  (median of {WARM_SAMPLES})", warm_s * 1e6);

    // Conditional: the client already holds the bytes.
    let nm = post(addr, &views_path, SCRIPT, Some(&tag));
    let nm_s = median_latency(WARM_SAMPLES, || post(addr, &views_path, SCRIPT, Some(&tag)));
    println!("  cond. 304 repeat:  {:>8.1} µs  (median of {WARM_SAMPLES})", nm_s * 1e6);

    // Sustained warm throughput: pipelined keep-alive conditionals.
    let (sustained_rps, pipeline_errors) =
        pipelined_rate(addr, &views_path, &tag, PIPELINE_CLIENTS, THROUGHPUT_WINDOW_S);
    println!(
        "  pipelined warm:    {sustained_rps:>8.0} req/s \
         ({PIPELINE_CLIENTS} keep-alive clients, batches of {PIPELINE_BATCH})"
    );

    // Overload: 2× the worker count in closed-loop clients; the tail must
    // stay bounded and nothing may error.
    let (p99_s, overload_errors) = overload_p99(addr, &views_path, &tag);
    println!("  overload p99:      {:>8.1} µs  ({OVERLOAD_CLIENTS} clients)", p99_s * 1e6);

    // Paged walk vs the unpaged baseline, on the same server.
    let (flat_nodes, flat_env) = walk_pages(addr, &runs[0], 0);
    let (paged_nodes, paged_env) = walk_pages(addr, &runs[0], 16);
    handle.shutdown();
    let report = serve_thread.join().expect("serve thread");
    let pages_identical = flat_nodes == paged_nodes && flat_env == paged_env;
    println!(
        "  paging identity:   {} node bytes, {}",
        flat_nodes.len(),
        if pages_identical { "paged walk == unpaged" } else { "MISMATCH" }
    );

    let speedup = cold_s / warm_s.max(1e-9);
    println!("  cold/warm speedup {speedup:.1}x   report: {report:?}");

    let mut exp = Expectations::new();
    exp.check("cold view answers 200 with an ETag", cold.status == 200 && cold.etag.is_some());
    exp.check(
        "warm repeat is byte-identical",
        warm.status == 200 && warm.body == cold.body && warm.etag == cold.etag,
    );
    exp.check("warm hit ≥5× faster than the cold build", speedup >= 5.0);
    exp.check(
        "conditional repeat answers 304 with no body",
        nm.status == 304 && nm.body.is_empty(),
    );
    exp.check("conditional 304 is no slower than 2× a warm hit", nm_s <= warm_s * 2.0);
    exp.check("pipelined warm burst: every response a 304", pipeline_errors == 0);
    exp.check("overload burst: no errors", overload_errors == 0);
    exp.check("overload p99 bounded (≤50 ms at 2× workers)", p99_s <= 0.050);
    exp.check("paged walk byte-identical to unpaged baseline", pages_identical);
    exp.check("nothing shed at 4 workers", report.shed == 0);
    let ok = exp.finish("ext_serve");

    std::process::exit(i32::from(!ok));
}
