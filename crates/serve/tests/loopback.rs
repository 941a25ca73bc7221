//! End-to-end loopback tests: a real listener on port 0, raw TCP
//! clients, and the concurrency/robustness behaviors the server
//! promises — byte-identical concurrent responses, deterministic load
//! shedding, and errors (never hangs) for malformed input.

mod common;

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use hrviz_serve::ServeConfig;

use common::{get, post, raw, start, test_store, SCRIPT};

#[test]
fn endpoints_end_to_end() {
    let (_, runs) = test_store();
    let server = start(ServeConfig::default());
    let addr = server.addr;

    let health = get(addr, "/healthz", &[]);
    assert_eq!(health.status, 200);
    assert!(health.text().contains("\"generation\""), "health body: {}", health.text());

    // The collector is disabled in this binary, so the snapshot is empty
    // but well-formed; counter content is asserted in `caching.rs`.
    let metrics = get(addr, "/metricsz", &[]);
    assert_eq!(metrics.status, 200);
    assert!(metrics.text().contains("\"counters\""), "metrics body: {}", metrics.text());

    let listing = get(addr, "/runs", &[]);
    assert_eq!(listing.status, 200);
    for id in runs {
        assert!(listing.text().contains(id.as_str()), "listing misses run {id}");
    }

    let col = get(addr, &format!("/runs/{}/columns/traffic", runs[0]), &[]);
    assert_eq!(col.status, 200);
    assert!(col.text().contains("\"values\""), "columns body: {}", col.text());

    assert_eq!(get(addr, "/runs/ffffffffffffffff/columns/traffic", &[]).status, 404);
    assert_eq!(get(addr, &format!("/runs/{}/columns/not_a_field", runs[0]), &[]).status, 404);

    // Default wire schema: the paged projection-graph envelope.
    let view = post(addr, &format!("/views?run={}", runs[0]), SCRIPT, &[]);
    assert_eq!(view.status, 200, "view body: {}", view.text());
    assert!(view.header("ETag").is_some(), "views reply carries an ETag");
    assert!(view.text().contains("\"schema_version\":2"), "view body: {}", view.text());
    assert!(view.text().contains("\"nodes\""), "view body: {}", view.text());

    // Schema 2 is the only wire schema: the retired schema 1 and unknown
    // versions alike are a structured 400 naming the supported version.
    for schema in ["1", "9"] {
        let bad = post(addr, &format!("/views?run={}&schema={schema}", runs[0]), SCRIPT, &[]);
        assert_eq!(bad.status, 400, "schema={schema} body: {}", bad.text());
        assert!(bad.text().contains("\"code\":\"unknown_schema\""), "body: {}", bad.text());
        assert!(bad.text().contains("supported: 2"), "body: {}", bad.text());
    }

    let svg =
        post(addr, &format!("/views?run={}", runs[0]), SCRIPT, &[("Accept", "image/svg+xml")]);
    assert_eq!(svg.status, 200);
    assert_eq!(svg.header("Content-Type"), Some("image/svg+xml"));
    assert!(svg.text().starts_with("<svg"), "svg body: {}", svg.text());

    let cmp = post(addr, &format!("/compare?runs={},{}", runs[0], runs[1]), SCRIPT, &[]);
    assert_eq!(cmp.status, 200, "compare body: {}", cmp.text());
    assert!(cmp.text().contains("\"schema_version\":2"), "compare body: {}", cmp.text());
    assert!(cmp.text().contains("\"compare\""), "compare body: {}", cmp.text());

    let cmp_v1 =
        post(addr, &format!("/compare?runs={},{}&schema=1", runs[0], runs[1]), SCRIPT, &[]);
    assert_eq!(cmp_v1.status, 400, "schema=1 compare body: {}", cmp_v1.text());
    assert!(cmp_v1.text().contains("\"code\":\"unknown_schema\""), "body: {}", cmp_v1.text());
    assert!(cmp_v1.text().contains("supported: 2"), "body: {}", cmp_v1.text());

    let bad_script = post(addr, &format!("/views?run={}", runs[0]), "{ nonsense", &[]);
    assert_eq!(bad_script.status, 400);

    assert_eq!(post(addr, "/views", SCRIPT, &[]).status, 400, "missing ?run=");
    assert_eq!(get(addr, "/nope", &[]).status, 404);
    let wrong_method = post(addr, "/healthz", "", &[]);
    assert_eq!(wrong_method.status, 405);
    assert!(wrong_method.header("Allow").is_some(), "405 names the allowed method");

    let report = server.stop();
    assert!(report.requests >= 10, "report counted the requests: {report:?}");
    assert_eq!(report.shed, 0, "nothing shed under sequential load");
}

#[test]
fn concurrent_identical_views_are_byte_identical() {
    let (_, runs) = test_store();
    let server = start(ServeConfig::default());
    let addr = server.addr;
    let path = format!("/views?run={}", runs[0]);

    let threads: Vec<_> = (0..8)
        .map(|_| {
            let path = path.clone();
            std::thread::spawn(move || post(addr, &path, SCRIPT, &[]))
        })
        .collect();
    let replies: Vec<_> = threads.into_iter().map(|t| t.join().expect("client thread")).collect();

    let first = &replies[0];
    assert_eq!(first.status, 200, "body: {}", first.text());
    assert!(!first.body.is_empty());
    for reply in &replies[1..] {
        assert_eq!(reply.status, 200);
        assert_eq!(reply.body, first.body, "concurrent responses must be byte-identical");
        assert_eq!(reply.header("ETag"), first.header("ETag"));
    }
    server.stop();
}

#[test]
fn keep_alive_reuses_one_socket_for_sequential_requests() {
    let server = start(ServeConfig::default());
    let addr = server.addr;

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");

    // Two requests, one socket. Each reply must announce keep-alive and
    // be fully framed by Content-Length.
    for _ in 0..2 {
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            .expect("send on the reused socket");
        let reply = read_framed_reply(&mut stream);
        assert_eq!(reply.status, 200, "body: {}", reply.text());
        assert_eq!(reply.header("Connection"), Some("keep-alive"));
        assert!(reply.text().contains("\"status\":\"ok\""));
    }

    // An explicit Connection: close is honored: reply says close, then EOF.
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .expect("send final request");
    let last = read_framed_reply(&mut stream);
    assert_eq!(last.status, 200);
    assert_eq!(last.header("Connection"), Some("close"));
    let mut probe = [0u8; 1];
    use std::io::Read;
    assert_eq!(stream.read(&mut probe).unwrap_or(0), 0, "server closed after close");

    let report = server.stop();
    assert_eq!(report.requests, 3, "three requests over one connection: {report:?}");
}

/// Read exactly one `Content-Length`-framed reply without consuming
/// bytes of the next one (1-byte reads through the header, then the
/// exact body length).
fn read_framed_reply(stream: &mut TcpStream) -> common::Reply {
    use std::io::Read;
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        let n = stream.read(&mut byte).expect("read header byte");
        assert!(n > 0, "EOF inside reply headers");
        head.push(byte[0]);
        assert!(head.len() < 64 * 1024, "runaway header");
    }
    let text = String::from_utf8_lossy(&head).into_owned();
    let length: usize = text
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("framed reply")
        .trim()
        .parse()
        .expect("numeric length");
    let mut body = vec![0u8; length];
    stream.read_exact(&mut body).expect("read body");
    let mut framed = head;
    framed.extend_from_slice(&body);
    common::parse_reply(&framed)
}

#[test]
fn full_queue_sheds_with_retry_after() {
    let cfg =
        ServeConfig { workers: 1, queue_depth: 1, timeout_ms: 2_000, ..ServeConfig::default() };
    let server = start(cfg);
    let addr = server.addr;

    // Occupy the lone worker: connect and send nothing, so the worker
    // blocks in read until we close the socket.
    let held_a = TcpStream::connect(addr).expect("conn A");
    std::thread::sleep(Duration::from_millis(300)); // worker picks A up
    let held_b = TcpStream::connect(addr).expect("conn B"); // fills the queue
    std::thread::sleep(Duration::from_millis(300));

    // Third connection: worker busy + queue full → shed inline.
    let shed = get(addr, "/healthz", &[]);
    assert_eq!(shed.status, 503, "full queue sheds: {}", shed.text());
    assert_eq!(shed.header("Retry-After"), Some("1"), "shed reply advises a retry");

    drop(held_a);
    drop(held_b);
    std::thread::sleep(Duration::from_millis(200)); // let the drain finish

    // The server stays healthy after shedding.
    let after = get(addr, "/healthz", &[]);
    assert_eq!(after.status, 200, "server recovers after shedding");

    let report = server.stop();
    assert!(report.shed >= 1, "report counted the shed connection: {report:?}");
}

#[test]
fn malformed_requests_get_errors_not_hangs() {
    let server = start(ServeConfig { timeout_ms: 2_000, ..ServeConfig::default() });
    let addr = server.addr;

    let garbage = raw(addr, b"NOT A REQUEST\r\n\r\n");
    assert_eq!(garbage.status, 400, "garbage request line: {}", garbage.text());

    let bad_version = raw(addr, b"GET /healthz SPDY/9\r\n\r\n");
    assert_eq!(bad_version.status, 400);

    let no_length = raw(addr, b"POST /views HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(no_length.status, 411, "POST without Content-Length: {}", no_length.text());

    // Declared body over the limit is refused on sight — the payload is
    // never read.
    let oversized = raw(addr, b"POST /views HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n");
    assert_eq!(oversized.status, 413, "oversized body: {}", oversized.text());

    let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(16 * 1024));
    let too_long = raw(addr, long_line.as_bytes());
    assert_eq!(too_long.status, 400, "oversized request line: {}", too_long.text());

    let bad_length = raw(addr, b"POST /views HTTP/1.1\r\nContent-Length: banana\r\n\r\n");
    assert_eq!(bad_length.status, 400);

    // A client that opens a connection and goes silent is timed out, and
    // the server keeps answering others afterwards.
    let mut silent = TcpStream::connect(addr).expect("silent conn");
    silent.write_all(b"GET /healthz HT").expect("partial request");
    std::thread::sleep(Duration::from_millis(2_300));
    assert_eq!(get(addr, "/healthz", &[]).status, 200, "alive after a silent client");

    server.stop();
}

#[test]
fn graceful_shutdown_drains_and_reports() {
    let server = start(ServeConfig::default());
    let addr = server.addr;
    assert_eq!(get(addr, "/healthz", &[]).status, 200);
    assert_eq!(get(addr, "/runs", &[]).status, 200);
    let report = server.stop();
    assert!(report.requests >= 2, "both requests counted: {report:?}");
    assert_eq!(report.shed, 0);
    // The socket is actually released: connecting now fails or EOFs.
    std::thread::sleep(Duration::from_millis(50));
    assert!(
        TcpStream::connect(addr).is_err() || {
            use std::io::Read;
            let mut s = TcpStream::connect(addr).expect("probe");
            s.set_read_timeout(Some(Duration::from_millis(500))).expect("timeout");
            let mut buf = [0u8; 1];
            matches!(s.read(&mut buf), Ok(0) | Err(_))
        },
        "listener is closed after shutdown"
    );
}
