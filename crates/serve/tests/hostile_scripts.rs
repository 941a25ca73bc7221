//! Projection scripts arrive as socket bytes: a script the projection
//! pipeline cannot run must come back as a structured `400`, never as a
//! worker panic (which the pool survives, but the client sees a dropped
//! connection and the store gains a flight-recorder dump).
//!
//! This binary owns an enabled collector so it can read `serve/panics`.

mod common;

use hrviz_obs::Collector;
use hrviz_serve::ServeConfig;

use common::{get, post, start, test_store};

/// Scripts that parse as the script language but name something the
/// pipeline would have to panic on.
const HOSTILE: [&str; 4] = [
    // Ribbons bundle links; routers are not links.
    r#"{ project: "router", aggregate: "group_id", vmap: { color: "total_sat_time" },
         ribbons: { project: "router" } }"#,
    // Ring 0's filter must also hold on the ribbon links, which have no
    // total_traffic.
    r#"{ project: "router", aggregate: "group_id", filter: { total_traffic: [0, 1e30] },
         vmap: { color: "total_sat_time" }, ribbons: { project: "global_link" } }"#,
    // Arc weights are read from ring 0's rows.
    r#"{ project: "router", aggregate: "group_id", vmap: { color: "traffic" },
         arc_weight: "avg_latency" }"#,
    // A histogram needs at least one bin.
    r#"{ project: "terminal", maxBins: 0, vmap: { color: "sat_time" } }"#,
];

fn counter(name: &str) -> u64 {
    hrviz_obs::get().snapshot().counters.get(name).copied().unwrap_or(0)
}

#[test]
fn hostile_scripts_are_structured_400s_not_worker_panics() {
    let (dir, runs) = test_store();
    hrviz_obs::install(Collector::enabled());
    let server = start(ServeConfig::default());
    let addr = server.addr;
    let paths =
        [format!("/views?run={}", runs[0]), format!("/compare?runs={},{}", runs[0], runs[1])];
    for script in HOSTILE {
        for path in &paths {
            let reply = post(addr, path, script, &[]);
            let body = reply.text();
            assert_eq!(reply.status, 400, "{path} {script}: {body}");
            assert!(body.contains("\"field\":\"script\""), "{body}");
            assert!(body.contains("\"code\":\"bad_script\""), "{body}");
        }
    }
    assert_eq!(counter("serve/panics"), 0, "no request reached a panic");
    assert_eq!(get(addr, "/healthz", &[]).status, 200);
    let dumps = std::fs::read_dir(dir.join("flight")).map(|d| d.count()).unwrap_or(0);
    assert_eq!(dumps, 0, "no flight-recorder dump was written");
    server.stop();
}
