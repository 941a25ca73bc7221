//! Loopback tests for `GET /runs/{id}/columns/{field}`: the endpoint reads
//! through the server's dataset cache, lists only stored columns, and its
//! bodies match the column file cell for cell.

mod common;

use common::{get, start, test_store};
use hrviz_obs::Json;
use hrviz_serve::ServeConfig;

/// The body the endpoint must send for `field` of `run`, built straight
/// from the run's column file with the tree parser: every table that
/// stores the field, in file order, each value rendered as the `f64` it
/// parses to.
fn expected_body(run: &str, field: &str, table: Option<&str>) -> String {
    let (dir, _) = test_store();
    let text = std::fs::read_to_string(dir.join(run).join("columns.jsonl")).expect("read columns");
    let tables: Vec<Json> = text
        .lines()
        .skip(1)
        .map(|line| Json::parse(line).expect("stored line parses"))
        .filter(|v| v.get("field").and_then(Json::as_str) == Some(field))
        .filter(|v| table.is_none_or(|t| v.get("table").and_then(Json::as_str) == Some(t)))
        .map(|v| {
            let values = v.get("values").and_then(Json::as_array).expect("values array");
            Json::obj([
                ("table", Json::Str(v.get("table").and_then(Json::as_str).unwrap().into())),
                (
                    "values",
                    Json::Arr(values.iter().map(|x| Json::F64(x.as_f64().unwrap())).collect()),
                ),
            ])
        })
        .collect();
    assert!(!tables.is_empty(), "{field} is stored somewhere");
    Json::obj([
        ("run", Json::Str(run.to_string())),
        ("field", Json::Str(field.to_string())),
        ("tables", Json::Arr(tables)),
    ])
    .render()
}

#[test]
fn columns_come_from_the_dataset_cache_and_match_the_file() {
    let (dir, runs) = test_store();
    let server = start(ServeConfig::default());
    let run = &runs[1];
    let path = |field: &str| format!("/runs/{run}/columns/{field}");

    // A stored attribute (u32 in memory) and stored metrics (f64).
    for field in ["router_rank", "dst_workload", "avg_latency", "traffic", "sat_time"] {
        let reply = get(server.addr, &path(field), &[]);
        assert_eq!(reply.status, 200, "{field}: {}", reply.text());
        assert_eq!(reply.text(), expected_body(run, field, None), "{field}");
    }
    let reply = get(server.addr, &format!("{}?table=terminal", path("router_rank")), &[]);
    assert_eq!(reply.status, 200, "{}", reply.text());
    assert_eq!(reply.text(), expected_body(run, "router_rank", Some("terminal")));

    // Derived fields are computed, never stored: 404 wherever they are
    // the only form, and left out of the tables where a field is derived.
    assert_eq!(get(server.addr, &path("total_traffic"), &[]).status, 404);
    assert_eq!(get(server.addr, &format!("{}?table=router", path("traffic")), &[]).status, 404);
    assert_eq!(get(server.addr, &format!("{}?table=terminal", path("traffic")), &[]).status, 404);
    assert!(!get(server.addr, &path("traffic"), &[]).text().contains("\"router\""));

    // A run whose column file is damaged before its first load is Gone.
    let other = &runs[0];
    let columns = dir.join(other).join("columns.jsonl");
    let text = std::fs::read_to_string(&columns).expect("read columns");
    std::fs::write(&columns, text.replacen("\"values\":[", "\"values\":[1,", 1)).expect("tamper");
    let reply = get(server.addr, &format!("/runs/{other}/columns/router_rank"), &[]);
    assert_eq!(reply.status, 410, "{}", reply.text());
    assert!(reply.text().contains("corrupt"), "{}", reply.text());

    server.stop();
}
