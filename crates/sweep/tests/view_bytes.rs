//! Byte-identity golden for the view pipeline: every `/views` and
//! `/compare` body the server would answer over a stored 72-terminal
//! two-run sweep, reduced to an FNV-1a digest and a length per case.
//!
//! The cases are the six scripts the `e2e` explore workloads cycle
//! through plus one that filters ring 0 under ribbons and weights its
//! arcs, each at LOD 0/1/2, unpaged and as `page_size=16` and `64` cursor
//! walks, plus one comparison graph per script. The table was captured
//! from the renderer that built a `Json` tree per node; any change to
//! projection, graph building or encoding that moves a single byte fails
//! here.

use std::path::PathBuf;

use hrviz_core::{
    build_view_cached, compare_views_cached, AggregateCache, Cursor, DataKey, DataSet,
    ProjectionGraph, ViewRequest, FIG5A_SCRIPT, FIG5B_SCRIPT,
};
use hrviz_network::RoutingAlgorithm;
use hrviz_obs::fingerprint64;
use hrviz_pdes::SimTime;
use hrviz_sweep::{RunStore, SweepEngine, SweepSpec, TopologyAxis};

/// The `e2e` explore scripts, then a filtered ring 0 with ribbons and
/// arc weights.
const SCRIPTS: [&str; 7] = [
    FIG5A_SCRIPT,
    FIG5B_SCRIPT,
    r#"{ project: "terminal", aggregate: "router_id",
         vmap: { color: "sat_time", size: "traffic" } }"#,
    r#"{ project: "router", aggregate: "group_id",
         vmap: { color: "total_sat_time", size: "total_traffic" },
         colors: ["white", "steelblue"] }"#,
    r#"{ project: "local_link", aggregate: ["group_id", "router_rank"],
         vmap: { color: "sat_time", size: "traffic" } }"#,
    r#"{ project: "terminal", aggregate: "group_id", maxBins: 16,
         vmap: { color: "avg_latency", size: "data_size" } },
       { project: "global_link", aggregate: "group_id",
         vmap: { color: "traffic" } }"#,
    r#"{ project: "router", aggregate: ["group_id", "router_rank"],
         filter: { group_id: [1, 6], router_rank: [0, 2] },
         vmap: { color: "global_sat_time", size: "local_traffic" },
         arc_weight: "global_traffic",
         ribbons: { project: "local_link", size: "sat_time", color: "traffic" } },
       { project: "terminal", filter: { data_size: [1, 1e30] }, maxBins: 5,
         vmap: { color: "workload", size: "avg_hops", x: "router_port", y: "busy_time" } }"#,
];

/// `(digest, bytes)` per case, in the order [`bodies`] produces them.
const GOLDEN: &[(u64, usize)] = &[
    (0x4e3bdf507a6747aa, 5268),
    (0xe51520d6e16765a6, 5778),
    (0x4e3bdf507a6747aa, 5268),
    (0x53872e1bd480dad6, 7860),
    (0x72c3352059073040, 8370),
    (0x53872e1bd480dad6, 7860),
    (0xe12fccb60192cbcc, 10389),
    (0x3bfca332e0972671, 10899),
    (0xe12fccb60192cbcc, 10389),
    (0xf5b9ca7704f7ee9d, 10453),
    (0xbef52eb7a841ed81, 18490),
    (0x4ef96a5b1a86b32e, 20538),
    (0x64fdd8d79cb6af50, 19002),
    (0xb4fa0eb88ea851a1, 30098),
    (0x0fa5d1bc947d7193, 32146),
    (0x1170349578fdc699, 30610),
    (0xa0479ec44482c780, 37594),
    (0xf51af472746ddf3f, 39642),
    (0x9c613ac9a3c4ba29, 38106),
    (0x643bc6040e6e344d, 37577),
    (0x18906b5ee2fc81f1, 17236),
    (0xeb60a00f41ed5a59, 19284),
    (0x714dc3f5918a8d77, 17748),
    (0xa6b5af26dd6d3af7, 29326),
    (0x8777ba80dc70dfa0, 31374),
    (0x4721159e87a0aa53, 29838),
    (0xad687c9271f03211, 35386),
    (0x74bbdd6842dd4a09, 37434),
    (0xaff1ba638c1a78a6, 35898),
    (0xc3159fa7c3ecf397, 35383),
    (0x667f238ce8e4143e, 5116),
    (0x1a7f9c1512260ef9, 5626),
    (0x667f238ce8e4143e, 5116),
    (0x17f5fbdadd646bbd, 8440),
    (0xc96c706fba99cc43, 8950),
    (0x17f5fbdadd646bbd, 8440),
    (0x967a2267e55550a4, 10040),
    (0x785312f9a37c520c, 10550),
    (0x967a2267e55550a4, 10040),
    (0x81c4299f0bf4fd4f, 10070),
    (0xde9fad49aa9b0a23, 17116),
    (0xca272429c620edee, 19164),
    (0x437c585b38c907ee, 17628),
    (0x7353ba00e373152f, 29350),
    (0x021a2429e7ea6a23, 31398),
    (0x16d650c6d8e0c9cc, 29862),
    (0x964337c730bd3759, 35828),
    (0xfb1a8e5277c4513a, 37876),
    (0xa85b9def05b4285e, 36340),
    (0x07298ef24a5e19ff, 35825),
    (0xb2c9ec5630e06477, 7362),
    (0xbfaa3b3bd21451dc, 7874),
    (0xb2c9ec5630e06477, 7362),
    (0x48f9f79ce6fbe8b2, 12949),
    (0x4f5f05f88fca16f0, 13461),
    (0x48f9f79ce6fbe8b2, 12949),
    (0x13bf01a2737d7685, 16655),
    (0x364978ef81a1bc7f, 17167),
    (0x13bf01a2737d7685, 16655),
    (0xc40a55c6d3445460, 16804),
    (0x872b5b0a38be902c, 14614),
    (0x2540c8df2ec90542, 16150),
    (0x872b5b0a38be902c, 14614),
    (0xb03970005e7b19e3, 23399),
    (0xe5e973db7335444c, 24935),
    (0xb03970005e7b19e3, 23399),
    (0x4372e573509f37d2, 28465),
    (0x2e69154457c495fc, 30001),
    (0x4372e573509f37d2, 28465),
    (0x627dcf78cca40ddd, 28535),
];

fn store() -> (PathBuf, RunStore, Vec<String>) {
    let dir = std::env::temp_dir().join(format!("hrviz-view-bytes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = RunStore::open(&dir).expect("open store");
    let spec = SweepSpec::new("bytes", TopologyAxis::Dragonfly { terminals: 72 })
        .routings([RoutingAlgorithm::Minimal, RoutingAlgorithm::adaptive_default()])
        .msgs_per_rank(2)
        .msg_bytes(1024)
        .period(SimTime::micros(1));
    let engine = SweepEngine::new(store).with_workers(1);
    engine.run(&spec).expect("sweep the grid");
    let store = engine.store().clone();
    let runs = store.runs().expect("list runs");
    assert_eq!(runs.len(), 2);
    (dir, store, runs)
}

/// Every page of `graph` under `page_size` (0 = one unpaged body), with
/// the cursors serve would mint, concatenated.
fn walk(graph: &ProjectionGraph, page_size: usize, generation: u64) -> Vec<u8> {
    let mut out = Vec::new();
    let mut offset = 0;
    loop {
        let count = graph.page(offset, page_size).len();
        let next = (page_size > 0 && offset + count < graph.len()).then(|| {
            Cursor { graph: graph.fingerprint(), generation, offset: (offset + count) as u64 }
                .encode()
        });
        out.extend(graph.page_to_json(offset, page_size, next.as_deref()).render().into_bytes());
        match next {
            Some(_) => offset += count,
            None => return out,
        }
    }
}

/// One body per case: for each script, views of both runs at LOD 0/1/2
/// unpaged and walked in pages of 16 and 64, then the comparison of the
/// two runs.
fn bodies(store: &RunStore, runs: &[String]) -> Vec<Vec<u8>> {
    let generation = store.generation();
    let loaded: Vec<(DataSet, DataKey)> = runs
        .iter()
        .map(|r| {
            let ds = store.load(r).expect("load run").data;
            (ds, DataKey { run: u64::from_str_radix(r, 16).expect("hex id"), generation })
        })
        .collect();
    let agg = AggregateCache::new();
    let mut out = Vec::new();
    for script in SCRIPTS {
        let script_fp = format!("{:016x}", fingerprint64(script));
        for lod in 0..=2u8 {
            for page_size in [0, 16, 64] {
                let mut body = Vec::new();
                for (run, (ds, key)) in runs.iter().zip(&loaded) {
                    let params = [
                        ("run".to_string(), run.clone()),
                        ("lod".to_string(), lod.to_string()),
                        ("page_size".to_string(), page_size.to_string()),
                    ]
                    .into_iter()
                    .collect();
                    let vreq = ViewRequest::parse(&params, script, false, true).expect("request");
                    let view = build_view_cached(ds, &vreq.spec, &agg, *key).expect("view");
                    let source = fingerprint64(&format!("{run}|{script_fp}"));
                    let graph = ProjectionGraph::build(&view, &vreq.policy, source);
                    body.extend(walk(&graph, vreq.page_size, generation));
                }
                out.push(body);
            }
        }
        let params = [("runs".to_string(), runs.join(","))].into_iter().collect();
        let vreq = ViewRequest::parse(&params, script, true, true).expect("compare request");
        let pairs: Vec<(&DataSet, DataKey)> = loaded.iter().map(|(d, k)| (d, *k)).collect();
        let views = compare_views_cached(&pairs, &vreq.spec, &agg).expect("compare");
        let labeled: Vec<(&str, _)> = runs.iter().map(String::as_str).zip(&views).collect();
        let source = fingerprint64(&format!("{}|{script_fp}", runs.join(",")));
        let graph = ProjectionGraph::build_compare(&labeled, &vreq.policy, source);
        out.push(walk(&graph, 0, generation));
    }
    out
}

#[test]
fn view_and_compare_bodies_match_the_golden_digests() {
    let (dir, store, runs) = store();
    let got: Vec<(u64, usize)> = bodies(&store, &runs)
        .iter()
        .map(|b| (fingerprint64(std::str::from_utf8(b).expect("UTF-8 body")), b.len()))
        .collect();
    let table: String =
        got.iter().map(|(d, n)| format!("    (0x{d:016x}, {n}),\n")).collect::<String>();
    assert_eq!(got, GOLDEN, "bodies moved; the table for this build is:\n{table}");
    let _ = std::fs::remove_dir_all(&dir);
}
