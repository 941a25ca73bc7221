//! Determinism contracts of the sweep engine (the ISSUE's satellite 4):
//!
//! * spreading a sweep across workers never changes the bytes that land in
//!   the store — serial and parallel sweeps of the same grid produce
//!   **bit-identical** `RunStore` contents, and
//! * repeating an identical sweep simulates nothing: every config is a
//!   store hit and the outcome's event counter is zero.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use hrviz_network::RoutingAlgorithm;
use hrviz_pdes::SimTime;
use hrviz_sweep::{RunStore, SweepEngine, SweepSpec, TopologyAxis};
use hrviz_workloads::TrafficPattern;
use proptest::prelude::*;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hrviz-sweep-det-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn grid(seeds: Vec<u64>) -> SweepSpec {
    SweepSpec::new("det", TopologyAxis::Dragonfly { terminals: 72 })
        .routings([RoutingAlgorithm::Minimal, RoutingAlgorithm::adaptive_default()])
        .patterns([TrafficPattern::UniformRandom, TrafficPattern::Tornado])
        .seeds(seeds)
        .msgs_per_rank(2)
        .msg_bytes(1024)
        .period(SimTime::micros(1))
}

/// Every file under `root`, keyed by relative path.
fn tree(root: &Path) -> BTreeMap<String, Vec<u8>> {
    fn walk(dir: &Path, root: &Path, out: &mut BTreeMap<String, Vec<u8>>) {
        for entry in fs::read_dir(dir).expect("read_dir") {
            let path = entry.expect("entry").path();
            if path.is_dir() {
                walk(&path, root, out);
            } else {
                let rel = path.strip_prefix(root).expect("prefix").display().to_string();
                out.insert(rel, fs::read(&path).expect("read"));
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(root, root, &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]
    /// The tentpole determinism contract: the grid seeded from any base
    /// lands byte-identically whether it runs on one worker or four.
    #[test]
    fn parallel_and_serial_sweeps_store_identical_bytes(base in 0u64..(1u64 << 40)) {
        let spec = grid(vec![base, base + 1]);
        let (ra, rb) = (tmp(&format!("ser-{base}")), tmp(&format!("par-{base}")));
        SweepEngine::new(RunStore::open(&ra).unwrap())
            .with_workers(1)
            .run(&spec)
            .unwrap();
        SweepEngine::new(RunStore::open(&rb).unwrap())
            .with_workers(4)
            .run(&spec)
            .unwrap();
        let (ta, tb) = (tree(&ra), tree(&rb));
        prop_assert_eq!(
            ta.keys().collect::<Vec<_>>(),
            tb.keys().collect::<Vec<_>>()
        );
        for (path, bytes) in &ta {
            prop_assert!(tb[path] == *bytes, "store file {} differs across worker counts", path);
        }
        let _ = fs::remove_dir_all(&ra);
        let _ = fs::remove_dir_all(&rb);
    }
}

#[test]
fn repeated_sweep_is_pure_cache_with_zero_simulation_events() {
    let root = tmp("warm");
    let engine = SweepEngine::new(RunStore::open(&root).unwrap()).with_workers(4);
    let spec = grid(vec![7]);
    let cold = engine.run(&spec).unwrap();
    assert_eq!(cold.store_misses, 4);
    assert!(cold.events_simulated > 0);
    let before = tree(&root);

    let warm = engine.run(&spec).unwrap();
    assert_eq!(warm.store_hits, 4);
    assert_eq!(warm.store_misses, 0);
    assert_eq!(warm.events_simulated, 0, "warm sweep must not simulate");
    assert_eq!(warm.stats.events_scheduled, 0);
    assert_eq!(tree(&root), before, "a warm sweep leaves the store untouched");

    // The report artifact CI greps carries the same assertion.
    let report = warm.to_json().render();
    assert!(report.contains("\"store_misses\":0"), "{report}");
    assert!(report.contains("\"events_simulated\":0"), "{report}");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn loaded_runs_match_freshly_executed_datasets() {
    let root = tmp("load");
    let engine = SweepEngine::new(RunStore::open(&root).unwrap()).with_workers(2);
    let spec = grid(vec![11]);
    let out = engine.run(&spec).unwrap();
    for (cfg, run_id) in spec.expand().unwrap().iter().zip(&out.run_ids) {
        let stored = engine.store().load(run_id).unwrap();
        let fresh = cfg.execute().unwrap();
        let ds = &stored.data;
        assert_eq!(ds.jobs, fresh.dataset.jobs, "{}", cfg.label());
        for kind in hrviz_core::EntityKind::ALL {
            assert_eq!(ds.table(kind), fresh.dataset.table(kind), "{kind} {}", cfg.label());
        }
        assert_eq!(ds.time_range, fresh.dataset.time_range, "{}", cfg.label());
        assert_eq!(stored.manifest.events_processed, fresh.stats.events_processed);
    }
    let _ = fs::remove_dir_all(&root);
}
