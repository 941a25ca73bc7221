//! Loopback test for the `?state=` listing's stat-validated state cache:
//! a run's lifecycle state is remembered against its `manifest.json` file
//! identity, so a manifest replaced behind the server is classified again
//! and an untouched one keeps answering from memory.

mod common;

use hrviz_network::RoutingAlgorithm;
use hrviz_pdes::SimTime;
use hrviz_serve::ServeConfig;
use hrviz_sweep::{Provenance, RunStore, SweepSpec, TopologyAxis};

use common::{get, start_with_store};

#[test]
fn state_listing_follows_a_manifest_replaced_between_polls() {
    let dir = std::env::temp_dir().join(format!("hrviz-serve-states-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = RunStore::open(&dir).expect("open store");
    let spec = SweepSpec::new("states-it", TopologyAxis::Dragonfly { terminals: 72 })
        .routings(vec![RoutingAlgorithm::Minimal])
        .msgs_per_rank(2)
        .msg_bytes(1024)
        .period(SimTime::micros(1));
    let cfg = spec.expand().expect("one config").remove(0);
    let prov = Provenance::default();
    store.mark_running(&cfg, &prov).expect("lifecycle manifest");
    let id = cfg.run_id();
    let progress = store.run_dir(&id).join("progress.json");

    let server = start_with_store(ServeConfig::default(), &dir);
    let listed = |state: &str| get(server.addr, &format!("/runs?state={state}"), &[]).text();
    // Each poll below first moves the watermark stamp (as a live run sealing
    // a slice does), so the listing is rebuilt instead of served from the
    // body cache; `/runs` only stats the watermark, never parses it.
    let mut polls = 0;
    let mut seal = || {
        polls += 1;
        std::thread::sleep(std::time::Duration::from_millis(20)); // distinct mtime
        std::fs::write(&progress, format!("{{\"poll\":{polls}}}")).expect("plant watermark");
    };

    seal();
    assert!(listed("running").contains(&id), "the run starts out running");
    assert!(listed("failed").contains("\"runs\":[]"));

    // Untouched manifest: the remembered state keeps answering.
    seal();
    assert!(listed("running").contains(&id));

    // The worker replaces the manifest (temp + rename): the next poll must
    // see the new state under both filters.
    store.mark_failed(&cfg, &prov, "boom").expect("lifecycle flip");
    seal();
    assert!(listed("running").contains("\"runs\":[]"), "a replaced manifest is read again");
    let failed = listed("failed");
    assert!(failed.contains(&id) && failed.contains("boom"), "body: {failed}");

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
