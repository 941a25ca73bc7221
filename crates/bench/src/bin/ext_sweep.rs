//! Extension: the parallel sweep engine over the canonical 16-config grid
//! (EXPERIMENTS.md `ext_sweep`): [minimal, adaptive] × [uniform-random,
//! tornado] × seeds [1, 2] × faults [none, canned] on a 72-terminal
//! Dragonfly. Runs the grid serially (1 worker) and in parallel (4
//! workers) into two fresh stores, then repeats the parallel sweep warm.
//! Checks: the two stores are byte-identical, the warm sweep simulates
//! zero events and is ≥10× faster than the cold sweep, and — on hosts
//! with ≥4 cores — the parallel sweep is ≥3× faster than the serial one.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use hrviz_bench::{out_dir, Expectations};
use hrviz_network::{FaultEvent, FaultSchedule, RoutingAlgorithm};
use hrviz_pdes::SimTime;
use hrviz_sweep::{FaultAxis, RunStore, SweepEngine, SweepOutcome, SweepSpec, TopologyAxis};
use hrviz_workloads::TrafficPattern;

/// The canned fault axis point: a dead local link, a router that dies and
/// recovers, and a half-speed link (all ids valid on the 72-terminal
/// Dragonfly: 36 routers × 7 ports).
fn canned_schedule() -> FaultSchedule {
    let mut faults = FaultSchedule::new(0x5EED);
    faults
        .push(SimTime::ZERO, FaultEvent::LinkDown { router: 0, port: 3 })
        .push(SimTime::micros(5), FaultEvent::RouterDown { router: 17 })
        .push(SimTime::micros(40), FaultEvent::RouterUp { router: 17 })
        .push(SimTime::micros(2), FaultEvent::DegradedLink { router: 5, port: 4, factor: 0.5 });
    faults
}

/// The canonical 16-config grid.
fn grid() -> SweepSpec {
    SweepSpec::new("ext_sweep", TopologyAxis::Dragonfly { terminals: 72 })
        .routings([RoutingAlgorithm::Minimal, RoutingAlgorithm::adaptive_default()])
        .patterns([TrafficPattern::UniformRandom, TrafficPattern::Tornado])
        .seeds([1, 2])
        .faults([FaultAxis::none(), FaultAxis::schedule("canned", canned_schedule())])
        .msgs_per_rank(8)
        .msg_bytes(4 * 1024)
        .period(SimTime::micros(2))
}

/// Every file under `root`, keyed by path relative to it.
fn tree(root: &Path) -> BTreeMap<String, Vec<u8>> {
    fn walk(dir: &Path, root: &Path, out: &mut BTreeMap<String, Vec<u8>>) {
        for entry in std::fs::read_dir(dir).expect("read store dir") {
            let path = entry.expect("store entry").path();
            if path.is_dir() {
                walk(&path, root, out);
            } else {
                let rel = path.strip_prefix(root).expect("store prefix").display().to_string();
                out.insert(rel, std::fs::read(&path).expect("read store file"));
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(root, root, &mut out);
    out
}

fn fresh_store(dir: &Path) -> RunStore {
    let _ = std::fs::remove_dir_all(dir);
    RunStore::open(dir).expect("open store")
}

fn timed_sweep(engine: &SweepEngine, spec: &SweepSpec) -> (SweepOutcome, f64) {
    let t0 = Instant::now();
    let outcome = engine.run(spec).expect("sweep completes");
    (outcome, t0.elapsed().as_secs_f64())
}

fn main() {
    hrviz_bench::obs_init("ext_sweep");
    println!("Extension: parallel sweep engine + columnar run store (Dragonfly 72t, 16 configs)");
    let spec = grid();
    let out = out_dir();
    let serial_root: PathBuf = out.join("store_ext_sweep_serial");
    let parallel_root: PathBuf = out.join("store_ext_sweep_parallel");

    let serial_engine = SweepEngine::new(fresh_store(&serial_root)).with_workers(1);
    let (serial, serial_wall) = timed_sweep(&serial_engine, &spec);
    println!("  serial   (1 worker):  {} runs in {serial_wall:.3}s", serial.store_misses);

    let parallel_engine = SweepEngine::new(fresh_store(&parallel_root)).with_workers(4);
    let (parallel, parallel_wall) = timed_sweep(&parallel_engine, &spec);
    println!("  parallel (4 workers): {} runs in {parallel_wall:.3}s", parallel.store_misses);

    let (warm, warm_wall) = timed_sweep(&parallel_engine, &spec);
    println!(
        "  warm repeat:          {} hits / {} misses in {warm_wall:.3}s",
        warm.store_hits, warm.store_misses
    );
    warm.write(&out).expect("write warm sweep report");

    let serial_tree = tree(&serial_root);
    let parallel_tree = tree(&parallel_root);
    let identical = serial_tree == parallel_tree;
    let parallel_speedup = serial_wall / parallel_wall.max(1e-9);
    let warm_speedup = parallel_wall / warm_wall.max(1e-9);
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!(
        "  cores {cores}  parallel speedup {parallel_speedup:.2}x  warm speedup {warm_speedup:.1}x"
    );

    let mut exp = Expectations::new();
    exp.check("the grid expands to 16 configs", serial.configs == 16);
    exp.check("cold sweeps simulate every config", serial.store_misses == 16);
    exp.check(
        "serial and parallel stores are byte-identical",
        // 16 runs × 2 files + GENERATION + fsck_report.json + the sweep record
        identical && serial_tree.len() == 16 * 2 + 3,
    );
    exp.check("warm sweep is all store hits", warm.store_hits == 16 && warm.store_misses == 0);
    exp.check("warm sweep simulates zero events", warm.events_simulated == 0);
    exp.check("warm sweep ≥10× faster than the cold sweep", warm_speedup >= 10.0);
    if cores >= 4 {
        exp.check("parallel sweep ≥3× faster than serial on ≥4 cores", parallel_speedup >= 3.0);
    } else {
        println!("  [skip] parallel ≥3× check: {cores} core(s) < 4");
    }
    let ok = exp.finish("ext_sweep");
    std::process::exit(i32::from(!ok));
}
