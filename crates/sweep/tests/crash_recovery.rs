//! Crash-recovery convergence (the ISSUE's proptest satellite): kill the
//! save path at an *arbitrary* budgeted write boundary — any manifest,
//! column file, journal, or `GENERATION` write, in any of the three death
//! modes — and assert that reopening the store (fsck) plus one
//! `--resume` sweep always converges to byte-identical run directories
//! and `GENERATION` as an uninterrupted sweep.
//!
//! Journals (`sweeps/`), fsck reports, and quarantined wreckage are
//! *expected* to differ — attempt counters and recovery artifacts record
//! history, not results — so the compared image is scoped to run
//! directories plus `GENERATION`.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use hrviz_faults::HrvizError;
use hrviz_network::RoutingAlgorithm;
use hrviz_pdes::SimTime;
use hrviz_sweep::{
    CrashMode, CrashPlan, RunStore, SweepEngine, SweepOptions, SweepSpec, TopologyAxis,
};
use hrviz_workloads::TrafficPattern;
use proptest::prelude::*;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hrviz-sweep-crash-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn grid() -> SweepSpec {
    SweepSpec::new("crashgrid", TopologyAxis::Dragonfly { terminals: 72 })
        .routings([RoutingAlgorithm::Minimal, RoutingAlgorithm::adaptive_default()])
        .patterns([TrafficPattern::UniformRandom, TrafficPattern::Tornado])
        .msgs_per_rank(2)
        .msg_bytes(1024)
        .period(SimTime::micros(1))
}

/// The store image that crash recovery must reproduce exactly: every file
/// under a run directory (16-hex names) plus the `GENERATION` counter.
/// Excludes `sweeps/`, `fsck_report.json`, `quarantine/`, `checkpoints/`.
fn store_image(root: &Path) -> BTreeMap<String, Vec<u8>> {
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
    let mut all = BTreeMap::new();
    walk(root, root, &mut all);
    all.into_iter()
        .filter(|(rel, _)| {
            rel == "GENERATION"
                || rel
                    .split('/')
                    .next()
                    .is_some_and(|d| d.len() == 16 && d.chars().all(|c| c.is_ascii_hexdigit()))
        })
        .collect()
}

/// Run dirs + GENERATION of one uninterrupted sweep (computed once).
fn reference() -> &'static BTreeMap<String, Vec<u8>> {
    static REF: OnceLock<BTreeMap<String, Vec<u8>>> = OnceLock::new();
    REF.get_or_init(|| {
        let root = tmp("clean-ref");
        SweepEngine::new(RunStore::open(&root).expect("open"))
            .with_workers(1)
            .run(&grid())
            .expect("clean sweep");
        let image = store_image(&root);
        let _ = fs::remove_dir_all(&root);
        image
    })
}

/// Total budgeted writes one clean sweep performs (measured once, with a
/// fail-point that never fires). Every crash boundary lies below this.
fn write_budget() -> u64 {
    static BUDGET: OnceLock<u64> = OnceLock::new();
    *BUDGET.get_or_init(|| {
        let root = tmp("budget-probe");
        let probe = CrashPlan::after_ops(u64::MAX, CrashMode::BeforeWrite);
        let store = RunStore::open(&root).expect("open").with_crash_plan(probe.clone());
        SweepEngine::new(store).with_workers(1).run(&grid()).expect("probe sweep");
        let _ = fs::remove_dir_all(&root);
        probe.ops_seen()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    /// Death at any write boundary, in any mode, converges after resume.
    #[test]
    fn any_crash_boundary_converges_after_fsck_and_resume(
        raw in 0u64..(1u64 << 40),
        mode_pick in 0u8..3,
    ) {
        let total = write_budget();
        let ops = raw % total;
        let mode = match mode_pick {
            0 => CrashMode::BeforeWrite,
            1 => CrashMode::TornTmp,
            _ => CrashMode::BeforeRename,
        };

        let root = tmp(&format!("boundary-{ops}-{mode_pick}"));
        let plan = CrashPlan::after_ops(ops, mode);
        let store = RunStore::open(&root).expect("open").with_crash_plan(plan.clone());
        let crashed = SweepEngine::new(store).with_workers(1).run(&grid());
        prop_assert!(crashed.is_err(), "ops={} {:?}: injected crash must surface", ops, mode);
        prop_assert!(plan.triggered(), "ops={} {:?}: fail-point must fire", ops, mode);

        // Reopen: fsck reaps torn tmp files and quarantines torn runs.
        let reopened = RunStore::open(&root).expect("fsck must open a crashed store");
        let resumed = SweepEngine::new(reopened)
            .with_workers(1)
            .run_with(&grid(), &SweepOptions::resume());
        prop_assert!(
            resumed.is_ok(),
            "ops={} {:?}: resume failed: {:?}", ops, mode, resumed.err()
        );

        let got = store_image(&root);
        let want = reference();
        prop_assert_eq!(
            got.keys().collect::<Vec<_>>(),
            want.keys().collect::<Vec<_>>(),
            "ops={} {:?}: file set diverged", ops, mode
        );
        for (rel, bytes) in &got {
            prop_assert!(
                want.get(rel) == Some(bytes),
                "ops={} {:?}: {} diverged from the uninterrupted sweep", ops, mode, rel
            );
        }
        let _ = fs::remove_dir_all(&root);
    }
}

/// Every `*.tmp` file under `dir`, at any depth.
fn tmp_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir).expect("read_dir") {
        let path = entry.expect("entry").path();
        if path.is_dir() {
            out.extend(tmp_files(&path));
        } else if path.extension().is_some_and(|e| e == "tmp") {
            out.push(path);
        }
    }
    out
}

/// Every `RunStore::open` runs fsck, which rewrites `fsck_report.json` and
/// reaps stray tmps. Openers of one store at once must neither share a tmp
/// name nor reap each other's in-flight tmp, and a dead writer's stray is
/// reaped by whichever opener gets there first without failing the rest.
#[test]
fn concurrent_opens_of_one_store_all_succeed_and_leave_no_tmp() {
    let root = tmp("concurrent-open");
    let store = RunStore::open(&root).expect("open");
    let runs = SweepEngine::new(store.clone()).with_workers(1).run(&grid()).expect("sweep");
    assert_eq!(runs.store_misses, 4);
    for run in store.runs().expect("list runs") {
        fs::write(store.run_dir(&run).join("manifest.json.tmp"), b"{").expect("stage a stray");
    }
    let start = std::sync::Barrier::new(8);
    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                start.wait();
                for _ in 0..20 {
                    let store = RunStore::open(&root).expect("concurrent open");
                    assert!(store.last_fsck().expect("fsck ran").quarantined.is_empty());
                }
            });
        }
    });
    assert_eq!(tmp_files(&root), Vec::<PathBuf>::new());
    let _ = fs::remove_dir_all(&root);
}

/// Names the store a child writer process saves into (see
/// [`writer_process`]); unset in every ordinary test run.
const WRITER_ENV: &str = "HRVIZ_CRASH_RECOVERY_WRITER";

/// The child side of [`opens_during_another_process_writes_succeed`]: with
/// [`WRITER_ENV`] set, re-save the grid's runs (the same bytes each time)
/// and bump `GENERATION` in a loop until a `stop` file appears, writing
/// `ready` after the first round. Without it, there is nothing to do.
#[test]
fn writer_process() {
    let Some(root) = std::env::var_os(WRITER_ENV).map(PathBuf::from) else { return };
    let store = RunStore::open(&root).expect("writer opens the store");
    let results: Vec<_> = grid()
        .expand()
        .expect("grid expands")
        .into_iter()
        .map(|cfg| {
            let result = cfg.execute().expect("run executes");
            (cfg, result)
        })
        .collect();
    let mut rounds = 0u64;
    while !root.join("stop").exists() {
        for (cfg, result) in &results {
            store.save(cfg, result).expect("writer saves");
        }
        store.bump_generation().expect("writer bumps");
        rounds += 1;
        if rounds == 1 {
            fs::write(root.join("ready"), b"").expect("signal ready");
        }
    }
}

/// Another *process* keeps rewriting the store's runs while this one
/// opens it (fsck included) and loads every run, again and again: every
/// open succeeds, every load is the run or a structured error, and no
/// `*.tmp` survives either side.
#[test]
fn opens_during_another_process_writes_succeed() {
    let root = tmp("cross-process");
    SweepEngine::new(RunStore::open(&root).expect("open"))
        .with_workers(1)
        .run(&grid())
        .expect("sweep");
    let mut child = std::process::Command::new(std::env::current_exe().expect("test binary"))
        .args(["--exact", "writer_process", "--test-threads=1", "--quiet"])
        .env(WRITER_ENV, &root)
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("spawn the writer process");
    while !root.join("ready").exists() {
        assert!(child.try_wait().expect("poll writer").is_none(), "writer exited early");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let before = RunStore::open(&root).expect("open").generation();
    let (mut loaded, mut refused) = (0, 0);
    for _ in 0..40 {
        let store = RunStore::open(&root).expect("open while another process writes");
        for run in store.runs().expect("list runs") {
            match store.load(&run) {
                Ok(_) => loaded += 1,
                Err(HrvizError::Parse { .. } | HrvizError::Io { .. }) => refused += 1,
                Err(e) => panic!("load of {run} is not a structured store error: {e}"),
            }
        }
    }
    let after = RunStore::open(&root).expect("open").generation();
    fs::write(root.join("stop"), b"").expect("signal stop");
    assert!(child.wait().expect("writer exits").success(), "writer process failed");
    assert!(after > before, "the writer wrote during the opens ({before} -> {after})");
    assert!(loaded > 0, "{loaded} loads, {refused} refused");
    assert_eq!(tmp_files(&root), Vec::<PathBuf>::new());
    let _ = fs::remove_dir_all(&root);
}

/// fsck reaps a tmp whose writer is gone and leaves a live writer's tmp
/// for its rename.
#[test]
fn fsck_reaps_only_tmps_whose_writer_is_gone() {
    let root = tmp("tmp-owners");
    drop(RunStore::open(&root).expect("open"));
    let live = root.join(format!("GENERATION.{}.0.tmp", std::process::id()));
    // Above any kernel's pid_max, so no such process exists.
    let dead = root.join(format!("GENERATION.{}.0.tmp", u32::MAX));
    let no_pid = root.join("GENERATION.tmp");
    for path in [&live, &dead, &no_pid] {
        fs::write(path, b"7\n").expect("stage a tmp");
    }
    let store = RunStore::open(&root).expect("reopen");
    assert_eq!(store.last_fsck().expect("fsck ran").tmp_removed, 2);
    assert_eq!(tmp_files(&root), vec![live]);
    let _ = fs::remove_dir_all(&root);
}

/// The one boundary the journaled-intent protocol exists for, pinned
/// deterministically rather than left to the strategy: death exactly on
/// the end-of-sweep `GENERATION` write (second-to-last budgeted op).
#[test]
fn crash_exactly_on_the_generation_write_converges() {
    let bump_op = write_budget() - 2;
    let root = tmp("pinned-bump");
    let plan = CrashPlan::after_ops(bump_op, CrashMode::BeforeRename);
    let store = RunStore::open(&root).expect("open").with_crash_plan(plan.clone());
    assert!(SweepEngine::new(store).with_workers(1).run(&grid()).is_err());
    assert!(plan.triggered());

    let reopened = RunStore::open(&root).expect("fsck");
    let out = SweepEngine::new(reopened)
        .with_workers(1)
        .run_with(&grid(), &SweepOptions::resume())
        .expect("resume");
    assert_eq!(out.store_hits, 4, "all runs were already complete");
    assert_eq!(out.store_misses, 0, "nothing re-simulates");
    assert_eq!(store_image(&root), *reference());
    let _ = fs::remove_dir_all(&root);
}
