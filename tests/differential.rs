//! Differential harness for the determinism contract: one generated
//! configuration, run every way the simulator can run it, must produce the
//! same result.
//!
//! A Dragonfly case is a 72-terminal network drawn from routing × traffic
//! pattern × fault schedule (none or generated) × seed, with sampling on
//! or off. It runs four ways:
//!
//! * serial, on the sequential engine;
//! * parallel, on the conservative engine with 2–4 partitions;
//! * checkpoint-restart: a checkpointed run, then a fresh build restored
//!   from one of its checkpoints (chosen by the case) and run to the end;
//! * streamed, sliced at a window chosen by the case.
//!
//! The four `RunData`s must render to the same `{:?}` text (the parallel
//! run's peak queue depth, a per-partition figure, excepted). A Fat-Tree
//! case (k = 4) compares a serial and a streamed run's analytics tables.
//!
//! Tier-1 runs [`DRAGONFLY_CASES`] + [`FATTREE_CASES`] cases; the soak
//! (`cargo test --release --test differential -- --ignored`) runs
//! thousands.

use hrviz::fattree::{FatTreeConfig, FatTreeSim, UpRouting};
use hrviz::network::{
    CheckpointOptions, DragonflyConfig, FaultSchedule, JobMeta, NetworkSpec, RoutingAlgorithm,
    Simulation, SliceControl, StreamedOutcome, TerminalId, Topology,
};
use hrviz::pdes::SimTime;
use hrviz::workloads::{generate_synthetic, SyntheticConfig, TrafficPattern};

/// Dragonfly cases in tier-1.
const DRAGONFLY_CASES: u64 = 64;
/// Fat-Tree cases in tier-1.
const FATTREE_CASES: u64 = 16;

const PATTERNS: [TrafficPattern; 7] = [
    TrafficPattern::UniformRandom,
    TrafficPattern::NearestNeighbor,
    TrafficPattern::AllToAll,
    TrafficPattern::Transpose,
    TrafficPattern::BitComplement,
    TrafficPattern::Tornado,
    TrafficPattern::Permutation,
];

/// Deterministic choices for one case (splitmix64 over the case index).
struct Draw(u64);

impl Draw {
    fn new(case: u64) -> Draw {
        Draw(case.wrapping_mul(0xA076_1D64_78BD_642F) ^ 0xE703_7ED1_A0B4_28DB)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }
}

/// One generated Dragonfly configuration; `build` makes a fresh,
/// identical simulation of it for each run mode.
struct DragonflyCase {
    routing: RoutingAlgorithm,
    workload: SyntheticConfig,
    faults: Option<FaultSchedule>,
    sampling: bool,
    seed: u64,
}

impl DragonflyCase {
    fn generate(case: u64) -> DragonflyCase {
        let mut d = Draw::new(case);
        let routing = match d.below(4) {
            0 => RoutingAlgorithm::Minimal,
            1 => RoutingAlgorithm::NonMinimal,
            2 => RoutingAlgorithm::adaptive_default(),
            _ => RoutingAlgorithm::par_default(),
        };
        let seed = d.below(1 << 32);
        let workload = SyntheticConfig {
            pattern: PATTERNS[d.below(PATTERNS.len() as u64) as usize],
            msg_bytes: 1024 * d.range(1, 8) as u32,
            msgs_per_rank: d.range(1, 3) as u32,
            period: SimTime::nanos(d.range(200, 2_000)),
            stride: 1,
            seed,
        };
        let cfg = DragonflyConfig::canonical(2);
        let faults = (d.below(2) == 1).then(|| {
            let ports = Topology::new(cfg).ports_per_router();
            let count = d.range(1, 6) as usize;
            FaultSchedule::generate(seed, cfg.num_routers(), ports, count, 6_000)
        });
        DragonflyCase { routing, workload, faults, sampling: d.below(2) == 1, seed }
    }

    fn build(&self) -> Simulation {
        let cfg = DragonflyConfig::canonical(2); // 72 terminals
        let mut spec = NetworkSpec::new(cfg).with_routing(self.routing).with_seed(self.seed);
        if self.sampling {
            spec = spec.with_sampling(SimTime::micros(1), 64);
        }
        let mut sim = Simulation::try_new(spec).expect("valid spec");
        if let Some(f) = &self.faults {
            sim = sim.with_faults(f.clone());
        }
        let meta = JobMeta {
            name: self.workload.pattern.name().into(),
            terminals: (0..cfg.num_terminals()).map(TerminalId).collect(),
        };
        let job = sim.add_job(meta.clone());
        sim.inject_all(generate_synthetic(job, &meta, &self.workload));
        sim
    }

    fn label(&self) -> String {
        format!(
            "{} {} {}B×{} faults={} sampling={} seed={}",
            self.routing.name(),
            self.workload.pattern.name(),
            self.workload.msg_bytes,
            self.workload.msgs_per_rank,
            self.faults.as_ref().map_or(0, FaultSchedule::len),
            self.sampling,
            self.seed,
        )
    }
}

/// Run one Dragonfly case serial, parallel, checkpoint-restarted and
/// streamed; every mode must render the same `RunData`.
fn dragonfly_case(case: u64) {
    let c = DragonflyCase::generate(case);
    let label = format!("case {case} ({})", c.label());
    let mut d = Draw::new(case ^ 0x5EED);

    let serial = c.build().try_run().unwrap_or_else(|e| panic!("{label}: serial: {e}"));
    let end = serial.end_time.as_nanos();
    let want = format!("{serial:?}");

    let partitions = d.range(2, 4) as usize;
    let mut parallel = c
        .build()
        .try_run_parallel(partitions)
        .unwrap_or_else(|e| panic!("{label}: parallel({partitions}): {e}"));
    // The one engine-specific field: each partition has its own queue, so
    // the parallel peak is a per-partition high-water mark.
    parallel.peak_queue_depth = serial.peak_queue_depth;
    assert!(format!("{parallel:?}") == want, "{label}: parallel({partitions}) diverged");

    // Checkpoints at 2–8 boundaries over the run; restart from one of them.
    let every = SimTime((end / d.range(2, 8)).max(1));
    let mut snaps = Vec::new();
    let straight = c
        .build()
        .try_run_checkpointed(
            CheckpointOptions { restore_from: None, every: Some(every) },
            &mut |t, b| {
                snaps.push((t, b.to_vec()));
                Ok(())
            },
        )
        .unwrap_or_else(|e| panic!("{label}: checkpointed: {e}"));
    assert!(format!("{straight:?}") == want, "{label}: checkpointed run diverged");
    assert!(!snaps.is_empty(), "{label}: no checkpoint within {end} ns at every {every:?}");
    let (at, snap) = &snaps[d.below(snaps.len() as u64) as usize];
    let mut later = Vec::new();
    let resumed = c
        .build()
        .try_run_checkpointed(
            CheckpointOptions { restore_from: Some(snap), every: Some(every) },
            &mut |t, b| {
                later.push((t, b.to_vec()));
                Ok(())
            },
        )
        .unwrap_or_else(|e| panic!("{label}: restart from {at:?}: {e}"));
    assert!(format!("{resumed:?}") == want, "{label}: restart from {at:?} diverged");
    // A resumed run starts at its own boundary: it writes exactly the
    // straight-through checkpoints after `at`, byte for byte.
    let tail: Vec<_> = snaps.iter().filter(|(t, _)| t > at).cloned().collect();
    assert!(later == tail, "{label}: checkpoints after restarting from {at:?} diverged");

    let window = SimTime(d.range(200, end.max(200)));
    let mut slices = 0u64;
    let streamed = match c
        .build()
        .try_run_streamed(window, &mut |_| {
            slices += 1;
            Ok(SliceControl::Continue)
        })
        .unwrap_or_else(|e| panic!("{label}: streamed: {e}"))
    {
        StreamedOutcome::Completed(run) => run,
        StreamedOutcome::Aborted { reason, .. } => {
            panic!("{label}: streamed run aborted: {reason}")
        }
    };
    assert!(slices > 0, "{label}: streamed run sealed no slice");
    assert!(format!("{streamed:?}") == want, "{label}: streamed at {window:?} diverged");
}

/// Run one Fat-Tree case serial and streamed; the analytics tables must
/// match.
fn fattree_case(case: u64) {
    let mut d = Draw::new(case ^ 0xFA77);
    let cfg = FatTreeConfig::try_new(4).expect("valid k");
    let routing = if d.below(2) == 0 { UpRouting::Ecmp } else { UpRouting::Adaptive };
    let seed = d.below(1 << 32);
    let workload = SyntheticConfig {
        pattern: PATTERNS[d.below(PATTERNS.len() as u64) as usize],
        msg_bytes: 1024 * d.range(1, 8) as u32,
        msgs_per_rank: d.range(1, 4) as u32,
        period: SimTime::nanos(d.range(200, 2_000)),
        stride: 1,
        seed,
    };
    let faults = (d.below(2) == 1).then(|| {
        FaultSchedule::generate(seed, cfg.num_switches(), cfg.k, d.range(1, 6) as usize, 6_000)
    });
    let build = || {
        let mut sim = FatTreeSim::new(cfg, routing);
        if let Some(f) = &faults {
            sim = sim.with_faults(f.clone());
        }
        let meta = JobMeta {
            name: workload.pattern.name().into(),
            terminals: (0..cfg.num_hosts()).map(TerminalId).collect(),
        };
        let job = sim.add_job(meta.clone());
        sim.inject_all(generate_synthetic(job, &meta, &workload));
        sim
    };
    let label = format!(
        "fat-tree case {case} ({} {} seed={seed})",
        routing.name(),
        workload.pattern.name()
    );
    let serial = build().try_run().unwrap_or_else(|e| panic!("{label}: serial: {e}"));
    let window = SimTime(d.range(200, serial.end_time.as_nanos().max(200)));
    let streamed = build()
        .try_run_streamed(window, &mut |_| Ok(SliceControl::Continue))
        .unwrap_or_else(|e| panic!("{label}: streamed: {e}"))
        .completed()
        .unwrap_or_else(|| panic!("{label}: streamed run aborted"));
    assert_eq!(serial.end_time, streamed.end_time, "{label}");
    assert_eq!(serial.events_processed, streamed.events_processed, "{label}");
    assert!(
        format!("{:?}", serial.to_dataset()) == format!("{:?}", streamed.to_dataset()),
        "{label}: streamed at {window:?} diverged"
    );
}

#[test]
fn dragonfly_modes_agree() {
    for case in 0..DRAGONFLY_CASES {
        dragonfly_case(case);
    }
}

#[test]
fn fattree_serial_and_streamed_agree() {
    for case in 0..FATTREE_CASES {
        fattree_case(case);
    }
}

#[test]
#[ignore = "soak: run with --release -- --ignored"]
fn dragonfly_modes_agree_soak() {
    for case in DRAGONFLY_CASES..2_000 {
        dragonfly_case(case);
    }
}

#[test]
#[ignore = "soak: run with --release -- --ignored"]
fn fattree_serial_and_streamed_agree_soak() {
    for case in FATTREE_CASES..2_000 {
        fattree_case(case);
    }
}
