//! Simulation assembly.
//!
//! [`Simulation`] builds the LP population from a [`NetworkSpec`], installs
//! workload injections and job metadata, runs it through the shared
//! [`driver`](crate::driver) (sequential, checkpointed, streamed or
//! conservative-parallel — bit-identical results), and extracts a
//! [`RunData`].

use crate::config::NetworkSpec;
use crate::driver::{self, Boundary, CheckpointOptions, CheckpointSink, Mode};
use crate::metrics::RunData;
use crate::node::{NetNode, Node};
use crate::packet::JobId;
use crate::router::RouterLp;
use crate::terminal::TerminalLp;
use crate::topology::{RouterId, TerminalId, Topology};
use crate::traffic::{JobMeta, MsgInjection};
use hrviz_faults::{FaultSchedule, HrvizError};
use hrviz_obs::Collector;
use hrviz_pdes::SimTime;
use hrviz_stream::{SliceSink, StreamedOutcome};
use std::sync::Arc;

/// A configured, not-yet-run simulation.
pub struct Simulation {
    spec: Arc<NetworkSpec>,
    topo: Topology,
    /// Per-terminal injection schedules.
    schedules: Vec<Vec<MsgInjection>>,
    jobs: Vec<JobMeta>,
    collector: Collector,
    /// Timed fault events, broadcast to every router.
    faults: FaultSchedule,
}

impl Simulation {
    /// Start building a simulation for `spec`.
    pub fn new(spec: NetworkSpec) -> Self {
        let topo = Topology::new(spec.topology);
        assert!(
            spec.num_vcs >= 4,
            "the stage-ordered VC discipline requires at least 4 VCs (got {})",
            spec.num_vcs
        );
        let nt = spec.topology.num_terminals() as usize;
        Simulation {
            spec: Arc::new(spec),
            topo,
            schedules: vec![Vec::new(); nt],
            jobs: Vec::new(),
            collector: Collector::disabled(),
            faults: FaultSchedule::new(0),
        }
    }

    /// Like [`Simulation::new`] but validating the whole spec up front and
    /// returning a descriptive error instead of panicking.
    pub fn try_new(spec: NetworkSpec) -> Result<Self, HrvizError> {
        spec.validate()?;
        Ok(Simulation::new(spec))
    }

    /// Attach a telemetry collector: the engine reports event counters, the
    /// network layer reports packet/credit-stall counters and VC-occupancy
    /// histograms, and the whole run executes under a `sim/run` span.
    pub fn with_collector(mut self, collector: Collector) -> Self {
        self.collector = collector;
        self
    }

    /// The network specification.
    pub fn spec(&self) -> &NetworkSpec {
        &self.spec
    }

    /// Topology helper.
    pub fn topology(&self) -> Topology {
        self.topo
    }

    /// Register a job (name + terminals in rank order); returns its id.
    pub fn add_job(&mut self, meta: JobMeta) -> JobId {
        let id = self.jobs.len() as JobId;
        self.jobs.push(meta);
        id
    }

    /// Queue one message injection.
    pub fn inject(&mut self, msg: MsgInjection) {
        assert!(msg.src.0 < self.spec.topology.num_terminals(), "source terminal out of range");
        assert!(
            msg.dst.0 < self.spec.topology.num_terminals(),
            "destination terminal out of range"
        );
        self.schedules[msg.src.0 as usize].push(msg);
    }

    /// Queue many injections.
    pub fn inject_all(&mut self, msgs: impl IntoIterator<Item = MsgInjection>) {
        for m in msgs {
            self.inject(m);
        }
    }

    /// Attach a fault schedule. Each timed event is broadcast to every
    /// router at its trigger time over the engines' deterministic external
    /// injection path, so sequential and parallel runs stay bit-identical.
    pub fn with_faults(mut self, faults: FaultSchedule) -> Self {
        self.faults = faults;
        self
    }

    fn build_nodes(&mut self) -> Vec<NetNode> {
        let cfg = self.spec.topology;
        let nt = cfg.num_terminals();
        let mut nodes = Vec::with_capacity(self.topo.num_lps() as usize);
        for t in 0..nt {
            let tid = TerminalId(t);
            let mut lp = TerminalLp::new(
                tid,
                self.topo.router_lp(self.topo.router_of_terminal(tid)),
                self.spec.terminal_link,
                self.spec.packet_bytes,
                self.spec.vc_buffer_bytes,
                self.spec.sampling,
            );
            let mut sched = std::mem::take(&mut self.schedules[t as usize]);
            sched.sort_by_key(|m| m.time);
            lp.set_schedule(sched);
            nodes.push(Node::Terminal(lp));
        }
        for r in 0..cfg.num_routers() {
            nodes.push(Node::Switch(RouterLp::new(&self.spec, RouterId(r))));
        }
        // Stamp terminal job ids from job metadata.
        for (j, job) in self.jobs.iter().enumerate() {
            for &t in &job.terminals {
                if let Node::Terminal(lp) = &mut nodes[t.0 as usize] {
                    lp.job = j as JobId;
                }
            }
        }
        nodes
    }

    /// Run on the sequential engine with watchdog and end-of-run credit
    /// auditing: silent deadlocks come back as structured errors.
    pub fn try_run(self) -> Result<RunData, HrvizError> {
        self.try_run_checkpointed(CheckpointOptions::default(), &mut |_, _| Ok(()))
    }

    /// Run on the sequential engine with checkpoint/restore support:
    /// restore from a prior snapshot, periodically snapshot into `sink`, or
    /// both (resuming a run keeps checkpointing at the same absolute
    /// boundaries). Checkpoint-restart is bit-identical to a
    /// straight-through run — same [`RunData`], same later checkpoints.
    pub fn try_run_checkpointed(
        self,
        opts: CheckpointOptions<'_>,
        sink: CheckpointSink<'_>,
    ) -> Result<RunData, HrvizError> {
        let grid = opts.every.map(|every| (every, Boundary::Checkpoint(sink)));
        batch(self.drive(Mode::Serial { restore_from: opts.restore_from, grid }))
    }

    /// Run on the sequential engine, sealing one [`hrviz_stream::Slice`]
    /// of counter deltas into `sink` at every absolute multiple of
    /// `window` (plus a final partial slice at completion). The sink may
    /// abort the run mid-flight; the slice grid is absolute, so two runs
    /// of the same seed cut byte-identical slices regardless of when a
    /// watcher attached. Slicing is read-only observation of LP state:
    /// the completed [`RunData`] is bit-identical to [`Simulation::try_run`].
    pub fn try_run_streamed(
        self,
        window: SimTime,
        sink: SliceSink<'_>,
    ) -> Result<StreamedOutcome<RunData>, HrvizError> {
        self.drive(Mode::Serial { restore_from: None, grid: Some((window, Boundary::Slice(sink))) })
    }

    /// Run on the conservative parallel engine with `partitions` workers,
    /// checked like [`Simulation::try_run`] and producing identical results.
    pub fn try_run_parallel(self, partitions: usize) -> Result<RunData, HrvizError> {
        batch(self.drive(Mode::Parallel(partitions)))
    }

    fn drive(mut self, mode: Mode<'_>) -> Result<StreamedOutcome<RunData>, HrvizError> {
        let nodes = self.build_nodes();
        let Simulation { spec, jobs, collector, faults, .. } = self;
        driver::drive(nodes, spec.lookahead(), &faults, &collector, mode, |nodes, stats| {
            RunData::extract(&spec, jobs, &nodes, stats)
        })
    }
}

/// The result of a mode without a slice sink, which cannot abort.
fn batch<T>(outcome: Result<StreamedOutcome<T>, HrvizError>) -> Result<T, HrvizError> {
    outcome?.completed().ok_or_else(|| HrvizError::config("batch run aborted without a slice sink"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DragonflyConfig;
    use crate::routing::RoutingAlgorithm;
    use hrviz_stream::SliceControl;

    fn small_spec() -> NetworkSpec {
        let mut s = NetworkSpec::new(DragonflyConfig::canonical(2)); // 72 terminals
        s.num_vcs = 4;
        s
    }

    fn msg(t: u64, src: u32, dst: u32, bytes: u64) -> MsgInjection {
        MsgInjection { time: SimTime(t), src: TerminalId(src), dst: TerminalId(dst), bytes, job: 0 }
    }

    #[test]
    fn single_message_is_delivered() {
        let mut sim = Simulation::new(small_spec());
        sim.inject(msg(0, 0, 71, 10_000));
        let run = sim.try_run().expect("run");
        assert_eq!(run.total_injected(), 10_000);
        assert_eq!(run.total_delivered(), 10_000);
        let dst = &run.terminals[71];
        assert_eq!(dst.packets_finished, 5); // 10_000 / 2048 → 5 packets
        assert!(dst.avg_latency_ns > 0.0);
        assert!(dst.avg_hops >= 1.0 && dst.avg_hops <= 4.0);
        assert!(run.end_time > SimTime::ZERO);
    }

    #[test]
    fn all_to_one_congests_terminal_link() {
        let mut sim = Simulation::new(small_spec());
        for src in 1..24 {
            sim.inject(msg(0, src, 0, 64 * 1024));
        }
        let run = sim.try_run().expect("run");
        assert_eq!(run.total_delivered(), 23 * 64 * 1024);
        // The hot ejection link must have saturated somewhere upstream.
        let total_sat: u64 = run.class_sat_ns(crate::config::LinkClass::Local)
            + run.class_sat_ns(crate::config::LinkClass::Global)
            + run.class_sat_ns(crate::config::LinkClass::Terminal);
        assert!(total_sat > 0, "incast should saturate buffers");
    }

    #[test]
    fn conservation_under_uniform_traffic() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let mut sim = Simulation::new(small_spec());
        let n = 72;
        for src in 0..n {
            for k in 0..10u64 {
                let dst = loop {
                    let d = rng.gen_range(0..n);
                    if d != src {
                        break d;
                    }
                };
                sim.inject(msg(k * 1_000, src, dst, 4096));
            }
        }
        let run = sim.try_run().expect("run");
        assert_eq!(run.total_delivered(), run.total_injected());
        assert_eq!(run.total_injected(), n as u64 * 10 * 4096);
        // Every packet takes ≥1 router hop; none lost.
        let pkts: u64 = run.terminals.iter().map(|t| t.packets_finished).sum();
        assert_eq!(pkts, n as u64 * 10 * 2);
    }

    #[test]
    fn parallel_run_matches_sequential() {
        use rand::{Rng, SeedableRng};
        let build = || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(7);
            let mut sim =
                Simulation::new(small_spec().with_routing(RoutingAlgorithm::adaptive_default()));
            for src in 0..72 {
                for k in 0..5u64 {
                    let dst = (src + 1 + rng.gen_range(0..70)) % 72;
                    sim.inject(msg(k * 500, src, dst, 8192));
                }
            }
            sim
        };
        let seq = build().try_run().expect("run");
        let par = build().try_run_parallel(4).expect("parallel run");
        assert_eq!(seq.events_processed, par.events_processed);
        assert_eq!(seq.end_time, par.end_time);
        assert_eq!(seq.total_delivered(), par.total_delivered());
        for (a, b) in seq.terminals.iter().zip(&par.terminals) {
            assert_eq!(a.packets_finished, b.packets_finished);
            assert_eq!(a.avg_latency_ns, b.avg_latency_ns);
            assert_eq!(a.sat_ns, b.sat_ns);
        }
        for (a, b) in seq.local_links.iter().zip(&par.local_links) {
            assert_eq!(a.traffic, b.traffic);
            assert_eq!(a.sat_ns, b.sat_ns);
        }
        for (a, b) in seq.global_links.iter().zip(&par.global_links) {
            assert_eq!(a.traffic, b.traffic);
        }
    }

    #[test]
    fn streamed_run_matches_batch_and_slices_replay() {
        let build = || {
            let mut sim = Simulation::new(small_spec());
            for src in 0..72u32 {
                for k in 0..4u64 {
                    sim.inject(msg(k * 2_000, src, (src + 17) % 72, 8192));
                }
            }
            sim
        };
        let batch = build().try_run().expect("batch run");
        let mut slices = Vec::new();
        let outcome = build()
            .try_run_streamed(SimTime(5_000), &mut |s: &hrviz_stream::Slice| {
                slices.push(s.clone());
                Ok(SliceControl::Continue)
            })
            .expect("streamed run");
        let streamed = match outcome {
            StreamedOutcome::Completed(run) => run,
            StreamedOutcome::Aborted { .. } => panic!("unexpected abort"),
        };
        // Slicing is read-only: extraction is bit-identical to batch.
        assert_eq!(batch.end_time, streamed.end_time);
        assert_eq!(batch.events_processed, streamed.events_processed);
        assert_eq!(batch.total_delivered(), streamed.total_delivered());
        for (a, b) in batch.terminals.iter().zip(&streamed.terminals) {
            assert_eq!(a.packets_finished, b.packets_finished);
            assert_eq!(a.avg_latency_ns, b.avg_latency_ns);
            assert_eq!(a.sat_ns, b.sat_ns);
        }
        // Multiple windows sealed, covering the full run contiguously.
        assert!(slices.len() >= 2, "expected several windows, got {}", slices.len());
        for (i, s) in slices.iter().enumerate() {
            assert_eq!(s.seq, i as u64);
            if i > 0 {
                assert_eq!(s.t_start_ns, slices[i - 1].t_end_ns);
            }
        }
        assert_eq!(slices.last().map(|s| s.t_end_ns), Some(batch.end_time.as_nanos()));
        // Slice deltas sum back to the run totals.
        let delivered: u64 = slices.iter().map(|s| s.delivered_bytes).sum();
        assert_eq!(delivered, batch.total_delivered());
        let pkts: u64 = slices.iter().map(|s| s.delivered_packets).sum();
        assert_eq!(pkts, batch.terminals.iter().map(|t| t.packets_finished).sum::<u64>());
        let hist_total: u64 = slices.iter().flat_map(|s| s.latency_hist).sum();
        assert_eq!(hist_total, pkts, "every delivered packet lands in one latency bin");
        // Replays cut byte-identical slices.
        let mut again = Vec::new();
        build()
            .try_run_streamed(SimTime(5_000), &mut |s: &hrviz_stream::Slice| {
                again.push(s.to_json());
                Ok(SliceControl::Continue)
            })
            .expect("replay");
        let first: Vec<String> = slices.iter().map(|s| s.to_json()).collect();
        assert_eq!(first, again);
    }

    #[test]
    fn streamed_run_can_be_aborted_mid_flight() {
        let mut sim = Simulation::new(small_spec());
        for src in 0..72u32 {
            for k in 0..8u64 {
                sim.inject(msg(k * 2_000, src, (src + 31) % 72, 16 * 1024));
            }
        }
        let mut seen = 0u64;
        let outcome = sim
            .try_run_streamed(SimTime(3_000), &mut |_s: &hrviz_stream::Slice| {
                seen += 1;
                if seen == 2 {
                    Ok(SliceControl::Abort("test: stop after two windows".into()))
                } else {
                    Ok(SliceControl::Continue)
                }
            })
            .expect("streamed run");
        match outcome {
            StreamedOutcome::Aborted { reason, at_ns, slices } => {
                assert!(reason.contains("stop after two"));
                assert_eq!(slices, 2);
                assert!(at_ns > 0);
            }
            StreamedOutcome::Completed(_) => panic!("abort was ignored"),
        }
    }

    #[test]
    fn collector_counters_match_between_engines() {
        use hrviz_obs::Collector;
        let build = || {
            let mut sim = Simulation::new(small_spec());
            for src in 0..72u32 {
                sim.inject(msg(0, src, (src + 36) % 72, 16 * 1024));
            }
            sim
        };
        let cs = Collector::enabled();
        let seq = build().with_collector(cs.clone()).try_run().expect("run");
        let cp = Collector::enabled();
        let par = build().with_collector(cp.clone()).try_run_parallel(4).expect("parallel run");

        // The headline contract: both engines report identical
        // delivered-packet (and injected/byte/event) counters.
        assert_eq!(
            cs.counter("net/packets_delivered"),
            cp.counter("net/packets_delivered"),
            "sequential vs parallel delivered-packet counters diverged"
        );
        assert!(cs.counter("net/packets_delivered") > 0);
        assert_eq!(cs.counter("net/packets_injected"), cp.counter("net/packets_injected"));
        assert_eq!(cs.counter("net/bytes_delivered"), cp.counter("net/bytes_delivered"));
        assert_eq!(cs.counter("net/credit_stalls"), cp.counter("net/credit_stalls"));
        assert_eq!(cs.counter("pdes/events_processed"), cp.counter("pdes/events_processed"));
        assert_eq!(seq.total_delivered(), par.total_delivered());

        // Both runs recorded the sim/run span and a VC-occupancy histogram.
        for c in [&cs, &cp] {
            let snap = c.snapshot();
            assert_eq!(snap.spans["sim/run"].count, 1);
            assert!(snap.hists["net/vc_occupancy"].count > 0);
        }
    }

    #[test]
    fn run_data_carries_engine_stats() {
        let mut sim = Simulation::new(small_spec());
        sim.inject(msg(0, 0, 71, 10_000));
        let run = sim.try_run().expect("run");
        assert!(run.peak_queue_depth > 0);
        assert!(run.events_scheduled >= run.events_processed);
    }

    #[test]
    fn routing_algorithms_all_deliver() {
        for routing in [
            RoutingAlgorithm::Minimal,
            RoutingAlgorithm::NonMinimal,
            RoutingAlgorithm::adaptive_default(),
            RoutingAlgorithm::par_default(),
        ] {
            let mut sim = Simulation::new(small_spec().with_routing(routing));
            for src in 0..72u32 {
                sim.inject(msg(0, src, (src + 36) % 72, 16 * 1024));
            }
            let run = sim.try_run().expect("run");
            assert_eq!(
                run.total_delivered(),
                72 * 16 * 1024,
                "routing {:?} lost traffic",
                routing.name()
            );
        }
    }

    #[test]
    fn nonminimal_routing_increases_hops() {
        let run_with = |routing| {
            let mut sim = Simulation::new(small_spec().with_routing(routing));
            for src in 0..72u32 {
                sim.inject(msg(0, src, (src + 36) % 72, 8192));
            }
            let run = sim.try_run().expect("run");
            let pkts: u64 = run.terminals.iter().map(|t| t.packets_finished).sum();
            let hops: f64 =
                run.terminals.iter().map(|t| t.avg_hops * t.packets_finished as f64).sum::<f64>()
                    / pkts as f64;
            hops
        };
        let min_hops = run_with(RoutingAlgorithm::Minimal);
        let non_hops = run_with(RoutingAlgorithm::NonMinimal);
        assert!(
            non_hops > min_hops + 0.5,
            "valiant should lengthen paths: {min_hops} vs {non_hops}"
        );
    }

    #[test]
    fn jobs_are_stamped_and_aggregated() {
        let mut sim = Simulation::new(small_spec());
        let job = sim
            .add_job(JobMeta { name: "toy".into(), terminals: (0..8).map(TerminalId).collect() });
        for src in 0..8u32 {
            sim.inject(MsgInjection {
                time: SimTime::ZERO,
                src: TerminalId(src),
                dst: TerminalId((src + 4) % 8),
                bytes: 4096,
                job,
            });
        }
        let run = sim.try_run().expect("run");
        let stats = run.job_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].name, "toy");
        assert_eq!(stats[0].ranks, 8);
        assert_eq!(stats[0].bytes, 8 * 4096);
        assert!(stats[0].avg_latency_ns > 0.0);
        assert!(stats[0].makespan > SimTime::ZERO);
        assert_eq!(run.terminals[0].job, 0);
        assert_eq!(run.terminals[9].job, crate::packet::NO_JOB);
    }

    #[test]
    fn sampling_produces_series() {
        let spec = small_spec().with_sampling(SimTime::micros(1), 1000);
        let mut sim = Simulation::new(spec);
        for src in 0..72u32 {
            sim.inject(msg(0, src, (src + 7) % 72, 32 * 1024));
        }
        let run = sim.try_run().expect("run");
        let series = run.series.as_ref().expect("sampling enabled");
        let total_term: u64 = series.traffic[0].total();
        assert_eq!(total_term, run.total_injected());
        assert_eq!(
            series.recv_count.total(),
            run.terminals.iter().map(|t| t.packets_finished).sum::<u64>()
        );
        assert!(series.latency_sum.total() > 0);
    }

    #[test]
    fn no_deadlock_with_tiny_buffers_under_valiant_pressure() {
        // Failure injection for the VC discipline: buffers barely larger
        // than one packet, adversarial tornado traffic, and the two
        // detouring routings. Any cycle in the channel dependency graph
        // would wedge this configuration; the watchdog and the credit
        // audit turn a wedge into a test failure, and the hop limit bounds
        // livelock.
        for routing in [RoutingAlgorithm::NonMinimal, RoutingAlgorithm::par_default()] {
            let mut spec = small_spec().with_routing(routing);
            spec.vc_buffer_bytes = 3 * 1024; // ~1.5 packets per VC
            let mut sim = Simulation::new(spec);
            for src in 0..72u32 {
                sim.inject(msg(0, src, (src + 36) % 72, 64 * 1024));
            }
            let run = sim.try_run().expect("tiny buffers must not wedge");
            assert_eq!(
                run.total_delivered(),
                72 * 64 * 1024,
                "{} wedged or lost traffic with tiny buffers",
                routing.name()
            );
        }
    }

    #[test]
    fn router_down_mid_run_completes_with_counted_drops() {
        use hrviz_faults::FaultEvent;
        let topo = Topology::new(small_spec().topology);
        let dst_router = topo.router_of_terminal(TerminalId(71));
        let mut faults = FaultSchedule::new(1);
        faults.push(SimTime::micros(5), FaultEvent::RouterDown { router: dst_router.0 });
        let mut sim = Simulation::new(small_spec()).with_faults(faults);
        for k in 0..50u64 {
            sim.inject(msg(k * 1_000, 0, 71, 2048));
        }
        let run = sim.try_run().expect("faulted run must complete cleanly");
        assert!(run.total_delivered() > 0, "pre-fault packets must land");
        assert!(run.total_dropped() > 0, "post-fault packets must be counted drops");
        assert_eq!(
            run.total_delivered() + run.total_dropped() * 2048,
            run.total_injected(),
            "every packet is either delivered or a counted drop"
        );
        // Drops land at the dead router itself (in-flight arrivals) and at
        // its neighbors, whose liveness check sees the dead peer.
        let dst_group = topo.group_of_router(dst_router).0;
        for r in &run.routers {
            assert!(r.dropped == 0 || r.group == dst_group, "drop outside the faulted group");
        }
        assert!(run.routers[dst_router.0 as usize].dropped > 0);
    }

    #[test]
    fn fault_counters_reach_the_collector() {
        use hrviz_faults::FaultEvent;
        use hrviz_obs::Collector;
        let topo = Topology::new(small_spec().topology);
        let dst_router = topo.router_of_terminal(TerminalId(71));
        let mut faults = FaultSchedule::new(1);
        faults.push(SimTime::ZERO, FaultEvent::RouterDown { router: dst_router.0 });
        let c = Collector::enabled();
        let mut sim = Simulation::new(small_spec()).with_faults(faults).with_collector(c.clone());
        sim.inject(msg(0, 0, 71, 4096));
        let run = sim.try_run().expect("clean completion");
        assert_eq!(c.counter("net/fault_events"), 1);
        assert_eq!(c.counter("net/packets_dropped"), run.total_dropped());
        assert!(run.total_dropped() > 0);
        let events = c.drain_events();
        assert!(events.iter().any(|e| e.contains("fault_injected")));
    }

    #[test]
    fn blackhole_drop_trips_credit_auditor() {
        use hrviz_faults::{FaultEvent, HrvizError};
        use hrviz_pdes::SimError;
        let mut spec = small_spec();
        spec.drop_without_credit = true;
        let topo = Topology::new(spec.topology);
        let dst_router = topo.router_of_terminal(TerminalId(71));
        let mut faults = FaultSchedule::new(1);
        faults.push(SimTime::ZERO, FaultEvent::RouterDown { router: dst_router.0 });
        let mut sim = Simulation::new(spec).with_faults(faults);
        for k in 0..10u64 {
            sim.inject(msg(k * 100, 0, 71, 2048));
        }
        let err = sim.try_run().expect_err("swallowed credits must fail the audit");
        assert!(matches!(err, HrvizError::Sim(SimError::Invariant { .. })), "got {err}");
    }

    #[test]
    fn parallel_matches_sequential_under_faults() {
        use hrviz_faults::FaultEvent;
        let build = || {
            let cfg = small_spec().topology;
            let mut faults = FaultSchedule::new(3);
            // Global port 0 of router 0 (port index p + a = 6).
            faults.push(SimTime::ZERO, FaultEvent::LinkDown { router: 0, port: 6 });
            faults.push(SimTime::micros(2), FaultEvent::RouterDown { router: 17 });
            faults.push(SimTime::micros(4), FaultEvent::RouterUp { router: 17 });
            faults.push(
                SimTime::micros(1),
                FaultEvent::DegradedLink { router: 5, port: 3, factor: 0.5 },
            );
            assert!(17 < cfg.num_routers());
            let mut sim =
                Simulation::new(small_spec().with_routing(RoutingAlgorithm::adaptive_default()))
                    .with_faults(faults);
            for src in 0..72u32 {
                sim.inject(msg(0, src, (src + 36) % 72, 16 * 1024));
            }
            sim
        };
        let seq = build().try_run().expect("sequential");
        let par = build().try_run_parallel(4).expect("parallel");
        assert_eq!(seq.events_processed, par.events_processed);
        assert_eq!(seq.end_time, par.end_time);
        assert_eq!(seq.total_delivered(), par.total_delivered());
        assert_eq!(seq.total_dropped(), par.total_dropped());
        assert_eq!(seq.total_rerouted(), par.total_rerouted());
        for (a, b) in seq.routers.iter().zip(&par.routers) {
            assert_eq!(a.dropped, b.dropped);
            assert_eq!(a.rerouted, b.rerouted);
        }
        for (a, b) in seq.terminals.iter().zip(&par.terminals) {
            assert_eq!(a.packets_finished, b.packets_finished);
            assert_eq!(a.avg_latency_ns, b.avg_latency_ns);
        }
    }

    #[test]
    fn try_new_rejects_invalid_spec() {
        let mut spec = small_spec();
        spec.num_vcs = 2;
        let Err(err) = Simulation::try_new(spec) else { panic!("2 VCs must be rejected") };
        assert!(err.to_string().contains("4 VCs"), "got {err}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn injection_bounds_checked() {
        let mut sim = Simulation::new(small_spec());
        sim.inject(msg(0, 0, 10_000, 100));
    }

    /// A workload exercising every snapshot codec: adaptive routing (RNG
    /// state), faults (fault views + pending fault events), and sampling
    /// (every optional bin set).
    fn checkpointable_sim() -> Simulation {
        use hrviz_faults::FaultEvent;
        let spec = small_spec()
            .with_routing(RoutingAlgorithm::adaptive_default())
            .with_sampling(SimTime::micros(1), 64);
        let mut faults = FaultSchedule::new(3);
        faults.push(SimTime::micros(2), FaultEvent::RouterDown { router: 17 });
        faults.push(SimTime::micros(6), FaultEvent::RouterUp { router: 17 });
        faults
            .push(SimTime::micros(1), FaultEvent::DegradedLink { router: 5, port: 3, factor: 0.5 });
        let mut sim = Simulation::new(spec).with_faults(faults);
        let job = sim
            .add_job(JobMeta { name: "ckpt".into(), terminals: (0..8).map(TerminalId).collect() });
        for src in 0..72u32 {
            for k in 0..4u64 {
                let mut m = msg(k * 700, src, (src + 29) % 72, 8192);
                if src < 8 {
                    m.job = job;
                }
                sim.inject(m);
            }
        }
        sim
    }

    #[test]
    fn checkpoint_restart_is_bit_identical() {
        let every = SimTime::micros(3);
        let mut straight = Vec::new();
        let full = checkpointable_sim()
            .try_run_checkpointed(
                CheckpointOptions { restore_from: None, every: Some(every) },
                &mut |t, bytes| {
                    straight.push((t, bytes.to_vec()));
                    Ok(())
                },
            )
            .expect("straight-through run");
        assert!(straight.len() >= 2, "want ≥2 checkpoints, got {}", straight.len());

        // "Crash" right after the first checkpoint: rebuild the simulation
        // from the same spec and resume from that snapshot.
        let (t0, snap0) = straight[0].clone();
        let mut resumed_cp = Vec::new();
        let resumed = checkpointable_sim()
            .try_run_checkpointed(
                CheckpointOptions { restore_from: Some(&snap0), every: Some(every) },
                &mut |t, bytes| {
                    resumed_cp.push((t, bytes.to_vec()));
                    Ok(())
                },
            )
            .expect("resumed run");

        // The resumed run takes the same absolute boundaries after t0 —
        // and not t0 itself — with byte-identical checkpoints.
        assert_eq!(resumed_cp.len(), straight.len() - 1);
        for ((ta, a), (tb, b)) in straight[1..].iter().zip(&resumed_cp) {
            assert_eq!(ta, tb, "checkpoint boundaries diverged");
            assert!(a == b, "checkpoint bytes at {ta:?} diverged");
        }
        assert!(resumed_cp.iter().all(|(t, _)| *t > t0));

        // And the final results are indistinguishable, down to every
        // per-terminal/per-link record, bin, and engine stat.
        assert_eq!(full.events_processed, resumed.events_processed);
        assert_eq!(full.end_time, resumed.end_time);
        let full_dbg = format!("{full:?}");
        let resumed_dbg = format!("{resumed:?}");
        assert!(full_dbg == resumed_dbg, "RunData diverged after checkpoint-restart");
    }

    #[test]
    fn restore_without_further_checkpointing_matches() {
        let mut cps = Vec::new();
        let full = checkpointable_sim()
            .try_run_checkpointed(
                CheckpointOptions { restore_from: None, every: Some(SimTime::micros(4)) },
                &mut |t, bytes| {
                    cps.push((t, bytes.to_vec()));
                    Ok(())
                },
            )
            .expect("straight-through run");
        let (_, last) = cps.last().expect("at least one checkpoint").clone();
        let resumed = checkpointable_sim()
            .try_run_checkpointed(
                CheckpointOptions { restore_from: Some(&last), every: None },
                &mut |_, _| Ok(()),
            )
            .expect("resumed run");
        assert!(
            format!("{full:?}") == format!("{resumed:?}"),
            "RunData diverged resuming from the last checkpoint"
        );
    }

    #[test]
    fn checkpoint_rejects_bad_inputs() {
        let err = checkpointable_sim()
            .try_run_checkpointed(
                CheckpointOptions { restore_from: None, every: Some(SimTime::ZERO) },
                &mut |_, _| Ok(()),
            )
            .expect_err("zero interval must be rejected");
        assert!(err.to_string().contains("positive"), "got {err}");

        let garbage = vec![0u8; 64];
        let err = checkpointable_sim()
            .try_run_checkpointed(
                CheckpointOptions { restore_from: Some(&garbage), every: None },
                &mut |_, _| Ok(()),
            )
            .expect_err("garbage snapshot must be rejected");
        assert!(err.to_string().contains("checkpoint"), "got {err}");

        // A bare engine snapshot (the checkpoint format before checkpoints
        // carried their boundary) is refused with the same structured error.
        let mut cps = Vec::new();
        checkpointable_sim()
            .try_run_checkpointed(
                CheckpointOptions { restore_from: None, every: Some(SimTime::micros(4)) },
                &mut |_, bytes| {
                    cps.push(bytes.to_vec());
                    Ok(())
                },
            )
            .expect("straight-through run");
        let bare = &cps[0][20..]; // magic, boundary, snapshot length
        let err = checkpointable_sim()
            .try_run_checkpointed(
                CheckpointOptions { restore_from: Some(bare), every: None },
                &mut |_, _| Ok(()),
            )
            .expect_err("a bare engine snapshot must be rejected");
        assert!(
            matches!(&err, HrvizError::Parse { what, .. } if what == "engine checkpoint"),
            "got {err}"
        );
    }

    #[test]
    fn link_records_cover_topology() {
        let spec = small_spec();
        let cfg = spec.topology;
        let sim = Simulation::new(spec);
        let run = sim.try_run().expect("run");
        // Directed local links: a routers each with a-1 peers per group.
        let a = cfg.routers_per_group as usize;
        let expect_local = cfg.groups as usize * a * (a - 1);
        assert_eq!(run.local_links.len(), expect_local);
        // Directed global links: every router has h.
        let expect_global = cfg.num_routers() as usize * cfg.global_ports as usize;
        assert_eq!(run.global_links.len(), expect_global);
        assert_eq!(run.terminals.len(), cfg.num_terminals() as usize);
        assert_eq!(run.routers.len(), cfg.num_routers() as usize);
    }
}
