//! Declarative sweep specifications.
//!
//! A [`SweepSpec`] names a cartesian grid over the design-space axes the
//! paper explores (§V–§VI): routing policy × traffic pattern × job
//! placement × fault schedule × RNG seed, on one topology. [`SweepSpec::expand`]
//! flattens the grid into concrete [`RunConfig`]s; each config knows how to
//! [`execute`](RunConfig::execute) itself and how to describe itself as a
//! [`canonical`](RunConfig::canonical) string whose fingerprint
//! content-addresses the run in the [store](crate::store::RunStore).

use hrviz_core::DataSet;
use hrviz_fattree::{FatTreeConfig, FatTreeRun, FatTreeSim, UpRouting};
use hrviz_network::{
    DragonflyConfig, FaultSchedule, HrvizError, JobMeta, NetworkSpec, RoutingAlgorithm, RunData,
    Simulation, TerminalId, Topology,
};
use hrviz_pdes::{EngineStats, SimTime};
use hrviz_stream::{SliceSink, StreamedOutcome};
use hrviz_workloads::{
    generate_synthetic, Allocator, PlacementPolicy, PlacementRequest, SyntheticConfig,
    TrafficPattern,
};

/// The topology a sweep runs on. Sweeps are per-topology: cross-topology
/// comparisons load two stores side by side instead of mixing tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopologyAxis {
    /// A Dragonfly sized by terminal count (paper scale 2550/5256/9702 or
    /// any canonical size `g·a·p` with `a = 2h`, `p = h`).
    Dragonfly {
        /// Total terminal count.
        terminals: u32,
    },
    /// A three-layer fat-tree built from `k`-port switches.
    FatTree {
        /// Switch radix (even, ≥ 2).
        k: u32,
    },
}

impl TopologyAxis {
    /// Stable label used in canonical strings and run labels.
    pub fn label(&self) -> String {
        match self {
            TopologyAxis::Dragonfly { terminals } => format!("dragonfly:{terminals}"),
            TopologyAxis::FatTree { k } => format!("fattree:{k}"),
        }
    }
}

/// One point on the placement axis: how the job's ranks land on terminals.
#[derive(Clone, Debug)]
pub struct PlacementAxis {
    /// Stable label used in canonical strings (e.g. `"whole"`, `"contig"`).
    pub label: String,
    /// `None` fills the whole machine (rank `i` on terminal `i`); `Some`
    /// places `ranks` ranks through the allocator with the given policy.
    /// Policy placements require a Dragonfly topology.
    pub policy: Option<(PlacementPolicy, u32)>,
}

impl PlacementAxis {
    /// Whole-machine placement (the default axis point).
    pub fn whole() -> PlacementAxis {
        PlacementAxis { label: "whole".into(), policy: None }
    }

    /// Place `ranks` ranks with `policy` via the allocator.
    pub fn policy(label: impl Into<String>, policy: PlacementPolicy, ranks: u32) -> PlacementAxis {
        PlacementAxis { label: label.into(), policy: Some((policy, ranks)) }
    }

    fn canonical(&self) -> String {
        match &self.policy {
            None => format!("{}:whole", self.label),
            Some((p, ranks)) => format!("{}:{}:{ranks}", self.label, p.name()),
        }
    }
}

/// One point on the fault axis: a labelled (possibly empty) fault schedule.
#[derive(Clone, Debug, Default)]
pub struct FaultAxis {
    /// Stable label used in canonical strings (e.g. `"none"`, `"g0-cut"`).
    pub label: String,
    /// The schedule to inject, or `None` for a healthy run.
    pub schedule: Option<FaultSchedule>,
}

impl FaultAxis {
    /// The healthy (no-faults) axis point.
    pub fn none() -> FaultAxis {
        FaultAxis { label: "none".into(), schedule: None }
    }

    /// A labelled fault schedule.
    pub fn schedule(label: impl Into<String>, schedule: FaultSchedule) -> FaultAxis {
        FaultAxis { label: label.into(), schedule: Some(schedule) }
    }

    fn canonical(&self) -> String {
        match &self.schedule {
            None => format!("{}:0", self.label),
            // The schedule's JSON form is canonical (ordered events), so
            // its fingerprint identifies the schedule contents.
            Some(s) => format!("{}:{:016x}", self.label, hrviz_obs::fingerprint64(&s.to_json())),
        }
    }
}

/// A declarative sweep: one topology, a set of values per axis, and the
/// shared workload shape. Expansion order is routing → pattern → placement
/// → fault → seed (last axis varies fastest).
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// Sweep name (used for report artifacts).
    pub name: String,
    /// The topology every run uses.
    pub topology: TopologyAxis,
    /// Routing policies to sweep.
    pub routings: Vec<RoutingAlgorithm>,
    /// Traffic patterns to sweep.
    pub patterns: Vec<TrafficPattern>,
    /// Placement axis points to sweep.
    pub placements: Vec<PlacementAxis>,
    /// Fault axis points to sweep.
    pub faults: Vec<FaultAxis>,
    /// RNG seeds to sweep (workload + placement + network RNG).
    pub seeds: Vec<u64>,
    /// Messages each rank sends.
    pub msgs_per_rank: u32,
    /// Bytes per message.
    pub msg_bytes: u32,
    /// Interval between a rank's consecutive messages.
    pub period: SimTime,
}

impl SweepSpec {
    /// A single-point sweep on `topology`: minimal routing, uniform-random
    /// traffic, whole-machine placement, no faults, seed 42. Widen axes
    /// with the builder methods.
    pub fn new(name: impl Into<String>, topology: TopologyAxis) -> SweepSpec {
        SweepSpec {
            name: name.into(),
            topology,
            routings: vec![RoutingAlgorithm::Minimal],
            patterns: vec![TrafficPattern::UniformRandom],
            placements: vec![PlacementAxis::whole()],
            faults: vec![FaultAxis::none()],
            seeds: vec![42],
            msgs_per_rank: 4,
            msg_bytes: 4 * 1024,
            period: SimTime::micros(4),
        }
    }

    /// Replace the routing axis.
    pub fn routings(mut self, routings: impl Into<Vec<RoutingAlgorithm>>) -> SweepSpec {
        self.routings = routings.into();
        self
    }

    /// Replace the traffic-pattern axis.
    pub fn patterns(mut self, patterns: impl Into<Vec<TrafficPattern>>) -> SweepSpec {
        self.patterns = patterns.into();
        self
    }

    /// Replace the placement axis.
    pub fn placements(mut self, placements: impl Into<Vec<PlacementAxis>>) -> SweepSpec {
        self.placements = placements.into();
        self
    }

    /// Replace the fault axis.
    pub fn faults(mut self, faults: impl Into<Vec<FaultAxis>>) -> SweepSpec {
        self.faults = faults.into();
        self
    }

    /// Replace the seed axis.
    pub fn seeds(mut self, seeds: impl Into<Vec<u64>>) -> SweepSpec {
        self.seeds = seeds.into();
        self
    }

    /// Set the per-rank message count.
    pub fn msgs_per_rank(mut self, msgs: u32) -> SweepSpec {
        self.msgs_per_rank = msgs;
        self
    }

    /// Set the message size in bytes.
    pub fn msg_bytes(mut self, bytes: u32) -> SweepSpec {
        self.msg_bytes = bytes;
        self
    }

    /// Set the injection period.
    pub fn period(mut self, period: SimTime) -> SweepSpec {
        self.period = period;
        self
    }

    /// Flatten the grid into concrete run configurations (cartesian
    /// product, deterministic order: routing → pattern → placement →
    /// fault → seed).
    pub fn expand(&self) -> Result<Vec<RunConfig>, HrvizError> {
        for (axis, len) in [
            ("routings", self.routings.len()),
            ("patterns", self.patterns.len()),
            ("placements", self.placements.len()),
            ("faults", self.faults.len()),
            ("seeds", self.seeds.len()),
        ] {
            if len == 0 {
                return Err(HrvizError::config(format!(
                    "sweep {:?}: empty {axis} axis",
                    self.name
                )));
            }
        }
        if matches!(self.topology, TopologyAxis::FatTree { .. })
            && self.placements.iter().any(|p| p.policy.is_some())
        {
            return Err(HrvizError::config("placement-policy sweeps require a Dragonfly topology"));
        }
        let mut out =
            Vec::with_capacity(self.routings.len() * self.patterns.len() * self.seeds.len());
        for &routing in &self.routings {
            for &pattern in &self.patterns {
                for placement in &self.placements {
                    for fault in &self.faults {
                        for &seed in &self.seeds {
                            out.push(RunConfig {
                                topology: self.topology,
                                routing,
                                pattern,
                                placement: placement.clone(),
                                fault: fault.clone(),
                                seed,
                                msgs_per_rank: self.msgs_per_rank,
                                msg_bytes: self.msg_bytes,
                                period: self.period,
                            });
                        }
                    }
                }
            }
        }
        Ok(out)
    }
}

/// One concrete run: a single point of the expanded grid.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Topology of the run.
    pub topology: TopologyAxis,
    /// Routing policy.
    pub routing: RoutingAlgorithm,
    /// Traffic pattern.
    pub pattern: TrafficPattern,
    /// Placement axis point.
    pub placement: PlacementAxis,
    /// Fault axis point.
    pub fault: FaultAxis,
    /// RNG seed.
    pub seed: u64,
    /// Messages each rank sends.
    pub msgs_per_rank: u32,
    /// Bytes per message.
    pub msg_bytes: u32,
    /// Injection period.
    pub period: SimTime,
}

impl RunConfig {
    /// The canonical description of this run: every input that affects the
    /// simulation, in a fixed order and rendering. Two configs produce the
    /// same simulation iff their canonical strings are equal, which is what
    /// makes [`RunConfig::hash`] a safe content address.
    pub fn canonical(&self) -> String {
        format!(
            "v1|topo={}|routing={:?}|pattern={}|placement={}|faults={}|seed={}|msgs={}|bytes={}|period_ns={}",
            self.topology.label(),
            self.routing,
            self.pattern.name(),
            self.placement.canonical(),
            self.fault.canonical(),
            self.seed,
            self.msgs_per_rank,
            self.msg_bytes,
            self.period.as_nanos(),
        )
    }

    /// Content-address of the run (FNV-1a of [`RunConfig::canonical`]).
    pub fn hash(&self) -> u64 {
        hrviz_obs::fingerprint64(&self.canonical())
    }

    /// The run's directory name in the store: the hash as 16 hex digits.
    pub fn run_id(&self) -> String {
        format!("{:016x}", self.hash())
    }

    /// Provenance fingerprint of the fault schedule contents (`"0"` for a
    /// healthy run) — the same fingerprint [`FaultAxis`] folds into the
    /// canonical string.
    pub fn fault_hash(&self) -> String {
        match &self.fault.schedule {
            None => "0".to_string(),
            Some(s) => format!("{:016x}", hrviz_obs::fingerprint64(&s.to_json())),
        }
    }

    /// Short human-readable label for reports and progress lines.
    pub fn label(&self) -> String {
        format!(
            "{} {} {} {} {} seed={}",
            self.topology.label(),
            routing_name(self.routing),
            self.pattern.name(),
            self.placement.label,
            self.fault.label,
            self.seed,
        )
    }

    /// Simulate this configuration.
    pub fn execute(&self) -> Result<RunResult, HrvizError> {
        match self.topology {
            TopologyAxis::Dragonfly { terminals } => self.execute_dragonfly(terminals),
            TopologyAxis::FatTree { k } => self.execute_fattree(k),
        }
    }

    /// Simulate this configuration with live slice telemetry: one
    /// [`Slice`](hrviz_stream::Slice) of counter deltas lands in `sink`
    /// per absolute `window` boundary, and the sink may abort the run
    /// mid-flight. A completed streamed run produces the same
    /// [`RunResult`] bytes as [`RunConfig::execute`].
    pub fn execute_streamed(
        &self,
        window: SimTime,
        sink: SliceSink<'_>,
    ) -> Result<StreamedOutcome<RunResult>, HrvizError> {
        match self.topology {
            TopologyAxis::Dragonfly { terminals } => Ok(self
                .dragonfly_sim(terminals)?
                .with_collector(hrviz_obs::get())
                .try_run_streamed(window, sink)?
                .map(|run| dragonfly_result(&run))),
            TopologyAxis::FatTree { k } => Ok(self
                .fattree_sim(k)?
                .try_run_streamed(window, sink)?
                .map(|run| fattree_result(&run))),
        }
    }

    fn synthetic(&self) -> SyntheticConfig {
        SyntheticConfig {
            pattern: self.pattern,
            msg_bytes: self.msg_bytes,
            msgs_per_rank: self.msgs_per_rank,
            period: self.period,
            stride: 1,
            seed: self.seed,
        }
    }

    fn execute_dragonfly(&self, terminals: u32) -> Result<RunResult, HrvizError> {
        let sim = self.dragonfly_sim(terminals)?;
        let run = sim.with_collector(hrviz_obs::get()).try_run()?;
        Ok(dragonfly_result(&run))
    }

    fn execute_fattree(&self, k: u32) -> Result<RunResult, HrvizError> {
        let sim = self.fattree_sim(k)?;
        let run = sim.try_run()?;
        Ok(fattree_result(&run))
    }

    /// Build the Dragonfly simulation with faults, placement, and the
    /// synthetic workload injected — ready for either run path.
    fn dragonfly_sim(&self, terminals: u32) -> Result<Simulation, HrvizError> {
        let cfg = dragonfly_of(terminals)?;
        let spec = NetworkSpec::new(cfg).with_routing(self.routing).with_seed(self.seed);
        let mut sim = Simulation::try_new(spec)?;
        if let Some(s) = &self.fault.schedule {
            sim = sim.with_faults(s.clone());
        }
        let meta = match &self.placement.policy {
            Some((policy, ranks)) => Allocator::new(Topology::new(cfg), self.seed)
                .place(&PlacementRequest {
                    name: self.pattern.name().into(),
                    ranks: *ranks,
                    policy: *policy,
                })
                .map_err(|e| HrvizError::config(format!("placement failed: {e}")))?,
            None => JobMeta {
                name: self.pattern.name().into(),
                terminals: (0..cfg.num_terminals()).map(TerminalId).collect(),
            },
        };
        let job = sim.add_job(meta.clone());
        sim.inject_all(generate_synthetic(job, &meta, &self.synthetic()));
        Ok(sim)
    }

    /// Build the fat-tree simulation with faults and workload injected.
    fn fattree_sim(&self, k: u32) -> Result<FatTreeSim, HrvizError> {
        if self.placement.policy.is_some() {
            return Err(HrvizError::config("placement-policy sweeps require a Dragonfly topology"));
        }
        let cfg = FatTreeConfig::try_new(k)?;
        let routing = match self.routing {
            RoutingAlgorithm::Minimal | RoutingAlgorithm::NonMinimal => UpRouting::Ecmp,
            RoutingAlgorithm::Adaptive { .. } | RoutingAlgorithm::ProgressiveAdaptive { .. } => {
                UpRouting::Adaptive
            }
        };
        let mut sim = FatTreeSim::new(cfg, routing);
        if let Some(s) = &self.fault.schedule {
            sim = sim.with_faults(s.clone());
        }
        let meta = JobMeta {
            name: self.pattern.name().into(),
            terminals: (0..cfg.num_hosts()).map(TerminalId).collect(),
        };
        let job = sim.add_job(meta.clone());
        sim.inject_all(generate_synthetic(job, &meta, &self.synthetic()));
        Ok(sim)
    }
}

/// Fold a completed Dragonfly run into the store-facing result shape.
fn dragonfly_result(run: &RunData) -> RunResult {
    RunResult {
        dataset: DataSet::builder(run).build(),
        stats: EngineStats {
            events_processed: run.events_processed,
            events_scheduled: run.events_scheduled,
            end_time: run.end_time,
            peak_queue_depth: run.peak_queue_depth,
        },
        delivered: run.total_delivered(),
        injected: run.total_injected(),
        dropped: run.total_dropped(),
        rerouted: run.total_rerouted(),
    }
}

/// Fold a completed fat-tree run into the store-facing result shape.
fn fattree_result(run: &FatTreeRun) -> RunResult {
    RunResult {
        dataset: run.to_dataset(),
        stats: EngineStats {
            events_processed: run.events_processed,
            // The fat-tree runner does not report scheduling stats;
            // counters it lacks stay zero rather than being faked.
            events_scheduled: 0,
            end_time: run.end_time,
            peak_queue_depth: 0,
        },
        delivered: run.delivered_bytes(),
        injected: run.injected_bytes(),
        dropped: run.dropped_packets(),
        rerouted: run.rerouted_packets(),
    }
}

/// The in-memory product of one executed run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Flattened analytics tables.
    pub dataset: DataSet,
    /// Engine counters (events, end time, queue depth).
    pub stats: EngineStats,
    /// Bytes delivered to terminals.
    pub delivered: u64,
    /// Bytes injected by the workload.
    pub injected: u64,
    /// Packets dropped (faults / TTL).
    pub dropped: u64,
    /// Packets reroute around failed resources.
    pub rerouted: u64,
}

/// Short stable name for a routing policy (threshold-insensitive; the
/// canonical string keeps the full `Debug` form).
pub fn routing_name(r: RoutingAlgorithm) -> &'static str {
    match r {
        RoutingAlgorithm::Minimal => "minimal",
        RoutingAlgorithm::NonMinimal => "nonminimal",
        RoutingAlgorithm::Adaptive { .. } => "adaptive",
        RoutingAlgorithm::ProgressiveAdaptive { .. } => "par",
    }
}

/// Resolve a terminal count to a Dragonfly configuration: the paper scales
/// (2550/5256/9702) or any canonical size (`g·a·p` with `a = 2h`, `p = h`).
pub fn dragonfly_of(terminals: u32) -> Result<DragonflyConfig, HrvizError> {
    match terminals {
        2_550 | 5_256 | 9_702 => DragonflyConfig::try_paper_scale(terminals),
        n => {
            for h in 1..=16 {
                let c = DragonflyConfig::canonical(h);
                if c.num_terminals() == n {
                    return Ok(c);
                }
            }
            Err(HrvizError::config(format!(
                "no canonical Dragonfly with {n} terminals; use a paper scale \
                 (2550/5256/9702) or a canonical size (g*a*p for a=2h, p=h)"
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrviz_faults::FaultEvent;

    fn tiny() -> SweepSpec {
        SweepSpec::new("tiny", TopologyAxis::Dragonfly { terminals: 72 })
            .msgs_per_rank(2)
            .msg_bytes(1024)
            .period(SimTime::micros(1))
    }

    #[test]
    fn expand_is_the_cartesian_product_in_axis_order() {
        let spec = tiny()
            .routings([RoutingAlgorithm::Minimal, RoutingAlgorithm::adaptive_default()])
            .patterns([TrafficPattern::UniformRandom, TrafficPattern::Tornado])
            .seeds([1, 2]);
        let runs = spec.expand().unwrap();
        assert_eq!(runs.len(), 8);
        // Last axis (seed) varies fastest.
        assert_eq!(runs[0].seed, 1);
        assert_eq!(runs[1].seed, 2);
        assert_eq!(runs[0].pattern, TrafficPattern::UniformRandom);
        assert_eq!(runs[2].pattern, TrafficPattern::Tornado);
        assert!(matches!(runs[0].routing, RoutingAlgorithm::Minimal));
        assert!(matches!(runs[4].routing, RoutingAlgorithm::Adaptive { .. }));
        // All eight canonical strings (and hence run ids) are distinct.
        let ids: std::collections::BTreeSet<String> = runs.iter().map(RunConfig::run_id).collect();
        assert_eq!(ids.len(), 8);
    }

    #[test]
    fn empty_axes_and_fattree_placements_are_config_errors() {
        let e = tiny().seeds([]).expand().unwrap_err();
        assert!(e.to_string().contains("empty seeds axis"), "{e}");
        let spec = SweepSpec::new("ft", TopologyAxis::FatTree { k: 4 })
            .placements([PlacementAxis::policy("contig", PlacementPolicy::Contiguous, 8)]);
        let e = spec.expand().unwrap_err();
        assert!(e.to_string().contains("Dragonfly"), "{e}");
    }

    #[test]
    fn canonical_hash_is_stable_and_sensitive() {
        let a = &tiny().expand().unwrap()[0];
        let b = &tiny().expand().unwrap()[0];
        assert_eq!(a.canonical(), b.canonical());
        assert_eq!(a.hash(), b.hash());
        assert_eq!(a.run_id().len(), 16);
        let c = &tiny().seeds([43]).expand().unwrap()[0];
        assert_ne!(a.hash(), c.hash());
        // Adaptive thresholds are part of the address.
        let t1 =
            &tiny().routings([RoutingAlgorithm::Adaptive { threshold: 1 }]).expand().unwrap()[0];
        let t2 =
            &tiny().routings([RoutingAlgorithm::Adaptive { threshold: 2 }]).expand().unwrap()[0];
        assert_ne!(t1.hash(), t2.hash());
        // Fault schedules are addressed by content, not label.
        let mut s1 = FaultSchedule::new(7);
        s1.push(SimTime::micros(1), FaultEvent::LinkDown { router: 0, port: 1 });
        let f1 = &tiny().faults([FaultAxis::schedule("x", s1.clone())]).expand().unwrap()[0];
        let mut s2 = s1.clone();
        s2.push(SimTime::micros(2), FaultEvent::LinkDown { router: 0, port: 2 });
        let f2 = &tiny().faults([FaultAxis::schedule("x", s2)]).expand().unwrap()[0];
        assert_ne!(f1.hash(), f2.hash());
    }

    #[test]
    fn dragonfly_execute_smoke() {
        let cfg = &tiny().expand().unwrap()[0];
        let r = cfg.execute().unwrap();
        assert!(r.stats.events_processed > 0);
        assert!(r.delivered > 0);
        assert_eq!(r.dataset.len(hrviz_core::EntityKind::Terminal), 72);
    }

    #[test]
    fn fattree_execute_smoke() {
        let spec = SweepSpec::new("ft", TopologyAxis::FatTree { k: 4 })
            .msgs_per_rank(2)
            .msg_bytes(1024)
            .period(SimTime::micros(1));
        let r = spec.expand().unwrap()[0].execute().unwrap();
        assert!(r.stats.events_processed > 0);
        assert!(r.delivered > 0);
        assert_eq!(r.dataset.len(hrviz_core::EntityKind::Terminal), 16);
    }

    #[test]
    fn placement_policy_runs_through_the_allocator() {
        let spec =
            tiny().placements([PlacementAxis::policy("contig", PlacementPolicy::Contiguous, 16)]);
        let r = spec.expand().unwrap()[0].execute().unwrap();
        // 16 ranks placed; the dataset still covers every terminal.
        assert_eq!(r.dataset.jobs.len(), 1);
        assert!(r.delivered > 0);
    }

    #[test]
    fn dragonfly_of_matches_paper_and_canonical_sizes() {
        assert_eq!(dragonfly_of(72).unwrap().num_terminals(), 72);
        assert_eq!(dragonfly_of(2_550).unwrap().num_terminals(), 2_550);
        assert!(dragonfly_of(1_234).is_err());
    }
}
