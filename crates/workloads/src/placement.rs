//! Job placement policies (paper §II-A, §V-D).
//!
//! A placement policy decides which terminals a job's MPI ranks run on:
//!
//! * **Contiguous** — the next free terminals in id order (the policy
//!   "typically used in supercomputer centers").
//! * **Random group** — randomly selected groups; free terminals inside the
//!   chosen groups are assigned contiguously.
//! * **Random router** — randomly selected routers; the job gets the
//!   terminals directly attached to them.
//! * **Random node** — individually random terminals.
//!
//! The *hybrid* strategy the paper derives in §V-D (random router for the
//! communication-heavy jobs, random group for the interference-sensitive
//! one) is expressed by passing a different policy per job.

use hrviz_network::{GroupId, JobMeta, RouterId, TerminalId, Topology};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// How a job's ranks are mapped onto terminals.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PlacementPolicy {
    /// Next free terminals in id order.
    Contiguous,
    /// Random groups, contiguous within each group.
    RandomGroup,
    /// Random routers, all their terminals.
    RandomRouter,
    /// Individually random terminals.
    RandomNode,
}

impl PlacementPolicy {
    /// Short name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            PlacementPolicy::Contiguous => "contiguous",
            PlacementPolicy::RandomGroup => "random-group",
            PlacementPolicy::RandomRouter => "random-router",
            PlacementPolicy::RandomNode => "random-node",
        }
    }
}

/// A job to place: name, rank count, and the policy to use.
#[derive(Clone, Debug)]
pub struct PlacementRequest {
    /// Job name.
    pub name: String,
    /// Number of MPI ranks.
    pub ranks: u32,
    /// Placement policy for this job.
    pub policy: PlacementPolicy,
}

/// Error returned when the machine cannot host the requested jobs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlacementError {
    /// The job that failed to place.
    pub job: String,
    /// Ranks that could not be assigned.
    pub unplaced: u32,
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job {:?}: {} ranks could not be placed", self.job, self.unplaced)
    }
}

impl std::error::Error for PlacementError {}

/// Tracks free terminals while placing a sequence of jobs.
pub struct Allocator {
    topo: Topology,
    free: Vec<bool>,
    rng: StdRng,
}

impl Allocator {
    /// Fresh allocator over an empty machine.
    pub fn new(topo: Topology, seed: u64) -> Self {
        Allocator {
            topo,
            free: vec![true; topo.config().num_terminals() as usize],
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Remaining free terminals.
    pub fn free_terminals(&self) -> u32 {
        self.free.iter().filter(|&&f| f).count() as u32
    }

    fn take(&mut self, t: TerminalId, out: &mut Vec<TerminalId>, remaining: &mut u32) {
        if *remaining > 0 && self.free[t.0 as usize] {
            self.free[t.0 as usize] = false;
            out.push(t);
            *remaining -= 1;
        }
    }

    fn terminals_of_router(&self, r: RouterId) -> impl Iterator<Item = TerminalId> + '_ {
        let p = self.topo.config().terminals_per_router;
        (0..p).map(move |k| self.topo.terminal_of(r, k))
    }

    /// Place one job; returns its metadata or an error if the machine is
    /// too full.
    pub fn place(&mut self, req: &PlacementRequest) -> Result<JobMeta, PlacementError> {
        let cfg = *self.topo.config();
        let mut terminals = Vec::with_capacity(req.ranks as usize);
        let mut remaining = req.ranks;
        match req.policy {
            PlacementPolicy::Contiguous => {
                for t in 0..cfg.num_terminals() {
                    if remaining == 0 {
                        break;
                    }
                    self.take(TerminalId(t), &mut terminals, &mut remaining);
                }
            }
            PlacementPolicy::RandomGroup => {
                let mut groups: Vec<u32> = (0..cfg.groups).collect();
                groups.shuffle(&mut self.rng);
                'outer: for g in groups {
                    for rank in 0..cfg.routers_per_group {
                        let r = self.topo.router_in_group(GroupId(g), rank);
                        for t in self.terminals_of_router(r).collect::<Vec<_>>() {
                            self.take(t, &mut terminals, &mut remaining);
                            if remaining == 0 {
                                break 'outer;
                            }
                        }
                    }
                }
            }
            PlacementPolicy::RandomRouter => {
                let mut routers: Vec<u32> = (0..cfg.num_routers()).collect();
                routers.shuffle(&mut self.rng);
                'outer: for r in routers {
                    for t in self.terminals_of_router(RouterId(r)).collect::<Vec<_>>() {
                        self.take(t, &mut terminals, &mut remaining);
                        if remaining == 0 {
                            break 'outer;
                        }
                    }
                }
            }
            PlacementPolicy::RandomNode => {
                let mut all: Vec<u32> = (0..cfg.num_terminals()).collect();
                all.shuffle(&mut self.rng);
                for t in all {
                    if remaining == 0 {
                        break;
                    }
                    self.take(TerminalId(t), &mut terminals, &mut remaining);
                }
            }
        }
        if remaining > 0 {
            return Err(PlacementError { job: req.name.clone(), unplaced: remaining });
        }
        Ok(JobMeta { name: req.name.clone(), terminals })
    }
}

/// Place a batch of jobs on an empty machine. Jobs are placed in order, so
/// earlier jobs get first pick.
pub fn place_jobs(
    topo: Topology,
    requests: &[PlacementRequest],
    seed: u64,
) -> Result<Vec<JobMeta>, PlacementError> {
    let mut alloc = Allocator::new(topo, seed);
    requests.iter().map(|r| alloc.place(r)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrviz_network::DragonflyConfig;
    use std::collections::BTreeSet;

    fn topo() -> Topology {
        Topology::new(DragonflyConfig::canonical(3)) // g=19, a=6, p=3: 342 terminals
    }

    fn req(name: &str, ranks: u32, policy: PlacementPolicy) -> PlacementRequest {
        PlacementRequest { name: name.into(), ranks, policy }
    }

    #[test]
    fn contiguous_takes_prefix() {
        let jobs = place_jobs(topo(), &[req("a", 10, PlacementPolicy::Contiguous)], 1).unwrap();
        let expect: Vec<TerminalId> = (0..10).map(TerminalId).collect();
        assert_eq!(jobs[0].terminals, expect);
    }

    #[test]
    fn jobs_never_overlap() {
        for policies in [
            [PlacementPolicy::Contiguous, PlacementPolicy::Contiguous],
            [PlacementPolicy::RandomGroup, PlacementPolicy::RandomRouter],
            [PlacementPolicy::RandomNode, PlacementPolicy::RandomGroup],
        ] {
            let jobs =
                place_jobs(topo(), &[req("a", 100, policies[0]), req("b", 120, policies[1])], 7)
                    .unwrap();
            let a: BTreeSet<_> = jobs[0].terminals.iter().collect();
            let b: BTreeSet<_> = jobs[1].terminals.iter().collect();
            assert!(a.is_disjoint(&b), "{policies:?}");
            assert_eq!(a.len(), 100);
            assert_eq!(b.len(), 120);
        }
    }

    #[test]
    fn random_router_allocates_whole_routers() {
        let t = topo();
        let p = t.config().terminals_per_router;
        // 12 ranks = exactly 4 routers (p=3).
        let jobs = place_jobs(t, &[req("a", 12, PlacementPolicy::RandomRouter)], 3).unwrap();
        let routers: BTreeSet<_> =
            jobs[0].terminals.iter().map(|&x| t.router_of_terminal(x)).collect();
        assert_eq!(routers.len(), 12 / p as usize);
        // All terminals of every chosen router are in the job.
        for r in routers {
            for k in 0..p {
                assert!(jobs[0].terminals.contains(&t.terminal_of(r, k)));
            }
        }
    }

    #[test]
    fn random_group_concentrates_in_few_groups() {
        let t = topo();
        let per_group = t.config().routers_per_group * t.config().terminals_per_router; // 18
        let jobs = place_jobs(t, &[req("a", 36, PlacementPolicy::RandomGroup)], 11).unwrap();
        let groups: BTreeSet<_> =
            jobs[0].terminals.iter().map(|&x| t.group_of_router(t.router_of_terminal(x))).collect();
        assert_eq!(groups.len(), (36 / per_group) as usize);
    }

    #[test]
    fn random_node_spreads_widely() {
        let t = topo();
        let jobs = place_jobs(t, &[req("a", 60, PlacementPolicy::RandomNode)], 5).unwrap();
        let routers: BTreeSet<_> =
            jobs[0].terminals.iter().map(|&x| t.router_of_terminal(x)).collect();
        // With 60 random picks from 114 routers, far more routers than the
        // 20 whole-router minimum should be touched.
        assert!(routers.len() > 30, "random node touched only {} routers", routers.len());
    }

    #[test]
    fn placement_is_deterministic_per_seed() {
        let a = place_jobs(topo(), &[req("a", 50, PlacementPolicy::RandomNode)], 9).unwrap();
        let b = place_jobs(topo(), &[req("a", 50, PlacementPolicy::RandomNode)], 9).unwrap();
        let c = place_jobs(topo(), &[req("a", 50, PlacementPolicy::RandomNode)], 10).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn overfull_machine_errors() {
        let err =
            place_jobs(topo(), &[req("big", 1_000, PlacementPolicy::Contiguous)], 1).unwrap_err();
        assert_eq!(err.unplaced, 1_000 - 342);
        assert!(err.to_string().contains("big"));
    }

    #[test]
    fn allocator_tracks_free_count() {
        let mut alloc = Allocator::new(topo(), 1);
        assert_eq!(alloc.free_terminals(), 342);
        alloc.place(&req("a", 42, PlacementPolicy::RandomRouter)).unwrap();
        assert_eq!(alloc.free_terminals(), 300);
    }

    #[test]
    fn policy_names() {
        assert_eq!(PlacementPolicy::Contiguous.name(), "contiguous");
        assert_eq!(PlacementPolicy::RandomGroup.name(), "random-group");
        assert_eq!(PlacementPolicy::RandomRouter.name(), "random-router");
        assert_eq!(PlacementPolicy::RandomNode.name(), "random-node");
    }
}
