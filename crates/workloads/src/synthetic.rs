//! Synthetic traffic patterns (paper §V: nearest neighbor and uniform
//! random, plus the usual suspects as extensions).

use hrviz_network::{JobId, JobMeta, MsgInjection};
use hrviz_pdes::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A synthetic communication pattern over a job's ranks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrafficPattern {
    /// Every message goes to a uniformly random other rank.
    UniformRandom,
    /// Rank `i` sends to rank `(i + 1) mod n` — its nearest neighbor.
    NearestNeighbor,
    /// Rank `i` sends to every other rank in round-robin order.
    AllToAll,
    /// Matrix transpose on the nearest square grid: `i → (i%m)·m + i/m`.
    Transpose,
    /// Rank `i` sends to rank `n − 1 − i`.
    BitComplement,
    /// Rank `i` sends to rank `(i + n/2) mod n` — adversarial for minimal
    /// routing on Dragonfly when placed contiguously.
    Tornado,
    /// A fixed random permutation of ranks (drawn once per run).
    Permutation,
}

impl TrafficPattern {
    /// Short name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            TrafficPattern::UniformRandom => "uniform-random",
            TrafficPattern::NearestNeighbor => "nearest-neighbor",
            TrafficPattern::AllToAll => "all-to-all",
            TrafficPattern::Transpose => "transpose",
            TrafficPattern::BitComplement => "bit-complement",
            TrafficPattern::Tornado => "tornado",
            TrafficPattern::Permutation => "permutation",
        }
    }
}

/// Parameters for a synthetic workload.
#[derive(Clone, Copy, Debug)]
pub struct SyntheticConfig {
    /// The pattern.
    pub pattern: TrafficPattern,
    /// Bytes per message.
    pub msg_bytes: u32,
    /// Messages each rank sends.
    pub msgs_per_rank: u32,
    /// Interval between a rank's consecutive messages.
    pub period: SimTime,
    /// Neighbor stride for [`TrafficPattern::NearestNeighbor`]: rank `i`
    /// sends to `i + stride`. 1 targets the adjacent terminal; setting it
    /// to the machine's terminals-per-router targets the same position on
    /// the *next router*, funneling every rank of a router onto one local
    /// link (the hot-link shape of the paper's Fig. 7).
    pub stride: u32,
    /// RNG seed (random destinations, permutation draw).
    pub seed: u64,
}

impl SyntheticConfig {
    /// A uniform-random workload with the given intensity.
    pub fn uniform(msg_bytes: u32, msgs_per_rank: u32, period: SimTime) -> Self {
        SyntheticConfig {
            pattern: TrafficPattern::UniformRandom,
            msg_bytes,
            msgs_per_rank,
            period,
            stride: 1,
            seed: 0xACE,
        }
    }

    /// A nearest-neighbor workload with the given intensity.
    pub fn nearest_neighbor(msg_bytes: u32, msgs_per_rank: u32, period: SimTime) -> Self {
        SyntheticConfig {
            pattern: TrafficPattern::NearestNeighbor,
            msg_bytes,
            msgs_per_rank,
            period,
            stride: 1,
            seed: 0xACE,
        }
    }

    /// Builder: neighbor stride.
    pub fn with_stride(mut self, stride: u32) -> Self {
        self.stride = stride.max(1);
        self
    }
}

fn square_side(n: u32) -> u32 {
    let mut m = (n as f64).sqrt() as u32;
    while m > 1 && !n.is_multiple_of(m) {
        m -= 1;
    }
    m.max(1)
}

/// Generate the injection list for `job` (rank `i` runs on
/// `job.terminals[i]`).
pub fn generate_synthetic(
    job_id: JobId,
    job: &JobMeta,
    cfg: &SyntheticConfig,
) -> Vec<MsgInjection> {
    let _span = hrviz_obs::get().span("workloads/generate");
    let n = job.terminals.len() as u32;
    if n < 2 {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xD1CE ^ (job_id as u64));
    let perm: Vec<u32> = match cfg.pattern {
        TrafficPattern::Permutation => {
            use rand::seq::SliceRandom;
            let mut p: Vec<u32> = (0..n).collect();
            p.shuffle(&mut rng);
            p
        }
        _ => Vec::new(),
    };
    let m = square_side(n);
    let mut out = Vec::with_capacity((n * cfg.msgs_per_rank) as usize);
    for rank in 0..n {
        // Stagger each rank's phase within one period: real applications
        // are never cycle-synchronized, and lockstep waves would create
        // artificial transient congestion.
        let phase = if cfg.period.as_nanos() > 1 {
            SimTime(rng.gen_range(0..cfg.period.as_nanos()))
        } else {
            SimTime::ZERO
        };
        for k in 0..cfg.msgs_per_rank {
            let dst_rank = match cfg.pattern {
                TrafficPattern::UniformRandom => loop {
                    let d = rng.gen_range(0..n);
                    if d != rank {
                        break d;
                    }
                },
                TrafficPattern::NearestNeighbor => (rank + cfg.stride.max(1) % n) % n,
                TrafficPattern::AllToAll => (rank + 1 + k % (n - 1)) % n,
                TrafficPattern::Transpose => {
                    let (r, c) = (rank / m, rank % m);
                    let t = c * m + r;
                    if t < n && t != rank {
                        t
                    } else {
                        (rank + 1) % n
                    }
                }
                TrafficPattern::BitComplement => {
                    let d = n - 1 - rank;
                    if d == rank {
                        (rank + 1) % n
                    } else {
                        d
                    }
                }
                TrafficPattern::Tornado => (rank + n / 2) % n,
                TrafficPattern::Permutation => {
                    let d = perm[rank as usize];
                    if d == rank {
                        (rank + 1) % n
                    } else {
                        d
                    }
                }
            };
            out.push(MsgInjection {
                time: cfg.period * k as u64 + phase,
                src: job.terminals[rank as usize],
                dst: job.terminals[dst_rank as usize],
                bytes: cfg.msg_bytes as u64,
                job: job_id,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrviz_network::TerminalId;

    fn job(n: u32) -> JobMeta {
        JobMeta { name: "test".into(), terminals: (0..n).map(TerminalId).collect() }
    }

    fn cfg(pattern: TrafficPattern) -> SyntheticConfig {
        SyntheticConfig {
            pattern,
            msg_bytes: 1024,
            msgs_per_rank: 4,
            period: SimTime(100),
            stride: 1,
            seed: 1,
        }
    }

    #[test]
    fn nearest_neighbor_targets_successor() {
        let msgs = generate_synthetic(0, &job(8), &cfg(TrafficPattern::NearestNeighbor));
        assert_eq!(msgs.len(), 32);
        for m in &msgs {
            assert_eq!(m.dst.0, (m.src.0 + 1) % 8);
        }
    }

    #[test]
    fn stride_targets_next_router() {
        let msgs =
            generate_synthetic(0, &job(12), &cfg(TrafficPattern::NearestNeighbor).with_stride(4));
        for m in &msgs {
            assert_eq!(m.dst.0, (m.src.0 + 4) % 12);
        }
    }

    #[test]
    fn uniform_random_never_self() {
        let msgs = generate_synthetic(0, &job(16), &cfg(TrafficPattern::UniformRandom));
        assert!(msgs.iter().all(|m| m.src != m.dst));
        // All ranks participate as sources.
        let srcs: std::collections::BTreeSet<_> = msgs.iter().map(|m| m.src).collect();
        assert_eq!(srcs.len(), 16);
    }

    #[test]
    fn tornado_offsets_by_half() {
        let msgs = generate_synthetic(0, &job(10), &cfg(TrafficPattern::Tornado));
        for m in &msgs {
            assert_eq!(m.dst.0, (m.src.0 + 5) % 10);
        }
    }

    #[test]
    fn bit_complement_mirrors() {
        let msgs = generate_synthetic(0, &job(10), &cfg(TrafficPattern::BitComplement));
        for m in &msgs {
            assert_eq!(m.dst.0, 9 - m.src.0);
        }
    }

    #[test]
    fn transpose_is_involution_on_square() {
        let msgs = generate_synthetic(0, &job(16), &cfg(TrafficPattern::Transpose));
        for m in &msgs {
            let (r, c) = (m.src.0 / 4, m.src.0 % 4);
            let t = c * 4 + r;
            if t == m.src.0 {
                // Diagonal ranks fall back to their successor.
                assert_eq!(m.dst.0, (m.src.0 + 1) % 16);
            } else {
                assert_eq!(m.dst.0, t);
            }
        }
    }

    #[test]
    fn all_to_all_covers_every_partner() {
        let n = 5;
        let mut cfg = cfg(TrafficPattern::AllToAll);
        cfg.msgs_per_rank = n - 1;
        let msgs = generate_synthetic(0, &job(n), &cfg);
        for rank in 0..n {
            let partners: std::collections::BTreeSet<_> =
                msgs.iter().filter(|m| m.src.0 == rank).map(|m| m.dst.0).collect();
            assert_eq!(partners.len() as u32, n - 1, "rank {rank}");
        }
    }

    #[test]
    fn permutation_is_fixed_and_self_free() {
        let msgs = generate_synthetic(0, &job(32), &cfg(TrafficPattern::Permutation));
        for rank in 0..32u32 {
            let dsts: std::collections::BTreeSet<_> =
                msgs.iter().filter(|m| m.src.0 == rank).map(|m| m.dst.0).collect();
            assert_eq!(dsts.len(), 1, "permutation destination must be stable");
            assert!(!dsts.contains(&rank));
        }
    }

    #[test]
    fn messages_are_periodic_with_stable_phase() {
        let msgs = generate_synthetic(0, &job(4), &cfg(TrafficPattern::NearestNeighbor));
        let times: Vec<u64> =
            msgs.iter().filter(|m| m.src.0 == 0).map(|m| m.time.as_nanos()).collect();
        // Per-rank phase offset within one period, then strict periodicity.
        assert!(times[0] < 100);
        for w in times.windows(2) {
            assert_eq!(w[1] - w[0], 100);
        }
    }

    #[test]
    fn phases_are_staggered_across_ranks() {
        let msgs = generate_synthetic(0, &job(64), &cfg(TrafficPattern::NearestNeighbor));
        let first: std::collections::BTreeSet<u64> =
            msgs.iter().filter(|m| m.time.as_nanos() < 100).map(|m| m.time.as_nanos()).collect();
        assert!(first.len() > 16, "ranks must not inject in lockstep");
    }

    #[test]
    fn single_rank_job_generates_nothing() {
        let msgs = generate_synthetic(0, &job(1), &cfg(TrafficPattern::UniformRandom));
        assert!(msgs.is_empty());
    }

    #[test]
    fn pattern_names() {
        assert_eq!(TrafficPattern::UniformRandom.name(), "uniform-random");
        assert_eq!(TrafficPattern::Tornado.name(), "tornado");
    }
}
