//! Seeded input generation. `--seed` is the only source of variation: it
//! drives the simulation seeds, the order runs and scripts are requested in,
//! and the 80/20 conditional mix. The program under test sees only the
//! generated inputs, and the same seed generates the same inputs.

use hrviz_core::{FIG5A_SCRIPT, FIG5B_SCRIPT};
use hrviz_network::RoutingAlgorithm;
use hrviz_pdes::SimTime;
use hrviz_sweep::{StreamOptions, SweepOptions, SweepSpec, TopologyAxis};
use hrviz_workloads::TrafficPattern;

/// SplitMix64: small, seedable, and good enough to shuffle requests.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for one purpose, so adding a consumer never
    /// shifts the values another consumer sees.
    pub fn fork(&self, purpose: &str) -> Rng {
        Rng(self.0 ^ hrviz_obs::fingerprint64(purpose))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant at these sizes.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A simulation seed: non-zero and small enough to read in a label.
    pub fn sim_seed(&mut self) -> u64 {
        1 + self.next_u64() % 1_000_000
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// Problem sizes. `paper` is what the benchmark measures; `smoke` runs the
/// same code paths on the 72-terminal network in a few seconds.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub name: &'static str,
    /// Dragonfly size for the two simulation workloads.
    pub sim_terminals: u32,
    /// Messages per rank in a measured simulation run.
    pub sim_msgs: u32,
    /// Messages per rank in the warm-up and probe runs.
    pub small_msgs: u32,
    /// Dragonfly size for the stored runs the explore workloads read.
    pub explore_terminals: u32,
    /// Seeds per (routing, pattern) in the explore store.
    pub explore_seeds: usize,
    /// Patterns in the explore store.
    pub explore_patterns: usize,
    /// Times set-up is repeated at least; `setup_s` is the median.
    pub setup_reps: usize,
}

impl Scale {
    pub fn paper() -> Scale {
        Scale {
            name: "paper",
            sim_terminals: 2_550,
            sim_msgs: 32,
            small_msgs: 4,
            explore_terminals: 9_702,
            explore_seeds: 2,
            explore_patterns: 2,
            setup_reps: 3,
        }
    }

    pub fn smoke() -> Scale {
        Scale {
            name: "smoke",
            sim_terminals: 72,
            sim_msgs: 8,
            small_msgs: 2,
            explore_terminals: 72,
            explore_seeds: 1,
            explore_patterns: 1,
            setup_reps: 2,
        }
    }
}

/// Virtual-time width of a live telemetry slice.
pub const LIVE_WINDOW: SimTime = SimTime(5_000);

/// Sweep options that seal one slice per [`LIVE_WINDOW`] and never abort.
pub fn streamed() -> SweepOptions {
    SweepOptions {
        stream: Some(StreamOptions { window: LIVE_WINDOW, abort: None }),
        ..SweepOptions::default()
    }
}

fn sim_spec(name: &str, scale: &Scale, msgs: u32) -> SweepSpec {
    SweepSpec::new(name, TopologyAxis::Dragonfly { terminals: scale.sim_terminals })
        .msgs_per_rank(msgs)
        .msg_bytes(4 * 1024)
        .period(SimTime(1_000))
}

/// One `sim_uniform` batch: uniform-random under minimal and adaptive
/// routing, one run per worker.
pub fn uniform_batch(scale: &Scale, msgs: u32, seed: u64) -> SweepSpec {
    sim_spec("sim_uniform", scale, msgs)
        .routings([RoutingAlgorithm::Minimal, RoutingAlgorithm::adaptive_default()])
        .patterns([TrafficPattern::UniformRandom])
        .seeds([seed])
}

/// One watched `live_bursty` run: tornado under progressive-adaptive routing.
pub fn bursty_run(scale: &Scale, msgs: u32, seed: u64) -> SweepSpec {
    sim_spec("live_bursty", scale, msgs)
        .routings([RoutingAlgorithm::par_default()])
        .patterns([TrafficPattern::Tornado])
        .seeds([seed])
}

/// The stored grid the explore workloads read: routings × patterns × seeds
/// with one message per rank, so building it takes seconds while every
/// table is full size.
pub fn explore_grid(scale: &Scale, rng: &mut Rng) -> SweepSpec {
    let patterns = [TrafficPattern::UniformRandom, TrafficPattern::Tornado];
    let base = rng.sim_seed();
    let seeds: Vec<u64> = (0..scale.explore_seeds as u64).map(|i| base + i).collect();
    SweepSpec::new("explore", TopologyAxis::Dragonfly { terminals: scale.explore_terminals })
        .routings([RoutingAlgorithm::Minimal, RoutingAlgorithm::adaptive_default()])
        .patterns(patterns[..scale.explore_patterns].to_vec())
        .seeds(seeds)
        .msgs_per_rank(1)
        .msg_bytes(4 * 1024)
        .period(SimTime(4_000))
}

/// The six fixed projection scripts an analyst cycles through: the paper's
/// two figure scripts and four single-purpose ones that touch every table.
pub const SCRIPTS: [&str; 6] = [
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
];

/// Warm requests per cached body in one deck: four revalidate
/// (`If-None-Match` → `304`) and one re-fetches the body (`200`).
pub const DECK_COPIES: usize = 5;

/// One deck of warm requests over `pairs` cached (run, script) bodies: which
/// body, and whether the request is conditional. Every body appears exactly
/// [`DECK_COPIES`] times, once unconditionally, so the mix is 80/20 and moves
/// the same bytes whatever the seed; the seed only sets the order.
pub fn warm_deck(rng: &mut Rng, pairs: usize) -> Vec<(usize, bool)> {
    let mut deck: Vec<(usize, bool)> =
        (0..pairs * DECK_COPIES).map(|i| (i / DECK_COPIES, i % DECK_COPIES != 0)).collect();
    rng.shuffle(&mut deck);
    deck
}

/// Deals the six scripts in seeded order, reshuffling when they run out, so
/// any six consecutive draws use each script once: what a draw costs depends
/// on the script, and independent draws would make a seed's luck a result.
pub struct ScriptDeck(Vec<&'static str>);

impl ScriptDeck {
    pub fn new() -> ScriptDeck {
        ScriptDeck(Vec::new())
    }

    pub fn draw(&mut self, rng: &mut Rng) -> &'static str {
        if self.0.is_empty() {
            self.0 = SCRIPTS.to_vec();
            rng.shuffle(&mut self.0);
        }
        self.0.pop().expect("just refilled")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_forks_are_independent() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        assert_eq!(a.next_u64(), b.next_u64());
        let mut order: Vec<u32> = (0..8).collect();
        let mut again = order.clone();
        Rng::new(3).shuffle(&mut order);
        Rng::new(3).shuffle(&mut again);
        assert_eq!(order, again);
        assert_ne!(Rng::new(7).fork("x").next_u64(), Rng::new(7).fork("y").next_u64());
        assert_ne!(Rng::new(1).sim_seed(), 0);
    }

    #[test]
    fn a_warm_deck_is_exactly_eighty_percent_conditional_over_every_body() {
        let deck = warm_deck(&mut Rng::new(11), 48);
        assert_eq!(deck.len(), 240);
        for body in 0..48 {
            let copies: Vec<bool> = deck.iter().filter(|(b, _)| *b == body).map(|e| e.1).collect();
            assert_eq!(copies.len(), DECK_COPIES);
            assert_eq!(copies.iter().filter(|c| !**c).count(), 1, "one re-fetch per body");
        }
        assert_ne!(deck, warm_deck(&mut Rng::new(12), 48), "the seed sets the order");
    }

    #[test]
    fn a_script_deck_deals_every_script_once_per_six_draws() {
        let (mut deck, mut rng) = (ScriptDeck::new(), Rng::new(5));
        for _ in 0..3 {
            let mut six: Vec<&str> = (0..6).map(|_| deck.draw(&mut rng)).collect();
            six.sort_unstable();
            let mut all = SCRIPTS.to_vec();
            all.sort_unstable();
            assert_eq!(six, all);
        }
    }

    #[test]
    fn every_script_parses_and_grids_expand() {
        for s in SCRIPTS {
            hrviz_core::parse_script(s).expect("fixed script parses");
        }
        let paper = Scale::paper();
        assert_eq!(uniform_batch(&paper, paper.sim_msgs, 5).expand().unwrap().len(), 2);
        assert_eq!(bursty_run(&paper, paper.sim_msgs, 5).expand().unwrap().len(), 1);
        assert_eq!(explore_grid(&paper, &mut Rng::new(1)).expand().unwrap().len(), 8);
        assert_eq!(explore_grid(&Scale::smoke(), &mut Rng::new(1)).expand().unwrap().len(), 2);
    }
}
