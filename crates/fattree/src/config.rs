//! k-ary Fat-Tree shape and id arithmetic.
//!
//! A k-ary Fat-Tree (k even) has `k` pods; each pod has `k/2` edge and
//! `k/2` aggregation switches; `(k/2)²` core switches join the pods. Each
//! edge switch hosts `k/2` hosts, for `k³/4` hosts total.
//!
//! Switch ids: edges first (`pod·k/2 + e`), then aggregations, then cores.
//! Wiring: edge `e` of a pod connects to every aggregation of its pod;
//! aggregation `j` of every pod connects to cores `j·k/2 .. (j+1)·k/2`.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
// Test code is exempt: clippy.toml's allow-*-in-tests covers the other three.
#![cfg_attr(test, allow(clippy::unreachable, clippy::todo, clippy::unimplemented))]

use hrviz_pdes::LpId;

/// How up-ports are chosen on the way to the core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpRouting {
    /// Deterministic ECMP: hash of (src, dst, packet id).
    Ecmp,
    /// Least-queued up-port (adaptive).
    Adaptive,
}

impl UpRouting {
    /// Short name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            UpRouting::Ecmp => "ecmp",
            UpRouting::Adaptive => "adaptive",
        }
    }
}

/// Shape of a k-ary Fat-Tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FatTreeConfig {
    /// Switch radix (even, ≥ 2).
    pub k: u32,
}

/// Which layer a switch sits in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// Host-facing switches.
    Edge,
    /// Pod middle layer.
    Aggregation,
    /// Top of the tree.
    Core,
}

impl FatTreeConfig {
    /// New k-ary Fat-Tree: rejects an odd or too-small radix with a
    /// descriptive error instead of panicking (CLI / config-file boundary).
    pub fn try_new(k: u32) -> Result<FatTreeConfig, hrviz_faults::HrvizError> {
        if k < 2 || !k.is_multiple_of(2) {
            return Err(hrviz_faults::HrvizError::config(format!(
                "k must be even and >= 2, got {k}"
            )));
        }
        Ok(FatTreeConfig { k })
    }

    /// Half radix (`k/2`), the fan of every layer.
    pub fn half(&self) -> u32 {
        self.k / 2
    }

    /// Number of pods.
    pub fn pods(&self) -> u32 {
        self.k
    }

    /// Hosts in the network (`k³/4`).
    pub fn num_hosts(&self) -> u32 {
        self.k * self.k * self.k / 4
    }

    /// Edge switches (`k²/2`).
    pub fn num_edges(&self) -> u32 {
        self.k * self.half()
    }

    /// Aggregation switches (`k²/2`).
    pub fn num_aggs(&self) -> u32 {
        self.k * self.half()
    }

    /// Core switches (`(k/2)²`).
    pub fn num_cores(&self) -> u32 {
        self.half() * self.half()
    }

    /// Total switches.
    pub fn num_switches(&self) -> u32 {
        self.num_edges() + self.num_aggs() + self.num_cores()
    }

    // ---- switch id space: edges, then aggs, then cores ----

    /// Switch id of edge `e` in `pod`.
    pub fn edge_id(&self, pod: u32, e: u32) -> u32 {
        debug_assert!(pod < self.pods() && e < self.half());
        pod * self.half() + e
    }

    /// Switch id of aggregation `j` in `pod`.
    pub fn agg_id(&self, pod: u32, j: u32) -> u32 {
        debug_assert!(pod < self.pods() && j < self.half());
        self.num_edges() + pod * self.half() + j
    }

    /// Switch id of core `c`.
    pub fn core_id(&self, c: u32) -> u32 {
        debug_assert!(c < self.num_cores());
        self.num_edges() + self.num_aggs() + c
    }

    /// Layer and (pod-or-0, index-in-layer) of a switch id.
    pub fn classify(&self, sw: u32) -> (Layer, u32, u32) {
        let h = self.half();
        if sw < self.num_edges() {
            (Layer::Edge, sw / h, sw % h)
        } else if sw < self.num_edges() + self.num_aggs() {
            let a = sw - self.num_edges();
            (Layer::Aggregation, a / h, a % h)
        } else {
            (Layer::Core, 0, sw - self.num_edges() - self.num_aggs())
        }
    }

    // ---- host mapping ----

    /// The edge switch of host `hst`.
    pub fn edge_of_host(&self, hst: u32) -> u32 {
        hst / self.half()
    }

    /// The position of `hst` on its edge switch.
    pub fn host_port(&self, hst: u32) -> u32 {
        hst % self.half()
    }

    /// The pod of a host.
    pub fn pod_of_host(&self, hst: u32) -> u32 {
        self.edge_of_host(hst) / self.half()
    }

    /// The core switches reachable from aggregation index `j` are
    /// `j·k/2 .. (j+1)·k/2`; the reverse: core `c`'s aggregation index.
    pub fn agg_index_of_core(&self, c: u32) -> u32 {
        c / self.half()
    }

    /// Core `c`'s port toward `pod` is simply the pod index; its `i`-th
    /// link within the aggregation's fan is `c % (k/2)`.
    pub fn core_fan_index(&self, c: u32) -> u32 {
        c % self.half()
    }

    // ---- LP layout: hosts first, then switches ----

    /// LP of a host.
    pub fn host_lp(&self, hst: u32) -> LpId {
        LpId(hst)
    }

    /// LP of a switch.
    pub fn switch_lp(&self, sw: u32) -> LpId {
        LpId(self.num_hosts() + sw)
    }

    /// Total LPs.
    pub fn num_lps(&self) -> u32 {
        self.num_hosts() + self.num_switches()
    }

    // ---- analytics mapping ----

    /// The pseudo-group used for core switches in the analytics tables.
    pub fn core_group(&self) -> u32 {
        self.pods()
    }

    /// Analytics (group, rank) of a switch: pods keep their index, edges
    /// rank `0..k/2`, aggregations `k/2..k`; cores live in the pseudo-group.
    pub fn analytics_coords(&self, sw: u32) -> (u32, u32) {
        match self.classify(sw) {
            (Layer::Edge, pod, e) => (pod, e),
            (Layer::Aggregation, pod, j) => (pod, self.half() + j),
            (Layer::Core, _, c) => (self.core_group(), c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_new_rejects_odd_and_tiny_k() {
        assert!(FatTreeConfig::try_new(3).unwrap_err().to_string().contains("even"));
        assert!(FatTreeConfig::try_new(0).unwrap_err().to_string().contains("even"));
        assert_eq!(FatTreeConfig::try_new(4).unwrap().k, 4);
    }

    #[test]
    fn k4_counts() {
        let c = FatTreeConfig::try_new(4).expect("valid k");
        assert_eq!(c.num_hosts(), 16);
        assert_eq!(c.num_edges(), 8);
        assert_eq!(c.num_aggs(), 8);
        assert_eq!(c.num_cores(), 4);
        assert_eq!(c.num_switches(), 20);
        assert_eq!(c.num_lps(), 36);
    }

    #[test]
    fn id_spaces_partition() {
        let c = FatTreeConfig::try_new(6).expect("valid k");
        let mut seen = std::collections::BTreeSet::new();
        for pod in 0..c.pods() {
            for i in 0..c.half() {
                assert!(seen.insert(c.edge_id(pod, i)));
                assert!(seen.insert(c.agg_id(pod, i)));
            }
        }
        for core in 0..c.num_cores() {
            assert!(seen.insert(c.core_id(core)));
        }
        assert_eq!(seen.len() as u32, c.num_switches());
        assert_eq!(*seen.iter().max().unwrap(), c.num_switches() - 1);
    }

    #[test]
    fn classify_inverts_constructors() {
        let c = FatTreeConfig::try_new(8).expect("valid k");
        assert_eq!(c.classify(c.edge_id(3, 2)), (Layer::Edge, 3, 2));
        assert_eq!(c.classify(c.agg_id(5, 1)), (Layer::Aggregation, 5, 1));
        assert_eq!(c.classify(c.core_id(9)), (Layer::Core, 0, 9));
    }

    #[test]
    fn host_mapping() {
        let c = FatTreeConfig::try_new(4).expect("valid k");
        assert_eq!(c.edge_of_host(0), 0);
        assert_eq!(c.edge_of_host(3), 1);
        assert_eq!(c.host_port(3), 1);
        assert_eq!(c.pod_of_host(5), 1);
    }

    #[test]
    fn analytics_coords_are_group_rank_like() {
        let c = FatTreeConfig::try_new(4).expect("valid k");
        assert_eq!(c.analytics_coords(c.edge_id(2, 1)), (2, 1));
        assert_eq!(c.analytics_coords(c.agg_id(2, 1)), (2, 3)); // k/2 + 1
        assert_eq!(c.analytics_coords(c.core_id(2)), (4, 2)); // pseudo-group
    }

    #[test]
    fn odd_k_rejected() {
        let e = FatTreeConfig::try_new(5).unwrap_err();
        assert!(e.to_string().contains("even"), "{e}");
    }
}
