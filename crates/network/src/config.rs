//! Network specification: Dragonfly shape, link parameters, routing choice,
//! buffering, packetization and sampling.

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

use crate::port::MAX_VCS;
use crate::routing::RoutingAlgorithm;
use hrviz_faults::HrvizError;
use hrviz_pdes::SimTime;

/// Shape of a (1-D) Dragonfly network, after Kim et al. 2008.
///
/// `g` groups of `a` routers; each router has `p` terminals and `h` global
/// ports; routers within a group are fully connected by local links and
/// each group pair is joined by exactly one global link when the balanced
/// sizing `g = a·h + 1` is used.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DragonflyConfig {
    /// Number of groups (`g`).
    pub groups: u32,
    /// Routers per group (`a`).
    pub routers_per_group: u32,
    /// Terminals per router (`p`).
    pub terminals_per_router: u32,
    /// Global ports per router (`h`).
    pub global_ports: u32,
}

impl DragonflyConfig {
    /// The canonical balanced configuration `a = 2h = 2p`, `g = a·h + 1`
    /// (paper §II-A), parameterized by `h`.
    pub fn canonical(h: u32) -> Self {
        assert!(h >= 1);
        let a = 2 * h;
        DragonflyConfig {
            groups: a * h + 1,
            routers_per_group: a,
            terminals_per_router: h,
            global_ports: h,
        }
    }

    /// The three network scales used in the paper's evaluation (§V):
    /// 2,550 / 5,256 / 9,702 terminals. Other sizes are a config error.
    pub fn try_paper_scale(terminals: u32) -> Result<Self, HrvizError> {
        let cfg = match terminals {
            2_550 => DragonflyConfig {
                groups: 51,
                routers_per_group: 10,
                terminals_per_router: 5,
                global_ports: 5,
            },
            5_256 => DragonflyConfig {
                groups: 73,
                routers_per_group: 12,
                terminals_per_router: 6,
                global_ports: 6,
            },
            9_702 => DragonflyConfig {
                groups: 99,
                routers_per_group: 14,
                terminals_per_router: 7,
                global_ports: 7,
            },
            other => {
                return Err(HrvizError::config(format!(
                    "no paper configuration with {other} terminals \
                     (valid: 2550, 5256, 9702)"
                )))
            }
        };
        debug_assert_eq!(cfg.num_terminals(), terminals);
        Ok(cfg)
    }

    /// Reject inconsistent shapes with a descriptive error: every dimension
    /// must be at least one, and the group count must satisfy the balanced
    /// sizing `g = a·h + 1` the channel arithmetic assumes.
    pub fn validate(&self) -> Result<(), HrvizError> {
        if self.groups == 0
            || self.routers_per_group == 0
            || self.terminals_per_router == 0
            || self.global_ports == 0
        {
            return Err(HrvizError::config(format!(
                "dragonfly dimensions must all be >= 1 \
                 (g={}, a={}, p={}, h={})",
                self.groups, self.routers_per_group, self.terminals_per_router, self.global_ports
            )));
        }
        if !self.is_balanced() {
            return Err(HrvizError::config(format!(
                "unbalanced dragonfly: g must equal a*h + 1, got g={} with a*h + 1 = {}",
                self.groups,
                self.global_channels_per_group() + 1
            )));
        }
        Ok(())
    }

    /// Total routers in the network.
    pub fn num_routers(&self) -> u32 {
        self.groups * self.routers_per_group
    }

    /// Total terminals in the network.
    pub fn num_terminals(&self) -> u32 {
        self.num_routers() * self.terminals_per_router
    }

    /// Global channels per group (`a·h`).
    pub fn global_channels_per_group(&self) -> u32 {
        self.routers_per_group * self.global_ports
    }

    /// Whether every group pair is connected by exactly one global link
    /// (true for the balanced sizing `g = a·h + 1`).
    pub fn is_balanced(&self) -> bool {
        self.groups == self.global_channels_per_group() + 1
    }
}

/// Bandwidth/latency of one link class.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkClassParams {
    /// Bandwidth in bytes per nanosecond (1 B/ns = 1 GB/s).
    pub bandwidth_bytes_per_ns: f64,
    /// Propagation latency.
    pub latency: SimTime,
}

impl LinkClassParams {
    /// Time to serialize `bytes` onto the link.
    pub fn serialize(&self, bytes: u32) -> SimTime {
        SimTime((bytes as f64 / self.bandwidth_bytes_per_ns).ceil() as u64)
    }

    /// Time to serialize `bytes` on a link running at `factor` of nominal
    /// bandwidth (`0 < factor <= 1`; see `DegradedLink` fault events).
    pub fn serialize_degraded(&self, bytes: u32, factor: f64) -> SimTime {
        SimTime((bytes as f64 / (self.bandwidth_bytes_per_ns * factor)).ceil() as u64)
    }
}

/// Link classes in a Dragonfly network.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LinkClass {
    /// Terminal ↔ router.
    Terminal,
    /// Router ↔ router within a group.
    Local,
    /// Router ↔ router between groups.
    Global,
}

impl LinkClass {
    /// All classes, in display order.
    pub const ALL: [LinkClass; 3] = [LinkClass::Terminal, LinkClass::Local, LinkClass::Global];

    /// Human-readable label used by views.
    pub fn label(self) -> &'static str {
        match self {
            LinkClass::Terminal => "terminal",
            LinkClass::Local => "local",
            LinkClass::Global => "global",
        }
    }
}

/// Time-series sampling configuration (paper §III: "we have extended the
/// instrumentation capability in CODES to capture time series data for any
/// given sampling rate").
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SamplingConfig {
    /// Width of each sample bin.
    pub bin_width: SimTime,
    /// Bins beyond this count are clamped into the last bin.
    pub max_bins: usize,
}

impl SamplingConfig {
    /// Sampling disabled sentinel.
    pub fn disabled() -> Option<SamplingConfig> {
        None
    }
}

/// Complete specification of a simulated network.
#[derive(Clone, Debug)]
pub struct NetworkSpec {
    /// Topology shape.
    pub topology: DragonflyConfig,
    /// Terminal-link parameters.
    pub terminal_link: LinkClassParams,
    /// Local-link parameters.
    pub local_link: LinkClassParams,
    /// Global-link parameters.
    pub global_link: LinkClassParams,
    /// Packets are at most this many bytes.
    pub packet_bytes: u32,
    /// Virtual channels per link: exactly 4, the stages of the
    /// stage-ordered deadlock-free discipline (see `crate::routing`); ports
    /// hold at most [`crate::port::MAX_VCS`] inline.
    pub num_vcs: u8,
    /// Input-buffer bytes per virtual channel (credit pool).
    pub vc_buffer_bytes: u32,
    /// Routing algorithm.
    pub routing: RoutingAlgorithm,
    /// Optional time-series sampling.
    pub sampling: Option<SamplingConfig>,
    /// Master RNG seed (routing randomness).
    pub seed: u64,
    /// Per-packet TTL: a packet whose hop count exceeds this is dropped and
    /// counted (livelock guard through partitioned/degraded groups).
    pub hop_limit: u8,
    /// Diagnostics knob: when set, dropped packets do *not* return their
    /// upstream buffer credit. This induces a genuine credit leak so tests
    /// can exercise the engine's credit-leak auditor; leave off for
    /// production runs.
    pub drop_without_credit: bool,
}

impl NetworkSpec {
    /// Defaults modeled after the CODES dragonfly configuration used in the
    /// paper's era (Cray Aries-class links).
    pub fn new(topology: DragonflyConfig) -> Self {
        NetworkSpec {
            topology,
            terminal_link: LinkClassParams {
                bandwidth_bytes_per_ns: 5.25,
                latency: SimTime::nanos(30),
            },
            local_link: LinkClassParams {
                bandwidth_bytes_per_ns: 5.25,
                latency: SimTime::nanos(50),
            },
            global_link: LinkClassParams {
                bandwidth_bytes_per_ns: 4.7,
                latency: SimTime::nanos(300),
            },
            packet_bytes: 2048,
            num_vcs: 4,
            vc_buffer_bytes: 16 * 1024,
            routing: RoutingAlgorithm::Minimal,
            sampling: None,
            seed: 0x5EED,
            hop_limit: 16,
            drop_without_credit: false,
        }
    }

    /// Reject inconsistent specifications with a descriptive
    /// [`HrvizError::Config`] instead of panicking (or deadlocking)
    /// downstream.
    pub fn validate(&self) -> Result<(), HrvizError> {
        self.topology.validate()?;
        if self.num_vcs < 4 {
            return Err(HrvizError::config(format!(
                "stage-ordered VC discipline requires at least 4 VCs, got {}",
                self.num_vcs
            )));
        }
        if self.num_vcs as usize > MAX_VCS {
            return Err(HrvizError::config(format!(
                "ports hold at most {MAX_VCS} VCs (the routing stages use 0-3), got {}",
                self.num_vcs
            )));
        }
        if self.packet_bytes == 0 {
            return Err(HrvizError::config("packet_bytes must be >= 1"));
        }
        if self.vc_buffer_bytes < self.packet_bytes {
            return Err(HrvizError::config(format!(
                "vc_buffer_bytes ({}) must hold at least one packet ({} bytes)",
                self.vc_buffer_bytes, self.packet_bytes
            )));
        }
        if self.hop_limit == 0 {
            return Err(HrvizError::config("hop_limit must be >= 1"));
        }
        for (label, link) in [
            ("terminal", self.terminal_link),
            ("local", self.local_link),
            ("global", self.global_link),
        ] {
            // NaN must fail too, so avoid a plain `<= 0.0` comparison.
            let bw_ok =
                link.bandwidth_bytes_per_ns > 0.0 && link.bandwidth_bytes_per_ns.is_finite();
            if !bw_ok {
                return Err(HrvizError::config(format!(
                    "{label} link bandwidth must be positive and finite, got {}",
                    link.bandwidth_bytes_per_ns
                )));
            }
            if link.latency == SimTime::ZERO {
                return Err(HrvizError::config(format!(
                    "{label} link latency must be > 0 (it is the PDES lookahead)"
                )));
            }
        }
        Ok(())
    }

    /// Builder-style: set routing.
    pub fn with_routing(mut self, routing: RoutingAlgorithm) -> Self {
        self.routing = routing;
        self
    }

    /// Builder-style: set seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style: enable time-series sampling.
    pub fn with_sampling(mut self, bin_width: SimTime, max_bins: usize) -> Self {
        self.sampling = Some(SamplingConfig { bin_width, max_bins });
        self
    }

    /// Parameters for a link class.
    pub fn link(&self, class: LinkClass) -> LinkClassParams {
        match class {
            LinkClass::Terminal => self.terminal_link,
            LinkClass::Local => self.local_link,
            LinkClass::Global => self.global_link,
        }
    }

    /// The minimum cross-LP event latency: used as the PDES lookahead.
    pub fn lookahead(&self) -> SimTime {
        self.terminal_link.latency.min(self.local_link.latency).min(self.global_link.latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_is_balanced() {
        for h in 1..=8 {
            let c = DragonflyConfig::canonical(h);
            assert!(c.is_balanced(), "h={h}");
            assert_eq!(c.routers_per_group, 2 * h);
            assert_eq!(c.terminals_per_router, h);
        }
    }

    #[test]
    fn paper_scales_match_terminal_counts() {
        for (n, g) in [(2_550u32, 51u32), (5_256, 73), (9_702, 99)] {
            let c = DragonflyConfig::try_paper_scale(n).expect("a paper scale");
            assert_eq!(c.num_terminals(), n);
            assert_eq!(c.groups, g);
            assert!(c.is_balanced());
            assert_eq!(c.routers_per_group, 2 * c.global_ports);
            assert_eq!(c.terminals_per_router, c.global_ports);
        }
    }

    #[test]
    fn try_paper_scale_rejects_unknown_sizes_cleanly() {
        let e = DragonflyConfig::try_paper_scale(1234).unwrap_err();
        assert_eq!(e.exit_code(), 3);
        assert!(e.to_string().contains("1234"));
        assert!(DragonflyConfig::try_paper_scale(2_550).is_ok());
    }

    #[test]
    fn validate_rejects_unbalanced_group_count() {
        let mut c = DragonflyConfig::canonical(2); // g = 9
        c.groups = 10; // violates g = a*h + 1
        let e = c.validate().unwrap_err();
        assert!(e.to_string().contains("a*h + 1"), "{e}");
        assert!(DragonflyConfig::canonical(2).validate().is_ok());
    }

    #[test]
    fn validate_rejects_zero_dimensions() {
        for field in 0..4 {
            let mut c = DragonflyConfig::canonical(2);
            match field {
                0 => c.groups = 0,
                1 => c.routers_per_group = 0,
                2 => c.terminals_per_router = 0,
                _ => c.global_ports = 0,
            }
            let e = c.validate().unwrap_err();
            assert!(e.to_string().contains(">= 1"), "field {field}: {e}");
        }
    }

    #[test]
    fn spec_validate_rejects_too_few_vcs() {
        let mut s = NetworkSpec::new(DragonflyConfig::canonical(2));
        s.num_vcs = 3;
        let e = s.validate().unwrap_err();
        assert!(e.to_string().contains("4 VCs"), "{e}");
    }

    #[test]
    fn spec_validate_rejects_more_vcs_than_ports_hold() {
        let mut s = NetworkSpec::new(DragonflyConfig::canonical(2));
        s.num_vcs = 5;
        let e = s.validate().unwrap_err();
        assert!(matches!(e, HrvizError::Config(_)), "{e:?}");
        assert!(e.to_string().contains("at most 4 VCs"), "{e}");
    }

    #[test]
    fn spec_validate_rejects_zero_buffers_and_packets() {
        let mut s = NetworkSpec::new(DragonflyConfig::canonical(2));
        s.vc_buffer_bytes = 0;
        assert!(s.validate().unwrap_err().to_string().contains("vc_buffer_bytes"));
        let mut s = NetworkSpec::new(DragonflyConfig::canonical(2));
        s.packet_bytes = 0;
        assert!(s.validate().unwrap_err().to_string().contains("packet_bytes"));
        let mut s = NetworkSpec::new(DragonflyConfig::canonical(2));
        s.vc_buffer_bytes = s.packet_bytes - 1;
        assert!(s.validate().unwrap_err().to_string().contains("at least one packet"));
    }

    #[test]
    fn spec_validate_rejects_degenerate_links_and_ttl() {
        let mut s = NetworkSpec::new(DragonflyConfig::canonical(2));
        s.hop_limit = 0;
        assert!(s.validate().unwrap_err().to_string().contains("hop_limit"));
        let mut s = NetworkSpec::new(DragonflyConfig::canonical(2));
        s.global_link.bandwidth_bytes_per_ns = 0.0;
        assert!(s.validate().unwrap_err().to_string().contains("bandwidth"));
        let mut s = NetworkSpec::new(DragonflyConfig::canonical(2));
        s.local_link.latency = SimTime::ZERO;
        assert!(s.validate().unwrap_err().to_string().contains("latency"));
        assert!(NetworkSpec::new(DragonflyConfig::canonical(2)).validate().is_ok());
    }

    #[test]
    fn degraded_serialization_scales_with_factor() {
        let l = LinkClassParams { bandwidth_bytes_per_ns: 4.0, latency: SimTime::nanos(10) };
        assert_eq!(l.serialize_degraded(8, 1.0), l.serialize(8));
        assert_eq!(l.serialize_degraded(8, 0.5), SimTime(4));
        assert_eq!(l.serialize_degraded(8, 0.25), SimTime(8));
    }

    #[test]
    fn serialization_time_rounds_up() {
        let l = LinkClassParams { bandwidth_bytes_per_ns: 4.0, latency: SimTime::nanos(10) };
        assert_eq!(l.serialize(8), SimTime(2));
        assert_eq!(l.serialize(9), SimTime(3));
    }

    #[test]
    fn lookahead_is_min_latency() {
        let spec = NetworkSpec::new(DragonflyConfig::canonical(2));
        assert_eq!(spec.lookahead(), SimTime::nanos(30));
    }

    #[test]
    fn link_class_lookup() {
        let spec = NetworkSpec::new(DragonflyConfig::canonical(2));
        assert_eq!(spec.link(LinkClass::Global).latency, SimTime::nanos(300));
        assert_eq!(LinkClass::Local.label(), "local");
    }
}
