//! Entity kinds and fields — the vocabulary of the entity tree (paper
//! Fig. 2a) and of projection-view scripts (Fig. 5).
//!
//! Every entity row exposes its attributes and performance metrics as
//! `f64` through [`Field`]; scripts reference fields by the same snake_case
//! names the paper uses (`group_id`, `router_rank`, `sat_time`,
//! `workload`, …).

use std::fmt;

/// The entity types of a Dragonfly performance dataset.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum EntityKind {
    /// Routers (aggregate records).
    Router,
    /// Intra-group router-to-router links.
    LocalLink,
    /// Inter-group links.
    GlobalLink,
    /// Terminals (with their terminal-link metrics).
    Terminal,
}

impl EntityKind {
    /// All kinds.
    pub const ALL: [EntityKind; 4] =
        [EntityKind::Router, EntityKind::LocalLink, EntityKind::GlobalLink, EntityKind::Terminal];

    /// Script name (`project: "local_link"`).
    pub fn name(&self) -> &'static str {
        match self {
            EntityKind::Router => "router",
            EntityKind::LocalLink => "local_link",
            EntityKind::GlobalLink => "global_link",
            EntityKind::Terminal => "terminal",
        }
    }

    /// Whether rows of this kind are links (what ribbons bundle).
    pub fn is_link(&self) -> bool {
        matches!(self, EntityKind::LocalLink | EntityKind::GlobalLink)
    }

    /// Parse a script name.
    pub fn parse(s: &str) -> Option<EntityKind> {
        match s {
            "router" | "routers" => Some(EntityKind::Router),
            "local_link" | "local_links" => Some(EntityKind::LocalLink),
            "global_link" | "global_links" => Some(EntityKind::GlobalLink),
            "terminal" | "terminals" => Some(EntityKind::Terminal),
            _ => None,
        }
    }
}

impl fmt::Display for EntityKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A field (attribute or metric) of an entity row.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Field {
    // --- structural attributes ---
    /// Group id (source side for links).
    GroupId,
    /// Router id (source side for links; owning router for terminals).
    RouterId,
    /// Router rank within its group.
    RouterRank,
    /// Port index within the link class (links: source port; terminals:
    /// their port on the router).
    RouterPort,
    /// Terminal id.
    TerminalId,
    /// Job/workload index (terminals: their job; links & routers: the job
    /// dominating the source router's terminals; proxies get the index one
    /// past the last job).
    Workload,
    /// Destination group id (links).
    DstGroupId,
    /// Destination router id (links).
    DstRouterId,
    /// Destination router rank (links).
    DstRouterRank,
    /// Destination port (links).
    DstRouterPort,
    /// Destination-side workload (links).
    DstWorkload,
    // --- metrics ---
    /// Bytes carried (links) / bytes injected (terminals).
    Traffic,
    /// Saturation time in ns.
    SatTime,
    /// Terminal: workload bytes injected ("Data size").
    DataSize,
    /// Terminal: bytes received.
    RecvBytes,
    /// Terminal: injection-link busy time (ns).
    BusyTime,
    /// Terminal: packets received.
    PacketsFinished,
    /// Terminal: packets sent.
    PacketsSent,
    /// Terminal: mean packet latency (ns).
    AvgLatency,
    /// Terminal: mean hop count.
    AvgHops,
    /// Router: bytes on outgoing global links.
    GlobalTraffic,
    /// Router: saturation ns on outgoing global links.
    GlobalSatTime,
    /// Router: bytes on outgoing local links.
    LocalTraffic,
    /// Router: saturation ns on outgoing local links.
    LocalSatTime,
    /// Router: global + local traffic.
    TotalTraffic,
    /// Router: global + local saturation ns.
    TotalSatTime,
}

/// How values aggregate when rows merge (paper §IV-A: "sum is used for
/// most performance metrics, except the average value is used for the
/// metric of average hop count and packet latency").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AggRule {
    /// Sum member values.
    Sum,
    /// Mean of member values.
    Mean,
    /// Group key / identity (structural attributes).
    Key,
}

impl Field {
    /// Script name.
    pub fn name(&self) -> &'static str {
        match self {
            Field::GroupId => "group_id",
            Field::RouterId => "router_id",
            Field::RouterRank => "router_rank",
            Field::RouterPort => "router_port",
            Field::TerminalId => "terminal_id",
            Field::Workload => "workload",
            Field::DstGroupId => "dst_group_id",
            Field::DstRouterId => "dst_router_id",
            Field::DstRouterRank => "dst_router_rank",
            Field::DstRouterPort => "dst_router_port",
            Field::DstWorkload => "dst_workload",
            Field::Traffic => "traffic",
            Field::SatTime => "sat_time",
            Field::DataSize => "data_size",
            Field::RecvBytes => "recv_bytes",
            Field::BusyTime => "busy_time",
            Field::PacketsFinished => "packets_finished",
            Field::PacketsSent => "packets_sent",
            Field::AvgLatency => "avg_latency",
            Field::AvgHops => "avg_hops",
            Field::GlobalTraffic => "global_traffic",
            Field::GlobalSatTime => "global_sat_time",
            Field::LocalTraffic => "local_traffic",
            Field::LocalSatTime => "local_sat_time",
            Field::TotalTraffic => "total_traffic",
            Field::TotalSatTime => "total_sat_time",
        }
    }

    /// Parse a script name (several paper aliases accepted).
    pub fn parse(s: &str) -> Option<Field> {
        Some(match s {
            "group_id" | "group" => Field::GroupId,
            "router_id" | "router" => Field::RouterId,
            "router_rank" | "rank" => Field::RouterRank,
            "router_port" | "port" => Field::RouterPort,
            "terminal_id" | "terminal" => Field::TerminalId,
            "workload" | "job" | "job_id" => Field::Workload,
            "dst_group_id" | "dst_group" => Field::DstGroupId,
            "dst_router_id" | "dst_router" => Field::DstRouterId,
            "dst_router_rank" | "dst_rank" => Field::DstRouterRank,
            "dst_router_port" | "dst_port" => Field::DstRouterPort,
            "dst_workload" | "dst_job" => Field::DstWorkload,
            "traffic" => Field::Traffic,
            "sat_time" | "saturation" | "saturation_time" => Field::SatTime,
            "data_size" => Field::DataSize,
            "recv_bytes" => Field::RecvBytes,
            "busy_time" => Field::BusyTime,
            "packets_finished" | "packet_finished" => Field::PacketsFinished,
            "packets_sent" => Field::PacketsSent,
            "avg_latency" | "avg_packet_latency" | "avg_package_latency" => Field::AvgLatency,
            "avg_hops" | "avg_hop_count" => Field::AvgHops,
            "global_traffic" | "total_global_traffic" => Field::GlobalTraffic,
            "global_sat_time" | "total_global_sat_time" => Field::GlobalSatTime,
            "local_traffic" | "total_local_traffic" => Field::LocalTraffic,
            "local_sat_time" | "total_local_sat_time" => Field::LocalSatTime,
            "total_traffic" => Field::TotalTraffic,
            "total_sat_time" => Field::TotalSatTime,
            _ => return None,
        })
    }

    /// Aggregation rule for this field.
    pub fn rule(&self) -> AggRule {
        use Field::*;
        match self {
            AvgLatency | AvgHops => AggRule::Mean,
            Traffic | SatTime | DataSize | RecvBytes | BusyTime | PacketsFinished | PacketsSent
            | GlobalTraffic | GlobalSatTime | LocalTraffic | LocalSatTime | TotalTraffic
            | TotalSatTime => AggRule::Sum,
            _ => AggRule::Key,
        }
    }

    /// Whether the field is a structural attribute (vs a metric).
    pub fn is_attribute(&self) -> bool {
        self.rule() == AggRule::Key
    }

    /// For link bundling: the destination-side counterpart of a
    /// source-side attribute.
    pub fn dst_counterpart(&self) -> Option<Field> {
        Some(match self {
            Field::GroupId => Field::DstGroupId,
            Field::RouterId => Field::DstRouterId,
            Field::RouterRank => Field::DstRouterRank,
            Field::RouterPort => Field::DstRouterPort,
            Field::Workload => Field::DstWorkload,
            _ => return None,
        })
    }
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entity_names_roundtrip() {
        for k in EntityKind::ALL {
            assert_eq!(EntityKind::parse(k.name()), Some(k));
        }
        assert_eq!(EntityKind::parse("nope"), None);
    }

    #[test]
    fn field_names_roundtrip() {
        let fields = [
            Field::GroupId,
            Field::RouterRank,
            Field::Workload,
            Field::Traffic,
            Field::SatTime,
            Field::AvgLatency,
            Field::TotalSatTime,
            Field::DstWorkload,
        ];
        for f in fields {
            assert_eq!(Field::parse(f.name()), Some(f), "{f}");
        }
        assert_eq!(Field::parse("no_such_field"), None);
    }

    #[test]
    fn paper_aliases_parse() {
        assert_eq!(Field::parse("avg_package_latency"), Some(Field::AvgLatency));
        assert_eq!(Field::parse("job"), Some(Field::Workload));
        assert_eq!(Field::parse("saturation"), Some(Field::SatTime));
    }

    #[test]
    fn rules_match_paper() {
        assert_eq!(Field::AvgLatency.rule(), AggRule::Mean);
        assert_eq!(Field::AvgHops.rule(), AggRule::Mean);
        assert_eq!(Field::Traffic.rule(), AggRule::Sum);
        assert_eq!(Field::GroupId.rule(), AggRule::Key);
        assert!(Field::RouterRank.is_attribute());
        assert!(!Field::SatTime.is_attribute());
    }

    #[test]
    fn dst_counterparts() {
        assert_eq!(Field::GroupId.dst_counterpart(), Some(Field::DstGroupId));
        assert_eq!(Field::Workload.dst_counterpart(), Some(Field::DstWorkload));
        assert_eq!(Field::Traffic.dst_counterpart(), None);
    }
}
