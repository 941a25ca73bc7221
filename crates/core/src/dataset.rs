//! The dataset: flattened entity rows extracted from a simulation run
//! (optionally restricted to a time range or a selection).
//!
//! This is the root of the paper's entity tree (Fig. 2a): one table per
//! entity kind, each row exposing its attributes/metrics via [`Field`].
//!
//! Datasets are constructed through [`DataSetBuilder`] (time-range
//! restriction, terminal brushing and idle filtering composed in one
//! place); the per-kind **field tables** ([`FieldCol`]) are the single
//! source of truth tying a [`Field`] to its row accessor, so
//! [`DataSet::column`], [`DataSet::has_field`] and the columnar re-backing
//! in [`crate::columnar`] can never disagree about which fields a kind
//! carries.

use crate::entity::{EntityKind, Field};
use hrviz_network::{LinkRecord, RunData, TerminalRecord, NO_JOB};
use hrviz_pdes::SimTime;
use std::collections::HashSet;

/// A router row.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RouterRow {
    /// Router id.
    pub router: u32,
    /// Group.
    pub group: u32,
    /// Rank within group.
    pub rank: u32,
    /// Dominant job among attached terminals (proxy index when none).
    pub job: u32,
    /// Outgoing global-link bytes.
    pub global_traffic: f64,
    /// Outgoing global-link saturation ns.
    pub global_sat: f64,
    /// Outgoing local-link bytes.
    pub local_traffic: f64,
    /// Outgoing local-link saturation ns.
    pub local_sat: f64,
}

/// A directed link row (local or global).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LinkRow {
    /// Source router id.
    pub src_router: u32,
    /// Source group.
    pub src_group: u32,
    /// Source rank.
    pub src_rank: u32,
    /// Source class-local port.
    pub src_port: u32,
    /// Destination router id.
    pub dst_router: u32,
    /// Destination group.
    pub dst_group: u32,
    /// Destination rank.
    pub dst_rank: u32,
    /// Destination class-local port.
    pub dst_port: u32,
    /// Source-side job (router-dominant).
    pub src_job: u32,
    /// Destination-side job.
    pub dst_job: u32,
    /// Bytes carried.
    pub traffic: f64,
    /// Saturation ns.
    pub sat: f64,
}

/// A terminal row.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TerminalRow {
    /// Terminal id.
    pub terminal: u32,
    /// Owning router.
    pub router: u32,
    /// Group.
    pub group: u32,
    /// Router rank.
    pub rank: u32,
    /// Port on the router.
    pub port: u32,
    /// Job (proxy index when idle).
    pub job: u32,
    /// Bytes injected.
    pub data_size: f64,
    /// Bytes received.
    pub recv_bytes: f64,
    /// Injection busy ns.
    pub busy: f64,
    /// Terminal-link saturation ns.
    pub sat: f64,
    /// Packets received.
    pub packets_finished: f64,
    /// Packets sent.
    pub packets_sent: f64,
    /// Mean packet latency ns.
    pub avg_latency: f64,
    /// Mean hops.
    pub avg_hops: f64,
}

/// One column of an entity table: the field, how to read it from a row,
/// and — for *stored* fields — how to write it back. Derived fields
/// (aliases and roll-ups such as [`Field::TotalTraffic`]) carry no setter
/// and are recomputed from stored columns, never persisted.
pub struct FieldCol<R: 'static> {
    /// The field this column exposes.
    pub field: Field,
    /// Read the field from a row.
    pub get: fn(&R) -> f64,
    /// Write the field back into a row (`None` for derived fields).
    pub set: Option<fn(&mut R, f64)>,
}

/// The router field table (single source of truth; see module docs).
pub const ROUTER_COLS: &[FieldCol<RouterRow>] = &[
    FieldCol {
        field: Field::GroupId,
        get: |r| r.group as f64,
        set: Some(|r, v| r.group = v as u32),
    },
    FieldCol {
        field: Field::RouterId,
        get: |r| r.router as f64,
        set: Some(|r, v| r.router = v as u32),
    },
    FieldCol {
        field: Field::RouterRank,
        get: |r| r.rank as f64,
        set: Some(|r, v| r.rank = v as u32),
    },
    FieldCol { field: Field::Workload, get: |r| r.job as f64, set: Some(|r, v| r.job = v as u32) },
    FieldCol {
        field: Field::GlobalTraffic,
        get: |r| r.global_traffic,
        set: Some(|r, v| r.global_traffic = v),
    },
    FieldCol {
        field: Field::GlobalSatTime,
        get: |r| r.global_sat,
        set: Some(|r, v| r.global_sat = v),
    },
    FieldCol {
        field: Field::LocalTraffic,
        get: |r| r.local_traffic,
        set: Some(|r, v| r.local_traffic = v),
    },
    FieldCol {
        field: Field::LocalSatTime,
        get: |r| r.local_sat,
        set: Some(|r, v| r.local_sat = v),
    },
    FieldCol { field: Field::TotalTraffic, get: |r| r.global_traffic + r.local_traffic, set: None },
    FieldCol { field: Field::TotalSatTime, get: |r| r.global_sat + r.local_sat, set: None },
    FieldCol { field: Field::Traffic, get: |r| r.global_traffic + r.local_traffic, set: None },
    FieldCol { field: Field::SatTime, get: |r| r.global_sat + r.local_sat, set: None },
];

/// The link field table (shared by local and global links).
pub const LINK_COLS: &[FieldCol<LinkRow>] = &[
    FieldCol {
        field: Field::GroupId,
        get: |l| l.src_group as f64,
        set: Some(|l, v| l.src_group = v as u32),
    },
    FieldCol {
        field: Field::RouterId,
        get: |l| l.src_router as f64,
        set: Some(|l, v| l.src_router = v as u32),
    },
    FieldCol {
        field: Field::RouterRank,
        get: |l| l.src_rank as f64,
        set: Some(|l, v| l.src_rank = v as u32),
    },
    FieldCol {
        field: Field::RouterPort,
        get: |l| l.src_port as f64,
        set: Some(|l, v| l.src_port = v as u32),
    },
    FieldCol {
        field: Field::Workload,
        get: |l| l.src_job as f64,
        set: Some(|l, v| l.src_job = v as u32),
    },
    FieldCol {
        field: Field::DstGroupId,
        get: |l| l.dst_group as f64,
        set: Some(|l, v| l.dst_group = v as u32),
    },
    FieldCol {
        field: Field::DstRouterId,
        get: |l| l.dst_router as f64,
        set: Some(|l, v| l.dst_router = v as u32),
    },
    FieldCol {
        field: Field::DstRouterRank,
        get: |l| l.dst_rank as f64,
        set: Some(|l, v| l.dst_rank = v as u32),
    },
    FieldCol {
        field: Field::DstRouterPort,
        get: |l| l.dst_port as f64,
        set: Some(|l, v| l.dst_port = v as u32),
    },
    FieldCol {
        field: Field::DstWorkload,
        get: |l| l.dst_job as f64,
        set: Some(|l, v| l.dst_job = v as u32),
    },
    FieldCol { field: Field::Traffic, get: |l| l.traffic, set: Some(|l, v| l.traffic = v) },
    FieldCol { field: Field::SatTime, get: |l| l.sat, set: Some(|l, v| l.sat = v) },
];

/// The terminal field table.
pub const TERMINAL_COLS: &[FieldCol<TerminalRow>] = &[
    FieldCol {
        field: Field::GroupId,
        get: |t| t.group as f64,
        set: Some(|t, v| t.group = v as u32),
    },
    FieldCol {
        field: Field::RouterId,
        get: |t| t.router as f64,
        set: Some(|t, v| t.router = v as u32),
    },
    FieldCol {
        field: Field::RouterRank,
        get: |t| t.rank as f64,
        set: Some(|t, v| t.rank = v as u32),
    },
    FieldCol {
        field: Field::RouterPort,
        get: |t| t.port as f64,
        set: Some(|t, v| t.port = v as u32),
    },
    FieldCol {
        field: Field::TerminalId,
        get: |t| t.terminal as f64,
        set: Some(|t, v| t.terminal = v as u32),
    },
    FieldCol { field: Field::Workload, get: |t| t.job as f64, set: Some(|t, v| t.job = v as u32) },
    FieldCol { field: Field::DataSize, get: |t| t.data_size, set: Some(|t, v| t.data_size = v) },
    FieldCol { field: Field::Traffic, get: |t| t.data_size, set: None },
    FieldCol { field: Field::SatTime, get: |t| t.sat, set: Some(|t, v| t.sat = v) },
    FieldCol { field: Field::RecvBytes, get: |t| t.recv_bytes, set: Some(|t, v| t.recv_bytes = v) },
    FieldCol { field: Field::BusyTime, get: |t| t.busy, set: Some(|t, v| t.busy = v) },
    FieldCol {
        field: Field::PacketsFinished,
        get: |t| t.packets_finished,
        set: Some(|t, v| t.packets_finished = v),
    },
    FieldCol {
        field: Field::PacketsSent,
        get: |t| t.packets_sent,
        set: Some(|t, v| t.packets_sent = v),
    },
    FieldCol {
        field: Field::AvgLatency,
        get: |t| t.avg_latency,
        set: Some(|t, v| t.avg_latency = v),
    },
    FieldCol { field: Field::AvgHops, get: |t| t.avg_hops, set: Some(|t, v| t.avg_hops = v) },
];

fn col_of<R>(cols: &'static [FieldCol<R>], kind: EntityKind, field: Field) -> fn(&R) -> f64 {
    match cols.iter().find(|c| c.field == field) {
        Some(c) => c.get,
        None => panic!("{kind} rows have no field {field}"),
    }
}

/// One field of one entity table, its field-table accessor resolved once
/// ([`DataSet::column`]): reading a cell is an index and a call, not a
/// search of the field table.
#[derive(Clone, Copy)]
pub(crate) struct Column<'a> {
    field: Field,
    cells: Cells<'a>,
}

#[derive(Clone, Copy)]
enum Cells<'a> {
    Router(&'a [RouterRow], fn(&RouterRow) -> f64),
    Link(&'a [LinkRow], fn(&LinkRow) -> f64),
    Terminal(&'a [TerminalRow], fn(&TerminalRow) -> f64),
}

impl Column<'_> {
    /// The field this column reads.
    pub(crate) fn field(&self) -> Field {
        self.field
    }

    /// The value at `row`.
    pub(crate) fn get(&self, row: usize) -> f64 {
        match self.cells {
            Cells::Router(rows, get) => get(&rows[row]),
            Cells::Link(rows, get) => get(&rows[row]),
            Cells::Terminal(rows, get) => get(&rows[row]),
        }
    }
}

/// The flattened dataset the analytics operate on.
#[derive(Clone, Debug, Default)]
pub struct DataSet {
    /// Job names; the index one past the end is the idle/"proxy" class.
    pub jobs: Vec<String>,
    /// Router rows.
    pub routers: Vec<RouterRow>,
    /// Local-link rows.
    pub local_links: Vec<LinkRow>,
    /// Global-link rows.
    pub global_links: Vec<LinkRow>,
    /// Terminal rows.
    pub terminals: Vec<TerminalRow>,
    /// The time range this dataset covers (whole run when `None`).
    pub time_range: Option<(SimTime, SimTime)>,
}

fn ranged(v: u64, bins: &Option<hrviz_network::Bins>, range: Option<(SimTime, SimTime)>) -> f64 {
    match (range, bins) {
        (Some((s, e)), Some(b)) => b.sum_range(s, e) as f64,
        _ => v as f64,
    }
}

/// A borrowed terminal-brushing predicate (see [`DataSetBuilder::brush`]).
type BrushPredicate<'a> = Box<dyn Fn(&TerminalRow) -> bool + 'a>;

/// Builder for [`DataSet`]s: the one construction path combining whole-run
/// extraction, time-range restriction, terminal brushing (§IV-C) and idle
/// filtering (§V-C).
///
/// ```
/// # use hrviz_core::DataSet;
/// # use hrviz_network::{DragonflyConfig, NetworkSpec, Simulation};
/// # let run = Simulation::new(NetworkSpec::new(DragonflyConfig::canonical(2))).run();
/// let ds = DataSet::builder(&run).drop_idle().build();
/// ```
pub struct DataSetBuilder<'a> {
    run: &'a RunData,
    range: Option<(SimTime, SimTime)>,
    brush: Option<BrushPredicate<'a>>,
    drop_idle: bool,
}

impl<'a> DataSetBuilder<'a> {
    /// Restrict to `[start, end)`. Requires the run to have been sampled
    /// ([`hrviz_network::NetworkSpec::with_sampling`]); metrics without
    /// bins fall back to whole-run values.
    pub fn range(mut self, start: SimTime, end: SimTime) -> Self {
        self.range = Some((start, end));
        self
    }

    /// Keep only terminals satisfying `pred` plus the links touching a
    /// router that hosts a selected terminal (interactive brushing).
    pub fn brush(mut self, pred: impl Fn(&TerminalRow) -> bool + 'a) -> Self {
        self.brush = Some(Box::new(pred));
        self
    }

    /// Drop idle terminals (the paper filters unused terminals out when a
    /// job is smaller than the machine).
    pub fn drop_idle(mut self) -> Self {
        self.drop_idle = true;
        self
    }

    /// Materialize the dataset.
    pub fn build(self) -> DataSet {
        let ds = DataSet::extract(self.run, self.range);
        let proxy = ds.jobs.len() as u32;
        match (self.brush, self.drop_idle) {
            (Some(pred), true) => ds.filter_terminals(|t| t.job != proxy && pred(t)),
            (Some(pred), false) => ds.filter_terminals(pred),
            (None, true) => ds.filter_terminals(|t| t.job != proxy),
            (None, false) => ds,
        }
    }
}

impl DataSet {
    /// Start building a dataset from a run. The builder's range / brush /
    /// drop-idle steps are the only extraction path — the old per-variant
    /// constructors are gone.
    pub fn builder(run: &RunData) -> DataSetBuilder<'_> {
        DataSetBuilder { run, range: None, brush: None, drop_idle: false }
    }

    /// Build directly from entity tables. This is how non-Dragonfly
    /// substrates (e.g. the Fat-Tree model, one of the paper's named
    /// future-work targets) feed the analytics: any topology that can
    /// express itself as groups/ranks/ports produces the same views.
    pub fn from_tables(
        jobs: Vec<String>,
        routers: Vec<RouterRow>,
        local_links: Vec<LinkRow>,
        global_links: Vec<LinkRow>,
        terminals: Vec<TerminalRow>,
    ) -> DataSet {
        DataSet { jobs, routers, local_links, global_links, terminals, time_range: None }
    }

    fn extract(run: &RunData, range: Option<(SimTime, SimTime)>) -> DataSet {
        let topo = run.topology();
        let num_jobs = run.jobs.len() as u32;
        let proxy = num_jobs;

        // Dominant job per router (most attached terminals; proxy if none).
        let mut router_job = vec![proxy; run.routers.len()];
        for (r, counts) in router_job.iter_mut().enumerate() {
            let mut tally = vec![0u32; num_jobs as usize];
            let p = run.spec.topology.terminals_per_router;
            for k in 0..p {
                let t = topo.terminal_of(hrviz_network::RouterId(r as u32), k);
                let job = run.terminals[t.0 as usize].job;
                if job != NO_JOB {
                    tally[job as usize] += 1;
                }
            }
            if let Some((best, &n)) = tally.iter().enumerate().max_by_key(|(_, &n)| n) {
                if n > 0 {
                    *counts = best as u32;
                }
            }
        }

        let link_row = |l: &LinkRecord| LinkRow {
            src_router: l.src_router.0,
            src_group: topo.group_of_router(l.src_router).0,
            src_rank: topo.rank_of_router(l.src_router),
            src_port: l.src_port,
            dst_router: l.dst_router.0,
            dst_group: topo.group_of_router(l.dst_router).0,
            dst_rank: topo.rank_of_router(l.dst_router),
            dst_port: l.dst_port,
            src_job: router_job[l.src_router.0 as usize],
            dst_job: router_job[l.dst_router.0 as usize],
            traffic: ranged(l.traffic, &l.traffic_bins, range),
            sat: ranged(l.sat_ns, &l.sat_bins, range),
        };
        let local_links: Vec<LinkRow> = run.local_links.iter().map(link_row).collect();
        let global_links: Vec<LinkRow> = run.global_links.iter().map(link_row).collect();

        let term_row = |t: &TerminalRecord| {
            let (latency, hops) = match range {
                Some((s, e)) => {
                    let count = t
                        .count_bins
                        .as_ref()
                        .map(|b| b.sum_range(s, e))
                        .unwrap_or(t.packets_finished);
                    let lat = t.latency_bins.as_ref().map(|b| b.sum_range(s, e) as f64);
                    let hop = t.hops_bins.as_ref().map(|b| b.sum_range(s, e) as f64);
                    match (lat, hop) {
                        (Some(l), Some(h)) if count > 0 => (l / count as f64, h / count as f64),
                        (Some(_), Some(_)) => (0.0, 0.0),
                        _ => (t.avg_latency_ns, t.avg_hops),
                    }
                }
                None => (t.avg_latency_ns, t.avg_hops),
            };
            let packets_in_range = match range {
                Some((s, e)) => t
                    .count_bins
                    .as_ref()
                    .map(|b| b.sum_range(s, e) as f64)
                    .unwrap_or(t.packets_finished as f64),
                None => t.packets_finished as f64,
            };
            TerminalRow {
                terminal: t.terminal.0,
                router: t.router.0,
                group: topo.group_of_router(t.router).0,
                rank: topo.rank_of_router(t.router),
                port: t.port,
                job: if t.job == NO_JOB { proxy } else { t.job as u32 },
                data_size: ranged(t.data_bytes, &t.traffic_bins, range),
                recv_bytes: t.recv_bytes as f64,
                busy: t.busy_ns as f64,
                sat: ranged(t.sat_ns, &t.sat_bins, range),
                packets_finished: packets_in_range,
                packets_sent: t.packets_sent as f64,
                avg_latency: latency,
                avg_hops: hops,
            }
        };
        let terminals: Vec<TerminalRow> = run.terminals.iter().map(term_row).collect();

        // Router roll-ups recomputed from (possibly ranged) link rows so
        // they stay consistent with the links shown.
        let mut routers: Vec<RouterRow> = run
            .routers
            .iter()
            .map(|r| RouterRow {
                router: r.router.0,
                group: r.group,
                rank: r.rank,
                job: router_job[r.router.0 as usize],
                global_traffic: 0.0,
                global_sat: 0.0,
                local_traffic: 0.0,
                local_sat: 0.0,
            })
            .collect();
        for l in &local_links {
            let r = &mut routers[l.src_router as usize];
            r.local_traffic += l.traffic;
            r.local_sat += l.sat;
        }
        for l in &global_links {
            let r = &mut routers[l.src_router as usize];
            r.global_traffic += l.traffic;
            r.global_sat += l.sat;
        }

        DataSet {
            jobs: run.jobs.iter().map(|j| j.name.clone()).collect(),
            routers,
            local_links,
            global_links,
            terminals,
            time_range: range,
        }
    }

    /// Display label for a job value produced by [`Field::Workload`].
    pub fn job_label(&self, job: u32) -> &str {
        self.jobs.get(job as usize).map(String::as_str).unwrap_or("idle/proxy")
    }

    /// Number of rows of a kind.
    pub fn len(&self, kind: EntityKind) -> usize {
        match kind {
            EntityKind::Router => self.routers.len(),
            EntityKind::LocalLink => self.local_links.len(),
            EntityKind::GlobalLink => self.global_links.len(),
            EntityKind::Terminal => self.terminals.len(),
        }
    }

    /// `true` when the dataset has no rows at all.
    pub fn is_empty(&self) -> bool {
        EntityKind::ALL.iter().all(|&k| self.len(k) == 0)
    }

    /// The `field` column of the `kind` table, resolved through the
    /// per-kind field table once. Panics on fields the entity does not
    /// carry (script validation rejects those earlier).
    pub(crate) fn column(&self, kind: EntityKind, field: Field) -> Column<'_> {
        let cells = match kind {
            EntityKind::Router => Cells::Router(&self.routers, col_of(ROUTER_COLS, kind, field)),
            EntityKind::LocalLink => Cells::Link(&self.local_links, col_of(LINK_COLS, kind, field)),
            EntityKind::GlobalLink => {
                Cells::Link(&self.global_links, col_of(LINK_COLS, kind, field))
            }
            EntityKind::Terminal => {
                Cells::Terminal(&self.terminals, col_of(TERMINAL_COLS, kind, field))
            }
        };
        Column { field, cells }
    }

    /// Field value of row `idx` of `kind` (one cell of
    /// [`DataSet::column`]; read whole columns through that instead).
    pub fn value(&self, kind: EntityKind, idx: usize, field: Field) -> f64 {
        self.column(kind, field).get(idx)
    }

    /// Whether `kind` rows carry `field` — answered from the same field
    /// table [`DataSet::value`] dispatches through, so the two can never
    /// desync when a field is added.
    pub fn has_field(kind: EntityKind, field: Field) -> bool {
        match kind {
            EntityKind::Router => ROUTER_COLS.iter().any(|c| c.field == field),
            EntityKind::LocalLink | EntityKind::GlobalLink => {
                LINK_COLS.iter().any(|c| c.field == field)
            }
            EntityKind::Terminal => TERMINAL_COLS.iter().any(|c| c.field == field),
        }
    }

    /// Every field `kind` rows carry, in field-table order.
    pub fn fields_of(kind: EntityKind) -> Vec<Field> {
        match kind {
            EntityKind::Router => ROUTER_COLS.iter().map(|c| c.field).collect(),
            EntityKind::LocalLink | EntityKind::GlobalLink => {
                LINK_COLS.iter().map(|c| c.field).collect()
            }
            EntityKind::Terminal => TERMINAL_COLS.iter().map(|c| c.field).collect(),
        }
    }

    /// Restrict to terminals satisfying `pred`, keeping links that touch a
    /// router hosting a selected terminal (backs [`DataSetBuilder::brush`]
    /// and [`DataSetBuilder::drop_idle`]).
    pub(crate) fn filter_terminals(&self, pred: impl Fn(&TerminalRow) -> bool) -> DataSet {
        let terminals: Vec<TerminalRow> =
            self.terminals.iter().filter(|t| pred(t)).copied().collect();
        let routers_kept: HashSet<u32> = terminals.iter().map(|t| t.router).collect();
        let keep_link = |l: &&LinkRow| {
            routers_kept.contains(&l.src_router) || routers_kept.contains(&l.dst_router)
        };
        DataSet {
            jobs: self.jobs.clone(),
            routers: self
                .routers
                .iter()
                .filter(|r| routers_kept.contains(&r.router))
                .copied()
                .collect(),
            local_links: self.local_links.iter().filter(keep_link).copied().collect(),
            global_links: self.global_links.iter().filter(keep_link).copied().collect(),
            terminals,
            time_range: self.time_range,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrviz_network::{
        DragonflyConfig, JobMeta, MsgInjection, NetworkSpec, Simulation, TerminalId,
    };

    fn toy_run(sampling: bool) -> RunData {
        let mut spec = NetworkSpec::new(DragonflyConfig::canonical(2));
        if sampling {
            spec = spec.with_sampling(SimTime::micros(1), 512);
        }
        let mut sim = Simulation::new(spec);
        let job = sim
            .add_job(JobMeta { name: "toy".into(), terminals: (0..16).map(TerminalId).collect() });
        for src in 0..16u32 {
            sim.inject(MsgInjection {
                time: SimTime::ZERO,
                src: TerminalId(src),
                dst: TerminalId((src + 8) % 16),
                bytes: 8192,
                job,
            });
        }
        sim.run()
    }

    #[test]
    fn dataset_row_counts_match_run() {
        let run = toy_run(false);
        let ds = DataSet::builder(&run).build();
        assert_eq!(ds.terminals.len(), run.terminals.len());
        assert_eq!(ds.local_links.len(), run.local_links.len());
        assert_eq!(ds.global_links.len(), run.global_links.len());
        assert_eq!(ds.routers.len(), run.routers.len());
        assert_eq!(ds.len(EntityKind::Terminal), 72);
        assert!(!ds.is_empty());
    }

    #[test]
    fn values_are_consistent_across_entities() {
        let run = toy_run(false);
        let ds = DataSet::builder(&run).build();
        // Router local traffic equals the sum of its local-link rows.
        let r0_local: f64 =
            ds.local_links.iter().filter(|l| l.src_router == 0).map(|l| l.traffic).sum();
        assert_eq!(ds.value(EntityKind::Router, 0, Field::LocalTraffic), r0_local);
        // Terminal data_size matches the injected volume.
        let injected: f64 =
            (0..16).map(|i| ds.value(EntityKind::Terminal, i, Field::DataSize)).sum();
        assert_eq!(injected, 16.0 * 8192.0);
    }

    #[test]
    fn job_stamping_and_proxy_label() {
        let run = toy_run(false);
        let ds = DataSet::builder(&run).build();
        assert_eq!(ds.terminals[0].job, 0);
        assert_eq!(ds.terminals[40].job, 1); // proxy index
        assert_eq!(ds.job_label(0), "toy");
        assert_eq!(ds.job_label(1), "idle/proxy");
        // Routers hosting job terminals get the job; far routers are proxy.
        assert_eq!(ds.routers[0].job, 0);
        assert_eq!(ds.routers[20].job, 1);
    }

    #[test]
    fn time_range_restriction_reduces_traffic() {
        let run = toy_run(true);
        let full = DataSet::builder(&run).build();
        let early = DataSet::builder(&run).range(SimTime::ZERO, SimTime::micros(1)).build();
        let total_full: f64 = full.terminals.iter().map(|t| t.data_size).sum();
        let total_early: f64 = early.terminals.iter().map(|t| t.data_size).sum();
        assert!(total_early <= total_full);
        assert!(total_early > 0.0, "injections happen at t=0");
        // The full range via bins reproduces the whole-run totals.
        let all = DataSet::builder(&run).range(SimTime::ZERO, SimTime::millis(100)).build();
        let total_all: f64 = all.terminals.iter().map(|t| t.data_size).sum();
        assert_eq!(total_all, total_full);
    }

    #[test]
    fn brushing_keeps_touching_links() {
        let run = toy_run(false);
        let brushed = DataSet::builder(&run).brush(|t| t.terminal < 2).build();
        assert_eq!(brushed.terminals.len(), 2);
        assert!(brushed.local_links.iter().all(|l| l.src_router == 0 || l.dst_router == 0));
        assert!(!brushed.local_links.is_empty());
        assert_eq!(brushed.routers.len(), 1);
    }

    #[test]
    fn idle_filtering_drops_unused_terminals() {
        let run = toy_run(false);
        let ds = DataSet::builder(&run).drop_idle().build();
        assert_eq!(ds.terminals.len(), 16);
        // Brushing and idle filtering compose in one pass.
        let both = DataSet::builder(&run).brush(|t| t.terminal < 4).drop_idle().build();
        assert_eq!(both.terminals.len(), 4);
    }

    #[test]
    fn has_field_matrix() {
        assert!(DataSet::has_field(EntityKind::Terminal, Field::AvgLatency));
        assert!(!DataSet::has_field(EntityKind::Router, Field::AvgLatency));
        assert!(DataSet::has_field(EntityKind::GlobalLink, Field::DstGroupId));
        assert!(!DataSet::has_field(EntityKind::Terminal, Field::DstGroupId));
        assert!(DataSet::has_field(EntityKind::Router, Field::TotalSatTime));
    }

    #[test]
    fn field_table_is_the_single_source_of_truth() {
        // Every field the table lists is readable through value(); derived
        // fields (no setter) are consistent with their stored parts.
        let run = toy_run(false);
        let ds = DataSet::builder(&run).build();
        for kind in EntityKind::ALL {
            for field in DataSet::fields_of(kind) {
                assert!(DataSet::has_field(kind, field));
                let v = ds.value(kind, 0, field);
                assert!(v.is_finite(), "{kind}/{field} yields a finite value");
            }
        }
        let total = ds.value(EntityKind::Router, 0, Field::TotalTraffic);
        let parts = ds.value(EntityKind::Router, 0, Field::GlobalTraffic)
            + ds.value(EntityKind::Router, 0, Field::LocalTraffic);
        assert_eq!(total, parts);
    }

    #[test]
    #[should_panic(expected = "have no field")]
    fn wrong_field_panics() {
        let run = toy_run(false);
        let ds = DataSet::builder(&run).build();
        ds.value(EntityKind::Router, 0, Field::AvgLatency);
    }
}
