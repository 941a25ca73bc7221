//! The dataset: flattened entity tables extracted from a simulation run
//! (optionally restricted to a time range or a selection).
//!
//! This is the root of the paper's entity tree (Fig. 2a): one table per
//! entity kind, each row exposing its attributes/metrics via [`Field`].
//!
//! Datasets are constructed through [`DataSetBuilder`] (time-range
//! restriction, terminal brushing and idle filtering composed in one
//! place). Every table is held column-major and typed, attributes as
//! `u32` and metrics as `f64`; the per-kind layouts in [`crate::columnar`]
//! say which fields a kind carries and how each is backed.

use crate::columnar::{self, schema_of, Column, ColumnTable, StoredColumns};
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

/// The flattened dataset the analytics operate on: one typed,
/// column-major [`ColumnTable`] per entity kind (see [`crate::columnar`]).
/// Rows exist only as builder input ([`DataSet::from_tables`]) and as an
/// on-demand gather for readers off the hot path
/// ([`DataSet::terminal_rows`] and friends).
#[derive(Clone, Debug, PartialEq)]
pub struct DataSet {
    /// Job names; the index one past the end is the idle/"proxy" class.
    pub jobs: Vec<String>,
    routers: ColumnTable,
    local_links: ColumnTable,
    global_links: ColumnTable,
    terminals: ColumnTable,
    /// The time range this dataset covers (whole run when `None`).
    pub time_range: Option<(SimTime, SimTime)>,
}

/// One cell of a builder row.
enum Cell {
    U32(u32),
    F64(f64),
}

/// The `kind` table of `rows`, `cell` reading each stored field of a row.
fn table<R>(kind: EntityKind, rows: &[R], cell: impl Fn(&R, Field) -> Cell) -> ColumnTable {
    let mut stored = StoredColumns::default();
    for field in schema_of(kind) {
        for row in rows {
            match cell(row, field) {
                Cell::U32(v) => stored.attrs.push(v),
                Cell::F64(v) => stored.metrics.push(v),
            }
        }
        stored.column_done(kind, field, rows.len());
    }
    ColumnTable::from_stored(kind, stored)
}

fn router_table(rows: &[RouterRow]) -> ColumnTable {
    table(EntityKind::Router, rows, |r, f| match f {
        Field::GroupId => Cell::U32(r.group),
        Field::RouterId => Cell::U32(r.router),
        Field::RouterRank => Cell::U32(r.rank),
        Field::Workload => Cell::U32(r.job),
        Field::GlobalTraffic => Cell::F64(r.global_traffic),
        Field::GlobalSatTime => Cell::F64(r.global_sat),
        Field::LocalTraffic => Cell::F64(r.local_traffic),
        Field::LocalSatTime => Cell::F64(r.local_sat),
        _ => unreachable!("router schema field {f}"),
    })
}

fn link_table(kind: EntityKind, rows: &[LinkRow]) -> ColumnTable {
    table(kind, rows, |l, f| match f {
        Field::GroupId => Cell::U32(l.src_group),
        Field::RouterId => Cell::U32(l.src_router),
        Field::RouterRank => Cell::U32(l.src_rank),
        Field::RouterPort => Cell::U32(l.src_port),
        Field::Workload => Cell::U32(l.src_job),
        Field::DstGroupId => Cell::U32(l.dst_group),
        Field::DstRouterId => Cell::U32(l.dst_router),
        Field::DstRouterRank => Cell::U32(l.dst_rank),
        Field::DstRouterPort => Cell::U32(l.dst_port),
        Field::DstWorkload => Cell::U32(l.dst_job),
        Field::Traffic => Cell::F64(l.traffic),
        Field::SatTime => Cell::F64(l.sat),
        _ => unreachable!("link schema field {f}"),
    })
}

fn terminal_table(rows: &[TerminalRow]) -> ColumnTable {
    table(EntityKind::Terminal, rows, |t, f| match f {
        Field::GroupId => Cell::U32(t.group),
        Field::RouterId => Cell::U32(t.router),
        Field::RouterRank => Cell::U32(t.rank),
        Field::RouterPort => Cell::U32(t.port),
        Field::TerminalId => Cell::U32(t.terminal),
        Field::Workload => Cell::U32(t.job),
        Field::DataSize => Cell::F64(t.data_size),
        Field::SatTime => Cell::F64(t.sat),
        Field::RecvBytes => Cell::F64(t.recv_bytes),
        Field::BusyTime => Cell::F64(t.busy),
        Field::PacketsFinished => Cell::F64(t.packets_finished),
        Field::PacketsSent => Cell::F64(t.packets_sent),
        Field::AvgLatency => Cell::F64(t.avg_latency),
        Field::AvgHops => Cell::F64(t.avg_hops),
        _ => unreachable!("terminal schema field {f}"),
    })
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
/// # let run = Simulation::new(NetworkSpec::new(DragonflyConfig::canonical(2))).try_run().expect("run");
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
        let job = ds.terminals.u32s(Field::Workload);
        let idle = |i: usize| self.drop_idle && job[i] == proxy;
        match self.brush {
            Some(pred) => {
                let rows = ds.terminal_rows();
                ds.filter_terminals(|i| !idle(i) && pred(&rows[i]))
            }
            None if self.drop_idle => ds.filter_terminals(|i| !idle(i)),
            None => ds,
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
        DataSet {
            jobs,
            routers: router_table(&routers),
            local_links: link_table(EntityKind::LocalLink, &local_links),
            global_links: link_table(EntityKind::GlobalLink, &global_links),
            terminals: terminal_table(&terminals),
            time_range: None,
        }
    }

    /// Validated constructor for the load path: each table's stored
    /// columns, tables in [`EntityKind::ALL`] order, each checked against
    /// its kind's schema: same fields, same order, one length.
    pub fn from_columns(
        jobs: Vec<String>,
        stored: [StoredColumns; 4],
        time_range: Option<(SimTime, SimTime)>,
    ) -> Result<DataSet, String> {
        let [routers, local_links, global_links, terminals] = stored;
        Ok(DataSet {
            jobs,
            routers: ColumnTable::new(EntityKind::Router, routers)?,
            local_links: ColumnTable::new(EntityKind::LocalLink, local_links)?,
            global_links: ColumnTable::new(EntityKind::GlobalLink, global_links)?,
            terminals: ColumnTable::new(EntityKind::Terminal, terminals)?,
            time_range,
        })
    }

    /// A copy of this dataset. A loaded run is already a `DataSet`; this
    /// keeps callers that convert it with `to_dataset()` compiling, and it
    /// is a plain clone, never a transpose.
    pub fn to_dataset(&self) -> DataSet {
        self.clone()
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

        let jobs = run.jobs.iter().map(|j| j.name.clone()).collect();
        let ds = DataSet::from_tables(jobs, routers, local_links, global_links, terminals);
        DataSet { time_range: range, ..ds }
    }

    /// Display label for a job value produced by [`Field::Workload`].
    pub fn job_label(&self, job: u32) -> &str {
        self.jobs.get(job as usize).map(String::as_str).unwrap_or("idle/proxy")
    }

    /// Number of rows of a kind.
    pub fn len(&self, kind: EntityKind) -> usize {
        self.table(kind).len()
    }

    /// `true` when the dataset has no rows at all.
    pub fn is_empty(&self) -> bool {
        EntityKind::ALL.iter().all(|&k| self.len(k) == 0)
    }

    /// The `kind` table.
    pub fn table(&self, kind: EntityKind) -> &ColumnTable {
        match kind {
            EntityKind::Router => &self.routers,
            EntityKind::LocalLink => &self.local_links,
            EntityKind::GlobalLink => &self.global_links,
            EntityKind::Terminal => &self.terminals,
        }
    }

    /// The `field` column of the `kind` table. Panics on fields the entity
    /// does not carry (script validation rejects those earlier).
    pub fn column(&self, kind: EntityKind, field: Field) -> Column<'_> {
        match self.table(kind).column(field) {
            Some(col) => col,
            None => panic!("{kind} rows have no field {field}"),
        }
    }

    /// Field value of row `idx` of `kind` (one cell of
    /// [`DataSet::column`]; read whole columns through that instead).
    pub fn value(&self, kind: EntityKind, idx: usize, field: Field) -> f64 {
        self.column(kind, field).get(idx)
    }

    /// Whether `kind` rows carry `field` — answered from the same layout
    /// [`DataSet::column`] resolves through, so the two can never desync
    /// when a field is added.
    pub fn has_field(kind: EntityKind, field: Field) -> bool {
        columnar::fields_of(kind).any(|f| f == field)
    }

    /// The router rows, gathered from the columns (for readers off the
    /// hot path).
    pub fn router_rows(&self) -> Vec<RouterRow> {
        let t = &self.routers;
        let (router, group, rank, job) = (
            t.u32s(Field::RouterId),
            t.u32s(Field::GroupId),
            t.u32s(Field::RouterRank),
            t.u32s(Field::Workload),
        );
        let (global_traffic, global_sat, local_traffic, local_sat) = (
            t.f64s(Field::GlobalTraffic),
            t.f64s(Field::GlobalSatTime),
            t.f64s(Field::LocalTraffic),
            t.f64s(Field::LocalSatTime),
        );
        (0..t.len())
            .map(|i| RouterRow {
                router: router[i],
                group: group[i],
                rank: rank[i],
                job: job[i],
                global_traffic: global_traffic[i],
                global_sat: global_sat[i],
                local_traffic: local_traffic[i],
                local_sat: local_sat[i],
            })
            .collect()
    }

    /// The rows of link table `kind`, gathered from the columns.
    pub fn link_rows(&self, kind: EntityKind) -> Vec<LinkRow> {
        assert!(kind.is_link(), "{kind} is not a link table");
        let t = self.table(kind);
        let a = |f| t.u32s(f);
        let (src_router, src_group, src_rank, src_port, src_job) = (
            a(Field::RouterId),
            a(Field::GroupId),
            a(Field::RouterRank),
            a(Field::RouterPort),
            a(Field::Workload),
        );
        let (dst_router, dst_group, dst_rank, dst_port, dst_job) = (
            a(Field::DstRouterId),
            a(Field::DstGroupId),
            a(Field::DstRouterRank),
            a(Field::DstRouterPort),
            a(Field::DstWorkload),
        );
        let (traffic, sat) = (t.f64s(Field::Traffic), t.f64s(Field::SatTime));
        (0..t.len())
            .map(|i| LinkRow {
                src_router: src_router[i],
                src_group: src_group[i],
                src_rank: src_rank[i],
                src_port: src_port[i],
                dst_router: dst_router[i],
                dst_group: dst_group[i],
                dst_rank: dst_rank[i],
                dst_port: dst_port[i],
                src_job: src_job[i],
                dst_job: dst_job[i],
                traffic: traffic[i],
                sat: sat[i],
            })
            .collect()
    }

    /// The terminal rows, gathered from the columns.
    pub fn terminal_rows(&self) -> Vec<TerminalRow> {
        let t = &self.terminals;
        let a = |f| t.u32s(f);
        let m = |f| t.f64s(f);
        let (terminal, router, group, rank, port, job) = (
            a(Field::TerminalId),
            a(Field::RouterId),
            a(Field::GroupId),
            a(Field::RouterRank),
            a(Field::RouterPort),
            a(Field::Workload),
        );
        let (data_size, recv_bytes, busy, sat) =
            (m(Field::DataSize), m(Field::RecvBytes), m(Field::BusyTime), m(Field::SatTime));
        let (packets_finished, packets_sent, avg_latency, avg_hops) = (
            m(Field::PacketsFinished),
            m(Field::PacketsSent),
            m(Field::AvgLatency),
            m(Field::AvgHops),
        );
        (0..t.len())
            .map(|i| TerminalRow {
                terminal: terminal[i],
                router: router[i],
                group: group[i],
                rank: rank[i],
                port: port[i],
                job: job[i],
                data_size: data_size[i],
                recv_bytes: recv_bytes[i],
                busy: busy[i],
                sat: sat[i],
                packets_finished: packets_finished[i],
                packets_sent: packets_sent[i],
                avg_latency: avg_latency[i],
                avg_hops: avg_hops[i],
            })
            .collect()
    }

    /// Restrict to the terminal rows `keep` accepts, keeping the routers
    /// that host one and the links touching such a router (backs
    /// [`DataSetBuilder::brush`], [`DataSetBuilder::drop_idle`] and
    /// [`crate::detail::brush_axis`]).
    pub(crate) fn filter_terminals(&self, keep: impl Fn(usize) -> bool) -> DataSet {
        let terminals: Vec<TerminalRow> = self
            .terminal_rows()
            .into_iter()
            .enumerate()
            .filter(|(i, _)| keep(*i))
            .map(|(_, t)| t)
            .collect();
        let routers_kept: HashSet<u32> = terminals.iter().map(|t| t.router).collect();
        let touches = |l: &LinkRow| {
            routers_kept.contains(&l.src_router) || routers_kept.contains(&l.dst_router)
        };
        let links = |kind| self.link_rows(kind).into_iter().filter(touches).collect();
        let ds = DataSet::from_tables(
            self.jobs.clone(),
            self.router_rows().into_iter().filter(|r| routers_kept.contains(&r.router)).collect(),
            links(EntityKind::LocalLink),
            links(EntityKind::GlobalLink),
            terminals,
        );
        DataSet { time_range: self.time_range, ..ds }
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
        sim.try_run().expect("simulation completes")
    }

    #[test]
    fn dataset_row_counts_match_run() {
        let run = toy_run(false);
        let ds = DataSet::builder(&run).build();
        assert_eq!(ds.len(EntityKind::Terminal), run.terminals.len());
        assert_eq!(ds.len(EntityKind::LocalLink), run.local_links.len());
        assert_eq!(ds.len(EntityKind::GlobalLink), run.global_links.len());
        assert_eq!(ds.len(EntityKind::Router), run.routers.len());
        assert_eq!(ds.len(EntityKind::Terminal), 72);
        assert!(!ds.is_empty());
    }

    #[test]
    fn values_are_consistent_across_entities() {
        let run = toy_run(false);
        let ds = DataSet::builder(&run).build();
        // Router local traffic equals the sum of its local-link rows.
        let links = ds.link_rows(EntityKind::LocalLink);
        let r0_local: f64 = links.iter().filter(|l| l.src_router == 0).map(|l| l.traffic).sum();
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
        assert_eq!(ds.terminal_rows()[0].job, 0);
        assert_eq!(ds.terminal_rows()[40].job, 1); // proxy index
        assert_eq!(ds.job_label(0), "toy");
        assert_eq!(ds.job_label(1), "idle/proxy");
        // Routers hosting job terminals get the job; far routers are proxy.
        assert_eq!(ds.router_rows()[0].job, 0);
        assert_eq!(ds.router_rows()[20].job, 1);
    }

    #[test]
    fn time_range_restriction_reduces_traffic() {
        let run = toy_run(true);
        let full = DataSet::builder(&run).build();
        let early = DataSet::builder(&run).range(SimTime::ZERO, SimTime::micros(1)).build();
        let data = |ds: &DataSet| -> f64 { ds.terminal_rows().iter().map(|t| t.data_size).sum() };
        let (total_full, total_early) = (data(&full), data(&early));
        assert!(total_early <= total_full);
        assert!(total_early > 0.0, "injections happen at t=0");
        // The full range via bins reproduces the whole-run totals.
        let all = DataSet::builder(&run).range(SimTime::ZERO, SimTime::millis(100)).build();
        assert_eq!(data(&all), total_full);
    }

    #[test]
    fn brushing_keeps_touching_links() {
        let run = toy_run(false);
        let brushed = DataSet::builder(&run).brush(|t| t.terminal < 2).build();
        assert_eq!(brushed.len(EntityKind::Terminal), 2);
        let links = brushed.link_rows(EntityKind::LocalLink);
        assert!(links.iter().all(|l| l.src_router == 0 || l.dst_router == 0));
        assert!(!links.is_empty());
        assert_eq!(brushed.len(EntityKind::Router), 1);
    }

    #[test]
    fn idle_filtering_drops_unused_terminals() {
        let run = toy_run(false);
        let ds = DataSet::builder(&run).drop_idle().build();
        assert_eq!(ds.len(EntityKind::Terminal), 16);
        // Brushing and idle filtering compose in one pass.
        let both = DataSet::builder(&run).brush(|t| t.terminal < 4).drop_idle().build();
        assert_eq!(both.len(EntityKind::Terminal), 4);
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
        // Every field the layout lists is readable through value(); derived
        // fields are consistent with their stored parts.
        let run = toy_run(false);
        let ds = DataSet::builder(&run).build();
        for kind in EntityKind::ALL {
            for field in columnar::fields_of(kind) {
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
    fn rows_round_trip_through_the_columns() {
        let run = toy_run(false);
        let ds = DataSet::builder(&run).build();
        let back = DataSet::from_tables(
            ds.jobs.clone(),
            ds.router_rows(),
            ds.link_rows(EntityKind::LocalLink),
            ds.link_rows(EntityKind::GlobalLink),
            ds.terminal_rows(),
        );
        assert_eq!(back, ds);
        assert_eq!(ds.to_dataset(), ds);
    }

    #[test]
    #[should_panic(expected = "have no field")]
    fn wrong_field_panics() {
        let run = toy_run(false);
        let ds = DataSet::builder(&run).build();
        ds.value(EntityKind::Router, 0, Field::AvgLatency);
    }
}
