//! Conservative parallel scheduler.
//!
//! ROSS runs Time Warp (optimistic) synchronization; for this reproduction
//! we implement the conservative, barrier-synchronized equivalent: LPs are
//! partitioned across workers, and execution proceeds in epochs of width
//! `lookahead` — the model-guaranteed minimum cross-LP event delay. Within
//! an epoch `[W, W + lookahead)` no event created in the epoch can affect
//! another partition inside the same epoch, so partitions execute
//! independently and exchange cross-partition events at the barrier.
//!
//! Because every event carries a deterministic total-order key
//! ([`EventKey`]) and each partition processes its
//! events in that order, the per-LP event sequence is *identical* to the
//! sequential engine's — the two engines are interchangeable, which the
//! test suite verifies on several models.

use crate::calendar::{CalendarQueue, EventQueue};
use crate::engine::{audit_lps, report_watchdog, EngineStats};
use crate::error::{SimError, WatchdogConfig};
use crate::event::{Event, EventKey, LpId, EXTERNAL_SRC};
use crate::lp::{Ctx, Lp};
use crate::time::SimTime;
use hrviz_obs::{Collector, Json};
use rayon::prelude::*;

struct Partition<P, L> {
    /// Global ids of the LPs this partition owns (a contiguous block).
    base: u32,
    lps: Vec<L>,
    seqs: Vec<u64>,
    queue: CalendarQueue<P>,
    events_processed: u64,
    /// Events this partition's LPs scheduled (cross-partition included).
    events_scheduled: u64,
    now: SimTime,
}

impl<P, L: Lp<P>> Partition<P, L> {
    fn owns(&self, id: LpId) -> bool {
        let i = id.0;
        i >= self.base && i < self.base + self.lps.len() as u32
    }

    fn local(&self, id: LpId) -> usize {
        (id.0 - self.base) as usize
    }

    /// Process all queued events with `time < end`, in key order.
    /// Cross-partition events are collected into `outbox`.
    ///
    /// `stall_cap` bounds consecutive same-timestamp events: virtual time
    /// strictly advances between windows, so a zero-delay event loop can
    /// only spin *inside* one window, where this cap converts it into a
    /// [`SimError::VirtualTimeStall`].
    fn run_window(
        &mut self,
        end: SimTime,
        lookahead: SimTime,
        out_buf: &mut Vec<Event<P>>,
        outbox: &mut Vec<Event<P>>,
        stall_cap: u64,
    ) -> Result<(), SimError> {
        let mut stalled = 0u64;
        while let Some(ev) = self.queue.pop_if_before(end) {
            if ev.key.time > self.now {
                stalled = 0;
            } else {
                stalled += 1;
                if stalled > stall_cap {
                    return Err(SimError::VirtualTimeStall {
                        now: ev.key.time,
                        events: stalled,
                        limit: stall_cap,
                    });
                }
            }
            self.now = ev.key.time;
            let idx = self.local(ev.key.dst);
            // lint:allow(slice_index, reason="idx = local(dst) for an owned dst; seqs/lps are lockstep arrays")
            let mut ctx = Ctx::new(self.now, ev.key.dst, &mut self.seqs[idx], out_buf, lookahead);
            // lint:allow(slice_index, reason="idx = local(dst) for an owned dst")
            self.lps[idx].on_event(&mut ctx, ev.payload);
            self.events_processed += 1;
            self.events_scheduled += out_buf.len() as u64;
            for new_ev in out_buf.drain(..) {
                if self.owns(new_ev.key.dst) {
                    self.queue.push(new_ev);
                } else {
                    outbox.push(new_ev);
                }
            }
        }
        Ok(())
    }

    fn min_pending(&self) -> Option<SimTime> {
        self.queue.peek_key().map(|k| k.time)
    }
}

/// Conservative parallel engine; drop-in alternative to
/// [`Engine`](crate::engine::Engine) producing identical results.
pub struct ParallelEngine<P, L: Lp<P>> {
    parts: Vec<Partition<P, L>>,
    /// Partition boundaries: LP `i` lives in the partition whose base is the
    /// greatest `bounds[p] <= i`.
    bounds: Vec<u32>,
    lookahead: SimTime,
    ext_seq: u64,
    scheduled: u64,
    now: SimTime,
    initialized: bool,
    collector: Collector,
    /// Per-partition time spent waiting at the epoch barrier (ns), i.e. the
    /// gap between a partition finishing its window and the slowest
    /// partition finishing. Only accumulated when a collector is attached.
    barrier_wait_ns: Vec<u64>,
    watchdog: WatchdogConfig,
}

impl<P: Send, L: Lp<P>> ParallelEngine<P, L> {
    /// Build a parallel engine over `lps` split into `num_partitions`
    /// contiguous blocks. `lookahead` must be greater than zero: it is both
    /// the epoch width and the minimum legal cross-LP delay.
    pub fn new(lps: Vec<L>, lookahead: SimTime, num_partitions: usize) -> Self {
        assert!(lookahead > SimTime::ZERO, "parallel execution requires lookahead > 0");
        assert!(num_partitions > 0);
        let n = lps.len();
        let parts_n = num_partitions.min(n.max(1));
        let mut parts = Vec::with_capacity(parts_n);
        let mut bounds = Vec::with_capacity(parts_n);
        let mut iter = lps.into_iter();
        let mut base = 0u32;
        for p in 0..parts_n {
            // Spread the remainder across the first partitions.
            let size = n / parts_n + usize::from(p < n % parts_n);
            let chunk: Vec<L> = iter.by_ref().take(size).collect();
            bounds.push(base);
            parts.push(Partition {
                base,
                seqs: vec![0; chunk.len()],
                queue: CalendarQueue::new(1),
                events_processed: 0,
                events_scheduled: 0,
                now: SimTime::ZERO,
                lps: chunk,
            });
            base += size as u32;
        }
        ParallelEngine {
            barrier_wait_ns: vec![0; parts.len()],
            parts,
            bounds,
            lookahead,
            ext_seq: 0,
            scheduled: 0,
            now: SimTime::ZERO,
            initialized: false,
            collector: Collector::disabled(),
            watchdog: WatchdogConfig::default(),
        }
    }

    /// Configure the no-progress watchdog used by
    /// [`ParallelEngine::try_run_to_completion`].
    pub fn set_watchdog(&mut self, cfg: WatchdogConfig) {
        self.watchdog = cfg;
    }

    /// Attach a telemetry collector. Enables per-partition barrier-wait
    /// accounting and run-boundary counters.
    pub fn set_collector(&mut self, collector: Collector) {
        self.collector = collector;
    }

    /// The attached telemetry collector (disabled by default).
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    /// Per-partition barrier-wait time in ns (all zeros unless an enabled
    /// collector was attached before the run).
    pub fn barrier_wait_ns(&self) -> &[u64] {
        &self.barrier_wait_ns
    }

    fn part_of(&self, id: LpId) -> usize {
        match self.bounds.binary_search(&id.0) {
            Ok(p) => p,
            Err(p) => p - 1,
        }
    }

    /// Inject an event from outside the simulation.
    pub fn schedule(&mut self, at: SimTime, dst: LpId, payload: P) {
        assert!(at >= self.now, "cannot schedule into the past");
        let key = EventKey { time: at, dst, src: EXTERNAL_SRC, seq: self.ext_seq };
        self.ext_seq += 1;
        self.scheduled += 1;
        let p = self.part_of(dst);
        // lint:allow(slice_index, reason="part_of binary-searches the partition base table, so p < parts.len()")
        self.parts[p].queue.push(Event { key, payload });
    }

    fn init(&mut self) {
        if self.initialized {
            return;
        }
        self.initialized = true;
        let lookahead = self.lookahead;
        // on_init may emit cross-partition events; run it partition-parallel
        // and route afterwards.
        let outboxes: Vec<Vec<Event<P>>> = self
            .parts
            .par_iter_mut()
            .map(|part| {
                let mut out_buf = Vec::new();
                let mut outbox = Vec::new();
                for i in 0..part.lps.len() {
                    let id = LpId(part.base + i as u32);
                    // lint:allow(slice_index, reason="seqs is built in lockstep with lps by add_lp")
                    let seq = &mut part.seqs[i];
                    let mut ctx = Ctx::new(SimTime::ZERO, id, seq, &mut out_buf, lookahead);
                    part.lps[i].on_init(&mut ctx);
                    part.events_scheduled += out_buf.len() as u64;
                    for ev in out_buf.drain(..) {
                        if part.owns(ev.key.dst) {
                            part.queue.push(ev);
                        } else {
                            outbox.push(ev);
                        }
                    }
                }
                outbox
            })
            .collect();
        self.route(outboxes);
    }

    fn route(&mut self, outboxes: Vec<Vec<Event<P>>>) {
        for outbox in outboxes {
            for ev in outbox {
                let p = self.part_of(ev.key.dst);
                // lint:allow(slice_index, reason="part_of binary-searches the partition base table, so p < parts.len()")
                self.parts[p].queue.push(ev);
            }
        }
    }

    /// Run until all queues drain; returns aggregate statistics.
    pub fn run_to_completion(&mut self) -> EngineStats {
        match self.run_core(u64::MAX) {
            Ok(stats) => stats,
            // The stall cap is u64::MAX: the watchdog cannot trip.
            #[expect(
                clippy::unreachable,
                reason = "run_core only errs on a stall, and the cap is u64::MAX; unreachable! documents the invariant"
            )]
            Err(e) => unreachable!("uncapped run reported a stall: {e}"),
        }
    }

    /// Checked variant of [`ParallelEngine::run_to_completion`]: bounds
    /// same-timestamp event bursts per partition window (see
    /// [`ParallelEngine::set_watchdog`]) and, once drained, audits every LP
    /// ([`Lp::audit`]); violations surface as [`SimError`] values instead of
    /// hangs or silent corruption.
    pub fn try_run_to_completion(&mut self) -> Result<EngineStats, SimError> {
        let stats = match self.run_core(self.watchdog.max_stalled_events) {
            Ok(stats) => stats,
            Err(e) => {
                report_watchdog(&self.collector, &e);
                return Err(e);
            }
        };
        audit_lps(self.lps().map(|l| l as &dyn Lp<P>), &self.collector)?;
        Ok(stats)
    }

    fn run_core(&mut self, stall_cap: u64) -> Result<EngineStats, SimError> {
        self.init();
        let lookahead = self.lookahead;
        let timing = self.collector.is_enabled();
        // Per-window, per-partition timeline lanes are Debug-level detail:
        // a long run has thousands of windows, and the default Info level
        // must not pay the per-window span cost.
        let lanes =
            timing && self.collector.level().is_some_and(|l| l >= hrviz_obs::LogLevel::Debug);
        let col = self.collector.clone();
        #[expect(
            clippy::disallowed_methods,
            clippy::disallowed_types,
            reason = "telemetry only: wall time feeds obs perf reporting and never reaches simulation state or event order"
        )]
        let t0 = timing.then(std::time::Instant::now);
        let mut peak_queue_depth = 0u64;
        let mut windows = 0u64;
        // Wall-time lane annotations captured inside a window, recorded
        // after the barrier in partition order (deterministic emission).
        struct WindowLane {
            start_us: u64,
            events: u64,
            vt_ns: u64,
            depth: u64,
        }
        while let Some(window_start) = self.parts.iter().filter_map(|p| p.min_pending()).min() {
            // Queue depth is sampled at epoch boundaries (the engine never
            // holds a global queue, so this is the natural sampling point).
            let depth: u64 = self.parts.iter().map(|p| p.queue.len() as u64).sum();
            peak_queue_depth = peak_queue_depth.max(depth);
            let window_end = window_start.checked_add(lookahead).unwrap_or(SimTime::MAX);
            // (outbox, wall ns, per-window watchdog verdict, lane) per
            // partition.
            type WindowResult<P> = (Vec<Event<P>>, u64, Result<(), SimError>, Option<WindowLane>);
            let results: Vec<WindowResult<P>> = self
                .parts
                .par_iter_mut()
                .map(|part| {
                    #[expect(
                        clippy::disallowed_methods,
                        clippy::disallowed_types,
                        reason = "telemetry only: wall time feeds obs perf reporting and never reaches simulation state or event order"
                    )]
                    let w0 = timing.then(std::time::Instant::now);
                    let start_us = if lanes { col.now_us().unwrap_or(0) } else { 0 };
                    let events_before = part.events_processed;
                    let mut out_buf = Vec::with_capacity(8);
                    let mut outbox = Vec::new();
                    let res = part.run_window(
                        window_end,
                        lookahead,
                        &mut out_buf,
                        &mut outbox,
                        stall_cap,
                    );
                    let lane = lanes.then(|| WindowLane {
                        start_us,
                        events: part.events_processed - events_before,
                        vt_ns: part.now.as_nanos(),
                        depth: part.queue.len() as u64,
                    });
                    (outbox, w0.map_or(0, |w| w.elapsed().as_nanos() as u64), res, lane)
                })
                .collect();
            // First tripped partition (in partition order) wins: the report
            // is deterministic even when several stall simultaneously.
            if let Some(e) = results.iter().find_map(|(_, _, r, _)| r.as_ref().err()) {
                return Err(e.clone());
            }
            if timing {
                windows += 1;
                let slowest = results.iter().map(|(_, ns, _, _)| *ns).max().unwrap_or(0);
                for (wait, (_, ns, _, _)) in self.barrier_wait_ns.iter_mut().zip(&results) {
                    *wait += slowest - ns;
                }
                for (p, (_, ns, _, lane)) in results.iter().enumerate() {
                    let Some(lane) = lane else { continue };
                    col.record_span(
                        &format!("pdes/p{p}"),
                        "pdes/window",
                        lane.start_us,
                        ns / 1_000,
                        &[
                            ("events", Json::U64(lane.events)),
                            ("vt_ns", Json::U64(lane.vt_ns)),
                            ("queue_depth", Json::U64(lane.depth)),
                            ("barrier_wait_ns", Json::U64(slowest - ns)),
                        ],
                    );
                }
            }
            self.now = self.now.max(window_end);
            self.route(results.into_iter().map(|(outbox, _, _, _)| outbox).collect());
        }
        let end = self.parts.iter().map(|p| p.now).max().unwrap_or(SimTime::ZERO);
        self.now = end;
        self.parts.par_iter_mut().for_each(|p| {
            for lp in &mut p.lps {
                lp.on_finish(end);
            }
        });
        let stats = EngineStats {
            events_processed: self.parts.iter().map(|p| p.events_processed).sum(),
            events_scheduled: self.scheduled
                + self.parts.iter().map(|p| p.events_scheduled).sum::<u64>(),
            end_time: end,
            peak_queue_depth,
        };
        if let Some(t0) = t0 {
            self.report_run(stats, windows, t0.elapsed());
        }
        Ok(stats)
    }

    /// Report run-boundary telemetry (counters + one trace event).
    fn report_run(&self, stats: EngineStats, windows: u64, wall: std::time::Duration) {
        let c = &self.collector;
        c.counter_add("pdes/events_processed", stats.events_processed);
        c.counter_add("pdes/events_scheduled", stats.events_scheduled);
        c.counter_add("pdes/windows", windows);
        c.gauge_max("pdes/peak_queue_depth", stats.peak_queue_depth as f64);
        // The per-partition breakdown rides on the `parallel_run` trace
        // event below; the counter carries the statically named sum so the
        // manifest audit can see it.
        c.counter_add("pdes/barrier_wait_ns", self.barrier_wait_ns.iter().sum());
        let secs = wall.as_secs_f64();
        let rate = if secs > 0.0 { stats.events_processed as f64 / secs } else { 0.0 };
        if rate > 0.0 {
            c.gauge_set("pdes/events_per_sec", rate);
        }
        c.event(
            "parallel_run",
            &[
                ("partitions", Json::U64(self.parts.len() as u64)),
                ("windows", Json::U64(windows)),
                ("events_processed", Json::U64(stats.events_processed)),
                ("events_per_sec", Json::F64(rate)),
                ("peak_queue_depth", Json::U64(stats.peak_queue_depth)),
                (
                    "barrier_wait_ns",
                    Json::Arr(self.barrier_wait_ns.iter().map(|&w| Json::U64(w)).collect()),
                ),
                ("wall_us", Json::F64(secs * 1e6)),
            ],
        );
    }

    /// Immutable access to an LP by global id.
    pub fn lp(&self, id: LpId) -> &L {
        let p = self.part_of(id);
        // lint:allow(slice_index, reason="part_of bounds p; local(id) is in range for ids minted by add_lp, and a stale id is a model bug the panic surfaces")
        &self.parts[p].lps[self.parts[p].local(id)]
    }

    /// Iterate over all LPs in global id order.
    pub fn lps(&self) -> impl Iterator<Item = &L> {
        self.parts.iter().flat_map(|p| p.lps.iter())
    }

    /// Consume the engine, returning the LPs in global id order.
    pub fn into_lps(self) -> Vec<L> {
        self.parts.into_iter().flat_map(|p| p.lps).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;

    /// A stress model: each LP, upon receiving a counter, mixes it into its
    /// state hash and forwards two messages to pseudo-random LPs with
    /// delays >= lookahead, until the hop budget runs out.
    #[derive(Clone)]
    struct HashLp {
        state: u64,
        n: u32,
    }

    #[derive(Clone, Debug)]
    struct Msg {
        hops_left: u32,
        value: u64,
    }

    fn mix(a: u64, b: u64) -> u64 {
        let mut x = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x
    }

    impl Lp<Msg> for HashLp {
        fn on_event(&mut self, ctx: &mut Ctx<'_, Msg>, m: Msg) {
            self.state = mix(self.state, m.value ^ ctx.now().as_nanos());
            if m.hops_left > 0 {
                for k in 0..2u64 {
                    let dst = LpId((mix(self.state, k) % self.n as u64) as u32);
                    let delay = SimTime(10 + (mix(m.value, k) % 50));
                    ctx.send(
                        dst,
                        delay,
                        Msg { hops_left: m.hops_left - 1, value: mix(m.value, k) },
                    );
                }
            }
        }
    }

    fn run_seq(n: u32, seeds: u32, hops: u32) -> Vec<u64> {
        let lps = (0..n).map(|i| HashLp { state: i as u64, n }).collect();
        let mut eng = Engine::new(lps, SimTime(10));
        for s in 0..seeds {
            eng.schedule(SimTime(s as u64), LpId(s % n), Msg { hops_left: hops, value: s as u64 });
        }
        eng.run_to_completion();
        eng.lps().map(|l| l.state).collect()
    }

    fn run_par(n: u32, seeds: u32, hops: u32, parts: usize) -> Vec<u64> {
        let lps = (0..n).map(|i| HashLp { state: i as u64, n }).collect();
        let mut eng = ParallelEngine::new(lps, SimTime(10), parts);
        for s in 0..seeds {
            eng.schedule(SimTime(s as u64), LpId(s % n), Msg { hops_left: hops, value: s as u64 });
        }
        eng.run_to_completion();
        eng.lps().map(|l| l.state).collect()
    }

    #[test]
    fn parallel_matches_sequential_small() {
        assert_eq!(run_seq(7, 3, 6), run_par(7, 3, 6, 3));
    }

    #[test]
    fn parallel_matches_sequential_larger() {
        assert_eq!(run_seq(64, 16, 10), run_par(64, 16, 10, 8));
    }

    #[test]
    fn parallel_matches_for_every_partition_count() {
        let reference = run_seq(13, 5, 8);
        for parts in 1..=13 {
            assert_eq!(reference, run_par(13, 5, 8, parts), "parts={parts}");
        }
    }

    #[test]
    fn more_partitions_than_lps_is_clamped() {
        assert_eq!(run_seq(3, 2, 4), run_par(3, 2, 4, 64));
    }

    #[test]
    fn stats_event_counts_match_sequential() {
        let n = 16;
        let lps: Vec<HashLp> = (0..n).map(|i| HashLp { state: i as u64, n }).collect();
        let mut seq = Engine::new(lps.clone(), SimTime(10));
        seq.schedule(SimTime::ZERO, LpId(0), Msg { hops_left: 8, value: 1 });
        seq.run_to_completion();

        let mut par = ParallelEngine::new(lps, SimTime(10), 4);
        par.schedule(SimTime::ZERO, LpId(0), Msg { hops_left: 8, value: 1 });
        let pstats = par.run_to_completion();
        assert_eq!(pstats.events_processed, seq.stats().events_processed);
        assert_eq!(pstats.end_time, seq.stats().end_time);
    }

    #[test]
    fn collector_counts_match_sequential_engine() {
        let n = 16;
        let lps: Vec<HashLp> = (0..n).map(|i| HashLp { state: i as u64, n }).collect();
        let cs = hrviz_obs::Collector::enabled();
        let mut seq = Engine::new(lps.clone(), SimTime(10));
        seq.set_collector(cs.clone());
        seq.schedule(SimTime::ZERO, LpId(0), Msg { hops_left: 9, value: 3 });
        seq.run_to_completion();

        let cp = hrviz_obs::Collector::enabled();
        let mut par = ParallelEngine::new(lps, SimTime(10), 4);
        par.set_collector(cp.clone());
        par.schedule(SimTime::ZERO, LpId(0), Msg { hops_left: 9, value: 3 });
        par.run_to_completion();

        assert_eq!(
            cs.counter("pdes/events_processed"),
            cp.counter("pdes/events_processed"),
            "sequential and parallel runs must report identical event counters"
        );
        assert_eq!(cs.counter("pdes/events_scheduled"), cp.counter("pdes/events_scheduled"));
        assert!(cp.counter("pdes/windows") > 0);
    }

    #[test]
    fn barrier_wait_is_tracked_per_partition() {
        let n = 8;
        let lps: Vec<HashLp> = (0..n).map(|i| HashLp { state: i as u64, n }).collect();
        let c = hrviz_obs::Collector::enabled();
        let mut par = ParallelEngine::new(lps, SimTime(10), 4);
        par.set_collector(c.clone());
        par.schedule(SimTime::ZERO, LpId(0), Msg { hops_left: 10, value: 1 });
        par.run_to_completion();
        assert_eq!(par.barrier_wait_ns().len(), 4);
        // Every window has exactly one slowest partition with zero wait, so
        // at least one partition must have accumulated non-zero wait (the
        // model is unbalanced enough that not all partitions tie).
        let waits = par.barrier_wait_ns();
        assert!(waits.iter().any(|&w| w > 0), "waits: {waits:?}");
        // The counter carries the sum under the manifest name; the trace
        // event carries the per-partition breakdown.
        assert_eq!(c.counter("pdes/barrier_wait_ns"), waits.iter().sum::<u64>());
        let events = c.drain_events();
        assert!(events.iter().any(|e| e.contains("\"kind\":\"parallel_run\"")));
    }

    #[test]
    fn window_lanes_recorded_at_debug_level_only() {
        let n = 8;
        let lps: Vec<HashLp> = (0..n).map(|i| HashLp { state: i as u64, n }).collect();

        // Default (Info) level: no per-window lane spans.
        let quiet = hrviz_obs::Collector::enabled();
        let mut par = ParallelEngine::new(lps.clone(), SimTime(10), 4);
        par.set_collector(quiet.clone());
        par.schedule(SimTime::ZERO, LpId(0), Msg { hops_left: 8, value: 1 });
        par.run_to_completion();
        assert!(
            quiet.recent_spans().iter().all(|r| r.label != "pdes/window"),
            "Info level must not pay per-window span costs"
        );

        // Debug level: one lane per partition, annotated with virtual-time
        // progress, queue depth, and barrier wait.
        let c = hrviz_obs::Collector::enabled();
        c.set_level(hrviz_obs::LogLevel::Debug);
        let mut par = ParallelEngine::new(lps, SimTime(10), 4);
        par.set_collector(c.clone());
        par.schedule(SimTime::ZERO, LpId(0), Msg { hops_left: 8, value: 1 });
        par.run_to_completion();
        let recs = c.recent_spans();
        let windows: Vec<_> = recs.iter().filter(|r| r.label == "pdes/window").collect();
        assert!(!windows.is_empty(), "Debug level records window lanes");
        for p in 0..4 {
            let lane = format!("pdes/p{p}");
            assert!(
                windows.iter().any(|r| r.lane.as_deref() == Some(lane.as_str())),
                "partition {p} has a lane"
            );
        }
        let annotated = windows.iter().all(|r| {
            ["events", "vt_ns", "queue_depth", "barrier_wait_ns"]
                .iter()
                .all(|k| r.args.iter().any(|(key, _)| key == k))
        });
        assert!(annotated, "window spans carry vt/queue/barrier annotations");
    }

    #[test]
    fn without_collector_no_barrier_accounting() {
        let n = 8;
        let lps: Vec<HashLp> = (0..n).map(|i| HashLp { state: i as u64, n }).collect();
        let mut par = ParallelEngine::new(lps, SimTime(10), 4);
        par.schedule(SimTime::ZERO, LpId(0), Msg { hops_left: 6, value: 1 });
        par.run_to_completion();
        assert!(par.barrier_wait_ns().iter().all(|&w| w == 0));
    }

    #[test]
    fn watchdog_converts_zero_delay_loop_into_error() {
        struct SpinLp;
        impl Lp<()> for SpinLp {
            fn on_event(&mut self, ctx: &mut Ctx<'_, ()>, _: ()) {
                ctx.send_self(SimTime::ZERO, ());
            }
        }
        let mut eng = ParallelEngine::new(vec![SpinLp, SpinLp], SimTime(10), 2);
        eng.set_watchdog(WatchdogConfig { max_stalled_events: 50 });
        eng.schedule(SimTime::ZERO, LpId(0), ());
        let err = eng.try_run_to_completion().unwrap_err();
        assert!(matches!(err, SimError::VirtualTimeStall { limit: 50, .. }), "{err:?}");
    }

    #[test]
    fn try_run_matches_unchecked_for_healthy_model() {
        let reference = run_seq(13, 5, 8);
        let lps = (0..13u32).map(|i| HashLp { state: i as u64, n: 13 }).collect();
        let mut eng = ParallelEngine::new(lps, SimTime(10), 4);
        for s in 0..5u32 {
            eng.schedule(SimTime(s as u64), LpId(s % 13), Msg { hops_left: 8, value: s as u64 });
        }
        let stats = eng.try_run_to_completion().expect("healthy model");
        assert!(stats.events_processed > 0);
        assert_eq!(reference, eng.lps().map(|l| l.state).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_audit_failure_surfaces_as_invariant_error() {
        struct LeakyLp;
        impl Lp<()> for LeakyLp {
            fn on_event(&mut self, _: &mut Ctx<'_, ()>, _: ()) {}
            fn audit(&self) -> Result<(), String> {
                Err("leak".into())
            }
        }
        let mut eng = ParallelEngine::new(vec![LeakyLp, LeakyLp, LeakyLp], SimTime(10), 2);
        eng.schedule(SimTime::ZERO, LpId(1), ());
        match eng.try_run_to_completion() {
            Err(SimError::Invariant { total, .. }) => assert_eq!(total, 3),
            other => panic!("expected invariant error, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "lookahead > 0")]
    fn zero_lookahead_rejected() {
        let lps: Vec<HashLp> = vec![HashLp { state: 0, n: 1 }];
        let _ = ParallelEngine::new(lps, SimTime::ZERO, 2);
    }
}
